#include "timing/sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "benchgen/benchmarks.hpp"
#include "power/power.hpp"

namespace odcfp {
namespace {

TEST(Sta, HandComputedChain) {
  // a -> INV -> INV -> f. Loads: inner INV drives one INV pin
  // (cap 1.0 + wire 0.35); outer drives the PO (2.0 + nothing).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g1 = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId g2 = nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output});
  nl.add_output(nl.gate(g2).output, "f");

  const StaticTimingAnalyzer sta;
  const Cell& inv = nl.library().cell(nl.library().find("INV"));
  const double d1 = inv.intrinsic_delay +
                    inv.load_coeff * (inv.input_cap + 0.35);
  const double d2 = inv.intrinsic_delay + inv.load_coeff * 2.0;
  EXPECT_NEAR(sta.gate_delay(nl, g1), d1, 1e-12);
  EXPECT_NEAR(sta.gate_delay(nl, g2), d2, 1e-12);
  EXPECT_NEAR(sta.critical_delay(nl), d1 + d2, 1e-12);
}

TEST(Sta, ArrivalTakesMaxOverFanins) {
  // f = AND(inv(a), b): the path through the inverter dominates.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId gi = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId ga = nl.add_gate_kind(CellKind::kAnd,
                                     {nl.gate(gi).output, b});
  nl.add_output(nl.gate(ga).output, "f");
  const StaticTimingAnalyzer sta;
  const TimingReport rep = sta.analyze(nl);
  EXPECT_NEAR(rep.arrival[nl.gate(ga).output],
              sta.gate_delay(nl, gi) + sta.gate_delay(nl, ga), 1e-12);
  // Critical path = INV then AND.
  ASSERT_EQ(rep.critical_path.size(), 2u);
  EXPECT_EQ(rep.critical_path[0], gi);
  EXPECT_EQ(rep.critical_path[1], ga);
}

TEST(Sta, SlackPropertiesOnBenchmarks) {
  for (const char* name : {"c432", "c880", "c1908"}) {
    const Netlist nl = make_benchmark(name);
    const StaticTimingAnalyzer sta;
    const TimingReport rep = sta.analyze(nl);
    EXPECT_GT(rep.critical_delay, 0) << name;
    // Critical-path gates have (near-)zero slack; all slacks >= 0;
    // required >= arrival everywhere.
    double min_slack = 1e100;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).is_dead()) continue;
      EXPECT_GE(rep.gate_slack[g], -1e-9) << name;
      min_slack = std::min(min_slack, rep.gate_slack[g]);
    }
    EXPECT_NEAR(min_slack, 0.0, 1e-9) << name;
    for (GateId g : rep.critical_path) {
      EXPECT_NEAR(rep.gate_slack[g], 0.0, 1e-9) << name;
    }
    // The critical path is a connected chain ending at a PO driver.
    for (std::size_t i = 0; i + 1 < rep.critical_path.size(); ++i) {
      const NetId out = nl.gate(rep.critical_path[i]).output;
      bool feeds_next = false;
      for (NetId in : nl.gate(rep.critical_path[i + 1]).fanins) {
        if (in == out) feeds_next = true;
      }
      EXPECT_TRUE(feeds_next) << name << " step " << i;
    }
    // analyze() and critical_delay() agree.
    EXPECT_NEAR(rep.critical_delay, sta.critical_delay(nl), 1e-9);
  }
}

TEST(Sta, AddingLoadIncreasesDelay) {
  // Tapping a net on the critical path increases the circuit delay.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const GateId g1 = nl.add_gate_kind(CellKind::kInv, {a});
  const GateId g2 = nl.add_gate_kind(CellKind::kInv, {nl.gate(g1).output});
  nl.add_output(nl.gate(g2).output, "f");
  const StaticTimingAnalyzer sta;
  const double before = sta.critical_delay(nl);
  // Add a side load on the inner net.
  const GateId side =
      nl.add_gate_kind(CellKind::kBuf, {nl.gate(g1).output});
  nl.add_output(nl.gate(side).output, "g");
  EXPECT_GT(sta.critical_delay(nl), before);
}

TEST(Sta, WideningAGateIncreasesItsDelay) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const GateId g = nl.add_gate_kind(CellKind::kAnd, {a, b});
  nl.add_output(nl.gate(g).output, "f");
  const StaticTimingAnalyzer sta;
  const double before = sta.critical_delay(nl);
  nl.rewire_gate(g, nl.library().find_kind(CellKind::kAnd, 3), {a, b, c});
  EXPECT_GT(sta.critical_delay(nl), before);
}

TEST(Sta, CountedPortLoadMatchesPerPortScanExactly) {
  // n = AND(a, b) feeds two gate pins and carries two output ports. The
  // bulk passes count ports once per pass; every load, delay, slack and
  // power value must still round exactly like the per-port scan: fanout
  // pins first, then po_load once per port.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const GateId g = nl.add_gate_kind(CellKind::kAnd, {a, b});
  const NetId n = nl.gate(g).output;
  const GateId inv = nl.add_gate_kind(CellKind::kInv, {n});
  const GateId nand = nl.add_gate_kind(CellKind::kNand, {n, a});
  nl.add_output(n, "p");
  nl.add_output(nl.gate(inv).output, "q");
  nl.add_output(n, "r");
  nl.add_output(nl.gate(nand).output, "s");

  TimingOptions topt;
  topt.wire_cap_per_fanout = 0.1;
  topt.po_load = 0.3;
  const StaticTimingAnalyzer sta(topt);
  const std::vector<std::uint32_t> ports =
      StaticTimingAnalyzer::port_counts(nl);
  ASSERT_EQ(ports[n], 2u);
  EXPECT_EQ(ports[nl.gate(inv).output], 1u);
  EXPECT_EQ(ports[a], 0u);

  double load = 0;
  for (const FanoutRef& ref : nl.net(n).fanouts) {
    load += nl.cell_of(ref.gate).input_cap;
    load += topt.wire_cap_per_fanout;
  }
  load += topt.po_load;
  load += topt.po_load;
  EXPECT_EQ(sta.net_load(nl, n), load);
  EXPECT_EQ(sta.net_load(nl, n, ports[n]), load);
  const Cell& and2 = nl.cell_of(g);
  EXPECT_EQ(sta.gate_delay(nl, g),
            and2.intrinsic_delay + and2.load_coeff * load);
  EXPECT_EQ(sta.gate_delay(nl, g, ports[n]), sta.gate_delay(nl, g));

  // Reference timing from the per-port gate_delay alone.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<GateId> order = nl.topo_order();
  std::vector<double> arrival(nl.num_nets(), topt.pi_arrival);
  for (GateId x : order) {
    double at = topt.pi_arrival;
    for (NetId in : nl.gate(x).fanins) at = std::max(at, arrival[in]);
    arrival[nl.gate(x).output] = at + sta.gate_delay(nl, x);
  }
  double critical = 0;
  for (const OutputPort& p : nl.outputs()) {
    critical = std::max(critical, arrival[p.net]);
  }
  std::vector<double> required(nl.num_nets(), inf);
  for (const OutputPort& p : nl.outputs()) required[p.net] = critical;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& gt = nl.gate(*it);
    const double in_required =
        required[gt.output] - sta.gate_delay(nl, *it);
    for (NetId in : gt.fanins) {
      required[in] = std::min(required[in], in_required);
    }
  }
  const TimingReport rep = sta.analyze(nl);
  EXPECT_EQ(rep.critical_delay, critical);
  EXPECT_EQ(sta.critical_delay(nl), critical);
  for (GateId x : order) {
    const NetId out = nl.gate(x).output;
    EXPECT_EQ(rep.arrival[out], arrival[out]) << x;
    EXPECT_EQ(rep.gate_slack[x], required[out] - arrival[out]) << x;
  }

  // Power charges each net the same load.
  PowerOptions popt;
  popt.wire_cap_per_fanout = topt.wire_cap_per_fanout;
  popt.po_load = topt.po_load;
  const PowerReport prep = PowerAnalyzer(popt).analyze(nl);
  double power = 0;
  for (GateId x = 0; x < nl.num_gates(); ++x) {
    const NetId out = nl.gate(x).output;
    const double alpha = prep.activity[out];
    power += alpha * popt.load_weight * sta.net_load(nl, out);
    power += alpha * nl.cell_of(x).switch_energy;
  }
  for (NetId pi : nl.inputs()) {
    power += prep.activity[pi] * popt.load_weight * sta.net_load(nl, pi);
  }
  EXPECT_EQ(prep.dynamic_power, popt.scale * power);
}

}  // namespace
}  // namespace odcfp
