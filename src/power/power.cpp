#include "power/power.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace odcfp {

namespace {

/// P(out == 1) for a cell given independent pin probabilities.
double output_probability(const TruthTable& tt,
                          const std::vector<double>& pin_prob) {
  double p = 0;
  for (unsigned row = 0; row < tt.num_rows(); ++row) {
    if (!tt.eval(row)) continue;
    double term = 1;
    for (int i = 0; i < tt.num_inputs(); ++i) {
      const double pi = pin_prob[static_cast<std::size_t>(i)];
      term *= ((row >> i) & 1) ? pi : (1 - pi);
    }
    p += term;
  }
  return p;
}

}  // namespace

double PowerAnalyzer::accumulate(const Netlist& nl, PowerReport& rep) const {
  rep.activity.assign(nl.num_nets(), 0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const double p = rep.probability[n];
    rep.activity[n] = 2 * p * (1 - p);
  }
  // Net loads under the same model as the STA.
  TimingOptions topt;
  topt.wire_cap_per_fanout = options_.wire_cap_per_fanout;
  topt.po_load = options_.po_load;
  const StaticTimingAnalyzer sta(topt);
  const std::vector<std::uint32_t> ports =
      StaticTimingAnalyzer::port_counts(nl);

  double power = 0;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (nl.gate(g).is_dead()) continue;
    const NetId out = nl.gate(g).output;
    const double alpha = rep.activity[out];
    power += alpha * options_.load_weight * sta.net_load(nl, out, ports[out]);
    power += alpha * nl.cell_of(g).switch_energy;
  }
  // PI nets also toggle and drive loads.
  for (NetId pi : nl.inputs()) {
    power += rep.activity[pi] * options_.load_weight *
             sta.net_load(nl, pi, ports[pi]);
  }
  return options_.scale * power;
}

PowerReport PowerAnalyzer::analyze(const Netlist& nl) const {
  PowerReport rep;
  rep.probability.assign(nl.num_nets(), 0);
  for (NetId pi : nl.inputs()) {
    rep.probability[pi] = options_.input_one_probability;
  }
  std::vector<double> pins;
  for (GateId g : nl.topo_order_fast()) {
    const Gate& gt = nl.gate(g);
    pins.clear();
    for (NetId in : gt.fanins) pins.push_back(rep.probability[in]);
    rep.probability[gt.output] =
        output_probability(nl.library().cell(gt.cell).function, pins);
  }
  rep.dynamic_power = accumulate(nl, rep);
  return rep;
}

PowerReport PowerAnalyzer::analyze_by_simulation(const Netlist& nl,
                                                 std::size_t num_words,
                                                 std::uint64_t seed) const {
  ODCFP_CHECK(num_words > 0);
  Rng rng(seed);
  Simulator sim(nl);
  std::vector<std::uint64_t> ones(nl.num_nets(), 0);
  for (std::size_t w = 0; w < num_words; ++w) {
    sim.randomize_inputs(rng);
    sim.run();
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      ones[n] += static_cast<std::uint64_t>(
          __builtin_popcountll(sim.value(n)));
    }
  }
  PowerReport rep;
  rep.probability.assign(nl.num_nets(), 0);
  const double total = static_cast<double>(num_words) * 64.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    rep.probability[n] = static_cast<double>(ones[n]) / total;
  }
  rep.dynamic_power = accumulate(nl, rep);
  return rep;
}

}  // namespace odcfp
