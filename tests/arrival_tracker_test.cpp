#include <gtest/gtest.h>

#include "benchgen/benchmarks.hpp"
#include "common/rng.hpp"
#include "fingerprint/embedder.hpp"
#include "timing/sta.hpp"

namespace odcfp {
namespace {

/// Seeds mirroring the heuristics' rule: gates + fanin drivers + sinks.
std::vector<GateId> seeds_of(const Netlist& nl,
                             const std::vector<GateId>& gates) {
  std::vector<GateId> seeds;
  for (GateId g : gates) {
    if (g >= nl.num_gates() || nl.gate(g).is_dead()) continue;
    seeds.push_back(g);
    for (NetId in : nl.gate(g).fanins) {
      const GateId d = nl.net(in).driver;
      if (d != kInvalidGate) seeds.push_back(d);
    }
    for (const FanoutRef& ref : nl.net(nl.gate(g).output).fanouts) {
      seeds.push_back(ref.gate);
    }
  }
  return seeds;
}

TEST(ArrivalTracker, MatchesFullStaInitially) {
  const Netlist nl = make_benchmark("c880");
  const StaticTimingAnalyzer sta;
  const ArrivalTracker tracker(nl, sta);
  EXPECT_DOUBLE_EQ(tracker.critical_delay(), sta.critical_delay(nl));
  const TimingReport rep = sta.analyze(nl);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).driver == kInvalidGate && !nl.net(n).is_pi) continue;
    EXPECT_DOUBLE_EQ(tracker.arrival(n), rep.arrival[n]) << n;
  }
}

TEST(ArrivalTracker, TracksFingerprintApplyRemoveExactly) {
  Netlist nl = make_benchmark("c432");
  const StaticTimingAnalyzer sta;
  const auto locs = find_locations(nl);
  FingerprintEmbedder e(nl, locs);
  ArrivalTracker tracker(nl, sta);

  Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    const std::size_t f =
        static_cast<std::size_t>(rng.next_below(e.num_sites()));
    const auto ref = e.site_ref(f);
    if (e.applied_option(ref.loc, ref.site) == 0) {
      const int opt = 1 + static_cast<int>(rng.next_below(
          locs[ref.loc].sites[ref.site].options.size()));
      e.apply(ref.loc, ref.site, opt);
      tracker.update(seeds_of(nl, e.touched_gates(ref.loc, ref.site)));
    } else {
      const auto pre = seeds_of(nl, e.touched_gates(ref.loc, ref.site));
      e.remove(ref.loc, ref.site);
      tracker.update(pre);
    }
    ASSERT_DOUBLE_EQ(tracker.critical_delay(), sta.critical_delay(nl))
        << "step " << step;
  }
}

TEST(ArrivalTracker, CachedDelaysStayExactWhereOutputPortsMove) {
  // A random walk on des (64 outputs) that toggles fingerprint sites and
  // buffers output ports. No des site drives an output port itself, so
  // the walk moves ports directly: a buffer inserted on a port's net
  // takes over the net's ports (and sometimes its fanouts too), and its
  // removal hands them back. The cached delays of both drivers must
  // follow every move.
  Netlist nl = make_benchmark("des");
  const StaticTimingAnalyzer sta;
  const auto locs = find_locations(nl);
  FingerprintEmbedder e(nl, locs);
  ArrivalTracker tracker(nl, sta);

  Rng rng(29);
  std::vector<GateId> buffers;  // inserted, undone last-in first-out
  int port_moves = 0;
  for (int step = 0; step < 300; ++step) {
    const std::vector<OutputPort> before = nl.outputs();
    if (rng.next_below(3) == 0) {
      if (!buffers.empty() && rng.next_below(2) == 0) {
        const GateId h = buffers.back();
        buffers.pop_back();
        const auto pre = seeds_of(nl, {h});
        nl.transfer_fanouts(nl.gate(h).output, nl.gate(h).fanins[0]);
        nl.remove_gate(h);
        tracker.update(pre);
      } else {
        const NetId n = nl.outputs()[static_cast<std::size_t>(
            rng.next_below(nl.outputs().size()))].net;
        const GateId h = nl.add_gate_kind(CellKind::kBuf, {n});
        if (rng.next_below(2) == 0) {
          nl.transfer_fanouts_except(n, nl.gate(h).output, h);
        } else {
          nl.repoint_output_ports(n, nl.gate(h).output);
        }
        buffers.push_back(h);
        tracker.update(seeds_of(nl, {h}));
      }
    } else {
      const std::size_t f =
          static_cast<std::size_t>(rng.next_below(e.num_sites()));
      const auto ref = e.site_ref(f);
      if (e.applied_option(ref.loc, ref.site) == 0) {
        const int opt = 1 + static_cast<int>(rng.next_below(
            locs[ref.loc].sites[ref.site].options.size()));
        e.apply(ref.loc, ref.site, opt);
        tracker.update(seeds_of(nl, e.touched_gates(ref.loc, ref.site)));
      } else {
        const auto pre = seeds_of(nl, e.touched_gates(ref.loc, ref.site));
        e.remove(ref.loc, ref.site);
        tracker.update(pre);
      }
    }
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (before[i].net != nl.outputs()[i].net) ++port_moves;
    }
    ASSERT_EQ(tracker.critical_delay(), sta.critical_delay(nl))
        << "step " << step;
    const TimingReport rep = sta.analyze(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (nl.net(n).driver == kInvalidGate && !nl.net(n).is_pi) continue;
      ASSERT_EQ(tracker.arrival(n), rep.arrival[n])
          << "step " << step << " net " << n;
    }
    ASSERT_EQ(tracker.gate_slacks(), rep.gate_slack) << "step " << step;
  }
  EXPECT_GT(port_moves, 50);
  EXPECT_GT(tracker.recomputes(), 0u);
}

TEST(ArrivalTracker, FullRecomputeResyncsAfterUntrackedEdits) {
  Netlist nl = make_benchmark("c17");
  const StaticTimingAnalyzer sta;
  ArrivalTracker tracker(nl, sta);
  // Untracked edit...
  const NetId a = nl.inputs()[0];
  const GateId g = nl.add_gate_kind(CellKind::kInv, {a});
  nl.add_output(nl.gate(g).output, "extra");
  // ...then resync.
  tracker.full_recompute();
  EXPECT_DOUBLE_EQ(tracker.critical_delay(), sta.critical_delay(nl));
}

}  // namespace
}  // namespace odcfp
