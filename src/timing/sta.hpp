// Static timing analysis with a load-dependent linear delay model.
//
// This supplies the paper's "delay" metric (ABC's role in the original
// flow) and the slack information used by the proactive fingerprinting
// heuristic (§III.D: "The delay can be estimated by determining the slack
// on each gate and updating the information every time a modification is
// made").
//
// Model: delay(gate) = intrinsic + load_coeff * load(output net), where
// load = sum of sink input pin capacitances + wire_cap_per_fanout per sink
// + po_load for output ports. Arrival times propagate in topological
// order; required times propagate backwards from the latest output.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace odcfp {

struct TimingOptions {
  double wire_cap_per_fanout = 0.35;  ///< Net wiring load per sink pin.
  double po_load = 2.0;               ///< Load presented by an output pad.
  double pi_arrival = 0.0;            ///< Arrival time at primary inputs.
};

struct TimingReport {
  double critical_delay = 0.0;
  std::vector<double> arrival;     ///< Indexed by NetId.
  std::vector<double> required;    ///< Indexed by NetId.
  std::vector<double> gate_slack;  ///< Indexed by GateId (dead gates: +inf).
  std::vector<GateId> critical_path;  ///< PO-side last, PI-side first.
};

class StaticTimingAnalyzer {
 public:
  explicit StaticTimingAnalyzer(TimingOptions options = {})
      : options_(options) {}

  const TimingOptions& options() const { return options_; }

  /// Capacitive load on a net under the model above. Scans every output
  /// port to count the net's; passes over many nets count once with
  /// port_counts() and use the overload below.
  double net_load(const Netlist& nl, NetId net) const;

  /// The load of a net that carries `ports` output ports. Sums fanout
  /// pins first, then po_load once per port, so it equals the scanning
  /// form bit for bit.
  double net_load(const Netlist& nl, NetId net, std::uint32_t ports) const;

  /// Delay through `gate` for its current output load.
  double gate_delay(const Netlist& nl, GateId gate) const;

  /// Delay through `gate` whose output net carries `ports` output ports.
  double gate_delay(const Netlist& nl, GateId gate,
                    std::uint32_t ports) const;

  /// Number of output ports on each net, indexed by NetId.
  static std::vector<std::uint32_t> port_counts(const Netlist& nl);

  /// Full analysis (arrival + required + slack + one critical path).
  TimingReport analyze(const Netlist& nl) const;

  /// Just the critical delay (cheaper: no required times / path).
  double critical_delay(const Netlist& nl) const;

 private:
  TimingOptions options_;
};

/// Incremental arrival-time maintenance under local netlist edits.
///
/// The paper's §III.D: "The delay can be estimated by determining the
/// slack on each gate and updating the information every time a
/// modification is made, but this can be time consuming". This tracker
/// makes it cheap: after a local change, call update() with the affected
/// gates; arrivals are recomputed event-driven through the fanout cone
/// (stopping as soon as values stop changing), instead of re-running the
/// full STA. The overhead heuristics use it for their trial evaluations.
///
/// Each live gate's delay is cached. full_recompute() fills the cache;
/// update() refreshes it only for its seeds, and propagation reads it.
/// Arrivals therefore stay exact only if the seeds name every gate whose
/// output load changed, including the drivers of nets that gained or
/// lost an output port. Propagation runs in logic-level order, so a gate
/// is normally recomputed once per update.
class ArrivalTracker {
 public:
  ArrivalTracker(const Netlist& nl, const StaticTimingAnalyzer& sta);

  /// Recomputes everything from scratch (also resizes after growth).
  void full_recompute();

  /// Recomputes after a structural edit. `seeds` must contain every gate
  /// whose delay or fanin set may have changed — for a fingerprint
  /// modification: the touched gates plus the drivers of their fanins
  /// (their output loads changed). Only the seeds' cached delays are
  /// refreshed. Dead gates in `seeds` are ignored.
  void update(const std::vector<GateId>& seeds);

  /// Current critical delay (max arrival over output ports).
  double critical_delay() const;

  double arrival(NetId net) const;

  /// Gate slacks against the current critical delay, indexed by GateId
  /// (dead gates: +inf). Equal to StaticTimingAnalyzer::analyze's
  /// gate_slack, but reuses the tracked arrivals and cached delays
  /// instead of re-timing the whole netlist.
  std::vector<double> gate_slacks() const;

  /// Gate arrival recomputations since construction: a deterministic
  /// measure of the incremental timing work.
  std::uint64_t recomputes() const { return recomputes_; }

 private:
  void recompute_gate(GateId g);
  /// Queues `g` at its level, or at the level being drained if lower.
  void enqueue(GateId g);
  /// Brings ports_ up to date with output ports moved since the last call.
  void sync_ports();

  const Netlist* nl_;
  const StaticTimingAnalyzer* sta_;
  std::vector<double> arrival_;       // by NetId
  std::vector<double> delay_;         // by GateId, cached gate_delay
  std::vector<std::uint32_t> ports_;  // by NetId, output ports on the net
  std::vector<NetId> port_net_;       // by port index, net counted in ports_
  // by NetId: logic level, 1 + the max level of the driver's fanins (0
  // for inputs). Propagated like the arrivals, so after each update the
  // live gates sorted by level are in topological order.
  std::vector<int> level_;
  std::vector<bool> queued_;                  // by GateId, scratch
  std::vector<std::vector<GateId>> buckets_;  // by level, scratch
  std::size_t draining_ = 0;                  // level being drained
  std::uint64_t recomputes_ = 0;
};

}  // namespace odcfp
