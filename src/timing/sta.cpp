#include "timing/sta.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace odcfp {

double StaticTimingAnalyzer::net_load(const Netlist& nl, NetId net) const {
  std::uint32_t ports = 0;
  for (const OutputPort& p : nl.outputs()) {
    if (p.net == net) ++ports;
  }
  return net_load(nl, net, ports);
}

double StaticTimingAnalyzer::net_load(const Netlist& nl, NetId net,
                                      std::uint32_t ports) const {
  double load = 0;
  for (const FanoutRef& ref : nl.net(net).fanouts) {
    load += nl.cell_of(ref.gate).input_cap;
    load += options_.wire_cap_per_fanout;
  }
  // One addition per port, not ports * po_load: the sum must round
  // exactly as it always has.
  for (std::uint32_t i = 0; i < ports; ++i) load += options_.po_load;
  return load;
}

double StaticTimingAnalyzer::gate_delay(const Netlist& nl,
                                        GateId gate) const {
  const Cell& c = nl.cell_of(gate);
  return c.intrinsic_delay + c.load_coeff * net_load(nl, nl.gate(gate).output);
}

double StaticTimingAnalyzer::gate_delay(const Netlist& nl, GateId gate,
                                        std::uint32_t ports) const {
  const Cell& c = nl.cell_of(gate);
  return c.intrinsic_delay +
         c.load_coeff * net_load(nl, nl.gate(gate).output, ports);
}

std::vector<std::uint32_t> StaticTimingAnalyzer::port_counts(
    const Netlist& nl) {
  std::vector<std::uint32_t> counts(nl.num_nets(), 0);
  for (const OutputPort& p : nl.outputs()) ++counts[p.net];
  return counts;
}

double StaticTimingAnalyzer::critical_delay(const Netlist& nl) const {
  const std::vector<std::uint32_t> ports = port_counts(nl);
  std::vector<double> arrival(nl.num_nets(), options_.pi_arrival);
  for (GateId g : nl.topo_order_fast()) {
    const Gate& gt = nl.gate(g);
    double at = options_.pi_arrival;
    for (NetId in : gt.fanins) at = std::max(at, arrival[in]);
    arrival[gt.output] = at + gate_delay(nl, g, ports[gt.output]);
  }
  double worst = 0;
  for (const OutputPort& p : nl.outputs()) {
    worst = std::max(worst, arrival[p.net]);
  }
  return worst;
}

namespace {

/// Required times (POs must settle by `critical`) and gate slacks from
/// settled arrivals and delays; `order` is topological.
void backward_pass(const Netlist& nl, const std::vector<GateId>& order,
                   const std::vector<double>& arrival,
                   const std::vector<double>& delay, double critical,
                   std::vector<double>& required,
                   std::vector<double>& slack) {
  const double inf = std::numeric_limits<double>::infinity();
  required.assign(nl.num_nets(), inf);
  for (const OutputPort& p : nl.outputs()) {
    required[p.net] = std::min(required[p.net], critical);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Gate& gt = nl.gate(*it);
    const double in_required = required[gt.output] - delay[*it];
    for (NetId in : gt.fanins) {
      required[in] = std::min(required[in], in_required);
    }
  }
  slack.assign(nl.num_gates(), inf);
  for (GateId g : order) {
    const NetId out = nl.gate(g).output;
    slack[g] = required[out] - arrival[out];
  }
}

}  // namespace

TimingReport StaticTimingAnalyzer::analyze(const Netlist& nl) const {
  TimingReport rep;
  rep.arrival.assign(nl.num_nets(), options_.pi_arrival);

  const std::vector<GateId> order = nl.topo_order_fast();
  // Cache per-gate delays: they depend only on the (static) fanout loads.
  const std::vector<std::uint32_t> ports = port_counts(nl);
  std::vector<double> delay(nl.num_gates(), 0);
  for (GateId g : order) {
    delay[g] = gate_delay(nl, g, ports[nl.gate(g).output]);
  }

  for (GateId g : order) {
    const Gate& gt = nl.gate(g);
    double at = options_.pi_arrival;
    for (NetId in : gt.fanins) at = std::max(at, rep.arrival[in]);
    rep.arrival[gt.output] = at + delay[g];
  }
  for (const OutputPort& p : nl.outputs()) {
    rep.critical_delay = std::max(rep.critical_delay, rep.arrival[p.net]);
  }

  backward_pass(nl, order, rep.arrival, delay, rep.critical_delay,
                rep.required, rep.gate_slack);

  // One critical path: walk back from the latest output.
  NetId worst_net = kInvalidNet;
  for (const OutputPort& p : nl.outputs()) {
    if (worst_net == kInvalidNet ||
        rep.arrival[p.net] > rep.arrival[worst_net]) {
      worst_net = p.net;
    }
  }
  std::vector<GateId> path;
  while (worst_net != kInvalidNet) {
    const GateId d = nl.net(worst_net).driver;
    if (d == kInvalidGate) break;
    path.push_back(d);
    NetId next = kInvalidNet;
    for (NetId in : nl.gate(d).fanins) {
      if (next == kInvalidNet || rep.arrival[in] > rep.arrival[next]) {
        next = in;
      }
    }
    worst_net = next;
  }
  std::reverse(path.begin(), path.end());
  rep.critical_path = std::move(path);
  return rep;
}

ArrivalTracker::ArrivalTracker(const Netlist& nl,
                               const StaticTimingAnalyzer& sta)
    : nl_(&nl), sta_(&sta) {
  full_recompute();
}

void ArrivalTracker::full_recompute() {
  arrival_.assign(nl_->num_nets(), sta_->options().pi_arrival);
  level_.assign(nl_->num_nets(), 0);
  delay_.assign(nl_->num_gates(), 0);
  queued_.assign(nl_->num_gates(), false);
  ports_.assign(nl_->num_nets(), 0);
  port_net_.clear();
  sync_ports();
  for (GateId g : nl_->topo_order_fast()) {
    const Gate& gt = nl_->gate(g);
    double at = sta_->options().pi_arrival;
    int lvl = 0;
    for (NetId in : gt.fanins) {
      at = std::max(at, arrival_[in]);
      lvl = std::max(lvl, level_[in]);
    }
    delay_[g] = sta_->gate_delay(*nl_, g, ports_[gt.output]);
    arrival_[gt.output] = at + delay_[g];
    level_[gt.output] = lvl + 1;
  }
}

void ArrivalTracker::sync_ports() {
  const std::vector<OutputPort>& outs = nl_->outputs();
  if (outs.size() != port_net_.size()) {  // fresh, or ports were added
    ports_ = StaticTimingAnalyzer::port_counts(*nl_);
    port_net_.clear();
    for (const OutputPort& p : outs) port_net_.push_back(p.net);
    return;
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].net == port_net_[i]) continue;
    --ports_[port_net_[i]];
    ++ports_[outs[i].net];
    port_net_[i] = outs[i].net;
  }
}

void ArrivalTracker::enqueue(GateId g) {
  queued_[g] = true;
  const std::size_t lvl = std::max<std::size_t>(
      static_cast<std::size_t>(level_[nl_->gate(g).output]), draining_);
  if (buckets_.size() <= lvl) buckets_.resize(lvl + 1);
  buckets_[lvl].push_back(g);
}

void ArrivalTracker::recompute_gate(GateId g) {
  ++recomputes_;
  const Gate& gt = nl_->gate(g);
  double at = sta_->options().pi_arrival;
  int lvl = 0;
  for (NetId in : gt.fanins) {
    at = std::max(at, arrival_[in]);
    lvl = std::max(lvl, level_[in]);
  }
  const double new_arrival = at + delay_[g];
  // A level change propagates too: gate_slacks() orders by level.
  if (new_arrival != arrival_[gt.output] || lvl + 1 != level_[gt.output]) {
    arrival_[gt.output] = new_arrival;
    level_[gt.output] = lvl + 1;
    for (const FanoutRef& ref : nl_->net(gt.output).fanouts) {
      if (!queued_[ref.gate]) enqueue(ref.gate);
    }
  }
}

void ArrivalTracker::update(const std::vector<GateId>& seeds) {
  // Structures may have grown (new nets/gates) since construction.
  if (arrival_.size() < nl_->num_nets()) {
    arrival_.resize(nl_->num_nets(), sta_->options().pi_arrival);
    level_.resize(nl_->num_nets(), 0);
    ports_.resize(nl_->num_nets(), 0);
  }
  if (queued_.size() < nl_->num_gates()) {
    queued_.resize(nl_->num_gates(), false);
    delay_.resize(nl_->num_gates(), 0);
  }
  sync_ports();
  draining_ = 0;
  for (GateId g : seeds) {
    if (g >= nl_->num_gates() || nl_->gate(g).is_dead()) continue;
    delay_[g] = sta_->gate_delay(*nl_, g, ports_[nl_->gate(g).output]);
    if (!queued_[g]) enqueue(g);
  }
  // Worklist relaxation in level order, so a gate is normally recomputed
  // once, after all its changed fanins. The arrival system on a DAG has a
  // unique fixpoint, and each pop recomputes a gate exactly from its
  // fanins, so the order changes the work, never the result.
  for (; draining_ < buckets_.size(); ++draining_) {
    // Index, not iterator: recomputes may append to this very bucket.
    for (std::size_t i = 0; i < buckets_[draining_].size(); ++i) {
      const GateId g = buckets_[draining_][i];
      queued_[g] = false;
      if (!nl_->gate(g).is_dead()) recompute_gate(g);
    }
    buckets_[draining_].clear();
  }
}

std::vector<double> ArrivalTracker::gate_slacks() const {
  // Live gates sorted by level (a counting sort) are in topological
  // order: every gate's level exceeds its fanins'.
  std::vector<GateId> live;
  std::vector<std::size_t> start;
  for (GateId g = 0; g < nl_->num_gates(); ++g) {
    const Gate& gt = nl_->gate(g);
    if (gt.is_dead()) continue;
    live.push_back(g);
    const auto lvl = static_cast<std::size_t>(level_[gt.output]);
    if (start.size() < lvl + 2) start.resize(lvl + 2, 0);
    ++start[lvl + 1];
  }
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<GateId> order(live.size());
  for (GateId g : live) {
    order[start[static_cast<std::size_t>(level_[nl_->gate(g).output])]++] =
        g;
  }
  std::vector<double> required, slack;
  backward_pass(*nl_, order, arrival_, delay_, critical_delay(), required,
                slack);
  return slack;
}

double ArrivalTracker::critical_delay() const {
  double worst = 0;
  for (const OutputPort& p : nl_->outputs()) {
    worst = std::max(worst, arrival_[p.net]);
  }
  return worst;
}

double ArrivalTracker::arrival(NetId net) const {
  ODCFP_CHECK(net < arrival_.size());
  return arrival_[net];
}

}  // namespace odcfp
