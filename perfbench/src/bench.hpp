// Shared pieces of the order-level benchmark: the run spec read from the
// generated inputs, clocks, the benchmark's own layer timers, and the
// result every workload hands back to main().
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry.hpp"

namespace perfbench {

/// One request of the service mix.
struct RequestInput {
  std::string tenant;
  std::string circuit;
  std::uint64_t buyers = 0;
  bool verify = false;
  std::uint64_t seed = 0;
};

/// The generated inputs of one run (see run.py for the file format).
struct Spec {
  std::string mode;       ///< "order" or "service"
  std::string work_dir;   ///< scratch directory of this run
  double seconds = 10;
  bool trace = false;
  // ---- order mode ----
  std::string library;    ///< cell library text file
  std::string circuit;    ///< circuit name
  std::string blif_path;  ///< the order's netlist as BLIF text
  std::size_t buyers = 0;
  /// reactive_reduce delay constraint; 0 runs no reduction.
  double max_delay_overhead = 0;
  /// One codebook / batch seed per order.
  std::vector<std::uint64_t> orders;
  // ---- service mode ----
  /// Requests per balanced block of the mix; a timed run sends whole
  /// blocks.
  std::size_t block = 0;
  std::vector<RequestInput> requests;
};

/// Parses the spec file; throws std::runtime_error on malformed input.
Spec read_spec(const std::string& path);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Peak resident set size of the process in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Median of the timed set-ups; their range goes to stderr.
double setup_median(const std::vector<double>& times);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// Seconds per layer name, summed over the timed calls into the layer.
using LayerTimes = std::map<std::string, double>;

/// Adds the time from its construction to its destruction to one layer
/// of `times`, or does nothing when `times` is null (untraced orders).
/// An order times its layers one after another, never one inside
/// another, so each layer's total is its self time.
class LayerTimer {
 public:
  LayerTimer(LayerTimes* times, const char* layer)
      : times_(times), layer_(layer), start_(times != nullptr ? now_s() : 0) {}
  ~LayerTimer() {
    if (times_ != nullptr) (*times_)[layer_] += now_s() - start_;
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  LayerTimes* times_;
  const char* layer_;
  double start_;
};

/// What a workload hands back: end-to-end metrics (trace off) or
/// per-layer metrics (trace on), plus the correctness gate.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few gate failures, printed to stderr.
  std::vector<std::string> failures;
  /// Metric name -> (value, unit), in output order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  /// crc32 over the first order's editions in buyer order (order mode)
  /// or over the service's per-request artifact digests (service mode).
  std::uint32_t digest = 0;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// The deterministic work counters the traced run reports, each summed
/// over the whole telemetry tree.
using Counters = std::map<std::string, std::int64_t>;
Counters deterministic_counters(const odcfp::telemetry::Node& root);

/// Fails `r` on every counter two traced passes of one input disagree on.
void check_same_counters(const Counters& a, const Counters& b, Result& r);

Result run_order_workload(const Spec& spec);
Result run_service_workload(const Spec& spec);

}  // namespace perfbench
