// perfbench — the order-level benchmark's measuring program.
//
//   perfbench library <out.lib>          write the default cell library
//   perfbench gen <circuit> <out.blif>   write a built-in circuit as BLIF
//   perfbench run <spec>                 run one workload from its spec
//
// `run` prints the artifact digest, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without tracing the
// metrics are the end-to-end list below; with tracing, the per-layer
// list (a layer absent from the workload's path reports 0).
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "bench.hpp"
#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "library/cell_library.hpp"

namespace {

using perfbench::Result;

const std::vector<std::string> kEndToEnd = {
    "editions_per_s",     "setup_s",          "peak_rss_mb",
    "request_p50_ms",     "request_p90_ms",   "capacity_bits",
    "delay_overhead_pct", "area_overhead_pct"};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"io.parse_ms", "ms"},
    {"synth.map_ms", "ms"},
    {"timing.baseline_ms", "ms"},
    {"fingerprint.locate_ms", "ms"},
    {"fingerprint.reduce_ms", "ms"},
    {"fingerprint.stamp_ms", "ms"},
    {"equiv.verify_ms", "ms"},
    {"io.serialize_ms", "ms"},
    {"io.publish_ms", "ms"},
    {"service.admit_ms", "ms"},
    {"service.queue_ms", "ms"},
    {"service.finish_ms", "ms"},
    {"io.parse_share", "ratio"},
    {"synth.map_share", "ratio"},
    {"timing.baseline_share", "ratio"},
    {"fingerprint.locate_share", "ratio"},
    {"fingerprint.reduce_share", "ratio"},
    {"fingerprint.stamp_share", "ratio"},
    {"equiv.verify_share", "ratio"},
    {"io.serialize_share", "ratio"},
    {"io.publish_share", "ratio"},
    {"service.admit_share", "ratio"},
    {"service.queue_share", "ratio"},
    {"service.finish_share", "ratio"},
    {"equiv.verify_ms_per_edition", "ms"},
    {"trace.order_ms", "ms"},
    {"trace.untraced_order_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.accounted_share", "ratio"},
    {"trace.unaccounted_share", "ratio"},
    {"sat.queries", "count"},
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"cec.incremental.gates_encoded", "count"},
    {"cec.incremental.gates_reused", "count"},
    {"cec.incremental.escalations", "count"},
    {"heur.sta_evaluations", "count"},
    {"heur.trials", "count"},
    {"heur.random_kicks", "count"},
    {"embed.applies", "count"},
    {"embed.removes", "count"},
    {"loc.accepted", "count"},
    {"batch.editions_stamped", "count"},
    {"synth.gates", "count"},
    {"fingerprint.locations", "count"},
    {"io.publish_bytes", "B"},
    {"equiv.verify_t1_ms", "ms"},
    {"equiv.verify_tn_ms", "ms"},
    {"equiv.verify_pool_threads", "count"},
    {"equiv.verify_pool_speedup", "x"},
    {"equiv.verify_pool_cpu_ratio", "x"},
    {"service.start_ms", "ms"},
    {"service.admit_ms_p50", "ms"},
    {"service.queue_ms_p50", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.shed", "count"},
    {"common.plain_batch_ms", "ms"},
    {"common.durable_batch_ms", "ms"},
    {"common.durability_share", "ratio"},
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints the result line; returns false when the workload emitted a
/// metric that is not in the published list (a benchmark bug).
bool print_result(const Result& r, bool trace) {
  std::map<std::string, std::pair<double, std::string>> got;
  for (const auto& [name, vu] : r.metrics) got[name] = vu;
  std::vector<std::pair<std::string, std::string>> names;
  if (trace) {
    names = kPerLayer;
  } else {
    for (const std::string& n : kEndToEnd) names.push_back({n, ""});
  }
  std::set<std::string> listed;
  std::string out = "{\"correct\": ";
  out += r.correct && r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    listed.insert(name);
    const auto it = got.find(name);
    if (it == got.end() && !trace) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n",
                   name.c_str());
      return false;
    }
    const double value = it == got.end() ? 0.0 : it->second.first;
    const std::string u = it == got.end() ? unit : it->second.second;
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(value) + ", \"unit\": \"" + u + "\"}";
    first = false;
  }
  out += "}}";
  for (const auto& [name, vu] : got) {
    if (listed.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return false;
    }
  }
  std::printf("%s\n", out.c_str());
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench library <out.lib>\n"
               "       perfbench gen <circuit> <out.blif>\n"
               "       perfbench run <spec>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "library" && argc == 3) {
      std::ofstream out(argv[2]);
      odcfp::default_cell_library().write(out);
      return out.good() ? 0 : 1;
    }
    if (cmd == "gen" && argc == 4) {
      std::ofstream out(argv[3]);
      odcfp::write_blif(out, odcfp::make_benchmark_sop(argv[2]));
      return out.good() ? 0 : 1;
    }
    if (cmd == "run" && argc == 3) {
      const perfbench::Spec spec = perfbench::read_spec(argv[2]);
      const Result r = spec.mode == "order"
                           ? perfbench::run_order_workload(spec)
                           : perfbench::run_service_workload(spec);
      for (const std::string& f : r.failures) {
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
      }
      std::printf("digest %08x\n", r.digest);
      std::fflush(stdout);
      return print_result(r, spec.trace) ? 0 : 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return usage();
}
