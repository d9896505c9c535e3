#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

Spec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spec '" + path + "'");
  Spec spec;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream is(line);
    std::string key;
    if (!(is >> key) || key[0] == '#') continue;
    bool ok = true;
    if (key == "mode") ok = static_cast<bool>(is >> spec.mode);
    else if (key == "work") ok = static_cast<bool>(is >> spec.work_dir);
    else if (key == "library") ok = static_cast<bool>(is >> spec.library);
    else if (key == "seconds") ok = static_cast<bool>(is >> spec.seconds);
    else if (key == "trace") ok = static_cast<bool>(is >> spec.trace);
    else if (key == "circuit") ok = static_cast<bool>(is >> spec.circuit);
    else if (key == "blif") ok = static_cast<bool>(is >> spec.blif_path);
    else if (key == "buyers") ok = static_cast<bool>(is >> spec.buyers);
    else if (key == "block") ok = static_cast<bool>(is >> spec.block);
    else if (key == "max_delay")
      ok = static_cast<bool>(is >> spec.max_delay_overhead);
    else if (key == "order") {
      std::uint64_t seed = 0;
      ok = static_cast<bool>(is >> seed);
      spec.orders.push_back(seed);
    } else if (key == "request") {
      RequestInput r;
      ok = static_cast<bool>(is >> r.tenant >> r.circuit >> r.buyers >>
                             r.verify >> r.seed);
      spec.requests.push_back(r);
    } else {
      ok = false;
    }
    if (!ok) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": bad spec line '" + line + "'");
    }
  }
  if (spec.mode != "order" && spec.mode != "service") {
    throw std::runtime_error("spec mode must be 'order' or 'service'");
  }
  if (spec.work_dir.empty()) throw std::runtime_error("spec needs work");
  if (spec.mode == "order" &&
      (spec.library.empty() || spec.blif_path.empty() || spec.buyers == 0 ||
       spec.orders.empty())) {
    throw std::runtime_error("order spec needs library, blif, buyers and "
                             "orders");
  }
  if (spec.mode == "service" &&
      (spec.requests.empty() || spec.block == 0 ||
       spec.requests.size() % spec.block != 0)) {
    throw std::runtime_error("service spec needs whole blocks of requests");
  }
  return spec;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double setup_median(const std::vector<double>& times) {
  std::fprintf(stderr, "perfbench: setup x%zu: min %.1f us, median %.1f us, "
               "max %.1f us\n", times.size(), percentile(times, 0) * 1e6,
               median(times) * 1e6, percentile(times, 100) * 1e6);
  return median(times);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

namespace {

std::int64_t counter_total(const odcfp::telemetry::Node& node,
                           const std::string& name) {
  std::int64_t total = node.counter(name);
  for (const auto& [child_name, child] : node.children) {
    total += counter_total(child, name);
  }
  return total;
}

}  // namespace

Counters deterministic_counters(const odcfp::telemetry::Node& root) {
  static const char* const kNames[] = {
      "sat.queries",
      "sat.propagations",
      "sat.conflicts",
      "sat.decisions",
      "cec.incremental.gates_encoded",
      "cec.incremental.gates_reused",
      "cec.incremental.escalations",
      "heur.sta_evaluations",
      "heur.trials",
      "heur.random_kicks",
      "embed.applies",
      "embed.removes",
      "loc.accepted",
      "batch.editions_stamped",
  };
  Counters out;
  for (const char* name : kNames) out[name] = counter_total(root, name);
  return out;
}

void check_same_counters(const Counters& a, const Counters& b, Result& r) {
  for (const auto& [name, v] : a) {
    const std::int64_t w = b.at(name);
    if (v != w) {
      r.fail("determinism: " + name + " " + std::to_string(v) + " vs " +
             std::to_string(w));
    }
  }
}

}  // namespace perfbench
