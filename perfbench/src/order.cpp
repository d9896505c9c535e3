// Order workloads: one netlist as BLIF text in, N verified buyer editions
// published. The order path is parse -> map -> baseline STA ->
// find_locations -> (reactive_reduce) -> stamp -> CEC -> publish; on a
// traced order each call into a layer is timed by a LayerTimer.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/atomic_io.hpp"
#include "common/parallel.hpp"
#include "equiv/cec.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/codewords.hpp"
#include "fingerprint/embedder.hpp"
#include "fingerprint/heuristics.hpp"
#include "fingerprint/location.hpp"
#include "io/blif.hpp"
#include "library/cell_library.hpp"
#include "synth/mapper.hpp"

namespace perfbench {

using namespace odcfp;

namespace {

std::string read_input(const std::string& path) {
  std::string text;
  if (!atomic_io::read_file(path, &text)) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  return text;
}

/// The mapper options make_benchmark() uses for the named circuit, so an
/// order parsed from BLIF maps to the same netlist as the built-in one.
MapperOptions mapper_options(const std::string& circuit) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : circuit) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  MapperOptions opt;
  opt.seed = h;
  opt.nand_nor_fraction = 0.55;
  return opt;
}

/// Everything an order needs before its netlist arrives.
struct Env {
  std::unique_ptr<CellLibrary> lib;
  StaticTimingAnalyzer sta;
  PowerAnalyzer power;
  std::string out_dir;
};

std::unique_ptr<Env> set_up(const std::string& library_text,
                            const std::string& out_dir) {
  auto env = std::make_unique<Env>();
  std::istringstream is(library_text);
  env->lib = std::make_unique<CellLibrary>(CellLibrary::parse(is));
  env->out_dir = out_dir;
  if (!atomic_io::make_dirs(out_dir)) {
    throw std::runtime_error("cannot create '" + out_dir + "'");
  }
  atomic_io::remove_stale_temps(out_dir);
  return env;
}

bool proven_by_sat(const CecResult& r) {
  return r.equivalent() &&
         (r.method == "sat" || r.method == "sat-incremental" ||
          r.method == "sat-portfolio" || r.method == "trivial-identical-cone");
}

/// Keeps only the sites reactive_reduce left applied, as
/// examples/circuit_modifier.cpp does.
std::vector<FingerprintLocation> kept_locations(
    const std::vector<FingerprintLocation>& locs,
    const FingerprintCode& code) {
  std::vector<FingerprintLocation> kept;
  for (std::size_t l = 0; l < locs.size(); ++l) {
    FingerprintLocation loc = locs[l];
    loc.sites.clear();
    for (std::size_t s = 0; s < locs[l].sites.size(); ++s) {
      if (code[l][s] != 0) loc.sites.push_back(locs[l].sites[s]);
    }
    if (!loc.sites.empty()) kept.push_back(std::move(loc));
  }
  return kept;
}

/// reactive_reduce restarts per order. One restart keeps a des order near
/// 3.5 s, so a run times about ten of them; with the default three, an
/// order took 9-10 s and the median of a run's three orders moved by a
/// quarter between runs.
constexpr int kReduceRestarts = 1;

/// One order's outputs, kept for the correctness gate after the clock
/// stops.
struct Order {
  double wall_s = 0;
  Netlist golden;
  std::vector<FingerprintLocation> locs;  ///< the shipped location set
  std::unique_ptr<Codebook> book;
  BatchResult batch;
  std::vector<Outcome<CecResult>> verdicts;
  std::vector<std::string> paths;  ///< "" when not published
  std::vector<std::string> bytes;
  std::size_t gates = 0;
  std::size_t locations = 0;
};

/// Stamps the editions of one codebook. Stamping is unconstrained: after
/// a reduction the codewords over the kept sites can still exceed the
/// constraint, and the worst edition's overhead is reported as a quality
/// metric instead of failing it.
BatchResult stamp(const Env& env, const Netlist& golden, const Codebook& book,
                  std::uint64_t seed) {
  BatchOptions bopt;
  bopt.max_delay_overhead = 0;
  bopt.seed = seed;
  return batch_fingerprint(golden, book, env.sta, env.power, bopt);
}

/// Runs one order; `times` (null on untraced orders) receives each
/// layer's time.
Order run_order(const Env& env, const Spec& spec, const std::string& blif,
                std::uint64_t seed, std::size_t index, LayerTimes* times) {
  Order o;
  const double t0 = now_s();
  SopNetwork sop;
  {
    LayerTimer t(times, "io.parse");
    sop = read_blif_string(blif);
  }
  {
    LayerTimer t(times, "synth.map");
    o.golden = map_to_cells(sop, *env.lib, mapper_options(spec.circuit));
  }
  Baseline base;
  {
    LayerTimer t(times, "timing.baseline");
    base = Baseline::measure(o.golden, env.sta, env.power);
  }
  {
    LayerTimer t(times, "fingerprint.locate");
    o.locs = find_locations(o.golden);
  }
  o.gates = o.golden.num_live_gates();
  o.locations = o.locs.size();
  if (spec.max_delay_overhead > 0) {
    LayerTimer t(times, "fingerprint.reduce");
    Netlist work = o.golden;
    FingerprintEmbedder embedder(work, o.locs);
    ReactiveOptions ropt;
    ropt.max_delay_overhead = spec.max_delay_overhead;
    ropt.restarts = kReduceRestarts;
    const HeuristicOutcome out =
        reactive_reduce(embedder, base, env.sta, env.power, ropt);
    o.locs = kept_locations(o.locs, out.code);
  }
  o.book = std::make_unique<Codebook>(o.locs, spec.buyers, seed);
  {
    LayerTimer t(times, "fingerprint.stamp");
    o.batch = stamp(env, o.golden, *o.book, seed);
  }
  {
    LayerTimer t(times, "equiv.verify");
    o.verdicts = batch_verify_equivalence(o.golden, o.batch.editions);
  }
  const std::size_t n = o.batch.editions.size();
  o.paths.assign(n, "");
  o.bytes.assign(n, "");
  for (std::size_t b = 0; b < n; ++b) {
    const BuyerEdition& e = o.batch.editions[b];
    if (e.status != Status::kOk || !o.verdicts[b].ok() ||
        !proven_by_sat(o.verdicts[b].value())) {
      continue;
    }
    {
      LayerTimer t(times, "io.serialize");
      o.bytes[b] = to_blif_string(e.netlist);
    }
    const std::string path = env.out_dir + "/order" + std::to_string(index) +
                             "_buyer" + std::to_string(b) + ".blif";
    LayerTimer t(times, "io.publish");
    if (atomic_io::write_file_atomic(path, o.bytes[b]).ok) o.paths[b] = path;
  }
  o.wall_s = now_s() - t0;
  return o;
}

/// The correctness gate: every edition proven equivalent by a SAT
/// method, decoding to its buyer's codeword, published, and re-reading
/// to the serialized bytes. Returns the number of editions that pass and
/// folds the published bytes into `digest` in buyer order.
std::size_t gate_order(const Order& o, std::size_t index, Result& r,
                       std::uint32_t* digest) {
  std::size_t passed = 0;
  std::string all;
  for (std::size_t b = 0; b < o.batch.editions.size(); ++b) {
    const std::string who =
        "order " + std::to_string(index) + " buyer " + std::to_string(b);
    const BuyerEdition& e = o.batch.editions[b];
    if (e.status != Status::kOk) {
      r.fail(who + ": not stamped (" + std::string(to_string(e.status)) + ")");
      continue;
    }
    if (!o.verdicts[b].ok() || !proven_by_sat(o.verdicts[b].value())) {
      r.fail(who + ": not proven equivalent by SAT (" +
             (o.verdicts[b].has_value() ? o.verdicts[b].value().method
                                         : std::string("no verdict")) +
             ")");
      continue;
    }
    try {
      if (extract_code(e.netlist, o.golden, o.locs) != o.book->code(b)) {
        r.fail(who + ": extracted code differs from the codeword");
        continue;
      }
    } catch (const std::exception& ex) {
      r.fail(who + ": extraction failed: " + ex.what());
      continue;
    }
    std::string back;
    if (o.paths[b].empty() || !atomic_io::read_file(o.paths[b], &back) ||
        back != o.bytes[b]) {
      r.fail(who + ": published file missing or differs");
      continue;
    }
    all += o.bytes[b];
    ++passed;
  }
  if (digest != nullptr) *digest = atomic_io::crc32(all);
  return passed;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) throw std::runtime_error("no CPU to run on");
  return cpus;
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
bool pin(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

/// While it lives, moves the thread that created it to the next allowed
/// CPU every kRotatePeriod. On a shared host one vCPU runs an order up to
/// a third slower than another, and which one is slow changes within
/// seconds; a thread left on one vCPU takes that vCPU's speed for a
/// whole order. Rotating gives every order the mean speed of all vCPUs.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kRotatePeriod{200};

  CpuRotation() : tid_(gettid()), cpus_(allowed_cpus()) {
    thread_ = std::thread([this] { rotate(); });
  }
  ~CpuRotation() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
    pin(tid_, cpus_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0;
         !cv_.wait_for(lock, kRotatePeriod, [this] { return stop_; }); ++i) {
      pin(tid_, {cpus_[i % cpus_.size()]});
    }
  }

  const pid_t tid_;
  const std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Timed set-ups per CPU, after one warm-up on each, and the pause before
/// each one.
constexpr int kSetupRepsPerCpu = 10;
constexpr std::chrono::milliseconds kSetupPause{20};

/// On a shared host a warm set-up takes up to twice as long on one vCPU
/// as on another, and which vCPU is fast changes within a second. So the
/// set-up is timed on each CPU the process may use in turn, and the
/// median of all those times does not depend on where the process was
/// placed. Each set-up follows a pause, so it starts with cold caches as
/// the set-up at process start does, and the timed set-ups of a run
/// spread over most of a second. Keeps the last environment.
double timed_setup(const Spec& spec, const std::string& library_text,
                   std::unique_ptr<Env>* env) {
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> times;
  for (int cpu : cpus) {
    if (!pin(0, {cpu})) continue;
    for (int rep = 0; rep <= kSetupRepsPerCpu; ++rep) {
      std::this_thread::sleep_for(kSetupPause);
      const double t0 = now_s();
      *env = set_up(library_text, spec.work_dir + "/editions");
      if (rep > 0) times.push_back(now_s() - t0);
    }
  }
  if (!pin(0, cpus) || times.empty()) {
    throw std::runtime_error("cannot set up on the allowed CPUs");
  }
  return setup_median(times);
}

/// Verification of one order's editions serially and on a pool.
struct PoolReference {
  double t1_s = 0, tn_s = 0;        ///< wall time
  double cpu1_s = 0, cpun_s = 0;    ///< process CPU time
};

PoolReference pool_reference(const Order& o, int threads, Result& r) {
  PoolReference ref;
  ThreadPool pool(threads);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    BatchCecOptions copt;
    copt.pool = p;
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    const auto verdicts =
        batch_verify_equivalence(o.golden, o.batch.editions, copt);
    (p == nullptr ? ref.t1_s : ref.tn_s) = now_s() - t0;
    (p == nullptr ? ref.cpu1_s : ref.cpun_s) = process_cpu_s() - c0;
    for (std::size_t b = 0; b < verdicts.size(); ++b) {
      if (!verdicts[b].ok() || !proven_by_sat(verdicts[b].value())) {
        r.fail("pooled CEC reference: buyer " + std::to_string(b) +
               " not proven");
      }
    }
  }
  return ref;
}

/// Orders every run times, so each run has a median order.
constexpr std::size_t kMinOrders = 3;

/// Editions the quality metrics cover. An order's location set does not
/// depend on its seed: find_locations is deterministic and the reduction
/// runs with the library's default seed. So after the timed orders the
/// codebooks of the first orders are stamped again over the first order's
/// location set, without CEC, until this many editions are stamped; the
/// first of them are the shipped editions. Over three orders of two des
/// buyers each, the worst edition ranged from 1.0% to 2.2% between seeds.
constexpr std::size_t kQualityEditions = 128;

struct Quality {
  double capacity_bits = 0;
  double delay_pct = 0;  ///< worst edition of an order, mean over orders
  double area_pct = 0;   ///< mean over editions
};

Quality measure_quality(const Env& env, const Spec& spec, const Order& first) {
  const std::size_t orders =
      (kQualityEditions + spec.buyers - 1) / spec.buyers;
  double worst_sum = 0, area_sum = 0;
  std::size_t editions = 0;
  for (std::size_t i = 0; i < orders; ++i) {
    const std::uint64_t seed = spec.orders[i % spec.orders.size()];
    const Codebook book(first.locs, spec.buyers, seed);
    double worst = 0;
    for (const BuyerEdition& e :
         stamp(env, first.golden, book, seed).editions) {
      worst = std::max(worst, e.overheads.delay_ratio);
      area_sum += e.overheads.area_ratio;
      ++editions;
    }
    worst_sum += worst;
  }
  Quality q;
  q.capacity_bits = total_capacity_bits(first.locs);
  q.delay_pct = worst_sum / static_cast<double>(orders) * 100;
  q.area_pct = area_sum / static_cast<double>(editions) * 100;
  return q;
}

const char* const kLayers[] = {
    "io.parse",         "synth.map",          "timing.baseline",
    "fingerprint.locate", "fingerprint.reduce", "fingerprint.stamp",
    "equiv.verify",     "io.serialize",       "io.publish"};

}  // namespace

Result run_order_workload(const Spec& spec) {
  Result r;
  const std::string library_text = read_input(spec.library);
  const std::string blif = read_input(spec.blif_path);
  telemetry::set_enabled(false);

  std::unique_ptr<Env> env;
  const double setup_s = timed_setup(spec, library_text, &env);

  if (!spec.trace) {
    // End-to-end run: orders back to back, rotating over the CPUs, until
    // the time is up; an order is started only when the previous one's
    // duration still fits, and never fewer than kMinOrders run. Rates and
    // latencies are medians over the orders, so a burst of host contention
    // that slows a few orders does not move them.
    std::vector<double> order_ms, rates;
    Order first;
    auto rotation = std::make_unique<CpuRotation>();
    const double start = now_s();
    for (std::size_t i = 0;; ++i) {
      Order o = run_order(*env, spec, blif, spec.orders[i % spec.orders.size()],
                          i, nullptr);
      order_ms.push_back(o.wall_s * 1e3);
      std::fprintf(stderr, "perfbench: order %zu: %.1f ms\n", i,
                   o.wall_s * 1e3);
      r.attempted += o.batch.editions.size();
      const std::size_t ok = gate_order(o, i, r, i == 0 ? &r.digest : nullptr);
      r.failed += o.batch.editions.size() - ok;
      rates.push_back(static_cast<double>(ok) / o.wall_s);
      const double elapsed = now_s() - start;
      const bool done = i + 1 >= kMinOrders && elapsed + o.wall_s > spec.seconds;
      if (i == 0) first = std::move(o);
      if (done) break;
    }
    rotation.reset();
    const Quality q = measure_quality(*env, spec, first);
    r.metric("editions_per_s", median(rates), "1/s");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    // A run has 4-11 orders, too few for a tail: the p90 of an order
    // workload is its median order.
    const double median_order_ms = percentile(order_ms, 50);
    r.metric("request_p50_ms", median_order_ms, "ms");
    r.metric("request_p90_ms", median_order_ms, "ms");
    r.metric("capacity_bits", q.capacity_bits, "bit");
    r.metric("delay_overhead_pct", q.delay_pct, "%");
    r.metric("area_overhead_pct", q.area_pct, "%");
    return r;
  }

  // Traced run: after an untraced warm-up, the first order runs
  // untraced and traced in turn, twice. The untraced passes are the
  // baseline of the tracing overhead; the two traced passes must report
  // identical deterministic counters. The rotation ends before the
  // pooled reference, whose threads would inherit a one-CPU affinity.
  const std::uint64_t seed = spec.orders[0];
  std::vector<Counters> counters;
  std::vector<double> untraced_s, traced_s;
  LayerTimes self_s;
  Order traced;
  {
    const CpuRotation rotation;
    run_order(*env, spec, blif, seed, 0, nullptr);
    for (int pass = 0; pass < 2; ++pass) {
      telemetry::set_enabled(false);
      untraced_s.push_back(
          run_order(*env, spec, blif, seed, 0, nullptr).wall_s);
      telemetry::set_enabled(true);
      telemetry::reset();
      LayerTimes times;
      traced = run_order(*env, spec, blif, seed, 0, &times);
      counters.push_back(deterministic_counters(telemetry::snapshot()));
      traced_s.push_back(traced.wall_s);
      for (const auto& [layer, s] : times) self_s[layer] += s / 2;
    }
  }
  telemetry::set_enabled(false);
  check_same_counters(counters[0], counters[1], r);
  r.attempted = traced.batch.editions.size();
  r.failed = r.attempted - gate_order(traced, 0, r, &r.digest);

  const double traced_mean = (traced_s[0] + traced_s[1]) / 2;
  double accounted = 0;
  for (const char* layer : kLayers) accounted += self_s[layer];
  const double editions = static_cast<double>(traced.batch.editions.size());
  for (const char* layer : kLayers) {
    r.metric(std::string(layer) + "_ms", self_s[layer] * 1e3, "ms");
  }
  for (const char* layer : kLayers) {
    r.metric(std::string(layer) + "_share", self_s[layer] / traced_mean,
             "ratio");
  }
  r.metric("equiv.verify_ms_per_edition",
           self_s["equiv.verify"] * 1e3 / editions, "ms");
  r.metric("trace.order_ms", traced_mean * 1e3, "ms");
  const double untraced_mean = (untraced_s[0] + untraced_s[1]) / 2;
  r.metric("trace.untraced_order_ms", untraced_mean * 1e3, "ms");
  r.metric("trace.overhead_ms", (traced_mean - untraced_mean) * 1e3, "ms");
  r.metric("trace.accounted_share", accounted / traced_mean, "ratio");
  r.metric("trace.unaccounted_share", 1 - accounted / traced_mean, "ratio");
  for (const auto& [name, v] : counters[0]) {
    r.metric(name, static_cast<double>(v), "count");
  }
  r.metric("synth.gates", static_cast<double>(traced.gates), "count");
  r.metric("fingerprint.locations", static_cast<double>(traced.locations),
           "count");
  double publish_bytes = 0;
  for (const std::string& b : traced.bytes) publish_bytes += b.size();
  r.metric("io.publish_bytes", publish_bytes, "B");

  const int threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const PoolReference ref = pool_reference(traced, threads, r);
  r.metric("equiv.verify_t1_ms", ref.t1_s * 1e3, "ms");
  r.metric("equiv.verify_tn_ms", ref.tn_s * 1e3, "ms");
  r.metric("equiv.verify_pool_threads", threads, "count");
  r.metric("equiv.verify_pool_speedup", ref.t1_s / ref.tn_s, "x");
  r.metric("equiv.verify_pool_cpu_ratio", ref.cpun_s / ref.cpu1_s, "x");
  return r;
}

}  // namespace perfbench
