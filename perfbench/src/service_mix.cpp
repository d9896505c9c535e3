// The service workload: an in-process fingerprinting daemon on a unix
// socket, driven by a closed-loop client submitting a seeded mix of
// tenants, circuits and buyer counts. The client sends its next request
// only after the previous one reached a terminal state.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "benchgen/benchmarks.hpp"
#include "common/atomic_io.hpp"
#include "fingerprint/batch.hpp"
#include "fingerprint/location.hpp"
#include "fingerprint/streaming_codebook.hpp"
#include "io/blif.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace odcfp;
using service::Client;
using service::Server;

namespace {

/// One executor with a one-thread pool (the daemon's defaults), driven by
/// one client: requests run one at a time, as for a single caller, and one
/// thread computes at a time. The more threads computed at once, the more
/// of the host's steal the runs met, and request latency moved with the
/// steal share by up to 60% between runs minutes apart.
constexpr int kExecutors = 1;
constexpr int kPoolThreads = 1;

/// Timed daemon starts per run; the first is a warm-up.
constexpr int kSetupReps = 41;

/// The daemon's settings: no constraint, quota or deadline can shed or
/// degrade a request of the mix, so every failure is a real one.
service::ServiceConfig service_config(const Spec& spec) {
  service::ServiceConfig c;
  c.socket_path = spec.work_dir + "/sock";
  c.state_dir = spec.work_dir + "/state";
  c.num_executors = kExecutors;
  c.pool_threads = kPoolThreads;
  c.queue_capacity = 64;
  c.default_deadline_ms = 600'000;
  c.max_delay_overhead = 0;
  c.default_quota.bucket.capacity = 1e12;
  c.default_quota.bucket.refill_per_sec = 1e12;
  return c;
}

struct Done {
  std::size_t index = 0;  ///< position in the request list
  std::uint64_t id = 0;
  double admit_s = 0;
  double latency_s = 0;
  service::StatusReply status;
  bool transport_ok = false;
};

/// Runs the first `limit` requests of the mix on one closed-loop client,
/// or when limit == 0 as many whole blocks of the mix as fit in `seconds`:
/// a block is started only when the previous one's duration still fits,
/// and at least one runs. The wire has no
/// completion push, so the client blocks on the daemon's in-process
/// wait_terminal() and then reads the terminal status over the wire, as
/// a polling client would without the polling interval.
std::vector<Done> closed_loop(const Spec& spec, Server& server,
                              std::size_t limit, double seconds,
                              double* wall_s) {
  std::vector<Done> done;
  Client client(server.socket_path(), 10'000);
  const double start = now_s();
  double block_start = start;
  for (std::size_t i = 0;; ++i) {
    if (limit != 0 && i >= limit) break;
    if (limit == 0 && i > 0 && i % spec.block == 0) {
      const double now = now_s();
      if (now - start + (now - block_start) > seconds) break;
      block_start = now;
    }
    const RequestInput& in = spec.requests[i % spec.requests.size()];
    service::RequestSpec rs;
    rs.tenant = in.tenant;
    rs.circuit = in.circuit;
    rs.buyers = in.buyers;
    rs.seed = in.seed;
    rs.verify = in.verify;
    rs.label = "mix" + std::to_string(i);
    Done d;
    d.index = i;
    const double t0 = now_s();
    const auto sub = client.submit(rs);
    d.admit_s = now_s() - t0;
    if (sub.ok() && sub.value().accepted) {
      d.id = sub.value().id;
      server.wait_terminal(d.id, 120'000);
      const auto st = client.status(d.id);
      if (st.ok() && st.value().terminal) {
        d.status = st.value();
        d.transport_ok = true;
      }
    }
    d.latency_s = now_s() - t0;
    done.push_back(std::move(d));
  }
  *wall_s = now_s() - start;
  return done;
}

std::string hex8(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Gate for one request: completed, "verified k/k" when verifying, and
/// every published artifact re-reads to the digest the daemon reported.
/// Returns the artifact bytes per buyer when the request passes.
bool gate_request(const Spec& spec, const Done& d, Result& r,
                  std::vector<std::string>* artifacts) {
  const RequestInput& in = spec.requests[d.index % spec.requests.size()];
  const std::string who = "request " + std::to_string(d.index);
  if (!d.transport_ok) {
    r.fail(who + ": rejected or lost");
    return false;
  }
  if (d.status.state != "completed" || d.status.committed != in.buyers) {
    r.fail(who + ": " + d.status.state + " (" + d.status.detail + ")");
    return false;
  }
  const std::string expect =
      "verified " + std::to_string(in.buyers) + "/" + std::to_string(in.buyers);
  if (in.verify && d.status.detail != expect) {
    r.fail(who + ": '" + d.status.detail + "', expected '" + expect + "'");
    return false;
  }
  const std::string dir =
      Server::run_dir_of(spec.work_dir + "/state", d.id) + "/editions";
  atomic_io::Crc32 digest;
  artifacts->assign(in.buyers, "");
  for (std::size_t b = 0; b < in.buyers; ++b) {
    std::string& bytes = (*artifacts)[b];
    if (!atomic_io::read_file(dir + "/edition_" + std::to_string(b) + ".blif",
                              &bytes)) {
      r.fail(who + ": artifact of buyer " + std::to_string(b) + " missing");
      return false;
    }
    digest.update(std::to_string(b) + ":" + hex8(atomic_io::crc32(bytes)) +
                  "\n");
  }
  if (digest.value() != d.status.artifact_crc) {
    r.fail(who + ": artifacts re-read to a different digest");
    return false;
  }
  return true;
}

/// Quality and an independent check of the first kRestamped requests:
/// each is stamped again in-process and compared with what the daemon
/// published.
constexpr std::size_t kRestamped = 64;

struct Quality {
  double capacity_sum = 0;
  double worst_delay_sum = 0;  ///< per request: its worst edition
  std::size_t requests = 0;
  double area_sum = 0;
  std::size_t editions = 0;
};

void restamp(const RequestInput& in, const std::vector<std::string>& published,
             const std::string& who, Quality& q, Result& r) {
  const Netlist golden = make_benchmark(in.circuit);
  const auto locs = find_locations(golden);
  const StreamingCodebook book(locs, in.buyers, in.seed);
  BatchOptions bopt;
  bopt.seed = in.seed;
  bopt.max_delay_overhead = 0;
  const BatchResult batch = batch_fingerprint(golden, book,
                                              StaticTimingAnalyzer(),
                                              PowerAnalyzer(), bopt);
  double worst = 0;
  for (std::size_t b = 0; b < batch.editions.size(); ++b) {
    const BuyerEdition& e = batch.editions[b];
    if (to_blif_string(e.netlist) != published[b]) {
      r.fail(who + ": published edition " + std::to_string(b) +
             " differs from an in-process stamp");
    }
    worst = std::max(worst, e.overheads.delay_ratio);
    q.area_sum += e.overheads.area_ratio;
    ++q.editions;
  }
  q.capacity_sum += total_capacity_bits(locs);
  q.worst_delay_sum += worst;
  ++q.requests;
}

std::unique_ptr<Server> start_server(const service::ServiceConfig& c) {
  if (!atomic_io::make_dirs(c.state_dir)) {
    throw std::runtime_error("cannot create '" + c.state_dir + "'");
  }
  auto server = Server::start(c);
  if (!server.ok()) {
    throw std::runtime_error("Server::start: " + server.message());
  }
  return std::move(server).value();
}

/// Server::stop() raises its stop flag without holding the queue mutex,
/// so an executor caught between checking the queue and blocking on it
/// misses the wake-up and stop() never returns. Stopping only servers
/// whose executors have parked keeps the benchmark out of that window.
void park_executors() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

/// Starts the daemon kSetupReps times on the same state dir (each start
/// after the first replays the request log) until it answers a ping;
/// returns the median of all but the first.
double timed_setup(const Spec& spec, std::unique_ptr<Server>* server) {
  const service::ServiceConfig c = service_config(spec);
  std::vector<double> times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (*server != nullptr) {
      park_executors();
      server->reset();
    }
    const double t0 = now_s();
    *server = start_server(c);
    if (!Client(c.socket_path).ping()) {
      throw std::runtime_error("daemon does not answer a ping");
    }
    if (rep > 0) times.push_back(now_s() - t0);
  }
  return setup_median(times);
}

/// Netlist preparation (the daemon's make_benchmark: generation and
/// technology mapping) of the given requests, each timed again here
/// after the daemon has stopped; the daemon records no span for it.
double map_reference_s(const Spec& spec, const std::vector<Done>& done) {
  double total = 0;
  for (const Done& d : done) {
    const RequestInput& in = spec.requests[d.index % spec.requests.size()];
    const double t0 = now_s();
    const Netlist golden = make_benchmark(in.circuit);
    total += now_s() - t0;
  }
  return total;
}

/// Durability cost from outside: one service-sized order stamped in
/// memory and through the journal plus atomic publish, alternating.
/// Returns {plain median s, durable median s}.
std::pair<double, double> durability_reference(const Spec& spec,
                                               Result& r) {
  const RequestInput& in = spec.requests[0];
  const Netlist golden = make_benchmark(in.circuit);
  const auto locs = find_locations(golden);
  const StreamingCodebook book(locs, in.buyers, in.seed);
  const StaticTimingAnalyzer sta;
  const PowerAnalyzer power;
  std::vector<double> plain, durable;
  for (int rep = 0; rep < 5; ++rep) {
    BatchOptions bopt;
    bopt.seed = in.seed;
    bopt.max_delay_overhead = 0;
    double t0 = now_s();
    const BatchResult b = batch_fingerprint(golden, book, sta, power, bopt);
    plain.push_back(now_s() - t0);
    const std::string dir =
        spec.work_dir + "/durable/rep" + std::to_string(rep);
    ResumeOptions ropt;
    ropt.batch = bopt;
    ropt.artifact_dir = dir + "/editions";
    ropt.label = in.circuit;
    if (!atomic_io::make_dirs(dir)) throw std::runtime_error("mkdir " + dir);
    t0 = now_s();
    const ResumableBatchResult rr = batch_fingerprint_resumable(
        dir + "/batch.journal", golden, book, sta, power, ropt);
    durable.push_back(now_s() - t0);
    if (b.num_ok() != in.buyers || rr.status != Status::kOk) {
      r.fail("durability reference: order did not complete");
    }
  }
  return {median(plain), median(durable)};
}

}  // namespace

Result run_service_workload(const Spec& spec) {
  Result r;
  telemetry::set_enabled(false);
  std::unique_ptr<Server> server;
  const double setup_s = timed_setup(spec, &server);

  if (!spec.trace) {
    double wall_s = 0;
    const std::vector<Done> done =
        closed_loop(spec, *server, 0, spec.seconds, &wall_s);
    std::vector<double> latency_ms;
    double editions = 0;
    Quality q;
    atomic_io::Crc32 digest;
    std::vector<std::string> artifacts;
    for (const Done& d : done) {
      ++r.attempted;
      latency_ms.push_back(d.latency_s * 1e3);
      if (!gate_request(spec, d, r, &artifacts)) {
        ++r.failed;
        continue;
      }
      const RequestInput& in = spec.requests[d.index % spec.requests.size()];
      editions += static_cast<double>(in.buyers);
      // The first requests (a fixed prefix of the mix) are re-stamped
      // in-process: their outputs give the quality figures and the
      // artifact digest, identical on every run of a seed.
      if (d.index < kRestamped) {
        restamp(in, artifacts, "request " + std::to_string(d.index), q, r);
        digest.update(hex8(d.status.artifact_crc));
      }
    }
    park_executors();
    server->stop();
    r.digest = digest.value();
    r.metric("editions_per_s", editions / wall_s, "1/s");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.metric("request_p50_ms", percentile(latency_ms, 50), "ms");
    r.metric("request_p90_ms", percentile(latency_ms, 90), "ms");
    r.metric("capacity_bits",
             q.requests > 0 ? q.capacity_sum / q.requests : 0, "bit");
    r.metric("delay_overhead_pct",
             q.requests > 0 ? q.worst_delay_sum / q.requests * 100 : 0, "%");
    r.metric("area_overhead_pct",
             q.editions > 0 ? q.area_sum / q.editions * 100 : 0, "%");
    return r;
  }

  // Traced run: after an untraced warm-up, a fixed prefix of the mix runs
  // untraced and traced in turn, twice; the traced passes must report
  // identical deterministic counters.
  const std::size_t n = std::min<std::size_t>(16, spec.requests.size());
  double wall_s = 0;
  closed_loop(spec, *server, n, 0, &wall_s);
  std::vector<Counters> counters;
  telemetry::Node root;
  std::vector<Done> traced;
  std::vector<double> untraced_s, traced_s;
  for (int pass = 0; pass < 2; ++pass) {
    closed_loop(spec, *server, n, 0, &wall_s);
    untraced_s.push_back(wall_s);
    telemetry::set_enabled(true);
    telemetry::reset();
    std::vector<Done> done = closed_loop(spec, *server, n, 0, &wall_s);
    traced_s.push_back(wall_s);
    // A request turns terminal just before its executor closes the
    // request span; let the spans close and merge before reading them.
    park_executors();
    const telemetry::Node snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    counters.push_back(deterministic_counters(snap));
    if (pass == 0) {
      root = snap;
      traced = std::move(done);
    }
  }
  const Server::Stats stats = server->stats();
  park_executors();
  server->stop();
  check_same_counters(counters[0], counters[1], r);

  // Per-request layer times. Client side: submit round trip and the
  // whole latency. Daemon side: queue wait, the spans under
  // service.request, and its end after the measured run (the terminal
  // record). Netlist preparation has no daemon span, so it is timed here.
  std::vector<std::string> artifacts;
  std::vector<double> admit_ms;
  double latency_sum = 0, admit_sum = 0, publish_bytes = 0;
  atomic_io::Crc32 digest;
  for (const Done& d : traced) {
    ++r.attempted;
    admit_ms.push_back(d.admit_s * 1e3);
    admit_sum += d.admit_s;
    latency_sum += d.latency_s;
    if (!gate_request(spec, d, r, &artifacts)) {
      ++r.failed;
      continue;
    }
    for (const std::string& a : artifacts) publish_bytes += a.size();
    digest.update(hex8(d.status.artifact_crc));
  }
  r.digest = digest.value();
  const telemetry::Node* req = root.find({"service.request"});
  const auto total_s = [&](std::initializer_list<std::string_view> path) {
    const telemetry::Node* node = req == nullptr ? nullptr : req->find(path);
    return node == nullptr ? 0.0 : static_cast<double>(node->total_ns) * 1e-9;
  };
  const double run_s =
      req == nullptr ? 0.0 : static_cast<double>(req->total_ns) * 1e-9;
  const double locate_s = total_s({"find_locations"});
  const double stamp_s = total_s({"batch_fingerprint_resumable"});
  const double verify_s = total_s({"batch_verify"});
  const metrics::HistData queue = root.hist_total("service.queue_ns");
  const metrics::HistData runs = root.hist_total("service.request_ns");
  const double queue_s = static_cast<double>(queue.sum) * 1e-9;
  // service.request_ns stops just before the terminal record is appended
  // (and fsynced) and the request's state is dropped; the span stops
  // after.
  const double finish_s = run_s - static_cast<double>(runs.sum) * 1e-9;
  const LayerTimes self_s = {
      {"synth.map", map_reference_s(spec, traced)},
      {"fingerprint.locate", locate_s},
      {"fingerprint.stamp", stamp_s},
      {"equiv.verify", verify_s},
      {"service.admit", admit_sum},
      {"service.queue", queue_s},
      {"service.finish", finish_s},
  };
  const double requests = static_cast<double>(traced.size());
  double accounted = 0;
  for (const auto& [layer, s] : self_s) {
    accounted += s;
    r.metric(layer + "_ms", s / requests * 1e3, "ms");
    r.metric(layer + "_share", s / latency_sum, "ratio");
  }
  const double traced_mean = (traced_s[0] + traced_s[1]) / 2;
  r.metric("trace.order_ms", traced_mean * 1e3, "ms");
  const double untraced_mean = (untraced_s[0] + untraced_s[1]) / 2;
  r.metric("trace.untraced_order_ms", untraced_mean * 1e3, "ms");
  r.metric("trace.overhead_ms", (traced_mean - untraced_mean) * 1e3, "ms");
  r.metric("trace.accounted_share", accounted / latency_sum, "ratio");
  r.metric("trace.unaccounted_share", 1 - accounted / latency_sum, "ratio");
  for (const auto& [name, v] : counters[0]) {
    r.metric(name, static_cast<double>(v), "count");
  }
  r.metric("io.publish_bytes", publish_bytes, "B");
  r.metric("service.start_ms", setup_s * 1e3, "ms");
  r.metric("service.admit_ms_p50", percentile(admit_ms, 50), "ms");
  r.metric("service.queue_ms_p50",
           static_cast<double>(queue.quantile_permille(500)) * 1e-6, "ms");
  r.metric("service.run_ms_p50",
           static_cast<double>(runs.quantile_permille(500)) * 1e-6, "ms");
  r.metric("service.shed",
           static_cast<double>(stats.shed_overloaded + stats.shed_quota +
                               stats.shed_timeout),
           "count");

  const auto [plain_s, durable_s] = durability_reference(spec, r);
  r.metric("common.plain_batch_ms", plain_s * 1e3, "ms");
  r.metric("common.durable_batch_ms", durable_s * 1e3, "ms");
  r.metric("common.durability_share", (durable_s - plain_s) / durable_s,
           "ratio");
  return r;
}

}  // namespace perfbench
