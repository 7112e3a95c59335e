// One repetition of one benchmark workload, in its own process.
//
//   perfbench_runner --workload fleet|capacity|serving
//                    --seed N [--trace] [--scale F]
//
// Builds the workload's topology and engines through the simulator's
// public API, advances the workload's fixed simulated duration, and
// prints one JSON object on stdout with
//   * host cost: setup/run wall seconds, process CPU seconds, RSS;
//   * simulated outcomes: operations, bytes, exact FCT percentiles;
//   * per-layer counts read from the engine accessors and StatsRegistry;
//   * a fingerprint over every deterministic output, so repeated and
//     traced runs of one build can be compared;
//   * with --trace, per-layer spans from pass-through probes (probes.h).
// perfbench/run.py runs this repeatedly and reduces the repetitions.
//
// --scale shrinks client counts for the reduced-scale self-test.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/fleet.h"
#include "app/workload.h"
#include "core/mptcp_connection.h"
#include "net/payload.h"
#include "probes.h"

using namespace mptcp;

namespace perfbench {
namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Current resident set size in KiB (/proc/self/statm).
double rss_now_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) * 4096.0 / 1024.0;
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

/// MPTCP mechanism counters folded from connections before they die,
/// the same fold FleetEngine applies (client side adds the connection
/// and its fallback; both ends add the sender-side mechanisms).
struct CoreAcc {
  uint64_t connections = 0;
  uint64_t fallbacks = 0;
  uint64_t m1 = 0, m2 = 0, m3 = 0, m4 = 0;
  uint64_t checksum_failures = 0;
  uint64_t subflow_resets = 0;

  void fold_sender(StreamSocket& s) {
    auto* conn = dynamic_cast<MptcpConnection*>(&s);
    if (conn == nullptr) return;
    const auto& ms = conn->meta_stats();
    m1 += ms.opportunistic_retransmits;
    m2 += ms.penalizations;
    m3 += conn->autotune_resizes();
    m4 += conn->cc_cap_activations();
    checksum_failures += ms.checksum_failures;
    subflow_resets += ms.subflow_resets;
  }
  void fold_client(StreamSocket& s) {
    auto* conn = dynamic_cast<MptcpConnection*>(&s);
    if (conn == nullptr) return;
    ++connections;
    if (conn->mode() == MptcpMode::kFallbackTcp) ++fallbacks;
    fold_sender(s);
  }
  void add(const CoreAcc& o) {
    connections += o.connections;
    fallbacks += o.fallbacks;
    m1 += o.m1;
    m2 += o.m2;
    m3 += o.m3;
    m4 += o.m4;
    checksum_failures += o.checksum_failures;
    subflow_resets += o.subflow_resets;
  }
};

/// Per-engine outcome sink, filled by the engine's hooks during the run.
struct EngineAcc {
  CoreAcc client;
  CoreAcc server;
  std::vector<int64_t> fct_ns;  ///< exact simulated completion times
  uint64_t req_failed = 0;      ///< serving: errored or rejected requests
  uint64_t req_rejected = 0;
};

/// Exact completion-time percentiles of one run.
struct FctSummary {
  uint64_t samples = 0;
  SimTime p50 = 0, p99 = 0, p999 = 0;
};

/// Nearest-rank percentiles of a sample (sorted in place).
FctSummary summarize(std::vector<int64_t>& fct_ns) {
  std::sort(fct_ns.begin(), fct_ns.end());
  FctSummary f;
  f.samples = fct_ns.size();
  auto at = [&fct_ns](double p) -> SimTime {
    if (fct_ns.empty()) return 0;
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(fct_ns.size())));
    return fct_ns[std::min(fct_ns.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  f.p50 = at(0.50);
  f.p99 = at(0.99);
  f.p999 = at(0.999);
  return f;
}

/// Outcome of one run. Everything is deterministic for an input and
/// build and goes into the fingerprint.
struct Outcome {
  SimTime duration = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t bytes = 0;
  uint64_t peak_conns = 0;
  std::vector<int64_t> fct_ns;  ///< every sample, when the workload has them
  FctSummary fct;
  CoreAcc core;
  uint64_t handovers = 0, storm_removals = 0, nat_rebinds = 0;
};

/// Hooks a WorkloadConfig into an EngineAcc.
void attach(WorkloadConfig& wc, EngineAcc& acc, EventLoop& client_loop) {
  wc.on_flow_done = [&acc, &client_loop](StreamSocket& s,
                                         const FlowReport& r) {
    if (r.ok && !r.persistent) {
      acc.fct_ns.push_back(client_loop.now() - r.start);
    }
    acc.client.fold_client(s);
  };
  wc.on_server_conn_done = [&acc](StreamSocket& s) {
    acc.server.fold_sender(s);
  };
  wc.on_request_done = [&acc](size_t, const RequestOutcome& o) {
    if (o.ok) {
      acc.fct_ns.push_back(o.done_at - o.issued_at);
    } else {
      ++acc.req_failed;
      if (o.rejected) ++acc.req_rejected;
    }
  };
}

/// Folds engines (and their accumulators) into an Outcome after the run,
/// sweeping still-open connections the way FleetEngine does.
void fold_engines(const std::vector<WorkloadEngine*>& engines,
                  const std::vector<EngineAcc*>& accs, Outcome& out) {
  for (size_t i = 0; i < engines.size(); ++i) {
    WorkloadEngine& e = *engines[i];
    EngineAcc& acc = *accs[i];
    e.for_each_open_socket([&acc](StreamSocket& s, const FlowReport&) {
      acc.client.fold_client(s);
    });
    e.for_each_open_server_conn(
        [&acc](StreamSocket& s) { acc.server.fold_sender(s); });
    for (size_t k = 0; k < e.class_count(); ++k) {
      out.attempted += e.started(k);
      out.failed += e.errors(k);
      out.completed += e.completed(k);
      out.bytes += e.bytes_received(k);
    }
    out.failed += acc.req_failed;
    out.rejected += acc.req_rejected;
    out.peak_conns += e.peak_concurrent();
    out.core.add(acc.client);
    out.core.add(acc.server);
    out.fct_ns.insert(out.fct_ns.end(), acc.fct_ns.begin(), acc.fct_ns.end());
  }
  out.fct = summarize(out.fct_ns);
}

TransportConfig capacity_transport(size_t meta_buf, size_t tcp_buf,
                                   uint64_t seed) {
  TransportConfig tc;
  tc.mptcp.meta_snd_buf_max = tc.mptcp.meta_rcv_buf_max = meta_buf;
  tc.mptcp.tcp.snd_buf_max = tc.mptcp.tcp.rcv_buf_max = tcp_buf;
  tc.mptcp.dss_checksum = false;
  tc.mptcp.tcp.seed = seed;
  return tc;
}

size_t scaled(size_t n, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(
                                 static_cast<double>(n) * scale)));
}

/// One workload: topology, engines, the run, and what to read after it.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual void build_topology() = 0;
  virtual void build_engines() = 0;
  virtual void start() = 0;
  virtual void run() = 0;
  virtual Topology& topo() = 0;
  virtual bool is_server(NodeId n) const = 0;
  virtual void collect(Outcome& out) = 0;
};

// --- fleet --------------------------------------------------------------
// bench_fleet's Internet mix on ~500 islands, one shard. FleetEngine
// builds topology and engines together in its constructor and starts the
// engines inside run(), so on this workload setup.workload_s is 0 and
// run_s includes the engines' start().
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(uint64_t seed, double scale) {
    spec_.clients = scaled(500, scale);
    spec_.seed = seed;
    spec_.shards = 1;
    spec_.duration = 2 * kSecond;
    spec_.p_stripper = 0.15;
    spec_.p_nat = 0.30;
    spec_.p_corrupter = 0.05;
    spec_.p_handover = 0.10;
    spec_.p_storm = 0.10;
    spec_.p_rebind = 0.25;
  }
  void build_topology() override {
    fleet_ = std::make_unique<FleetEngine>(spec_);
    for (size_t i = 0; i < fleet_->island_count(); ++i) {
      const size_t l = fleet_->island_server_link(i);
      Topology& t = fleet_->topo();
      for (NodeId n : {t.link_node_a(l), t.link_node_b(l)}) {
        if (!t.is_router(n)) servers_.insert(n);
      }
    }
  }
  void build_engines() override {}
  void start() override {}
  void run() override { fleet_->run(); }
  Topology& topo() override { return fleet_->topo(); }
  bool is_server(NodeId n) const override { return servers_.count(n) != 0; }
  void collect(Outcome& out) override {
    // FleetEngine owns the on_flow_done hook; it keeps every sample and
    // takes exact percentiles at microsecond resolution (no p999).
    const FleetMetrics m = fleet_->metrics();
    out.duration = spec_.duration;
    out.attempted = m.flows_started;
    out.failed = m.flows_errored;
    out.completed = m.flows_completed;
    out.bytes = m.bytes_received;
    for (size_t i = 0; i < fleet_->island_count(); ++i) {
      out.peak_conns += fleet_->island_engine(i).peak_concurrent();
    }
    out.core.connections = m.connections;
    out.core.fallbacks = m.fallbacks;
    out.core.m1 = m.m1_opportunistic_rtx;
    out.core.m2 = m.m2_penalizations;
    out.core.m3 = m.m3_autotune_resizes;
    out.core.m4 = m.m4_cap_activations;
    out.core.checksum_failures = m.checksum_failures;
    out.core.subflow_resets = m.subflow_resets;
    out.handovers = m.handovers;
    out.storm_removals = m.storm_removals;
    out.nat_rebinds = m.nat_rebinds;
    out.fct.samples = m.fct_samples;
    out.fct.p50 = static_cast<SimTime>(m.fct_p50_us) * kMicrosecond;
    out.fct.p99 = static_cast<SimTime>(m.fct_p99_us) * kMicrosecond;
  }

 private:
  FleetSpec spec_;
  std::unique_ptr<FleetEngine> fleet_;
  std::set<NodeId> servers_;
};

// --- capacity and serving --------------------------------------------
// Both run on build_capacity_topology: N dual-homed clients, two 2 Gbps
// bottlenecks, 4 servers, 3 s simulated, one engine.
class CapacityShapeWorkload final : public Workload {
 public:
  /// `pooled`: the classes serve requests over connection pools, which
  /// are not engine flows, so connections are counted from the live
  /// client-side MPTCP scopes at the end of the run (the pools are
  /// persistent, so that is their steady population).
  CapacityShapeWorkload(uint64_t seed, size_t clients,
                        std::vector<FlowClass> classes, bool pooled)
      : seed_(seed), classes_(std::move(classes)), pooled_(pooled) {
    spec_.clients = clients;
    spec_.servers = 4;
    spec_.bottleneck_rate_bps = 2e9;
  }
  void build_topology() override {
    cap_ = build_capacity_topology(spec_, seed_);
  }
  void build_engines() override {
    WorkloadConfig wc;
    wc.clients = cap_.clients;
    wc.servers = cap_.servers;
    wc.seed = seed_;
    wc.classes = classes_;
    attach(wc, acc_, cap_.topo->loop());
    engine_ = std::make_unique<WorkloadEngine>(*cap_.topo, std::move(wc));
  }
  void start() override { engine_->start(); }
  void run() override { cap_.topo->loop().run_until(kDuration); }
  Topology& topo() override { return *cap_.topo; }
  bool is_server(NodeId n) const override {
    return std::find(cap_.servers.begin(), cap_.servers.end(), n) !=
           cap_.servers.end();
  }
  void collect(Outcome& out) override {
    out.duration = kDuration;
    fold_engines({engine_.get()}, {&acc_}, out);
    if (!pooled_) return;
    std::set<std::string> scopes;
    for (const auto& [key, v] : cap_.topo->stats().flatten()) {
      if (key.rfind("mptcp.client", 0) == 0) {
        scopes.insert(key.substr(0, key.find('.', 6)));
      }
    }
    out.peak_conns = scopes.size();
    out.core.connections = scopes.size();
  }

 private:
  static constexpr SimTime kDuration = 3 * kSecond;
  uint64_t seed_;
  std::vector<FlowClass> classes_;
  bool pooled_;
  CapacitySpec spec_;
  CapacityTopology cap_;
  EngineAcc acc_;
  std::unique_ptr<WorkloadEngine> engine_;
};

/// bench_capacity's full scale: 100 persistent bulk connections per
/// client plus 10/s Poisson churn (exponential, 20 KB mean) whose FCTs
/// are measured.
std::vector<FlowClass> capacity_classes(uint64_t seed) {
  FlowClass bulk;
  bulk.name = "bulk";
  bulk.arrival_rate_hz = 0;
  bulk.persistent_per_client = 100;
  bulk.transport = capacity_transport(16 * 1024, 8 * 1024, seed);
  FlowClass churn;
  churn.name = "churn";
  churn.arrival_rate_hz = 10.0;
  churn.size_dist = FlowClass::SizeDist::kExponential;
  churn.mean_size = 20 * 1000;
  churn.min_size = 1000;
  churn.max_size = 1000 * 1000;
  churn.transport = capacity_transport(64 * 1024, 32 * 1024, seed ^ 0x5bd1);
  return {bulk, churn};
}

/// Open-loop framed requests (Poisson, 150/s per client, Pareto sizes
/// with 40 KB mean and 1 KB minimum) over pools of 4 multiplexed
/// persistent connections to admission-capped ServerApps. With 48
/// clients the offered load is ~2.3 Gbps over the two 2 Gbps bottlenecks
/// (~58% each). Latency runs from each request's issued_at, its due
/// time: the engine's arrival timer submits every request at its drawn
/// time whatever the pool's state, so the generator never falls behind
/// in simulated time and pool queueing counts toward the latency.
std::vector<FlowClass> serving_classes(uint64_t seed) {
  FlowClass c;
  c.name = "serving";
  c.app_mode = FlowClass::AppMode::kServing;
  c.request_rate_hz = 150.0;
  c.size_dist = FlowClass::SizeDist::kPareto;
  c.mean_size = 40 * 1000;
  c.min_size = 1000;
  c.max_size = 2 * 1000 * 1000;
  c.pool.connections = 4;
  c.pool.max_mux = 8;
  c.server.max_pipeline = 32;
  c.server.max_inflight = 384;
  c.server.service.kind = ServiceTimeModel::Kind::kExponential;
  c.server.service.mean = 1 * kMillisecond;
  c.transport = capacity_transport(64 * 1024, 32 * 1024, seed);
  return {c};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        uint64_t seed, double scale) {
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed, scale);
  if (name == "capacity") {
    return std::make_unique<CapacityShapeWorkload>(
        seed, scaled(50, scale), capacity_classes(seed), false);
  }
  if (name == "serving") {
    return std::make_unique<CapacityShapeWorkload>(
        seed, scaled(48, scale), serving_classes(seed), true);
  }
  return nullptr;
}

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Ordered JSON object writer for the runner's single output line.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

struct SetupTimes {
  double topology_s = 0;
  double workload_s = 0;
  double total() const { return topology_s + workload_s; }
};

/// Builds a workload up to a started engine. With `probes`, splices them
/// after the engines exist and before start(), outside the timed spans,
/// so set-up time is the same with and without tracing. `rss_kb`, when
/// given, receives the resident set size just before start().
SetupTimes set_up(Workload& w, ProbeSet* probes, double* rss_kb) {
  SetupTimes t;
  const double t0 = wall_now();
  w.build_topology();
  const double t1 = wall_now();
  w.build_engines();
  const double t2 = wall_now();
  if (probes != nullptr) {
    probes->splice_all(w.topo(), [&w](NodeId n) { return w.is_server(n); });
  }
  if (rss_kb != nullptr) *rss_kb = rss_now_kb();
  const double t3 = wall_now();
  w.start();
  const double t4 = wall_now();
  t.topology_s = t1 - t0;
  t.workload_s = (t2 - t1) + (t4 - t3);
  return t;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-ups per repetition; the median is setup_s.
constexpr int kSetupReps = 9;

int run(const std::string& name, uint64_t seed, bool trace, double scale) {
  std::unique_ptr<Workload> w = make_workload(name, seed, scale);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  JsonOut js;
  js.str("workload", name);
  js.num("seed", static_cast<double>(seed));
  js.num("scale", scale);
  js.str("build_type", PERFBENCH_BUILD_TYPE);
  js.str("compiler", PERFBENCH_COMPILER);
  js.num("sanitizer", sanitized_build() ? 1 : 0);
#ifdef NDEBUG
  js.num("asserts", 0);
#else
  js.num("asserts", 1);
#endif

  // --- set-up (the first, cold one feeds the run) ----------------------
  ProbeSet probes;
  double rss_before_start_kb = 0;
  const SetupTimes first =
      set_up(*w, trace ? &probes : nullptr, &rss_before_start_kb);
  Topology& topo = w->topo();

  // --- the timed run ----------------------------------------------------
  const double cpu0 = cpu_now();
  const double r0 = wall_now();
  w->run();
  const double run_s = wall_now() - r0;
  const double cpu_s = cpu_now() - cpu0;
  const double peak_kb = peak_rss_kb();

  // --- read outcomes and layer counters ---------------------------------
  Outcome out;
  w->collect(out);

  uint64_t ev_fired = 0, ev_sched = 0, ev_cancel = 0;
  uint64_t tcp_sent = 0, tcp_recv = 0, tcp_rtx = 0, tcp_rto = 0, tcp_rwnd = 0;
  double snd_mem = 0, rcv_mem = 0;
  for (size_t s = 0; s < topo.shard_count(); ++s) {
    EventLoop& loop = topo.loop(s);
    ev_fired += loop.events_fired();
    ev_sched += loop.events_scheduled();
    ev_cancel += loop.events_cancelled();
    StatsRegistry& reg = topo.stats(s);
    auto counter = [&reg](const char* k) -> uint64_t {
      const Counter* c = reg.find_counter(k);
      return c == nullptr ? 0 : c->value();
    };
    tcp_sent += counter("tcp.segments_sent");
    tcp_recv += counter("tcp.segments_received");
    tcp_rtx += counter("tcp.retransmits");
    tcp_rto += counter("tcp.rto_firings");
    tcp_rwnd += counter("tcp.rwnd_stalls");
    for (const auto& [key, v] : reg.flatten()) {
      if (key.rfind("mptcp.", 0) != 0) continue;
      if (key.ends_with(".snd_mem_bytes")) snd_mem += v;
      if (key.ends_with(".rcv_mem_bytes")) rcv_mem += v;
    }
  }
  uint64_t link_enq = 0, link_ovf = 0, link_loss = 0, router_fwd = 0;
  for (size_t l = 0; l < topo.link_count(); ++l) {
    for (const Link* link : {&topo.link_ab(l), &topo.link_ba(l)}) {
      link_enq += link->stats().enqueued_pkts;
      link_ovf += link->stats().dropped_overflow;
      link_loss += link->stats().dropped_loss;
    }
  }
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.is_router(n)) router_fwd += topo.router(n).forwarded();
  }
  const Payload::PoolStats pool = Payload::pool_stats();

  Fingerprint fp;
  for (uint64_t v :
       {out.attempted, out.failed, out.rejected, out.completed, out.bytes,
        out.peak_conns, out.fct.samples,
        static_cast<uint64_t>(out.fct.p50), static_cast<uint64_t>(out.fct.p99),
        static_cast<uint64_t>(out.fct.p999), out.core.connections,
        out.core.fallbacks,
        out.core.m1, out.core.m2, out.core.m3, out.core.m4,
        out.core.checksum_failures, out.core.subflow_resets, out.handovers,
        out.storm_removals, out.nat_rebinds,
        ev_fired, ev_sched, ev_cancel, tcp_sent, tcp_recv, tcp_rtx, tcp_rto,
        tcp_rwnd, link_enq, link_ovf, link_loss, router_fwd,
        static_cast<uint64_t>(snd_mem), static_cast<uint64_t>(rcv_mem)}) {
    fp.add(v);
  }
  for (int64_t v : out.fct_ns) fp.add(static_cast<uint64_t>(v));
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp.value()));

  const double sim_s = to_seconds(out.duration);
  js.str("fingerprint", fp_hex);
  // Host cost.
  js.num("run_s", run_s);
  js.num("cpu_s", cpu_s);
  js.num("peak_rss_kb", peak_kb);
  js.num("rss_before_start_kb", rss_before_start_kb);
  // Simulated outcomes.
  js.num("sim_seconds", sim_s);
  js.num("app.ops_attempted", static_cast<double>(out.attempted));
  js.num("app.ops_failed", static_cast<double>(out.failed));
  js.num("app.ops_completed", static_cast<double>(out.completed));
  js.num("app.requests_rejected", static_cast<double>(out.rejected));
  js.num("app.bytes", static_cast<double>(out.bytes));
  js.num("app.peak_conns", static_cast<double>(out.peak_conns));
  js.num("app.fct_samples", static_cast<double>(out.fct.samples));
  js.num("fct_p50_ms", static_cast<double>(out.fct.p50) / kMillisecond);
  js.num("fct_p99_ms", static_cast<double>(out.fct.p99) / kMillisecond);
  js.num("fct_p999_ms", static_cast<double>(out.fct.p999) / kMillisecond);
  js.num("goodput_mbps", static_cast<double>(out.bytes) * 8.0 / sim_s / 1e6);
  // Layer counts.
  js.num("sim.events_fired", static_cast<double>(ev_fired));
  js.num("sim.events_scheduled", static_cast<double>(ev_sched));
  js.num("sim.events_cancelled", static_cast<double>(ev_cancel));
  js.num("sim.link.enqueued_pkts", static_cast<double>(link_enq));
  js.num("sim.link.dropped_overflow", static_cast<double>(link_ovf));
  js.num("sim.link.dropped_loss", static_cast<double>(link_loss));
  js.num("sim.router.forwarded", static_cast<double>(router_fwd));
  js.num("net.payload.pool_hits", static_cast<double>(pool.hits));
  js.num("net.payload.pool_misses", static_cast<double>(pool.misses));
  js.num("tcp.segments_sent", static_cast<double>(tcp_sent));
  js.num("tcp.segments_received", static_cast<double>(tcp_recv));
  js.num("tcp.retransmits", static_cast<double>(tcp_rtx));
  js.num("tcp.rto_firings", static_cast<double>(tcp_rto));
  js.num("tcp.rwnd_stalls", static_cast<double>(tcp_rwnd));
  js.num("core.connections", static_cast<double>(out.core.connections));
  js.num("core.fallbacks", static_cast<double>(out.core.fallbacks));
  js.num("core.m1_opportunistic_rtx", static_cast<double>(out.core.m1));
  js.num("core.m2_penalizations", static_cast<double>(out.core.m2));
  js.num("core.m3_autotune_resizes", static_cast<double>(out.core.m3));
  js.num("core.m4_cap_activations", static_cast<double>(out.core.m4));
  js.num("core.checksum_failures",
         static_cast<double>(out.core.checksum_failures));
  js.num("core.subflow_resets", static_cast<double>(out.core.subflow_resets));
  js.num("core.snd_mem_bytes", snd_mem);
  js.num("core.rcv_mem_bytes", rcv_mem);
  js.num("middlebox.handovers", static_cast<double>(out.handovers));
  js.num("middlebox.storm_removals", static_cast<double>(out.storm_removals));
  js.num("middlebox.nat_rebinds", static_cast<double>(out.nat_rebinds));
  if (trace) {
    const ProbeTotals router = probes.totals(ProbeSide::kRouter);
    const ProbeTotals server = probes.totals(ProbeSide::kServerHost);
    const ProbeTotals client = probes.totals(ProbeSide::kClientHost);
    js.num("sim.router.rx_s", router.seconds);
    js.num("sim.router.rx_calls", static_cast<double>(router.calls));
    js.num("sim.router.rx_segments", static_cast<double>(router.segments));
    js.num("sim.host.server_rx_s", server.seconds);
    js.num("sim.host.server_rx_calls", static_cast<double>(server.calls));
    js.num("sim.host.server_rx_segments",
           static_cast<double>(server.segments));
    js.num("sim.host.client_rx_s", client.seconds);
    js.num("sim.host.client_rx_calls", static_cast<double>(client.calls));
    js.num("sim.host.client_rx_segments",
           static_cast<double>(client.segments));
    // Every workload runs on one shard, so the spans partition run_s.
    js.num("sim.loop.self_s",
           run_s - router.seconds - server.seconds - client.seconds);
  }

  // --- repeated set-up ----------------------------------------------------
  // Further set-ups of the same inputs, each torn down unrun, after the
  // run's memory has been measured; the median over all of them is
  // setup_s.
  std::vector<SetupTimes> setups = {first};
  w.reset();
  for (int i = 1; i < kSetupReps; ++i) {
    std::unique_ptr<Workload> again = make_workload(name, seed, scale);
    setups.push_back(set_up(*again, nullptr, nullptr));
  }
  std::vector<double> topo_s, work_s, total_s;
  for (const SetupTimes& t : setups) {
    topo_s.push_back(t.topology_s);
    work_s.push_back(t.workload_s);
    total_s.push_back(t.total());
  }
  js.num("setup.topology_s", median(topo_s));
  js.num("setup.workload_s", median(work_s));
  js.num("setup_s", median(total_s));
  std::printf("%s\n", js.done().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--scale" && i + 1 < argc) {
      scale = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (workload.empty() || !(scale > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME [--seed N] "
                 "[--trace] [--scale F]\n");
    return 2;
  }
  return perfbench::run(workload, seed, trace, scale);
}
