#include "app/workload.h"

#include <algorithm>
#include <cmath>

namespace mptcp {

namespace {

/// "Infinite" response size for persistent connections: large enough to
/// outlast any simulated run (2 TB).
constexpr uint64_t kPersistentBytes = 1ULL << 41;

/// Shape of the FlowClass::SizeDist::kPareto size distribution.
constexpr double kParetoAlpha = 1.5;

/// "c<j>" + `suffix`, the name and stats prefix of capacity cell j. Built
/// with append(): GCC 12 reports a false -Wrestrict (GCC bug 105651) on
/// `"c" + std::to_string(j) + ...` once it is inlined.
std::string cell_prefix(size_t j, const char* suffix = ".") {
  return std::string("c").append(std::to_string(j)).append(suffix);
}

/// Adds one capacity cell (workload.h) to `topo`, every node pinned to
/// `shard` and named `prefix` + its role: routers agg-a, agg-b and core,
/// the dual-homed clients, bottleneck-a and bottleneck-b, then the
/// servers. This order fixes the node ids, link indices and loss seeds
/// that the capacity determinism digests pin.
ShardedCapacity::Cell declare_capacity_cell(Topology& topo,
                                            const CapacitySpec& spec,
                                            const std::string& prefix,
                                            size_t shard) {
  LinkConfig access;
  access.rate_bps = spec.access_rate_bps;
  access.prop_delay = spec.access_delay;
  access.buffer_bytes = std::max<size_t>(
      LinkConfig::buffer_for_delay(spec.access_rate_bps, 5 * kMillisecond),
      3000);

  LinkConfig bottleneck;
  bottleneck.rate_bps = spec.bottleneck_rate_bps;
  bottleneck.prop_delay = spec.bottleneck_delay;
  bottleneck.buffer_bytes = std::max<size_t>(
      LinkConfig::buffer_for_delay(spec.bottleneck_rate_bps,
                                   spec.bottleneck_buffer_delay),
      3000);

  ShardedCapacity::Cell cell;
  cell.agg_a = topo.add_router(prefix + "agg-a", shard);
  cell.agg_b = topo.add_router(prefix + "agg-b", shard);
  cell.core = topo.add_router(prefix + "core", shard);
  for (size_t i = 0; i < spec.clients; ++i) {
    const NodeId c =
        topo.add_host(prefix + "client" + std::to_string(i), shard);
    topo.connect(c, cell.agg_a, access, access);
    topo.connect(c, cell.agg_b, access, access);
    cell.clients.push_back(c);
  }
  cell.bottleneck_a = topo.connect(cell.agg_a, cell.core, bottleneck,
                                   bottleneck, prefix + "bottleneck-a");
  cell.bottleneck_b = topo.connect(cell.agg_b, cell.core, bottleneck,
                                   bottleneck, prefix + "bottleneck-b");
  for (size_t i = 0; i < spec.servers; ++i) {
    const NodeId s =
        topo.add_host(prefix + "server" + std::to_string(i), shard);
    topo.connect(cell.core, s, access, access);
    cell.servers.push_back(s);
  }
  return cell;
}

}  // namespace

CapacityTopology build_capacity_topology(const CapacitySpec& spec,
                                         uint64_t seed) {
  CapacityTopology out;
  out.topo = std::make_unique<Topology>(seed);
  static_cast<ShardedCapacity::Cell&>(out) =
      declare_capacity_cell(*out.topo, spec, "", 0);
  out.topo->build_routes();
  return out;
}

WorkloadEngine::WorkloadEngine(Topology& topo, WorkloadConfig cfg)
    : topo_(topo), cfg_(std::move(cfg)) {
#ifndef NDEBUG
  // The engine's timers, flow bookkeeping and stats all live in shard
  // cfg_.shard; a client host in another shard would be driven from the
  // wrong thread.
  for (NodeId c : cfg_.clients) assert(topo_.shard_of(c) == cfg_.shard);
#endif
  StatsRegistry& reg = topo_.stats(cfg_.shard);
  classes_.reserve(cfg_.classes.size());
  for (size_t k = 0; k < cfg_.classes.size(); ++k) {
    ClassState cs;
    cs.spec = cfg_.classes[k];
    cs.scope =
        reg.unique_scope(cfg_.scope_prefix + "workload." + cs.spec.name);
    classes_.push_back(std::move(cs));
  }
  // Register after the vector is final so the lambdas can capture stable
  // element pointers.
  for (ClassState& cs : classes_) {
    ClassState* p = &cs;
    reg.sampled(cs.scope + ".started",
                [p] { return static_cast<double>(p->started); });
    reg.sampled(cs.scope + ".completed",
                [p] { return static_cast<double>(p->completed); });
    reg.sampled(cs.scope + ".errors",
                [p] { return static_cast<double>(p->errors); });
    reg.sampled(cs.scope + ".bytes_received",
                [p] { return static_cast<double>(p->bytes); });
    cs.fct_us = &reg.histogram(cs.scope + ".fct_us");
    Histogram* h = cs.fct_us;
    reg.sampled(cs.scope + ".fct_p50_us",
                [h] { return static_cast<double>(h->approx_percentile(0.5)); });
    reg.sampled(cs.scope + ".fct_p99_us",
                [h] { return static_cast<double>(h->approx_percentile(0.99)); });
  }
  // Serving-stack keys exist only for serving-mode classes: legacy
  // scenarios keep a byte-identical stats export (the determinism digests
  // fold the export, so a new key on a pinned path would break the pins).
  for (size_t k = 0; k < classes_.size(); ++k) {
    ClassState& cs = classes_[k];
    if (cs.spec.app_mode == FlowClass::AppMode::kConnectionPerTransfer) {
      continue;
    }
    ClassState* p = &cs;
    cs.req_fct_us = &reg.fine_histogram(cs.scope + ".req_fct_us");
    reg.sampled(cs.scope + ".requests_rejected",
                [p] { return static_cast<double>(p->rejected); });
    reg.sampled(cs.scope + ".outstanding", [this, k] {
      return static_cast<double>(outstanding_requests(k));
    });
    // Server-side admission counters, summed over this class's servers.
    const auto sum_servers = [this, k](auto&& get) {
      double n = 0;
      for (size_t i = k; i < servers_.size(); i += classes_.size()) {
        if (servers_[i].serving) n += get(*servers_[i].serving);
      }
      return n;
    };
    reg.sampled(cs.scope + ".srv_served", [sum_servers] {
      return sum_servers(
          [](const ServerApp& s) { return s.requests_served(); });
    });
    reg.sampled(cs.scope + ".srv_rejected", [sum_servers] {
      return sum_servers(
          [](const ServerApp& s) { return s.requests_rejected(); });
    });
    reg.sampled(cs.scope + ".srv_peak_inflight", [sum_servers] {
      return sum_servers(
          [](const ServerApp& s) { return s.peak_inflight(); });
    });
    reg.sampled(cs.scope + ".srv_conns_refused", [sum_servers] {
      return sum_servers(
          [](const ServerApp& s) { return s.conns_refused(); });
    });
  }
  reg.sampled(cfg_.scope_prefix + "workload.concurrent",
              [this] { return static_cast<double>(flows_.size()); });
  reg.sampled(cfg_.scope_prefix + "workload.peak_concurrent",
              [this] { return static_cast<double>(peak_concurrent_); });
}

WorkloadEngine::~WorkloadEngine() {
  for (auto& [ptr, flow] : flows_) {
    if (flow->sock != nullptr) {
      flow->sock->on_connected = nullptr;
      flow->sock->on_readable = nullptr;
      flow->sock->on_send_space = nullptr;
      flow->sock->on_closed = nullptr;
    }
  }
  StatsRegistry& reg = topo_.stats(cfg_.shard);
  for (ClassState& cs : classes_) reg.remove_scope(cs.scope);
  reg.remove(cfg_.scope_prefix + "workload.concurrent");
  reg.remove(cfg_.scope_prefix + "workload.peak_concurrent");
}

void WorkloadEngine::start() {
  if (started_) return;
  started_ = true;

  // Servers: one factory + service per (server host, class), since the
  // transport of a listening port is a property of the class. Legacy
  // classes get the MPGET server; serving-mode classes get a ServerApp.
  for (NodeId s : cfg_.servers) {
    for (size_t k = 0; k < classes_.size(); ++k) {
      const FlowClass& spec = classes_[k].spec;
      ServerSlot slot;
      slot.factory = std::make_unique<SocketFactory>(topo_.host(s),
                                                     spec.transport);
      if (spec.app_mode == FlowClass::AppMode::kConnectionPerTransfer) {
        slot.http = std::make_unique<HttpServer>(
            *slot.factory, static_cast<Port>(cfg_.base_port + k));
        slot.http->on_conn_done = cfg_.on_server_conn_done;
      } else {
        ServingConfig sc = spec.server;
        // Distinct service-time stream per (server host, class) slot.
        sc.seed ^= cfg_.seed ^
                   (0x2545f4914f6cdd1dULL * (servers_.size() + 1));
        slot.serving = std::make_unique<ServerApp>(
            *slot.factory, static_cast<Port>(cfg_.base_port + k), sc);
      }
      servers_.push_back(std::move(slot));
    }
  }

  // Clients: per (host, class) factory, arrival clock and rng stream.
  // Streams and staggers key off the client's *global* id, so a workload
  // partitioned across several engines (sharded cells) draws exactly the
  // streams one engine owning every client would.
  for (size_t ci = 0; ci < cfg_.clients.size(); ++ci) {
    const uint64_t gid =
        ci < cfg_.client_ids.size() ? cfg_.client_ids[ci] : ci;
    for (size_t k = 0; k < classes_.size(); ++k) {
      auto slot = std::make_unique<ClientSlot>();
      slot->eng = this;
      slot->cls = k;
      slot->node = cfg_.clients[ci];
      slot->factory = std::make_unique<SocketFactory>(
          topo_.host(slot->node), classes_[k].spec.transport);
      slot->rng.reseed(cfg_.seed ^ (0x9e3779b97f4a7c15ULL * (gid + 1)) ^
                       (0xd1342543de82ef95ULL * (k + 1)));
      // Stagger round-robin cursors so client i does not start on the
      // same server as client i+1.
      slot->gid = gid;
      slot->next_server = static_cast<size_t>(gid);
      slot->next_local = static_cast<size_t>(gid);
      slots_.push_back(std::move(slot));
    }
  }

  for (auto& slot : slots_) {
    const FlowClass& spec = classes_[slot->cls].spec;
    if (spec.app_mode != FlowClass::AppMode::kConnectionPerTransfer) {
      start_serving_slot(*slot, slot->gid);
      continue;
    }
    // Persistent connections ramp up over the first simulated second in a
    // deterministic stagger, so the handshake burst does not synchronize.
    for (size_t i = 0; i < spec.persistent_per_client; ++i) {
      const SimTime at =
          static_cast<SimTime>(slot->rng.next_below(1000)) * kMillisecond;
      ClientSlot* raw = slot.get();
      topo_.loop(cfg_.shard).schedule_in(at, [this, raw] {
        if (!stopped_) launch(*raw, /*persistent=*/true);
      });
    }
    if (spec.arrival_rate_hz > 0) {
      ClientSlot* raw = slot.get();
      slot->arrival =
          std::make_unique<Timer>(topo_.loop(cfg_.shard), [this, raw] {
        if (stopped_) return;
        launch(*raw, /*persistent=*/false);
        schedule_arrival(*raw);
      });
      schedule_arrival(*slot);
    }
  }
}

void WorkloadEngine::stop() {
  stopped_ = true;
  for (auto& slot : slots_) {
    if (slot->arrival) slot->arrival->cancel();
    if (slot->pool) slot->pool->stop();
  }
}

void WorkloadEngine::schedule_arrival(ClientSlot& slot) {
  const ClassState& cs = classes_[slot.cls];
  const FlowClass& spec = cs.spec;
  // Serving classes pace *requests*; the legacy mode paces connections.
  const double rate = spec.app_mode == FlowClass::AppMode::kServing
                          ? spec.request_rate_hz * cs.rate_scale
                          : spec.arrival_rate_hz;
  if (rate <= 0) return;
  const double secs = slot.rng.next_exponential(1.0 / rate);
  const auto dt = std::max<SimTime>(
      1, static_cast<SimTime>(secs * static_cast<double>(kSecond)));
  slot.arrival->arm_in(dt);
}

uint64_t WorkloadEngine::sample_size(const FlowClass& spec, Rng& rng) {
  switch (spec.size_dist) {
    case FlowClass::SizeDist::kFixed:
      return spec.mean_size;
    case FlowClass::SizeDist::kExponential: {
      const double v =
          rng.next_exponential(static_cast<double>(spec.mean_size));
      return std::clamp(static_cast<uint64_t>(v), spec.min_size,
                        spec.max_size);
    }
    case FlowClass::SizeDist::kPareto: {
      // Heavy-tailed sizes with the requested mean: xm = mean(a-1)/a.
      constexpr double a = kParetoAlpha;
      const double xm = static_cast<double>(spec.mean_size) * (a - 1.0) / a;
      const double u = 1.0 - rng.next_double();  // (0, 1]
      const double v = xm / std::pow(u, 1.0 / a);
      return std::clamp(static_cast<uint64_t>(v), spec.min_size,
                        spec.max_size);
    }
  }
  return spec.mean_size;
}

void WorkloadEngine::launch(ClientSlot& slot, bool persistent) {
  ClassState& cls = classes_[slot.cls];
  const FlowClass& spec = cls.spec;

  const NodeId server = cfg_.servers[slot.next_server % cfg_.servers.size()];
  ++slot.next_server;
  const auto& saddrs = topo_.addrs(server);
  const Endpoint remote{saddrs[slot.next_server % saddrs.size()],
                        static_cast<Port>(cfg_.base_port + slot.cls)};

  // First-subflow source address: round-robin over the client's
  // interfaces.
  const auto& laddrs = topo_.addrs(slot.node);
  const IpAddr local = laddrs[slot.next_local % laddrs.size()];
  ++slot.next_local;

  auto flow = std::make_unique<Flow>();
  Flow* f = flow.get();
  f->eng = this;
  f->cls = slot.cls;
  f->id = next_flow_id_++;
  f->start = topo_.loop(cfg_.shard).now();
  f->want = persistent ? kPersistentBytes : sample_size(spec, slot.rng);
  f->persistent = persistent;

  StreamSocket& s = slot.factory->connect(local, remote);
  slot.factory->release_when_closed(s);
  f->sock = &s;
  ++cls.started;
  flows_.emplace(f, std::move(flow));
  peak_concurrent_ = std::max(peak_concurrent_, flows_.size());

  s.on_connected = [f] { f->sock->write(make_http_request(f->want)); };
  s.on_readable = [this, f] { drain(*f); };
  s.on_closed = [this, f] {
    if (!f->done) finish(*f, /*ok=*/false);
  };
}

void WorkloadEngine::drain(Flow& f) {
  ClassState& cls = classes_[f.cls];
  // The engine checks bytes in place on the receive queue's views, then
  // consume() releases them with no copy at all. Consumption stays in
  // 16 KiB steps: the cadence of receive window updates (hence the packet
  // trace) depends on how much is released per call, and this matches
  // the historical read-loop quantum.
  for (;;) {
    const size_t n = std::min<size_t>(f.sock->readable_bytes(), 16 * 1024);
    if (n == 0) break;
    checked_.record(*f.sock, readable_pattern_mismatches(*f.sock, f.got, n));
    f.sock->consume(n);
    f.got += n;
    cls.bytes += n;
  }
  if (!f.done && f.sock->at_eof()) finish(f, /*ok=*/f.got == f.want);
}

void WorkloadEngine::finish(Flow& f, bool ok) {
  ClassState& cls = classes_[f.cls];
  f.done = true;
  if (ok) {
    ++cls.completed;
    if (!f.persistent) {
      cls.fct_us->record(static_cast<uint64_t>(
          (topo_.loop(cfg_.shard).now() - f.start) / 1000));
    }
  } else {
    ++cls.errors;
  }
  // Observers see the socket before close(): per-connection transport
  // state (fallback mode, meta stats) is still intact here.
  if (cfg_.on_flow_done) {
    cfg_.on_flow_done(*f.sock,
                      FlowReport{f.cls, ok, f.persistent, f.start, f.got});
  }
  f.sock->close();
  detach(f);
}

PayloadCheck WorkloadEngine::payload_check() const {
  PayloadCheck total = checked_;
  for (const auto& slot : slots_) {
    if (slot->pool) total += slot->pool->payload_check();
  }
  return total;
}

void WorkloadEngine::for_each_open_socket(
    const std::function<void(StreamSocket&, const FlowReport&)>& fn) {
  std::vector<const Flow*> open;
  open.reserve(flows_.size());
  for (const auto& [ptr, flow] : flows_) open.push_back(flow.get());
  std::sort(open.begin(), open.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
  for (const Flow* f : open) {
    if (f->sock == nullptr) continue;
    fn(*f->sock, FlowReport{f->cls, /*ok=*/false, f->persistent, f->start,
                            f->got});
  }
}

void WorkloadEngine::for_each_open_server_conn(
    const std::function<void(StreamSocket&)>& fn) {
  for (ServerSlot& slot : servers_) {
    if (slot.http) slot.http->for_each_conn(fn);
    if (slot.serving) slot.serving->for_each_conn(fn);
  }
}

// ---------------------------------------------------------------------------
// Serving-stack paths (kServing classes)
// ---------------------------------------------------------------------------

void WorkloadEngine::start_serving_slot(ClientSlot& slot, uint64_t gid) {
  const FlowClass& spec = classes_[slot.cls].spec;

  // One pool per (client, class), pinned to one server: client gid's pool
  // talks to server gid mod servers -- deterministic spread without
  // per-request server churn (persistent connections are the point).
  const NodeId server = cfg_.servers[gid % cfg_.servers.size()];
  const auto& saddrs = topo_.addrs(server);
  const Endpoint remote{saddrs[gid % saddrs.size()],
                        static_cast<Port>(cfg_.base_port + slot.cls)};
  const auto& laddrs = topo_.addrs(slot.node);
  const IpAddr local = laddrs[gid % laddrs.size()];

  slot.pool = std::make_unique<ConnectionPool>(*slot.factory, local, remote,
                                               spec.pool);
  ClientSlot* raw = &slot;
  slot.pool->on_done = [this, raw](const RequestOutcome& out) {
    on_request_outcome(*raw, out);
  };
  // Stagger pool dial-out over the first 100 ms so the handshake burst
  // does not synchronize across clients. Requests submitted before the
  // pool connects just wait in its queue.
  const SimTime dial_at =
      static_cast<SimTime>(slot.rng.next_below(100)) * kMillisecond;
  topo_.loop(cfg_.shard).schedule_in(dial_at, [this, raw] {
    if (!stopped_) raw->pool->start();
  });

  slot.arrival = std::make_unique<Timer>(topo_.loop(cfg_.shard),
                                         [this, raw] {
    if (stopped_) return;
    submit_request(*raw);
    schedule_arrival(*raw);
  });
  schedule_arrival(slot);
}

void WorkloadEngine::submit_request(ClientSlot& slot) {
  ClassState& cls = classes_[slot.cls];
  ++cls.started;
  slot.pool->submit(sample_size(cls.spec, slot.rng));
}

void WorkloadEngine::on_request_outcome(ClientSlot& slot,
                                        const RequestOutcome& out) {
  ClassState& cls = classes_[slot.cls];
  const uint64_t fct_us = static_cast<uint64_t>(
      (out.done_at - out.issued_at) / 1000);
  cls.bytes += out.bytes;
  if (out.ok) {
    ++cls.completed;
    cls.fct_us->record(fct_us);
    if (cls.req_fct_us != nullptr) cls.req_fct_us->record(fct_us);
  } else if (out.rejected) {
    ++cls.rejected;
  } else {
    ++cls.errors;
  }
  if (cfg_.on_request_done) cfg_.on_request_done(slot.cls, out);
}

size_t WorkloadEngine::outstanding_requests(size_t cls) const {
  size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->cls == cls && slot->pool) {
      n += slot->pool->inflight() + slot->pool->queued();
    }
  }
  return n;
}

void WorkloadEngine::set_rate_scale(size_t cls, double scale) {
  classes_[cls].rate_scale = scale;
  // Re-arm pending arrival clocks so the new rate takes effect now, not
  // after one more old-rate inter-arrival gap.
  for (auto& slot : slots_) {
    if (slot->cls == cls && slot->arrival && slot->arrival->armed()) {
      schedule_arrival(*slot);
    }
  }
}

void WorkloadEngine::detach(Flow& f) {
  // The socket outlives the flow record (it is factory-owned until fully
  // closed), so its callbacks must not dangle into the erased Flow.
  f.sock->on_connected = nullptr;
  f.sock->on_readable = nullptr;
  f.sock->on_send_space = nullptr;
  f.sock->on_closed = nullptr;
  flows_.erase(&f);
}

uint64_t WorkloadEngine::total_completed() const {
  uint64_t total = 0;
  for (const ClassState& cs : classes_) total += cs.completed;
  return total;
}

ShardedCapacity build_sharded_capacity(const ShardedCapacitySpec& spec,
                                       uint64_t seed, size_t shards) {
  if (shards == 0) shards = 1;
  ShardedCapacity out;
  out.topo = std::make_unique<Topology>(seed, shards);
  Topology& topo = *out.topo;

  // Construction order (cells, then the ring) fixes every link index and
  // loss seed independently of the shard count: only node->shard pinning
  // changes with `shards`, never the graph.
  for (size_t j = 0; j < spec.cells; ++j) {
    out.cells.push_back(
        declare_capacity_cell(topo, spec.cell, cell_prefix(j), j % shards));
  }

  // The ring core[j] -> core[(j+1) % cells] carries cross-cell traffic;
  // its delay is the engine's epoch quantum.
  constexpr double kRingRateBps = 2e9;
  constexpr SimTime kRingDelay = 5 * kMillisecond;
  if (spec.cells > 1) {
    LinkConfig ring;
    ring.rate_bps = kRingRateBps;
    ring.prop_delay = kRingDelay;
    ring.buffer_bytes = std::max<size_t>(
        LinkConfig::buffer_for_delay(kRingRateBps, 20 * kMillisecond), 3000);
    for (size_t j = 0; j < spec.cells; ++j) {
      const size_t next = (j + 1) % spec.cells;
      out.ring_links.push_back(topo.connect(out.cells[j].core,
                                            out.cells[next].core, ring, ring,
                                            "ring-" + std::to_string(j)));
    }
  }

  topo.build_routes();
  return out;
}

ShardedCapacityWorkload::ShardedCapacityWorkload(ShardedCapacity& net,
                                                 const FlowClass& local,
                                                 const FlowClass& cross,
                                                 uint64_t seed) {
  Topology& topo = *net.topo;
  const size_t shards = topo.shard_count();
  const size_t cells = net.cells.size();
  const bool cross_on =
      cross.arrival_rate_hz > 0 || cross.persistent_per_client > 0;
  assert((!cross_on || cells <= 1 || !net.ring_links.empty()) &&
         "cross-cell traffic needs the ring");
  const size_t per_cell = cells == 0 ? 0 : net.cells[0].clients.size();

  for (size_t j = 0; j < cells; ++j) {
    const ShardedCapacity::Cell& cell = net.cells[j];
    std::vector<uint64_t> ids;
    ids.reserve(cell.clients.size());
    for (size_t i = 0; i < cell.clients.size(); ++i) {
      ids.push_back(j * per_cell + i);
    }

    WorkloadConfig wc;
    wc.clients = cell.clients;
    wc.servers = cell.servers;
    wc.classes.push_back(local);
    wc.seed = seed;
    wc.shard = j % shards;
    wc.scope_prefix = cell_prefix(j);
    wc.client_ids = ids;
    engines_.push_back(std::make_unique<WorkloadEngine>(topo, std::move(wc)));

    if (cross_on && cells > 1) {
      // Clients of cell j fetch from cell j+1's servers over the ring:
      // with cells == shards every byte of this class crosses a shard
      // boundary twice (request out, response back).
      WorkloadConfig xc;
      xc.clients = cell.clients;
      xc.servers = net.cells[(j + 1) % cells].servers;
      xc.classes.push_back(cross);
      xc.base_port = 9000;  // listeners coexist with the local class's
      xc.seed = seed ^ 0x517cc1b727220a95ULL;
      xc.shard = j % shards;
      xc.scope_prefix = cell_prefix(j, "x.");
      xc.client_ids = ids;
      engines_.push_back(
          std::make_unique<WorkloadEngine>(topo, std::move(xc)));
    }
  }
}

void ShardedCapacityWorkload::start() {
  for (auto& e : engines_) e->start();
}

void ShardedCapacityWorkload::stop() {
  for (auto& e : engines_) e->stop();
}

size_t ShardedCapacityWorkload::concurrent() const {
  size_t n = 0;
  for (const auto& e : engines_) n += e->concurrent();
  return n;
}

size_t ShardedCapacityWorkload::peak_concurrent_sum() const {
  size_t n = 0;
  for (const auto& e : engines_) n += e->peak_concurrent();
  return n;
}

uint64_t ShardedCapacityWorkload::total_completed() const {
  uint64_t n = 0;
  for (const auto& e : engines_) n += e->total_completed();
  return n;
}

uint64_t ShardedCapacityWorkload::total_errors() const {
  uint64_t n = 0;
  for (const auto& e : engines_) {
    for (size_t k = 0; k < e->class_count(); ++k) n += e->errors(k);
  }
  return n;
}

PayloadCheck ShardedCapacityWorkload::payload_check() const {
  PayloadCheck total;
  for (const auto& e : engines_) total += e->payload_check();
  return total;
}

uint64_t ShardedCapacityWorkload::bytes_received() const {
  uint64_t n = 0;
  for (const auto& e : engines_) {
    for (size_t k = 0; k < e->class_count(); ++k) n += e->bytes_received(k);
  }
  return n;
}

}  // namespace mptcp
