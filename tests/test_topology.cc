// Multi-host topology engine and workload engine: routing correctness,
// router accounting, per-address path pinning, and the registry-hygiene
// contract under heavy connection churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/bulk_app.h"
#include "app/harness.h"
#include "app/workload.h"

namespace mptcp {
namespace {

LinkConfig fast_link() {
  LinkConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.buffer_bytes = 64 * 1024;
  return cfg;
}

TransportConfig small_transport(TransportKind kind) {
  TransportConfig tc;
  tc.kind = kind;
  tc.mptcp.meta_snd_buf_max = tc.mptcp.meta_rcv_buf_max = 64 * 1024;
  tc.mptcp.tcp.snd_buf_max = tc.mptcp.tcp.rcv_buf_max = 32 * 1024;
  return tc;
}

/// Data crosses a two-router chain in both directions: every hop must have
/// a route to both endpoint addresses.
TEST(Topology, MultiHopChainDeliversBothWays) {
  Topology topo(7);
  const NodeId a = topo.add_host("a");
  const NodeId r1 = topo.add_router("r1");
  const NodeId r2 = topo.add_router("r2");
  const NodeId b = topo.add_host("b");
  topo.connect(a, r1, fast_link(), fast_link());
  topo.connect(r1, r2, fast_link(), fast_link());
  topo.connect(r2, b, fast_link(), fast_link());
  topo.build_routes();

  SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
  SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  BulkSender tx(c, 200 * 1000);

  topo.loop().run_until(2 * kSecond);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
  // Both routers carried both directions (data + ACKs).
  EXPECT_GT(topo.router(r1).forwarded(), 100u);
  EXPECT_GT(topo.router(r2).forwarded(), 100u);
  EXPECT_EQ(topo.router(r1).dropped_no_route(), 0u);
  EXPECT_EQ(topo.router(r2).dropped_no_route(), 0u);
}

/// Hosts gain one address per access link, in connect() order, and every
/// address in the topology is distinct.
TEST(Topology, AddressAssignmentIsPerLinkAndUnique) {
  Topology topo;
  const NodeId h = topo.add_host("h");
  const NodeId r = topo.add_router("r");
  const NodeId g = topo.add_host("g");
  topo.connect(h, r, fast_link(), fast_link());
  topo.connect(h, r, fast_link(), fast_link());  // second interface
  topo.connect(r, g, fast_link(), fast_link());

  ASSERT_EQ(topo.addrs(h).size(), 2u);
  ASSERT_EQ(topo.addrs(g).size(), 1u);
  EXPECT_TRUE(topo.addrs(r).empty()) << "routers are not addressed";
  std::set<uint32_t> all;
  for (NodeId n : {h, g}) {
    for (IpAddr a : topo.addrs(n)) all.insert(a.value);
  }
  EXPECT_EQ(all.size(), 3u) << "addresses must be globally distinct";
}

/// A router with no matching route and no default drops and counts.
TEST(Topology, RouterCountsUnroutablePackets) {
  EventLoop loop;
  Router r(loop, "lonely");
  TcpSegment seg;
  seg.tuple.src = {IpAddr(10, 0, 0, 1), 1000};
  seg.tuple.dst = {IpAddr(10, 9, 9, 9), 80};
  r.deliver(seg);
  EXPECT_EQ(r.forwarded(), 0u);
  EXPECT_EQ(r.dropped_no_route(), 1u);
  EXPECT_EQ(loop.stats().value("sim.router.lonely.dropped_no_route"), 1.0);

  NullSink sink;
  r.set_default_route(&sink);
  r.deliver(seg);
  EXPECT_EQ(r.forwarded(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

/// Dual-homed client in the capacity topology: MPTCP's full mesh must put
/// traffic on BOTH aggregation routers -- per-address routing keeps the
/// second subflow pinned to the second access link end to end.
TEST(Topology, CapacitySubflowsUseBothBottlenecks) {
  CapacitySpec spec;
  spec.clients = 1;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/3);
  Topology& topo = *cap.topo;

  SocketFactory cf(topo.host(cap.clients[0]),
                   small_transport(TransportKind::kMptcp));
  SocketFactory sf(topo.host(cap.servers[0]),
                   small_transport(TransportKind::kMptcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(cap.clients[0], 0),
                               {topo.addr(cap.servers[0]), 80});
  BulkSender tx(c, 2 * 1000 * 1000);
  topo.loop().run_until(3 * kSecond);

  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  MptcpConnection* m = cf.as_mptcp(c);
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->subflow_count(), 2u);
  EXPECT_GT(topo.router(cap.agg_a).forwarded(), 100u);
  EXPECT_GT(topo.router(cap.agg_b).forwarded(), 100u);
}

/// Taking a link down severs the path; bringing it back restores it.
TEST(Topology, LinkDownStopsDelivery) {
  Topology topo;
  const NodeId a = topo.add_host("a");
  const NodeId r = topo.add_router("r");
  const NodeId b = topo.add_host("b");
  const size_t l0 = topo.connect(a, r, fast_link(), fast_link());
  topo.connect(r, b, fast_link(), fast_link());
  topo.build_routes();

  SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
  SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/false);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  BulkSender tx(c, 0);  // unlimited

  topo.loop().run_until(1 * kSecond);
  ASSERT_NE(rx, nullptr);
  const uint64_t before = rx->bytes_received();
  EXPECT_GT(before, 0u);

  topo.set_link_up(l0, false);
  topo.loop().run_until(2 * kSecond);
  const uint64_t during = rx->bytes_received();
  topo.loop().run_until(3 * kSecond);
  EXPECT_EQ(rx->bytes_received(), during) << "no delivery while down";

  topo.set_link_up(l0, true);
  topo.loop().run_until(6 * kSecond);
  EXPECT_GT(rx->bytes_received(), during) << "recovered after link up";
}

/// Middleboxes spliced into a link nest: each new splice inserts directly
/// after the link, so the most recent one sees packets first. Topology
/// and TwoHostRig splice the same way.
class OrderTap final : public Middlebox {
 public:
  OrderTap(int id, std::vector<int>& order) : id_(id), order_(order) {}
  void deliver(TcpSegment seg) override {
    order_.push_back(id_);
    emit(std::move(seg));
  }

 private:
  int id_;
  std::vector<int>& order_;
};

/// Every packet passed tap 2 (spliced last) and then tap 1.
void expect_most_recent_splice_first(const std::vector<int>& order) {
  ASSERT_GE(order.size(), 4u);
  ASSERT_EQ(order.size() % 2, 0u);
  for (size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 2) << "most recently spliced tap sees packets first";
    EXPECT_EQ(order[i + 1], 1);
  }
}

TEST(Topology, SplicedMiddleboxesChainInCallOrder) {
  {
    Topology topo;
    const NodeId a = topo.add_host("a");
    const NodeId b = topo.add_host("b");
    const size_t l = topo.connect(a, b, fast_link(), fast_link());
    topo.build_routes();

    std::vector<int> order;
    OrderTap first(1, order), second(2, order);
    topo.splice_ab(l, first);
    topo.splice_ab(l, second);

    SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
    SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
    sf.listen(80, [&](StreamSocket&) {});
    StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
    topo.loop().run_until(500 * kMillisecond);
    EXPECT_TRUE(c.established());
    expect_most_recent_splice_first(order);
  }
  {
    TwoHostRig rig;
    rig.add_path(wifi_path());

    std::vector<int> order;
    OrderTap first(1, order), second(2, order);
    rig.splice_up(0, first);
    rig.splice_up(0, second);

    SocketFactory cf(rig.client(), small_transport(TransportKind::kTcp));
    SocketFactory sf(rig.server(), small_transport(TransportKind::kTcp));
    sf.listen(80, [&](StreamSocket&) {});
    StreamSocket& c = cf.connect(rig.client_addr(0), {rig.server_addr(), 80});
    rig.loop().run_until(500 * kMillisecond);
    EXPECT_TRUE(c.established());
    expect_most_recent_splice_first(order);
  }
}

/// The workload engine drives real flows over a capacity topology and
/// exports completion-time percentiles through the registry.
TEST(Workload, EngineCompletesFlowsAndExportsPercentiles) {
  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 200e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/5);
  Topology& topo = *cap.topo;

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 5;
  FlowClass churn;
  churn.name = "test-churn";
  churn.arrival_rate_hz = 50.0;
  churn.mean_size = 20 * 1000;  // kFixed
  churn.persistent_per_client = 3;
  churn.transport = small_transport(TransportKind::kMptcp);
  wc.classes.push_back(churn);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(3 * kSecond);

  EXPECT_GE(engine.peak_concurrent(), 6u) << "persistent flows all open";
  EXPECT_GT(engine.completed(0), 20u);
  EXPECT_EQ(engine.errors(0), 0u);
  EXPECT_GT(engine.bytes_received(0), 0u);
  EXPECT_GT(topo.stats().value("workload.test-churn.fct_p50_us"), 0.0);
  EXPECT_GE(topo.stats().value("workload.test-churn.fct_p99_us"),
            topo.stats().value("workload.test-churn.fct_p50_us"));
}

std::set<std::string> registry_keys(StatsRegistry& reg) {
  std::set<std::string> keys;
  for (const auto& [name, value] : reg.flatten()) keys.insert(name);
  return keys;
}

/// The registry-hygiene contract at scale: after a churn of 1000+
/// short-lived connections fully drains, the registry's key set is
/// exactly what it was before the churn -- every per-connection and
/// per-subflow scope was removed, including for connections that died
/// abortively (server RST on a port nobody listens on).
TEST(Workload, RegistryReturnsToBaselineAfterThousandConnectionChurn) {
  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 400e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/11);
  Topology& topo = *cap.topo;

  TransportConfig tc = small_transport(TransportKind::kMptcp);
  tc.mptcp.tcp.seed = 11;

  // Prime every lazily-created loop-global aggregate (tcp.*, mptcp.*)
  // with one throwaway connection + one abortive attempt, then drain.
  {
    SocketFactory cf(topo.host(cap.clients[0]), tc);
    SocketFactory sf(topo.host(cap.servers[0]), tc);
    ServerApp server(sf, 80);
    StreamSocket& s = cf.connect(topo.addr(cap.clients[0]),
                                 {topo.addr(cap.servers[0]), 80});
    cf.release_when_closed(s);
    s.on_connected = [&s] { s.write(mpget_encode(1000)); };
    s.on_readable = [&s] {
      uint8_t buf[4096];
      while (s.read(buf) > 0) {
      }
      if (s.at_eof()) s.close();
    };
    // Abortive teardown: RST while the first subflow is still in
    // SYN_SENT. The server side sees SYN then RST and must also unwind
    // its half-created connection scopes.
    StreamSocket& dead = cf.connect(topo.addr(cap.clients[0], 1),
                                    {topo.addr(cap.servers[0]), 80});
    cf.release_when_closed(dead);
    topo.loop().schedule_in(10 * kMicrosecond,
                            [&cf, &dead] { cf.as_mptcp(dead)->abort(); });
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    EXPECT_EQ(cf.live_sockets(), 0u) << "both sockets reaped";
  }
  topo.loop().run_until(topo.loop().now() + kSecond);

  const std::set<std::string> baseline = registry_keys(topo.stats());
  ASSERT_FALSE(baseline.empty());

  // Churn >= 1000 short flows through the workload engine.
  uint64_t churned = 0;
  {
    WorkloadConfig wc;
    wc.clients = cap.clients;
    wc.servers = cap.servers;
    wc.seed = 11;
    FlowClass churn;
    churn.name = "churn1k";
    churn.arrival_rate_hz = 400.0;  // x2 clients = 800 flows/s
    churn.mean_size = 4000;         // kFixed, fast turnaround
    churn.transport = tc;
    wc.classes.push_back(churn);

    WorkloadEngine engine(topo, wc);
    engine.start();
    while (engine.total_completed() < 1000) {
      const SimTime horizon = topo.loop().now() + kSecond;
      topo.loop().run_until(horizon);
      ASSERT_LT(topo.loop().now() / kSecond, 60) << "churn stalled";
    }
    churned = engine.total_completed();
    engine.stop();
    // Let in-flight flows finish and deferred destructions run.
    topo.loop().run_until(topo.loop().now() + 5 * kSecond);
    EXPECT_EQ(engine.concurrent(), 0u);
  }
  topo.loop().run_until(topo.loop().now() + kSecond);

  EXPECT_GE(churned, 1000u);
  const std::set<std::string> after = registry_keys(topo.stats());
  std::set<std::string> leaked, lost;
  std::set_difference(after.begin(), after.end(), baseline.begin(),
                      baseline.end(), std::inserter(leaked, leaked.end()));
  std::set_difference(baseline.begin(), baseline.end(), after.begin(),
                      after.end(), std::inserter(lost, lost.end()));
  EXPECT_TRUE(leaked.empty()) << "leaked keys, e.g. " << *leaked.begin();
  EXPECT_TRUE(lost.empty()) << "lost keys, e.g. " << *lost.begin();

  // Subflow churn on a long-lived redundant-policy connection: a third
  // subflow joins, carries duplicate copies and dies. Its per-path state
  // (section 4.2 mechanisms, the redundant stream position) lives in the
  // subflow itself, so the teardown leaves nothing behind to clean up;
  // what must hold is that the survivors keep carrying the stream.
  {
    TransportConfig rc = tc;
    rc.with_scheduler(SchedulerPolicy::kRedundant);
    SocketFactory cf(topo.host(cap.clients[0]), rc);
    SocketFactory sf(topo.host(cap.servers[0]), rc);
    ServerApp server(sf, 81);
    StreamSocket& s = cf.connect(topo.addr(cap.clients[0]),
                                 {topo.addr(cap.servers[0]), 81});
    // An effectively endless response keeps the scheduler running for
    // the whole phase.
    s.on_connected = [&s] { s.write(mpget_encode(1'000'000'000)); };
    s.on_readable = [&s] {
      uint8_t buf[4096];
      while (s.read(buf) > 0) {
      }
    };
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    MptcpConnection* conn = cf.as_mptcp(s);
    ASSERT_NE(conn, nullptr);
    ASSERT_EQ(conn->mode(), MptcpMode::kMptcp);
    ASSERT_EQ(conn->subflow_count(), 2u);  // dual-homed full mesh
    ASSERT_EQ(conn->usable_subflow_count(), 2u);

    MptcpSubflow* extra = conn->open_subflow(
        topo.addr(cap.clients[0], 1), {topo.addr(cap.servers[0]), 81});
    ASSERT_NE(extra, nullptr);
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    EXPECT_TRUE(extra->mptcp_usable()) << "third subflow never joined";
    EXPECT_EQ(conn->usable_subflow_count(), 3u);
    extra->abort();
    EXPECT_FALSE(extra->mptcp_usable());
    const uint64_t delivered_at_abort = conn->data_delivered();
    topo.loop().run_until(topo.loop().now() + kSecond);
    EXPECT_FALSE(extra->mptcp_usable());
    EXPECT_EQ(conn->usable_subflow_count(), 2u);
    EXPECT_GT(conn->data_delivered(), delivered_at_abort)
        << "stream stalled after a subflow teardown";
  }
}

/// The one token hash: a pure function of (token, shard count), always in
/// range, and it spreads the fleet's island tokens over every shard.
TEST(Topology, ShardForIsStableAndInRange) {
  Topology one;
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.shard_for("f0.client"), 0u);
  Topology zero(/*seed=*/1, /*shards=*/0);
  EXPECT_EQ(zero.shard_count(), 1u) << "zero shards clamps to one";
  EXPECT_EQ(zero.shard_for("anything"), 0u);

  for (size_t n : {2u, 3u, 4u}) {
    Topology a(/*seed=*/1, n);
    Topology b(/*seed=*/99, n);  // the seed does not enter placement
    std::set<size_t> used;
    for (size_t i = 0; i < 64; ++i) {
      // append(): GCC 12 reports a false -Wrestrict on "f" + to_string.
      const std::string token =
          std::string("f").append(std::to_string(i)).append(".client");
      const size_t s = a.shard_for(token);
      EXPECT_LT(s, n) << token;
      EXPECT_EQ(s, b.shard_for(token)) << token;
      EXPECT_EQ(s, a.shard_for(token)) << token;
      used.insert(s);
    }
    EXPECT_EQ(used.size(), n) << "64 island tokens leave a shard empty";
  }
}

/// An explicit per-node shard is the one way to place a node: ids, names
/// and link indices follow add order, and every node lands on exactly the
/// shard it was added to.
TEST(Topology, PinsEachNodeToItsDeclaredShard) {
  Topology topo(/*seed=*/3, /*shards=*/3);
  const NodeId h0 = topo.add_host("h0", 0);
  const NodeId r1 = topo.add_router("r1", 1);
  const NodeId r2 = topo.add_router("r2", 2);
  const NodeId h2 = topo.add_host("h2", 2);
  const size_t l01 = topo.connect(h0, r1, fast_link(), fast_link());
  const size_t l12 = topo.connect(r1, r2, fast_link(), fast_link(), "core");
  const size_t l22 = topo.connect(r2, h2, fast_link(), fast_link());

  ASSERT_EQ(topo.shard_count(), 3u);
  ASSERT_EQ(topo.node_count(), 4u);
  EXPECT_EQ(h0, 0u);
  EXPECT_EQ(h2, 3u);
  EXPECT_EQ(topo.shard_of(h0), 0u);
  EXPECT_EQ(topo.shard_of(r1), 1u);
  EXPECT_EQ(topo.shard_of(r2), 2u);
  EXPECT_EQ(topo.shard_of(h2), 2u);
  EXPECT_EQ(topo.node_name(r1), "r1");
  EXPECT_TRUE(topo.is_router(r2));
  EXPECT_FALSE(topo.is_router(h2));

  ASSERT_EQ(topo.link_count(), 3u);
  EXPECT_EQ(l01, 0u);
  EXPECT_EQ(l22, 2u);
  EXPECT_EQ(topo.link_node_a(l01), h0);
  EXPECT_EQ(topo.link_node_b(l01), r1);
  EXPECT_EQ(topo.link_node_a(l12), r1);
  EXPECT_EQ(topo.link_node_b(l12), r2);
  EXPECT_EQ(topo.link_ab(l12).name(), "core-ab");
  EXPECT_EQ(topo.link_node_b(l22), h2);
  // Two links cross shards; the one inside shard 2 does not.
  EXPECT_EQ(topo.channels().size(), 4u);
}

/// declare_two_host() pins client, gateway and server to the one shard it
/// is given and namespaces them by prefix: an island never straddles
/// shards.
TEST(Topology, DeclareTwoHostPinsWholeShapeToOneShard) {
  Topology topo(/*seed=*/1, /*shards=*/4);
  const size_t shard = topo.shard_for("f3.client");
  const TwoHostShape shape =
      declare_two_host(topo, {wifi_path(), threeg_path()}, "f3.", shard);

  // Node order client, gw, server; link order the paths, then the wire.
  EXPECT_EQ(shape.client, 0u);
  EXPECT_EQ(shape.gw, 1u);
  EXPECT_EQ(shape.server, 2u);
  EXPECT_EQ(shape.paths, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(shape.server_link, 2u);
  EXPECT_EQ(topo.link_ab(shape.server_link).name(), "f3.wire-ab");
  EXPECT_EQ(topo.node_name(shape.client), "f3.client");
  EXPECT_EQ(topo.node_name(shape.gw), "f3.gw");
  EXPECT_EQ(topo.node_name(shape.server), "f3.server");
  EXPECT_TRUE(topo.is_router(shape.gw));
  for (NodeId n : {shape.client, shape.gw, shape.server}) {
    EXPECT_EQ(topo.shard_of(n), shard) << topo.node_name(n);
  }
  ASSERT_EQ(shape.paths.size(), 2u);
  for (size_t l : shape.paths) {
    EXPECT_EQ(topo.link_node_a(l), shape.client);
    EXPECT_EQ(topo.link_node_b(l), shape.gw);
  }
  EXPECT_EQ(topo.link_node_a(shape.server_link), shape.gw);
  EXPECT_EQ(topo.link_node_b(shape.server_link), shape.server);
  EXPECT_EQ(topo.addrs(shape.client).size(), 2u) << "one address per path";
  EXPECT_TRUE(topo.channels().empty());
}

/// Both capacity builders declare the same cell: each sharded cell is the
/// single cell renamed "c<j>." and pinned to shard j % shards, with the
/// same node roles, link order and link shapes; the ring joins the cores.
TEST(Topology, ShardedCapacityCellsMirrorTheSingleCell) {
  CapacitySpec cell;
  cell.clients = 3;
  cell.servers = 2;
  CapacityTopology one = build_capacity_topology(cell, /*seed=*/4);
  Topology& t1 = *one.topo;

  ShardedCapacitySpec sspec;
  sspec.cell = cell;
  sspec.cells = 3;
  ShardedCapacity many = build_sharded_capacity(sspec, /*seed=*/4,
                                                /*shards=*/2);
  Topology& tn = *many.topo;
  ASSERT_EQ(many.cells.size(), 3u);
  ASSERT_EQ(tn.node_count(), 3 * t1.node_count());
  ASSERT_EQ(tn.link_count(), 3 * t1.link_count() + 3);

  for (size_t j = 0; j < 3; ++j) {
    const std::string prefix = "c" + std::to_string(j) + ".";
    const NodeId node_base = j * t1.node_count();
    const size_t link_base = j * t1.link_count();
    for (NodeId n = 0; n < t1.node_count(); ++n) {
      EXPECT_EQ(tn.node_name(node_base + n), prefix + t1.node_name(n));
      EXPECT_EQ(tn.is_router(node_base + n), t1.is_router(n));
      EXPECT_EQ(tn.shard_of(node_base + n), j % 2);
    }
    for (size_t l = 0; l < t1.link_count(); ++l) {
      EXPECT_EQ(tn.link_node_a(link_base + l),
                node_base + t1.link_node_a(l));
      EXPECT_EQ(tn.link_node_b(link_base + l),
                node_base + t1.link_node_b(l));
      const LinkConfig& a = t1.link_ab(l).config();
      const LinkConfig& b = tn.link_ab(link_base + l).config();
      EXPECT_EQ(a.rate_bps, b.rate_bps) << prefix << l;
      EXPECT_EQ(a.prop_delay, b.prop_delay) << prefix << l;
      EXPECT_EQ(a.buffer_bytes, b.buffer_bytes) << prefix << l;
    }
    const ShardedCapacity::Cell& c = many.cells[j];
    EXPECT_EQ(c.core, node_base + one.core);
    EXPECT_EQ(c.bottleneck_a, link_base + one.bottleneck_a);
    EXPECT_EQ(c.bottleneck_b, link_base + one.bottleneck_b);
    EXPECT_EQ(tn.link_ab(c.bottleneck_b).name(),
              prefix + "bottleneck-b-ab");
    ASSERT_EQ(c.clients.size(), one.clients.size());
    ASSERT_EQ(c.servers.size(), one.servers.size());
  }

  ASSERT_EQ(many.ring_links.size(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    const size_t l = many.ring_links[j];
    EXPECT_EQ(tn.link_node_a(l), many.cells[j].core);
    EXPECT_EQ(tn.link_node_b(l), many.cells[(j + 1) % 3].core);
  }

  ShardedCapacitySpec single = sspec;
  single.cells = 1;
  EXPECT_TRUE(build_sharded_capacity(single, 4, 1).ring_links.empty());
}

/// A client's flows take turns over all of its interfaces: two plain-TCP
/// persistent flows from one dual-homed client leave from different
/// addresses, so both aggregation routers carry traffic.
TEST(Workload, FlowsRoundRobinOverAllClientInterfaces) {
  CapacitySpec spec;
  spec.clients = 1;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/6);
  Topology& topo = *cap.topo;
  ASSERT_EQ(topo.addrs(cap.clients[0]).size(), 2u);

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 6;
  FlowClass fc;
  fc.name = "test-rr";
  fc.arrival_rate_hz = 0;
  fc.persistent_per_client = 2;
  fc.transport = small_transport(TransportKind::kTcp);
  wc.classes.push_back(fc);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(1 * kSecond);

  EXPECT_EQ(engine.peak_concurrent(), 2u);
  EXPECT_EQ(engine.errors(0), 0u);
  EXPECT_GT(topo.router(cap.agg_a).forwarded(), 100u);
  EXPECT_GT(topo.router(cap.agg_b).forwarded(), 100u);
}

}  // namespace
}  // namespace mptcp
