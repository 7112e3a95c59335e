// Sharded simulation engine: the epoch barrier, the cross-shard channel
// (FIFO outbox drained at exact arrival times), the deterministic merge
// of per-shard stats partitions, and the engine-level contracts:
//
//   * a fixed shard count reproduces the same digest run over run;
//   * the ping-pong scenario's digest is identical across shard counts
//     (the epoch-barrier lockstep proof: a cross-shard link must behave
//     exactly like the same link inside one loop);
//   * a cell-local workload's merged simulated metrics are bit-identical
//     between a single-shard and a multi-shard execution;
//   * a burst of any size within one epoch crosses a channel exactly
//     once, in order, at its exact arrival time;
//   * a segment still in an outbox when run_until() returns arrives on
//     time in the next run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "app/digest.h"
#include "app/workload.h"
#include "net/stats.h"
#include "sim/barrier.h"
#include "sim/event_loop.h"
#include "sim/node.h"
#include "sim/shard.h"
#include "sim/topology.h"

namespace mptcp {
namespace {

// ---------------------------------------------------------------------------
// EpochBarrier.
// ---------------------------------------------------------------------------

TEST(EpochBarrier, RoundsStayInLockstepAcrossGenerations) {
  // Write phase / barrier / read phase / barrier, repeated far past the
  // spin threshold's worth of generations: every thread must observe
  // every peer's current-round write after the first barrier, and nobody
  // may lap the group (which would corrupt the read phase).
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 2000;
  EpochBarrier barrier(kThreads);
  EXPECT_EQ(barrier.parties(), kThreads);
  std::vector<std::atomic<int>> round(kThreads);
  for (auto& r : round) r.store(-1, std::memory_order_relaxed);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      for (int r = 0; r < kRounds; ++r) {
        round[tid].store(r, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        for (size_t peer = 0; peer < kThreads; ++peer) {
          if (round[peer].load(std::memory_order_relaxed) != r) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// ShardChannel.
// ---------------------------------------------------------------------------

/// Records (arrival virtual time, seq) of every delivered segment.
class TimedCollector : public PacketSink {
 public:
  explicit TimedCollector(EventLoop& loop) : loop_(loop) {}
  void deliver(TcpSegment seg) override {
    arrivals.emplace_back(loop_.now(), seg.seq);
  }
  std::vector<std::pair<SimTime, uint32_t>> arrivals;

 private:
  EventLoop& loop_;
};

TEST(ShardChannel, DrainDeliversInOrderAtArrivalTime) {
  // Two epochs' worth of send-then-drain: each drain must schedule its
  // segments at their exact arrival times, in send order, and the
  // outbox emptied by the first drain must carry the second epoch's
  // segments on its own -- no leftovers, no repeats.
  EventLoop loop;
  ShardChannel ch(/*src_shard=*/0, /*dst_shard=*/1, loop);
  TimedCollector sink(loop);
  ch.set_target(&sink);

  const auto send_epoch = [&ch](uint32_t first, SimTime base) {
    for (uint32_t i = 0; i < 5; ++i) {
      TcpSegment seg;
      seg.seq = first + i;
      ch.send(/*arrival=*/base + i, std::move(seg));
    }
  };
  send_epoch(0, kMillisecond);
  EXPECT_EQ(ch.pushed(), 5u);
  EXPECT_EQ(ch.drain(), 5u);
  EXPECT_TRUE(sink.arrivals.empty());  // scheduled, not yet executed
  EXPECT_EQ(ch.delivered(), 5u);
  loop.run_until(2 * kMillisecond);

  send_epoch(5, 3 * kMillisecond);
  EXPECT_EQ(ch.pushed(), 10u);
  EXPECT_EQ(ch.drain(), 5u);
  EXPECT_EQ(ch.drain(), 0u);  // nothing sent since: an empty drain
  EXPECT_EQ(ch.delivered(), 10u);
  loop.run_until(4 * kMillisecond);

  ASSERT_EQ(sink.arrivals.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    const SimTime base = i < 5 ? kMillisecond : 3 * kMillisecond;
    EXPECT_EQ(sink.arrivals[i].first, base + i % 5) << i;
    EXPECT_EQ(sink.arrivals[i].second, i);
  }
}

TEST(ShardChannel, DrainIntoPartlyDeliveredPendingKeepsFifo) {
  // The second drain lands while the first one's segments are still
  // half-delivered: its arrivals must queue behind the remainder, and
  // every segment must still fire once, in send order, on time.
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  TimedCollector sink(loop);
  ch.set_target(&sink);

  for (uint32_t i = 0; i < 10; ++i) {
    TcpSegment seg;
    seg.seq = i;
    ch.send(kMillisecond + i, std::move(seg));
    if (i == 4) {
      EXPECT_EQ(ch.drain(), 5u);
      loop.run_until(kMillisecond + 2);  // delivers seqs 0..2 only
      EXPECT_EQ(sink.arrivals.size(), 3u);
    }
  }
  EXPECT_EQ(ch.drain(), 5u);
  loop.run_until(2 * kMillisecond);

  ASSERT_EQ(sink.arrivals.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink.arrivals[i].first, kMillisecond + i) << i;
    EXPECT_EQ(sink.arrivals[i].second, i);
  }
  EXPECT_EQ(ch.pushed(), 10u);
  EXPECT_EQ(ch.delivered(), 10u);
}

TEST(ShardChannel, EmptyDrainSchedulesNothing) {
  // The engine's drain-skip proof assumes an outbox with nothing pushed
  // since the last drain puts nothing on the destination loop.
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  TimedCollector sink(loop);
  ch.set_target(&sink);
  EXPECT_EQ(ch.drain(), 0u);
  EXPECT_EQ(loop.next_event_time(), kSimTimeNever);

  TcpSegment seg;
  ch.send(kMillisecond, std::move(seg));
  EXPECT_EQ(ch.drain(), 1u);
  EXPECT_EQ(loop.next_event_time(), kMillisecond);
  loop.run_until(kMillisecond);
  EXPECT_EQ(ch.drain(), 0u);
  EXPECT_EQ(loop.next_event_time(), kSimTimeNever);
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

/// Records the size of every deliver_burst() call plus the seqs.
class BurstRecorder : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { deliver_burst(&seg, 1); }
  void deliver_burst(TcpSegment* segs, size_t n) override {
    bursts.push_back(n);
    for (size_t i = 0; i < n; ++i) seqs.push_back(segs[i].seq);
  }
  std::vector<size_t> bursts;
  std::vector<uint32_t> seqs;
};

TEST(ShardChannel, EachEqualArrivalRunIsOneBurst) {
  // Segments sharing an arrival time reach the target in one
  // deliver_burst() call, in send order; a new arrival time starts a
  // new burst.
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  BurstRecorder sink;
  ch.set_target(&sink);
  const SimTime at[] = {kMillisecond, kMillisecond, kMillisecond,
                        kMillisecond + 1, 2 * kMillisecond,
                        2 * kMillisecond, 2 * kMillisecond,
                        2 * kMillisecond};
  for (uint32_t i = 0; i < std::size(at); ++i) {
    TcpSegment seg;
    seg.seq = i;
    ch.send(at[i], std::move(seg));
  }
  EXPECT_EQ(ch.drain(), std::size(at));
  loop.run_until(3 * kMillisecond);
  EXPECT_EQ(sink.bursts, (std::vector<size_t>{3, 1, 4}));
  EXPECT_EQ(sink.seqs, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/// Keeps every delivered segment whole.
class SegmentKeeper : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
  std::vector<TcpSegment> segs;
};

TEST(ShardChannel, SendDetachesPayloadFromProducerBuffers) {
  // Payload refcounts are not atomic, so a handed-off segment must not
  // share a block with anything the producer still holds -- neither a
  // whole buffer nor a subview of one -- and must carry the same bytes.
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  SegmentKeeper sink;
  ch.set_target(&sink);

  std::vector<uint8_t> bytes(100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7);
  }
  const Payload held(bytes);
  TcpSegment whole;
  whole.payload = held;
  TcpSegment part;
  part.payload = held.subview(10, 20);
  ASSERT_EQ(held.buffer_refs(), 3u);
  ch.send(kMillisecond, std::move(whole));
  ch.send(kMillisecond + 1, std::move(part));
  EXPECT_EQ(held.buffer_refs(), 1u);  // both segments let go of it

  ch.drain();
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.segs.size(), 2u);
  const Payload& got_whole = sink.segs[0].payload;
  const Payload& got_part = sink.segs[1].payload;
  EXPECT_EQ(got_whole, held);
  EXPECT_EQ(got_part, held.subview(10, 20));
  EXPECT_EQ(got_whole.buffer_refs(), 1u);
  EXPECT_EQ(got_part.buffer_refs(), 1u);
  EXPECT_NE(got_whole.data(), held.data());
  EXPECT_NE(got_part.data(), held.data() + 10);
}

TEST(ShardChannel, UntargetedChannelFreesDrainedPayloads) {
  // A channel nobody has aimed yet still counts and schedules its
  // segments; delivery drops them, and their payload blocks go with them.
  const Payload::LiveStats before = Payload::live_stats();
  {
    EventLoop loop;
    ShardChannel ch(0, 1, loop);
    for (uint32_t i = 0; i < 16; ++i) {
      TcpSegment seg;
      seg.seq = i;
      seg.payload = Payload(64, static_cast<uint8_t>(i));
      ch.send(kMillisecond + i, std::move(seg));
    }
    EXPECT_GT(Payload::live_stats().blocks, before.blocks);
    EXPECT_EQ(ch.drain(), 16u);
    loop.run_until(2 * kMillisecond);
    EXPECT_EQ(ch.pushed(), 16u);
    EXPECT_EQ(ch.delivered(), 16u);
    EXPECT_EQ(loop.next_event_time(), kSimTimeNever);
    EXPECT_EQ(Payload::live_stats().blocks, before.blocks);
  }
  EXPECT_EQ(Payload::live_stats().blocks, before.blocks);
}

/// Checks each delivered segment's payload against the pattern its seq
/// was sent with, and records (arrival, seq).
class PatternChecker : public PacketSink {
 public:
  explicit PatternChecker(EventLoop& loop) : loop_(loop) {}
  static Payload pattern(uint32_t seq) {
    std::vector<uint8_t> b(8 + seq % 24);
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<uint8_t>(seq * 31 + i);
    }
    return Payload(b);
  }
  void deliver(TcpSegment seg) override {
    if (seg.payload != pattern(seg.seq)) ++corrupt;
    arrivals.emplace_back(loop_.now(), seg.seq);
  }
  std::vector<std::pair<SimTime, uint32_t>> arrivals;
  uint64_t corrupt = 0;

 private:
  EventLoop& loop_;
};

TEST(ShardChannel, ProducerThreadHandoffIsOrderedByTheBarrierAlone) {
  // The engine's protocol with real threads and nothing else: the
  // producer appends a whole epoch's segments (anywhere from none to a
  // few hundred), both sides cross the barrier, the consumer drains
  // while the producer is parked at the second barrier. The barrier is
  // the only synchronization, so under ThreadSanitizer this is the proof
  // that the outbox needs none of its own; in any build, every segment
  // must arrive once, in order, at its exact time, with its bytes.
  constexpr uint32_t kEpochs = 200;
  constexpr SimTime kQuantum = kMillisecond;
  const auto epoch_size = [](uint32_t e) { return (e * 37) % 301; };
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  PatternChecker sink(loop);
  ch.set_target(&sink);
  EpochBarrier barrier(2);

  std::thread producer([&] {
    uint32_t seq = 0;
    for (uint32_t e = 0; e < kEpochs; ++e) {
      const SimTime next_epoch = (e + 1) * kQuantum;
      for (uint32_t i = 0; i < epoch_size(e); ++i, ++seq) {
        TcpSegment seg;
        seg.seq = seq;
        seg.payload = PatternChecker::pattern(seq);
        ch.send(next_epoch + i, std::move(seg));
      }
      barrier.arrive_and_wait();
      barrier.arrive_and_wait();
    }
  });
  uint64_t drained = 0;
  for (uint32_t e = 0; e < kEpochs; ++e) {
    barrier.arrive_and_wait();
    drained += ch.drain();
    barrier.arrive_and_wait();
    loop.run_until((e + 2) * kQuantum - 1);
  }
  producer.join();

  uint32_t total = 0;
  for (uint32_t e = 0; e < kEpochs; ++e) total += epoch_size(e);
  EXPECT_EQ(drained, total);
  EXPECT_EQ(ch.pushed(), total);
  EXPECT_EQ(ch.delivered(), total);
  EXPECT_EQ(sink.corrupt, 0u);
  ASSERT_EQ(sink.arrivals.size(), total);
  uint32_t seq = 0;
  for (uint32_t e = 0; e < kEpochs; ++e) {
    for (uint32_t i = 0; i < epoch_size(e); ++i, ++seq) {
      ASSERT_EQ(sink.arrivals[seq].second, seq);
      ASSERT_EQ(sink.arrivals[seq].first, (e + 1) * kQuantum + i) << seq;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic stats merge.
// ---------------------------------------------------------------------------

TEST(StatsMerge, ScalarsSumAndHistogramsFoldByBucket) {
  StatsRegistry a;
  StatsRegistry b;
  a.counter("pkts").inc(10);
  b.counter("pkts").inc(32);
  a.gauge("depth").set(3);
  b.gauge("depth").set(4);
  a.histogram("fct").record(8);
  a.histogram("fct").record(100);
  b.histogram("fct").record(2);
  b.histogram("fct").record(5000);
  b.counter("only_b").inc(7);

  const StatsRegistry* parts[] = {&a, &b};
  const std::map<std::string, double> m =
      StatsRegistry::merged_flatten(parts);
  EXPECT_EQ(m.at("pkts"), 42.0);
  EXPECT_EQ(m.at("depth"), 7.0);
  EXPECT_EQ(m.at("only_b"), 7.0);
  EXPECT_EQ(m.at("fct.count"), 4.0);
  EXPECT_EQ(m.at("fct.sum"), 5110.0);
  EXPECT_EQ(m.at("fct.min"), 2.0);
  EXPECT_EQ(m.at("fct.max"), 5000.0);
  EXPECT_EQ(m.at("fct.mean"), 5110.0 / 4.0);
}

TEST(StatsMerge, ResultIndependentOfPartitionFillOrder) {
  // Shard threads finish in arbitrary order; the merged export folds the
  // partitions in the caller's fixed shard order, so two merges of the
  // same contents must be byte-identical no matter which registry was
  // populated (or finished) first.
  auto fill_x = [](StatsRegistry& r) {
    r.counter("x.pkts").inc(5);
    r.histogram("x.fct").record(10);
  };
  auto fill_y = [](StatsRegistry& r) {
    r.counter("y.pkts").inc(9);
    r.histogram("x.fct").record(20);
  };
  StatsRegistry a1, b1;
  fill_x(a1);
  fill_y(b1);
  StatsRegistry b2, a2;
  fill_y(b2);  // populated before its sibling this time
  fill_x(a2);

  const StatsRegistry* first[] = {&a1, &b1};
  const StatsRegistry* second[] = {&a2, &b2};
  EXPECT_EQ(StatsRegistry::merged_to_json(first),
            StatsRegistry::merged_to_json(second));
}

TEST(StatsMerge, HistogramMergeFromHandlesEmptySides) {
  Histogram empty;
  Histogram h;
  h.record(7);
  h.merge_from(empty);  // no-op
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7u);
  Histogram dst;
  dst.merge_from(h);  // empty destination adopts source min/max
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 7u);
  EXPECT_EQ(dst.max(), 7u);
}

// ---------------------------------------------------------------------------
// Engine-level determinism contracts.
// ---------------------------------------------------------------------------

DigestResult pingpong(size_t shards) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kPingPong;
  cfg.shards = shards;
  cfg.duration = 2 * kSecond;
  cfg.seed = 7;
  return run_digest_scenario(cfg);
}

TEST(ShardedEngine, PingPongDigestIdenticalAcrossShardCounts) {
  // The lockstep proof: with shards=2 every packet crosses a shard
  // channel and an epoch barrier; the digest (packet headers + payload
  // bytes, in delivery order, per direction) must still equal the
  // single-loop reference exactly. shards=4 adds two node-less shards
  // whose loops run solo and barrier-free -- also digest-invisible.
  const DigestResult one = pingpong(1);
  const DigestResult two = pingpong(2);
  const DigestResult four = pingpong(4);
  EXPECT_GT(one.bytes_delivered, 0u);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.packets_hashed, two.packets_hashed);
  EXPECT_EQ(one.bytes_delivered, two.bytes_delivered);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.packets_hashed, four.packets_hashed);
}

TEST(ShardedEngine, ShardedCapacityDigestStableForFixedShardCount) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kCapacity;
  cfg.shards = 2;
  cfg.duration = 1 * kSecond;
  cfg.seed = 3;
  const DigestResult first = run_digest_scenario(cfg);
  const DigestResult second = run_digest_scenario(cfg);
  EXPECT_GT(first.bytes_delivered, 0u);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.stats_json, second.stats_json);
}

/// Shard-count-invariant view of a merged export. Three kinds of key:
///   * execution-dependent (thread-local allocator pools, per-loop
///     scheduler bookkeeping under sim.* minus links/routers): dropped;
///   * per-connection live scopes (mptcp.client#N / mptcp.server#N):
///     the #N instance suffix is allocated per registry, so the same
///     connection gets different numbers under different shard splits --
///     compared as sorted value multisets with the suffix stripped,
///     which is exact and permutation-invariant;
///   * everything else (link/router counters, workload metrics, summed
///     tcp.* counters): compared exactly.
struct Canonical {
  std::map<std::string, double> exact;
  std::map<std::string, std::vector<double>> per_conn;
};

Canonical canonicalize(const std::map<std::string, double>& merged) {
  Canonical c;
  for (const auto& [raw_key, value] : merged) {
    if (raw_key.rfind("payload.pool.", 0) == 0) continue;
    if (raw_key.rfind("sim.", 0) == 0 &&
        raw_key.rfind("sim.link.", 0) != 0 &&
        raw_key.rfind("sim.router.", 0) != 0) {
      continue;
    }
    // Strip the per-shard scope tag ("@s<k>", possibly fused with a
    // "#<n>" instance counter): merged exports shard-qualify scope
    // names, but the quantities are shard-count-invariant.
    std::string key = raw_key;
    const size_t at = key.find('@');
    if (at != std::string::npos) {
      const size_t dot = key.find('.', at);
      key.erase(at, (dot == std::string::npos ? key.size() : dot) - at);
    }
    if (key.rfind("mptcp.client", 0) == 0 ||
        key.rfind("mptcp.server", 0) == 0) {
      // Per-connection scopes: also drop the "#<n>" instance counter
      // (allocated per registry, so it depends on the shard split) and
      // compare as value multisets.
      const size_t hash = key.find('#');
      if (hash != std::string::npos) {
        const size_t dot = key.find('.', hash);
        key.erase(hash, (dot == std::string::npos ? key.size() : dot) - hash);
      }
      c.per_conn[key].push_back(value);
      continue;
    }
    c.exact[key] = value;
  }
  for (auto& [key, values] : c.per_conn) {
    std::sort(values.begin(), values.end());
  }
  return c;
}

std::map<std::string, double> run_cells(size_t shards) {
  ShardedCapacitySpec spec;
  spec.cells = 2;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, /*seed=*/5, shards);

  FlowClass local;
  local.name = "bulk";
  local.persistent_per_client = 3;
  local.arrival_rate_hz = 5.0;
  local.size_dist = FlowClass::SizeDist::kExponential;
  local.mean_size = 20 * 1000;
  local.transport.mptcp.tcp.seed = 5;
  FlowClass off;
  off.arrival_rate_hz = 0;
  off.persistent_per_client = 0;

  ShardedCapacityWorkload workload(net, local, off, /*seed=*/5);
  workload.start();
  ShardedEngine engine(*net.topo);
  engine.run_until(800 * kMillisecond);
  EXPECT_GT(workload.bytes_received(), 0u);

  return StatsRegistry::merged_flatten(net.topo->shard_stats());
}

TEST(ShardedEngine, CellLocalWorkloadMetricsMatchSingleShard) {
  // Cells are pinned round-robin to shards and all traffic stays inside
  // its cell, so the simulated system is the same regardless of how the
  // cells are split across threads: every link/router counter, workload
  // metric and FCT histogram must agree bit for bit, and the live
  // per-connection scopes must agree as value multisets.
  const Canonical one = canonicalize(run_cells(1));
  const Canonical two = canonicalize(run_cells(2));
  EXPECT_FALSE(one.exact.empty());
  EXPECT_FALSE(one.per_conn.empty());
  EXPECT_EQ(one.exact, two.exact);
  EXPECT_EQ(one.per_conn, two.per_conn);
}

TEST(ShardedEngine, CrossShardTrafficMovesThroughChannels) {
  ShardedCapacitySpec spec;
  spec.cells = 2;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, /*seed=*/9,
                                               /*shards=*/2);
  ASSERT_FALSE(net.ring_links.empty());
  ASSERT_FALSE(net.topo->channels().empty());

  FlowClass local;
  local.persistent_per_client = 0;
  local.arrival_rate_hz = 0;
  FlowClass cross;
  cross.name = "cross";
  cross.persistent_per_client = 2;
  cross.arrival_rate_hz = 5.0;
  cross.size_dist = FlowClass::SizeDist::kExponential;
  cross.mean_size = 10 * 1000;
  cross.transport.mptcp.tcp.seed = 9;

  ShardedCapacityWorkload workload(net, local, cross, /*seed=*/9);
  workload.start();
  ShardedEngine engine(*net.topo);
  engine.run_until(800 * kMillisecond);

  EXPECT_GT(engine.handoff_packets(), 0u);
  EXPECT_GT(workload.bytes_received(), 0u);
  EXPECT_GT(engine.epochs(), 1u);
}

// ---------------------------------------------------------------------------
// Epoch optimizations: drain skip and grid fast-forward.
// ---------------------------------------------------------------------------

/// Self-rescheduling no-op: keeps a loop's next-event horizon one
/// interval away, pinning the epoch cadence so the optimizations under
/// test (not fast-forward) decide what happens at each barrier.
struct Ticker {
  EventLoop* loop = nullptr;
  SimTime interval = 0;
  SimTime until = 0;
  uint64_t ticks = 0;

  void fire() {
    ++ticks;
    if (loop->now() + interval < until) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

/// Periodic cross-shard sender: one segment into `out` every `interval`.
struct CrossPinger {
  EventLoop* loop = nullptr;
  Link* out = nullptr;
  SimTime interval = 0;
  SimTime until = 0;
  uint32_t sent = 0;

  void fire() {
    TcpSegment seg;
    seg.seq = sent++;
    out->deliver(seg);
    if (loop->now() + interval < until) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

TEST(ShardedEngine, IdleEpochsSkipDrainsWithoutLosingSegments) {
  // Both shards stay busy with local ticks every quantum, so epochs keep
  // running at the fixed cadence; cross traffic flows one direction only,
  // once every 20 quanta. The 19 quiet epochs in between must take the
  // skip path (group-wide push watermark unchanged), and every sent
  // segment must still arrive exactly once, in order.
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, cfg, cfg);
  ASSERT_EQ(topo.channels().size(), 2u);
  TimedCollector sink(topo.loop(1));
  topo.channels()[0]->set_target(&sink);  // a->b direction

  const SimTime duration = 300 * kMillisecond;
  Ticker t0{&topo.loop(0), 1 * kMillisecond, duration};
  Ticker t1{&topo.loop(1), 1 * kMillisecond, duration};
  CrossPinger ping{&topo.loop(0), &topo.link_ab(l), 20 * kMillisecond,
                   duration};
  topo.loop(0).schedule_in(0, [&t0] { t0.fire(); });
  topo.loop(1).schedule_in(0, [&t1] { t1.fire(); });
  topo.loop(0).schedule_in(0, [&ping] { ping.fire(); });

  ShardedEngine engine(topo);
  engine.run_until(duration + 10 * kMillisecond);

  EXPECT_EQ(engine.sync_groups(), 1u);
  EXPECT_GT(engine.drain_skips(), engine.epochs() / 2);
  ASSERT_EQ(sink.arrivals.size(), static_cast<size_t>(ping.sent));
  for (uint32_t i = 0; i < ping.sent; ++i) {
    EXPECT_EQ(sink.arrivals[i].second, i);
  }
  EXPECT_EQ(engine.handoff_packets(), ping.sent);
}

/// Sends `count` segments into `out` in one deliver_burst() call, seqs
/// first..first+count-1.
void send_burst(Link& out, uint32_t first, uint32_t count) {
  std::vector<TcpSegment> burst(count);
  for (uint32_t i = 0; i < count; ++i) burst[i].seq = first + i;
  out.deliver_burst(burst.data(), burst.size());
}

TEST(ShardedEngine, BurstOfThousandsInOneEpochArrivesOnceInOrder) {
  // 12,000 segments each way leave within a single epoch -- far more than
  // any fixed-size handoff queue would hold between two barriers. The
  // outbox must carry all of them to the next drain: every segment
  // arrives exactly once, in send order, at its departure time plus the
  // propagation delay.
  constexpr uint32_t kBurst = 12000;
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 50 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;  // holds a whole burst of bare headers
  const size_t l = topo.connect(a, b, cfg, cfg);
  ASSERT_EQ(topo.channels().size(), 2u);
  TimedCollector at_b(topo.loop(1));
  TimedCollector at_a(topo.loop(0));
  topo.channels()[0]->set_target(&at_b);  // a->b direction
  topo.channels()[1]->set_target(&at_a);  // b->a direction

  const SimTime kick = 1 * kMillisecond;
  topo.loop(0).schedule_at(kick,
                           [&] { send_burst(topo.link_ab(l), 0, kBurst); });
  topo.loop(1).schedule_at(
      kick, [&] { send_burst(topo.link_ba(l), kBurst, kBurst); });

  ShardedEngine engine(topo);
  engine.run_until(kick + 2 * cfg.prop_delay);
  EXPECT_EQ(engine.handoff_packets(), 2u * kBurst);

  // Header-only segments serialize back to back from the kick, so the
  // i-th departs once i+1 of them have left the wire -- all within the
  // first 50 ms epoch.
  const double tx_seconds =
      static_cast<double>(TcpSegment{}.wire_size()) * 8.0 / cfg.rate_bps;
  const SimTime per_seg =
      static_cast<SimTime>(tx_seconds * static_cast<double>(kSecond));
  ASSERT_LT(kick + kBurst * per_seg, cfg.prop_delay);
  for (const auto* sink : {&at_b, &at_a}) {
    const uint32_t first = sink == &at_b ? 0 : kBurst;
    ASSERT_EQ(sink->arrivals.size(), kBurst);
    for (uint32_t i = 0; i < kBurst; ++i) {
      ASSERT_EQ(sink->arrivals[i].second, first + i) << i;
      ASSERT_EQ(sink->arrivals[i].first,
                kick + (i + 1) * per_seg + cfg.prop_delay)
          << i;
    }
  }
}

TEST(ShardedEngine, EqualArrivalsFromTwoChannelsDrainInLinkOrder) {
  // Two shards burst into a third at the same instants over identical
  // links. Equal arrival times on the destination loop are broken by
  // drain order, which is channel (link creation) order, each channel
  // FIFO: a's i-th segment, then b's i-th, for every i -- and the same
  // on every run.
  const auto run = [] {
    Topology topo(/*seed=*/1, /*shards=*/3);
    const NodeId a = topo.add_host("a", 0);
    const NodeId b = topo.add_host("b", 1);
    const NodeId c = topo.add_host("c", 2);
    LinkConfig cfg;
    cfg.rate_bps = 1e9;
    cfg.prop_delay = 5 * kMillisecond;
    cfg.buffer_bytes = 1 << 20;
    const size_t la = topo.connect(a, c, cfg, cfg);
    const size_t lb = topo.connect(b, c, cfg, cfg);
    TimedCollector at_c(topo.loop(2));
    for (const auto& ch : topo.channels()) {
      if (ch->dst_shard() == 2) ch->set_target(&at_c);
    }
    topo.loop(0).schedule_at(
        kMillisecond, [&] { send_burst(topo.link_ab(la), 0, 3); });
    topo.loop(1).schedule_at(
        kMillisecond, [&] { send_burst(topo.link_ab(lb), 100, 3); });
    ShardedEngine engine(topo);
    engine.run_until(20 * kMillisecond);
    EXPECT_EQ(engine.handoff_packets(), 6u);
    return at_c.arrivals;
  };
  const std::vector<std::pair<SimTime, uint32_t>> first = run();
  ASSERT_EQ(first.size(), 6u);
  std::vector<uint32_t> seqs;
  for (const auto& arrival : first) seqs.push_back(arrival.second);
  EXPECT_EQ(seqs, (std::vector<uint32_t>{0, 100, 1, 101, 2, 102}));
  for (size_t i = 0; i < first.size(); i += 2) {
    EXPECT_EQ(first[i].first, first[i + 1].first) << i;
  }
  EXPECT_EQ(run(), first);
}

/// Bounces every delivered segment back over `back`, recording arrivals.
class Echo : public PacketSink {
 public:
  Echo(EventLoop& loop, Link& back) : loop_(loop), back_(back) {}
  void deliver(TcpSegment seg) override {
    arrivals.emplace_back(loop_.now(), seg.seq);
    back_.deliver(std::move(seg));
  }
  std::vector<std::pair<SimTime, uint32_t>> arrivals;

 private:
  EventLoop& loop_;
  Link& back_;
};

/// Ping cadence and propagation delay of the echo runs.
constexpr SimTime kPingStep = 2 * kMillisecond;

struct EchoRun {
  std::vector<std::pair<SimTime, uint32_t>> at_b;
  std::vector<std::pair<SimTime, uint32_t>> at_a;
  /// run_until() calls that ended with segments still in an outbox.
  int parked_ends = 0;
};

/// a sends one ping to b every 2 ms (= the link's propagation delay)
/// and b echoes each ping straight back; the links serialize in zero
/// virtual time. With `cut`, the caller schedules each ping at the
/// current time and runs exactly one propagation delay: the ping's
/// arrival is drained at that run's last barrier and fires at its end,
/// so the echo is handed off after the last drain and must wait in the
/// outbox for the next run. Without `cut`, every ping is scheduled up
/// front and one run covers them all.
EchoRun run_echo(bool cut) {
  constexpr uint32_t kPings = 15;
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 1e15;  // a header serializes in under a nanosecond
  cfg.prop_delay = kPingStep;
  cfg.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, cfg, cfg);
  Echo echo(topo.loop(1), topo.link_ba(l));
  TimedCollector at_a(topo.loop(0));
  topo.channels()[0]->set_target(&echo);  // a->b direction
  topo.channels()[1]->set_target(&at_a);  // b->a direction
  Link* out = &topo.link_ab(l);
  const auto schedule_ping = [&topo, out](uint32_t k) {
    topo.loop(0).schedule_at(k * kPingStep, [out, k] {
      TcpSegment seg;
      seg.seq = k;
      out->deliver(std::move(seg));
    });
  };

  ShardedEngine engine(topo);
  EchoRun out_run;
  const auto run_to = [&](SimTime t) {
    engine.run_until(t);
    for (const auto& ch : topo.channels()) {
      if (ch->pushed() != ch->delivered()) {
        ++out_run.parked_ends;
        break;
      }
    }
  };
  for (uint32_t k = 0; k < kPings; ++k) {
    schedule_ping(k);
    if (cut) run_to((k + 1) * kPingStep);
  }
  run_to((kPings + 2) * kPingStep);
  out_run.at_b = std::move(echo.arrivals);
  out_run.at_a = std::move(at_a.arrivals);
  return out_run;
}

TEST(ShardedEngine, SegmentsParkedAtRunEndArriveOnTimeInTheNextRun) {
  // Cutting one run into many must not move a single arrival -- even
  // when every cut leaves an echo in the outbox as run_until() returns.
  const EchoRun whole = run_echo(/*cut=*/false);
  const EchoRun cut = run_echo(/*cut=*/true);

  EXPECT_EQ(whole.parked_ends, 0);
  EXPECT_EQ(cut.parked_ends, 15);  // every cut, none at the final stop
  ASSERT_EQ(whole.at_b.size(), 15u);
  ASSERT_EQ(whole.at_a.size(), 15u);
  for (uint32_t k = 0; k < 15; ++k) {
    EXPECT_EQ(whole.at_b[k], std::make_pair((k + 1) * kPingStep, k));
    EXPECT_EQ(whole.at_a[k], std::make_pair((k + 2) * kPingStep, k));
  }
  EXPECT_EQ(cut.at_b, whole.at_b);
  EXPECT_EQ(cut.at_a, whole.at_a);
}

/// One bursty cross-shard run: traffic active the first fifth of each
/// 100 ms window. Returns the exact delivery schedule plus epoch count.
struct CollapseRun {
  std::vector<std::pair<SimTime, uint32_t>> arrivals;
  uint64_t epochs = 0;
};

CollapseRun run_collapse(ShardedEngine::Config cfg) {
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig lc;
  lc.rate_bps = 1e9;
  lc.prop_delay = 2 * kMillisecond;
  lc.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, lc, lc);
  TimedCollector sink(topo.loop(1));
  topo.channels()[0]->set_target(&sink);

  const SimTime duration = 400 * kMillisecond;
  // Bursts: every 3 ms during [k*100ms, k*100ms + 20ms), then silence.
  // Each window's kick re-aims the pinger's horizon at the burst end, so
  // it self-schedules through the burst and falls silent until the next
  // kick -- long idle stretches the fast-forward path must collapse
  // without moving a single arrival.
  CrossPinger ping{&topo.loop(0), &topo.link_ab(l), 3 * kMillisecond,
                   duration};
  for (SimTime w = 0; w < duration; w += 100 * kMillisecond) {
    topo.loop(0).schedule_at(w, [&ping, w] {
      ping.until = w + 20 * kMillisecond;
      ping.fire();
    });
  }

  ShardedEngine engine(topo, cfg);
  engine.run_until(duration);
  CollapseRun out;
  out.arrivals = std::move(sink.arrivals);
  out.epochs = engine.epochs();
  return out;
}

TEST(ShardedEngine, EpochCollapseKeepsDeliveryScheduleExact) {
  // The determinism core of the idle fast-forward proof: the auto-tuned
  // engine, a 4x-finer forced quantum, and the fixed-lockstep baseline
  // must produce byte-identical (time, seq) delivery schedules -- only
  // the number of barrier epochs may differ, and the auto engine must
  // not run more of them than fixed lockstep.
  ShardedEngine::Config fixed;
  fixed.fixed_lockstep = true;
  const CollapseRun base = run_collapse(fixed);
  const CollapseRun autod = run_collapse(ShardedEngine::Config{});
  ShardedEngine::Config fine;
  fine.quantum = kMillisecond / 2;
  const CollapseRun quartered = run_collapse(fine);

  ASSERT_GT(base.arrivals.size(), 10u);
  EXPECT_EQ(base.arrivals, autod.arrivals);
  EXPECT_EQ(base.arrivals, quartered.arrivals);
  EXPECT_LT(autod.epochs, base.epochs);
}

}  // namespace
}  // namespace mptcp
