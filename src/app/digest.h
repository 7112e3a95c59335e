// Determinism digest: a fixed-seed run of the paper's Fig. 6 scenario
// (WiFi + weak lossy 3G, Mechanisms 1+2) with every packet that crosses
// any link folded into one order-sensitive 64-bit hash, together with the
// final stats export.
//
// The simulator is a deterministic discrete-event system: same build +
// same seed must produce byte-identical event streams. CI runs this
// scenario twice and compares digests; any nondeterminism (iteration over
// pointer-keyed containers, uninitialised reads, wall-clock leakage into
// the simulation) shows up as a digest mismatch long before it produces a
// flaky test.
#pragma once

#include <cstdint>
#include <string>

#include "app/harness.h"
#include "core/scheduler.h"
#include "sim/event_loop.h"

namespace mptcp {

/// Which fixed-seed scenario to hash.
enum class DigestScenario : uint8_t {
  kTwoHost,    ///< Fig. 6 shape: WiFi + weak lossy 3G, one bulk transfer
  kCapacity,   ///< scale-out shape: multi-host workload over shared
               ///< bottlenecks (sim/topology.h + app/workload.h)
  kPingPong,   ///< two hosts, sequential fetches; with shards=2 the link
               ///< crosses a shard boundary and the digest must equal the
               ///< shards=1 reference (epoch-barrier lockstep check)
  kFleet,      ///< small heterogeneous fleet (app/fleet.h): middleboxes,
               ///< mobility events, per-island workloads. Folds per-island
               ///< tap hashes + fleet aggregates only, so the digest must
               ///< be identical for any shard count (islands are
               ///< shard-local by construction)
  kServing,    ///< layered serving stack: open-loop framed requests over
               ///< connection pools against an overload-aware ServerApp
               ///< (app/server_app.h + app/client_pool.h), heavy-tailed
               ///< sizes, single-loop, bottlenecks tapped + stats folded
};

struct DigestConfig {
  uint64_t seed = 1;
  SimTime duration = 5 * kSecond;
  double loss = 0.02;  ///< Bernoulli loss on the weak 3G path (kTwoHost)
  DigestScenario scenario = DigestScenario::kTwoHost;
  /// Packet scheduling policy for every MPTCP connection in the scenario.
  /// The per-policy digests are the refactoring safety net: a send-path
  /// change that claims to be behavior-preserving must reproduce the
  /// recorded digest for each pre-existing policy bit for bit.
  SchedulerPolicy scheduler = SchedulerPolicy::kLowestRtt;
  /// 0 = the single-loop legacy paths (digests pinned bit-for-bit by
  /// tests). >= 1 = the sharded variants driven by ShardedEngine: the
  /// capacity scenario becomes a cell ring with cross-shard traffic
  /// (deterministic for a *fixed* shard count), the ping-pong scenario
  /// produces the same digest for any shard count.
  size_t shards = 0;
};

struct DigestResult {
  uint64_t digest = 0;          ///< FNV-1a 64 over packets + final stats
  uint64_t packets_hashed = 0;  ///< link crossings folded into the digest
  uint64_t bytes_delivered = 0;
  /// Delivered-byte check of every scenario but two-host (the ping-pong
  /// client's responses, the workload engines' flows and pools); not
  /// folded into the digest.
  PayloadCheck payload_check;
  std::string stats_json;       ///< the run's full stats export
};

/// Runs the configured scenario and returns the digest. Deterministic by
/// contract: same build + same config => same digest.
DigestResult run_digest_scenario(const DigestConfig& cfg = {});

/// 16-digit lowercase hex rendering of a digest.
std::string digest_hex(uint64_t digest);

}  // namespace mptcp
