// Outside-in layer timing: pass-through probes spliced onto topology links.
//
// A Probe is a Middlebox that forwards every segment unchanged and times
// the downstream call -- the work the receiving node (router or host, plus
// any middlebox spliced before the probe) does synchronously for that
// segment. Probes nest: when a probed call reaches another probe on the
// same thread (a host whose send path runs into a zero-delay element, a
// middlebox chain), the inner probe's time is subtracted from the outer
// one, so each probe reports self time and the totals of all probes never
// count an interval twice. Each probe keeps its own totals; probes on a
// cross-shard link run on the destination shard's thread, and the caller
// sums totals after the run has joined.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/node.h"
#include "sim/topology.h"

namespace perfbench {

class Probe final : public mptcp::Middlebox {
 public:
  Probe() = default;
  Probe(const Probe&) = delete;  // the topology holds its address
  Probe& operator=(const Probe&) = delete;

  void deliver(mptcp::TcpSegment seg) override;
  void deliver_burst(mptcp::TcpSegment* segs, size_t n) override;

  uint64_t self_ns() const { return self_ns_; }
  uint64_t calls() const { return calls_; }
  uint64_t segments() const { return segments_; }

 private:
  friend class ProbeSpan;
  uint64_t self_ns_ = 0;
  uint64_t calls_ = 0;
  uint64_t segments_ = 0;
};

/// Which receiving layer a probed link direction feeds.
enum class ProbeSide : uint8_t { kRouter, kServerHost, kClientHost };

struct ProbeTotals {
  double seconds = 0;
  uint64_t calls = 0;
  uint64_t segments = 0;
};

/// Owns the probes spliced onto every direction of every link of a
/// topology, grouped by what the direction feeds.
class ProbeSet {
 public:
  /// Splices a probe onto both directions of every link. `is_server`
  /// classifies host endpoints; routers are recognised by the topology.
  template <typename IsServer>
  void splice_all(mptcp::Topology& topo, IsServer&& is_server) {
    for (size_t l = 0; l < topo.link_count(); ++l) {
      add(topo, l, true, side_of(topo, topo.link_node_b(l), is_server));
      add(topo, l, false, side_of(topo, topo.link_node_a(l), is_server));
    }
  }

  ProbeTotals totals(ProbeSide side) const;

 private:
  template <typename IsServer>
  static ProbeSide side_of(mptcp::Topology& topo, mptcp::NodeId n,
                           IsServer&& is_server) {
    if (topo.is_router(n)) return ProbeSide::kRouter;
    return is_server(n) ? ProbeSide::kServerHost : ProbeSide::kClientHost;
  }
  void add(mptcp::Topology& topo, size_t link, bool ab, ProbeSide side);

  struct Entry {
    ProbeSide side;
    std::unique_ptr<Probe> probe;
  };
  std::vector<Entry> probes_;
};

}  // namespace perfbench
