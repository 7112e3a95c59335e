#include "probes.h"

#include <chrono>

namespace perfbench {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One timed probe call. The innermost open span per thread is the top
/// of a linked stack; closing a span charges its elapsed time minus its
/// children's to its probe and reports the full elapsed time to its
/// parent as child time.
class ProbeSpan {
 public:
  ProbeSpan(Probe& p, size_t segments) : probe_(p), parent_(top_) {
    ++p.calls_;
    p.segments_ += segments;
    top_ = this;
    start_ = now_ns();
  }
  ~ProbeSpan() {
    const uint64_t elapsed = now_ns() - start_;
    probe_.self_ns_ += elapsed - child_ns_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    top_ = parent_;
  }
  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;

 private:
  static thread_local ProbeSpan* top_;
  Probe& probe_;
  ProbeSpan* parent_;
  uint64_t start_ = 0;
  uint64_t child_ns_ = 0;
};

thread_local ProbeSpan* ProbeSpan::top_ = nullptr;

void Probe::deliver(mptcp::TcpSegment seg) {
  ProbeSpan span(*this, 1);
  emit(std::move(seg));
}

void Probe::deliver_burst(mptcp::TcpSegment* segs, size_t n) {
  ProbeSpan span(*this, n);
  if (downstream() != nullptr) downstream()->deliver_burst(segs, n);
}

void ProbeSet::add(mptcp::Topology& topo, size_t link, bool ab,
                   ProbeSide side) {
  auto probe = std::make_unique<Probe>();
  if (ab) {
    topo.splice_ab(link, *probe);
  } else {
    topo.splice_ba(link, *probe);
  }
  probes_.push_back({side, std::move(probe)});
}

ProbeTotals ProbeSet::totals(ProbeSide side) const {
  ProbeTotals t;
  for (const Entry& e : probes_) {
    if (e.side != side) continue;
    t.seconds += static_cast<double>(e.probe->self_ns()) * 1e-9;
    t.calls += e.probe->calls();
    t.segments += e.probe->segments();
  }
  return t;
}

}  // namespace perfbench
