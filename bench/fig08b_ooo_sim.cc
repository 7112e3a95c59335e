// Figure 8, companion measurement: the out-of-order algorithms driven by
// a *real* MPTCP transfer (not a synthetic trace): a client downloads
// over N near-symmetric 1 Gbps paths for two simulated seconds per
// algorithm, and the receiver's connection-level queue reports its
// workload.
//
// Read together with fig08 (the synthetic-trace benchmark): the paper's
// shortcut optimization presupposes that each subflow carries multi-
// segment batches of contiguous data sequence numbers. In this simulator
// the scheduler allocates per ACK arrival, and with delayed ACKs each
// allocation is ~2 segments, so per-subflow runs are short and shortcut
// hit rates sit far below the paper's 80% at 8 subflows. On the paper's
// hardware, interrupt coalescing (NAPI) batched ACK processing and thus
// allocation -- a substrate effect, not a protocol one. The ranking of
// the *scan* costs (Regular worst, batches/tree best) still shows.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

void run(size_t n_paths) {
  std::printf("# %zu subflows over %zu x 1 Gbps\n", n_paths, n_paths);
  std::printf("%-14s %14s %14s %14s %12s\n", "algorithm", "inserts",
              "cmp/insert", "hit_rate", "goodput");
  for (RecvAlgo algo : {RecvAlgo::kRegular, RecvAlgo::kTree,
                        RecvAlgo::kShortcuts, RecvAlgo::kAllShortcuts}) {
    std::vector<PathSpec> paths;
    for (size_t i = 0; i < n_paths; ++i) {
      // Nominally symmetric gigabit paths with realistic +-10% RTT skew.
      paths.push_back(ethernet_path(
          1e9, 400 * kMicrosecond + static_cast<SimTime>(i) * 40 *
                                        kMicrosecond,
          10 * kMillisecond));  // ample buffering: the testbed was loss-free
    }
    Topology t;
    const TwoHostShape shape = declare_two_host(t, paths);
    t.build_routes();
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 8 * 1000 * 1000;
    cfg.recv_algo = algo;
    cfg.batch_segments = 32;  // the paper's batches are cwnd-sized
    MptcpStack cs(t.host(shape.client), cfg), ss(t.host(shape.server), cfg);
    MptcpConnection* sconn = nullptr;
    std::unique_ptr<BulkReceiver> rx;
    ss.listen(80, [&](MptcpConnection& c) {
      sconn = &c;
      rx = std::make_unique<BulkReceiver>(c, false);
    });
    MptcpConnection& cc = cs.connect(t.addr(shape.client, 0),
                                     {t.addr(shape.server, 0), 80});
    BulkSender tx(cc, 0);
    t.loop(0).run_until(2 * kSecond);

    const auto& st = sconn->recv_queue_stats();
    const double hits =
        st.shortcut_hits + st.shortcut_misses == 0
            ? 0.0
            : static_cast<double>(st.shortcut_hits) /
                  static_cast<double>(st.shortcut_hits +
                                      st.shortcut_misses);
    std::printf("%-14s %14llu %14.2f %13.1f%% %9.2f Gb\n",
                algo == RecvAlgo::kRegular      ? "Regular"
                : algo == RecvAlgo::kTree       ? "Tree"
                : algo == RecvAlgo::kShortcuts  ? "Shortcuts"
                                                : "AllShortcuts",
                static_cast<unsigned long long>(st.inserts),
                st.comparisons_per_insert(), hits * 100.0,
                static_cast<double>(rx->bytes_received()) * 8 / 1e9);
  }
}

}  // namespace

int main() {
  std::printf("# Fig 8 companion: receive-queue workload during live "
              "multipath transfers\n");
  run(2);
  run(8);
  return 0;
}
