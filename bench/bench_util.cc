#include "bench_util.h"

#include <cstdlib>
#include <thread>

namespace mptcp {
namespace bench {

namespace {

/// The transport a data point runs. MPTCP gets the buffer knob on its
/// meta buffers and the variant's mechanisms; TCP gets it on its own
/// buffers. Both autotune under M3 and draw from the run's seed.
TransportConfig make_config(const RunConfig& cfg, TransportKind kind) {
  TransportConfig tc;
  tc.kind = kind;
  MptcpConfig& m = tc.mptcp;
  if (kind == TransportKind::kMptcp) {
    m.meta_snd_buf_max = cfg.buffer_bytes;
    m.meta_rcv_buf_max = cfg.buffer_bytes;
    m.opportunistic_retransmit = cfg.variant.m1_opportunistic;
    m.penalize_slow_subflows = cfg.variant.m2_penalize;
    m.meta_autotune = cfg.variant.m3_autotune;
    m.cap_subflow_cwnd = cfg.variant.m4_cap;
  } else {
    m.tcp.snd_buf_max = cfg.buffer_bytes;
    m.tcp.rcv_buf_max = cfg.buffer_bytes;
  }
  m.tcp.autotune = cfg.variant.m3_autotune;
  m.tcp.seed = cfg.seed;
  return tc;
}

// The runner's only transport branches: what each kind counts as
// buffered memory and as bytes put on the wire.
double sender_memory(StreamSocket& s) {
  auto* m = dynamic_cast<MptcpConnection*>(&s);
  return static_cast<double>(
      m ? m->sender_memory()
        : dynamic_cast<TcpConnection&>(s).snd_buf_in_use());
}

double receiver_memory(StreamSocket& s) {
  auto* m = dynamic_cast<MptcpConnection*>(&s);
  return static_cast<double>(
      m ? m->receiver_memory()
        : dynamic_cast<TcpConnection&>(s).rcv_buf_in_use());
}

uint64_t bytes_sent(StreamSocket& s) {
  auto* m = dynamic_cast<MptcpConnection*>(&s);
  if (m == nullptr) return dynamic_cast<TcpConnection&>(s).stats().bytes_sent;
  uint64_t n = 0;
  for (size_t i = 0; i < m->subflow_count(); ++i) {
    n += m->subflow(i)->stats().bytes_sent;
  }
  return n;
}

}  // namespace

RunResult run_bulk(const RunConfig& cfg, TransportKind kind,
                   size_t path_index) {
  TwoHostRig rig(cfg.seed);
  for (const auto& p : cfg.paths) rig.add_path(p);

  const TransportConfig tc = make_config(cfg, kind);
  SocketFactory client_factory(rig.client(), tc);
  SocketFactory server_factory(rig.server(), tc);

  StreamSocket* server_sock = nullptr;
  std::unique_ptr<BulkReceiver> bulk_rx;
  std::unique_ptr<BlockReceiver> block_rx;
  server_factory.listen(80, [&](StreamSocket& s) {
    server_sock = &s;
    if (cfg.measure_block_delay) {
      block_rx = std::make_unique<BlockReceiver>(rig.loop(), s);
    } else {
      bulk_rx = std::make_unique<BulkReceiver>(s, /*verify=*/false);
    }
  });

  StreamSocket& client = client_factory.connect(
      rig.client_addr(path_index), Endpoint{rig.server_addr(), 80});
  std::unique_ptr<BulkSender> bulk_tx;
  std::unique_ptr<BlockSender> block_tx;
  if (cfg.measure_block_delay) {
    block_tx = std::make_unique<BlockSender>(rig.loop(), client);
  } else {
    bulk_tx = std::make_unique<BulkSender>(client, 0);
  }
  const auto delivered = [&] {
    return cfg.measure_block_delay ? block_rx->blocks_completed() * 8192
                                   : bulk_rx->bytes_received();
  };

  rig.loop().run_until(cfg.warmup);
  const uint64_t rx0 = delivered();
  const uint64_t tx0 = bytes_sent(client);

  // Running sums, added in sample order, give the means.
  double snd_sum = 0, rcv_sum = 0;
  size_t snd_n = 0, rcv_n = 0;
  PeriodicSampler sampler(rig.loop(), 10 * kMillisecond, [&](SimTime) {
    snd_sum += sender_memory(client);
    ++snd_n;
    if (server_sock != nullptr) {
      rcv_sum += receiver_memory(*server_sock);
      ++rcv_n;
    }
  });

  rig.loop().run_until(cfg.warmup + cfg.duration);

  RunResult out;
  const double secs = to_seconds(cfg.duration);
  out.goodput_bps = static_cast<double>(delivered() - rx0) * 8.0 / secs;
  out.throughput_bps =
      static_cast<double>(bytes_sent(client) - tx0) * 8.0 / secs;
  out.snd_mem_mean = snd_n == 0 ? 0.0 : snd_sum / static_cast<double>(snd_n);
  out.rcv_mem_mean = rcv_n == 0 ? 0.0 : rcv_sum / static_cast<double>(rcv_n);
  if (auto* m = client_factory.as_mptcp(client)) {
    out.m1_count = m->meta_stats().opportunistic_retransmits;
    out.m2_count = m->meta_stats().penalizations;
  }
  if (cfg.measure_block_delay) out.app_delays = block_rx->delays();
  if (!cfg.stats_out.empty()) {
    if (std::FILE* f = std::fopen(cfg.stats_out.c_str(), "w")) {
      std::fputs(rig.dump_stats().c_str(), f);
      std::fclose(f);
    }
  }
  return out;
}

size_t clamp_shards(size_t requested) {
  if (requested <= 1) return requested;
  if (std::getenv("MPTCP_ALLOW_OVERSUBSCRIBE") != nullptr) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t cores = hw == 0 ? 1 : hw;
  if (requested <= cores) return requested;
  std::fprintf(stderr,
               "warning: --shards %zu exceeds the %zu hardware threads; "
               "clamping to %zu (set MPTCP_ALLOW_OVERSUBSCRIBE=1 to keep "
               "the requested count)\n",
               requested, cores, cores);
  return cores;
}

bool write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6g%s\n", fields[i].first.c_str(),
                 fields[i].second, i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

void print_header(const std::string& xlabel,
                  const std::vector<std::string>& series) {
  std::printf("%-14s", xlabel.c_str());
  for (const auto& s : series) std::printf("%22s", s.c_str());
  std::printf("\n");
}

void print_row(const std::string& label, const std::vector<double>& mbps) {
  std::printf("%-14s", label.c_str());
  for (double v : mbps) std::printf("%22.3f", v);
  std::printf("\n");
}

}  // namespace bench
}  // namespace mptcp
