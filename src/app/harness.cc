#include "app/harness.h"

#include <algorithm>
#include <cstring>

#include "core/mptcp_connection.h"

namespace mptcp {

namespace {

LinkConfig make_link(double rate_bps, SimTime one_way, SimTime buffer_delay,
                     double loss, uint64_t seed) {
  LinkConfig cfg;
  cfg.rate_bps = rate_bps;
  cfg.prop_delay = one_way;
  cfg.buffer_bytes =
      std::max<size_t>(LinkConfig::buffer_for_delay(rate_bps, buffer_delay),
                       3000);  // at least two full-size frames
  cfg.loss_prob = loss;
  cfg.loss_seed = seed;
  return cfg;
}

}  // namespace

PathSpec wifi_path() {
  PathSpec s;
  s.name = "wifi";
  s.up = make_link(8e6, 10 * kMillisecond, 80 * kMillisecond, 0.0, 11);
  s.down = make_link(8e6, 10 * kMillisecond, 80 * kMillisecond, 0.0, 12);
  return s;
}

PathSpec threeg_path() {
  PathSpec s;
  s.name = "3g";
  s.up = make_link(2e6, 75 * kMillisecond, 2 * kSecond, 0.0, 21);
  s.down = make_link(2e6, 75 * kMillisecond, 2 * kSecond, 0.0, 22);
  return s;
}

PathSpec weak_threeg_path(double loss) {
  PathSpec s;
  s.name = "weak-3g";
  s.up = make_link(50e3, 75 * kMillisecond, 2 * kSecond, loss, 31);
  s.down = make_link(50e3, 75 * kMillisecond, 2 * kSecond, loss, 32);
  return s;
}

PathSpec ethernet_path(double rate_bps, SimTime rtt, SimTime buffer_delay) {
  PathSpec s;
  s.name = "eth";
  s.up = make_link(rate_bps, rtt / 2, buffer_delay, 0.0, 41);
  s.down = make_link(rate_bps, rtt / 2, buffer_delay, 0.0, 42);
  return s;
}

PathSpec capped_wifi_path() {
  PathSpec s;
  s.name = "capped-wifi";
  s.up = make_link(2e6, 10 * kMillisecond, 100 * kMillisecond, 0.0, 51);
  s.down = make_link(2e6, 10 * kMillisecond, 100 * kMillisecond, 0.0, 52);
  return s;
}

PathSpec capped_threeg_path(double loss) {
  PathSpec s;
  s.name = "capped-3g";
  s.up = make_link(2e6, 75 * kMillisecond, 2 * kSecond, loss, 61);
  s.down = make_link(2e6, 75 * kMillisecond, 2 * kSecond, loss, 62);
  return s;
}

TwoHostRig::TwoHostRig(uint64_t seed)
    : client_(loop_, "client"), server_(loop_, "server"), seed_(seed) {
  server_.add_interface(server_addr_, &server_out_);
  net_.add_route(server_addr_, &server_);
}

size_t TwoHostRig::add_path(const PathSpec& spec) {
  const size_t idx = paths_.size();
  Path p;
  p.client_addr = IpAddr(10, 0, static_cast<uint8_t>(idx), 2);

  LinkConfig up_cfg = spec.up;
  LinkConfig down_cfg = spec.down;
  up_cfg.loss_seed ^= seed_ * 0x9e37;
  down_cfg.loss_seed ^= seed_ * 0x79b9;

  p.up = std::make_unique<Link>(loop_, up_cfg, spec.name + "-up");
  p.down = std::make_unique<Link>(loop_, down_cfg, spec.name + "-down");
  p.up->set_target(&net_);
  p.down->set_target(&net_);

  client_.add_interface(p.client_addr, p.up.get());
  net_.add_route(p.client_addr, &client_);
  server_out_.add_route(p.client_addr, p.down.get());

  paths_.push_back(std::move(p));
  return idx;
}

void TwoHostRig::splice_up(size_t i, Middlebox& element) {
  element.set_downstream(paths_[i].up->target());
  paths_[i].up->set_target(&element);
}

void TwoHostRig::splice_down(size_t i, Middlebox& element) {
  element.set_downstream(paths_[i].down->target());
  paths_[i].down->set_target(&element);
}

void TwoHostRig::set_path_up(size_t i, bool up) {
  client_.set_interface_up(paths_[i].client_addr, up);
  paths_[i].up->set_up(up);
  paths_[i].down->set_up(up);
}

void pattern_fill(uint64_t offset, std::span<uint8_t> out) {
  uint64_t x = offset * kPatternMul;
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(x >> 56);
    x += kPatternMul;
  }
}

std::span<const uint8_t> pattern_view(uint64_t offset, size_t n) {
  thread_local std::vector<uint8_t> scratch;
  if (scratch.size() < n) scratch.resize(n);
  const std::span<uint8_t> out(scratch.data(), n);
  pattern_fill(offset, out);
  return out;
}

uint64_t pattern_mismatches(uint64_t offset, std::span<const uint8_t> bytes) {
  constexpr size_t kBlock = 1024;
  uint8_t ref[kBlock];
  uint64_t bad = 0;
  for (size_t i = 0; i < bytes.size(); i += kBlock) {
    const size_t n = std::min(kBlock, bytes.size() - i);
    pattern_fill(offset + i, std::span<uint8_t>(ref, n));
    if (std::memcmp(ref, bytes.data() + i, n) == 0) continue;
    for (size_t j = 0; j < n; ++j) bad += ref[j] != bytes[i + j];
  }
  return bad;
}

uint64_t readable_pattern_mismatches(const StreamSocket& sock, uint64_t offset,
                                     size_t n) {
  std::span<const uint8_t> views[32];
  const size_t nviews = sock.peek_views(views);
  uint64_t bad = 0;
  size_t done = 0;
  for (size_t i = 0; i < nviews && done < n; ++i) {
    const auto v = views[i].first(std::min(views[i].size(), n - done));
    bad += pattern_mismatches(offset + done, v);
    done += v.size();
  }
  // Bytes queued behind more chunks than there are view slots (heavily
  // split segments) are gathered through the copying path instead.
  uint8_t buf[1024];
  while (done < n) {
    const size_t got = sock.peek_copy(
        done, std::span<uint8_t>(buf, std::min(sizeof buf, n - done)));
    if (got == 0) break;
    bad += pattern_mismatches(offset + done, std::span(buf, got));
    done += got;
  }
  return bad;
}

void PayloadCheck::record(const StreamSocket& sock, uint64_t mismatches) {
  if (mismatches == 0) return;
  const auto* conn = dynamic_cast<const MptcpConnection*>(&sock);
  if (conn != nullptr && conn->meta_stats().fallbacks > 0) {
    alg_rewritten_bytes += mismatches;
  } else {
    integrity_errors += mismatches;
  }
}

std::vector<uint8_t> pattern_bytes(uint64_t offset, size_t n) {
  std::vector<uint8_t> out(n);
  pattern_fill(offset, out);
  return out;
}

}  // namespace mptcp
