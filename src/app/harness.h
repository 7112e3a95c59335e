// Canned two-host topologies shared by tests, benchmarks and examples.
//
// A TwoHostRig wires a (possibly multihomed) client to a server through
// one full-duplex path per client address. Middleboxes can be spliced into
// either direction of any path. The concrete path parameters of the
// paper's scenarios (WiFi, 3G, 1G Ethernet, ...) are provided as factory
// functions so every experiment states its setup in the paper's own
// vocabulary.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/trace.h"
#include "tcp/tcp_socket.h"

namespace mptcp {

/// Full-duplex path description.
struct PathSpec {
  LinkConfig up;    ///< client -> server
  LinkConfig down;  ///< server -> client
  std::string name = "path";
};

// --- The paper's emulated paths (section 4.2) -----------------------------

/// "WiFi": 8 Mbps, 20 ms RTT, 80 ms of buffer.
PathSpec wifi_path();
/// "3G": 2 Mbps, 150 ms RTT, 2 s of buffer (deep provider buffers).
PathSpec threeg_path();
/// Very weak 3G for Fig. 6(a): 50 kbps, 150 ms RTT, 2 s buffer, lossy.
PathSpec weak_threeg_path(double loss = 0.02);
/// LAN-style Ethernet path of the given rate with ~100 us RTT.
PathSpec ethernet_path(double rate_bps, SimTime rtt = 100 * kMicrosecond,
                       SimTime buffer_delay = 2 * kMillisecond);
/// Fig. 9's capped paths: both ~2 Mbps, 3G has the long RTT/deep buffer.
PathSpec capped_wifi_path();
/// Cellular links mask most radio loss with link-layer retransmission;
/// only a residue is visible to TCP.
PathSpec capped_threeg_path(double loss = 0.001);

class TwoHostRig {
 public:
  explicit TwoHostRig(uint64_t seed = 1);

  /// Adds a full-duplex path; the client gains address 10.0.<n>.2 and the
  /// path is routed to/from the single server address 10.99.0.1.
  /// Returns the path index.
  size_t add_path(const PathSpec& spec);

  /// Splices a middlebox into the client->server (up) or server->client
  /// (down) direction of path `i`. The element's downstream is wired to
  /// whatever the link previously delivered to, so repeated splices nest
  /// as Topology::splice_ab's do: the most recently spliced element sits
  /// directly after the link and sees packets first.
  void splice_up(size_t i, Middlebox& element);
  void splice_down(size_t i, Middlebox& element);

  EventLoop& loop() { return loop_; }
  Host& client() { return client_; }
  Host& server() { return server_; }
  /// The core: routes by destination address to the client, the server,
  /// or any address a test adds (a NAT's public side, a proxy).
  Classifier& network() { return net_; }

  /// The simulation-wide stats registry (owned by the event loop). Every
  /// component in the rig registers its counters here; see net/stats.h.
  StatsRegistry& stats() { return loop_.stats(); }

  /// Flat sorted-key JSON export of every registered stat. Benches pass
  /// this through to --stats files so runs are machine-comparable.
  std::string dump_stats() { return loop_.stats().to_json(); }

  IpAddr client_addr(size_t i) const { return paths_[i].client_addr; }
  IpAddr server_addr() const { return server_addr_; }
  Link& up_link(size_t i) { return *paths_[i].up; }
  Link& down_link(size_t i) { return *paths_[i].down; }
  size_t path_count() const { return paths_.size(); }

  /// Takes the client interface of path `i` down (mobility scenarios).
  void set_path_up(size_t i, bool up);

  /// Adds a server-side return route: traffic to `addr` leaves via path
  /// `i`'s downlink (needed when a NAT publishes a new address).
  void route_server_to(IpAddr addr, size_t i) {
    server_out_.add_route(addr, paths_[i].down.get());
  }

 private:
  struct Path {
    IpAddr client_addr;
    std::unique_ptr<Link> up;
    std::unique_ptr<Link> down;
  };

  EventLoop loop_;
  Classifier net_;
  Host client_;
  Host server_;
  Classifier server_out_;
  IpAddr server_addr_{10, 99, 0, 1};
  std::vector<Path> paths_;
  uint64_t seed_;
};

/// Multiplier of the deterministic payload pattern.
inline constexpr uint64_t kPatternMul = 0x9e3779b97f4a7c15ULL;

/// Deterministic payload pattern used for end-to-end integrity checks:
/// byte i of a stream is pattern_byte(i).
inline uint8_t pattern_byte(uint64_t i) {
  return static_cast<uint8_t>((i * kPatternMul) >> 56);
}

/// Writes the pattern for stream offsets [offset, offset + out.size())
/// into `out`. The one generator every sender and verifier uses: an
/// additive recurrence (x += kPatternMul per byte) that is bit-identical
/// to pattern_byte() mod 2^64 and that the compiler vectorizes.
void pattern_fill(uint64_t offset, std::span<uint8_t> out);

/// The pattern for [offset, offset + n) in a per-thread scratch buffer:
/// no allocation per call. The view stays valid until the calling
/// thread's next pattern_view(); write() copies what it accepts before
/// any callback can run, so passing the view straight to write() is safe.
std::span<const uint8_t> pattern_view(uint64_t offset, size_t n);

/// Number of bytes of `bytes` that differ from the pattern at stream
/// offsets [offset, offset + bytes.size()). Compares 1 KiB reference
/// blocks with memcmp and counts byte by byte only inside a block that
/// differs.
uint64_t pattern_mismatches(uint64_t offset, std::span<const uint8_t> bytes);

/// pattern_mismatches() over the first `n` readable bytes of `sock`
/// (n <= sock.readable_bytes()), checked in place on the receive queue's
/// zero-copy views; nothing is consumed.
uint64_t readable_pattern_mismatches(const StreamSocket& sock, uint64_t offset,
                                     size_t n);

/// Tally of delivered bytes that did not match the pattern, split by
/// whether the connection was entitled to deliver rewritten bytes.
struct PayloadCheck {
  /// Mismatches on a connection that never fell back: real corruption,
  /// must be 0.
  uint64_t integrity_errors = 0;
  /// Mismatches on an MPTCP connection that fell back -- to plain TCP, or
  /// to unchecked delivery on its one subflow after a DSS checksum
  /// failure (paper section 3.3.6). A payload-modifying middlebox's
  /// rewrites reach the application there by design.
  uint64_t alg_rewritten_bytes = 0;

  /// Books `mismatches` bytes delivered by `sock` (no-op for 0).
  void record(const StreamSocket& sock, uint64_t mismatches);
  PayloadCheck& operator+=(const PayloadCheck& o) {
    integrity_errors += o.integrity_errors;
    alg_rewritten_bytes += o.alg_rewritten_bytes;
    return *this;
  }
};

/// The pattern for stream offsets [offset, offset+n) as a fresh vector.
std::vector<uint8_t> pattern_bytes(uint64_t offset, size_t n);

}  // namespace mptcp
