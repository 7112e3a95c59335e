// Shared TCP definitions: states, sequence arithmetic, configuration.
//
// Internally the stack tracks sequence numbers as unwrapped 64-bit values
// (so multi-gigabyte transfers and MPTCP mapping bookkeeping never worry
// about 32-bit wrap); the 32-bit wire form is produced/consumed only at
// segment build/parse boundaries.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/event_loop.h"

namespace mptcp {

enum class TcpState : uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

std::string_view to_string(TcpState s);

/// 32-bit wrap-aware comparisons (RFC 793 style).
inline bool seq32_lt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}
inline bool seq32_leq(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) <= 0;
}

/// Reconstructs the unwrapped 64-bit value of a 32-bit wire sequence
/// number, choosing the candidate closest to `ref` (a nearby unwrapped
/// value such as rcv_nxt or snd_una).
inline uint64_t seq_unwrap(uint64_t ref, uint32_t wire) {
  const uint64_t base = ref & ~uint64_t{0xffffffff};
  uint64_t best = base | wire;
  // Consider the neighbouring 2^32 epochs and pick the closest.
  const uint64_t candidates[3] = {best - 0x100000000ULL, best,
                                  best + 0x100000000ULL};
  uint64_t best_dist = ~uint64_t{0};
  for (uint64_t c : candidates) {
    if (c > 0xffffffffffffffffULL - 0x100000000ULL) continue;
    const uint64_t d = c > ref ? c - ref : ref - c;
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

inline uint32_t seq_wrap(uint64_t seq) {
  return static_cast<uint32_t>(seq & 0xffffffff);
}

/// Endpoint configuration knobs (sysctl-style defaults).
struct TcpConfig {
  uint32_t mss = 1460;  ///< maximum payload bytes per segment

  // Buffer sizing. When autotuning is on, buffers start at the initial
  // size and grow on demand up to the maximum; otherwise they are fixed at
  // the maximum.
  size_t snd_buf_max = 256 * 1024;
  size_t rcv_buf_max = 256 * 1024;
  bool autotune = false;
  size_t buf_initial = 16 * 1024;

  /// Window scaling (RFC 7323). SACK-permitted and timestamps are always
  /// offered; SACK blocks are sent only when the peer permitted SACK.
  bool window_scale = true;

  /// Delayed ACKs (RFC 1122): ACK every second in-order segment or after
  /// 40 ms; out-of-order, duplicate and FIN segments are ACKed
  /// immediately so loss recovery is never delayed.
  bool delayed_ack = true;

  SimTime time_wait = 60 * kMillisecond;  ///< shortened 2*MSL for simulation
  int max_syn_retries = 6;

  /// After this many unanswered SYNs carrying new TCP options, retransmit
  /// without them (section 3.1: "follow the retransmitted SYN with one
  /// that omits MP_CAPABLE").
  int syn_option_fallback_after = 2;

  uint64_t seed = 42;  ///< for ISN / key / nonce generation
};

}  // namespace mptcp
