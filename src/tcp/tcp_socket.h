// The byte-stream interface applications program against.
//
// This is the paper's deployability requirement made concrete (section 2):
// applications see the same reliable, in-order byte-stream service whether
// the transport underneath is single-path TCP, MPTCP, or TCP over a bonded
// link. All workloads in src/app are written against this interface only.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

namespace mptcp {

class StreamSocket {
 public:
  virtual ~StreamSocket() = default;

  /// Queues bytes for transmission; returns how many were accepted.
  virtual size_t write(std::span<const uint8_t> bytes) = 0;

  /// Exactly how many bytes write() would accept right now: a write of
  /// more accepts send_space(), a write of less accepts all of it, and 0
  /// once close() has been called. Senders size the bytes they generate
  /// by it, so nothing is made only to be refused.
  virtual size_t send_space() const = 0;

  /// Reads up to out.size() in-order bytes; returns bytes read.
  virtual size_t read(std::span<uint8_t> out) = 0;

  /// Zero-copy read, scatter form: fills `out` with views of the buffered
  /// in-order data (front first) and returns how many views were written.
  /// The views borrow the receive queue's storage -- valid only until the
  /// next consume()/read(). Pair with consume() to release what was used.
  virtual size_t peek_views(std::span<std::span<const uint8_t>> out) const = 0;

  /// Copies up to `out.size()` readable bytes starting at `offset` into
  /// `out` WITHOUT consuming them; returns bytes copied. Framed
  /// protocols use this to gather a fixed-size header that may straddle
  /// receive-queue chunk boundaries, then consume the header and take
  /// the payload behind it zero-copy via peek_views()/consume(). The
  /// default implementation walks peek_views() (and so sees at most the
  /// first 32 buffered chunks); transports backed by a RecvQueue
  /// override it with the queue's native unbounded gather.
  virtual size_t peek_copy(size_t offset, std::span<uint8_t> out) const {
    std::span<const uint8_t> views[32];
    const size_t n = peek_views(views);
    size_t copied = 0;
    for (size_t i = 0; i < n && copied < out.size(); ++i) {
      const std::span<const uint8_t> v = views[i];
      if (offset >= v.size()) {
        offset -= v.size();
        continue;
      }
      const size_t take = std::min(out.size() - copied, v.size() - offset);
      for (size_t j = 0; j < take; ++j) out[copied + j] = v[offset + j];
      copied += take;
      offset = 0;
    }
    return copied;
  }

  /// Discards the first `n` readable bytes (n <= readable_bytes()),
  /// opening receive window just like read() does.
  virtual void consume(size_t n) = 0;

  virtual size_t readable_bytes() const = 0;

  /// True once the peer has finished sending and all data has been read.
  virtual bool at_eof() const = 0;

  /// Graceful close of the send direction.
  virtual void close() = 0;

  /// True while data transfer is possible.
  virtual bool established() const = 0;

  // Application callbacks. Assigned directly; all optional.
  std::function<void()> on_connected;   ///< stream is established
  std::function<void()> on_readable;    ///< new data or EOF available
  std::function<void()> on_send_space;  ///< write() would accept more
  std::function<void()> on_closed;      ///< stream fully closed or reset
};

}  // namespace mptcp
