// The one server. Each connection's codec is read from its first bytes
// (the magics of app/framing.h), never configured:
//
//  * 'MPGE': one MPGET request (the Fig. 11 closed loop, connection-per-
//    transfer workload classes). The server streams the named number of
//    raw pattern bytes in 16 KiB writes, then closes. This path is
//    wire-frozen -- the pingpong, capacity and fleet digests pin it --
//    and never sees a service time or a reject.
//  * anything else: the framed serving protocol. Each connection carries
//    a pipeline of 32-byte requests, answered by length-prefixed frames
//    in request order; a bad magic or version drops the connection.
//
// The framed path is where production overload semantics live, all of
// them explicit and deterministic:
//
//  * accept bound: at most max_conns connections; extras are closed on
//    accept (conns_refused);
//  * pipeline bound: at most max_pipeline requests queued per
//    connection, and at most max_inflight admitted across the whole
//    server. Past either bound the server answers a reject frame -- the
//    503 path, counted per server -- in pipeline order;
//  * service time: an optional per-request think time (fixed or
//    exponential) before the response starts streaming, so queueing
//    delay under load is modelled, not just wire time.
//
// Responses are pattern bytes (app/harness.h) in data frames of the
// request's chunk_bytes. Requests are parsed off the zero-copy receive
// path: headers gathered with peek_copy(), bytes released with
// consume().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/framing.h"
#include "app/socket_factory.h"
#include "net/rng.h"
#include "sim/event_loop.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {

/// Optional per-request service time, sampled before the response
/// starts streaming.
struct ServiceTimeModel {
  enum class Kind : uint8_t { kNone, kFixed, kExponential };
  Kind kind = Kind::kNone;
  SimTime mean = 0;
};

struct ServingConfig {
  /// Accept bound: connections beyond this are closed immediately
  /// (0 = unbounded).
  size_t max_conns = 0;
  /// Requests queued or in service per connection; the pipeline bound.
  size_t max_pipeline = 16;
  /// Requests admitted (queued or in service) across the whole server
  /// (0 = unbounded); the global admission cap. A request past this or
  /// the pipeline bound is answered with a reject frame (503).
  size_t max_inflight = 0;

  ServiceTimeModel service;
  uint64_t seed = 1;  ///< service-time sampling stream
};

/// Serves MPGET and the framed protocol on a port. All counters are exact
/// and deterministic; the workload engine samples them into the stats
/// registry for serving-mode classes. Served requests and bytes count
/// both codecs; rejects and inflight move only on framed connections.
class ServerApp {
 public:
  ServerApp(SocketFactory& factory, Port port, ServingConfig cfg = {});
  ~ServerApp();

  ServerApp(const ServerApp&) = delete;
  ServerApp& operator=(const ServerApp&) = delete;

  uint64_t requests_served() const { return served_; }
  uint64_t requests_rejected() const { return rejected_; }
  uint64_t conns_refused() const { return conns_refused_; }
  uint64_t conns_accepted() const { return conns_accepted_; }
  uint64_t bytes_served() const { return bytes_; }
  size_t inflight() const { return inflight_; }
  size_t peak_inflight() const { return peak_inflight_; }
  size_t open_conns() const { return conns_.size(); }

  /// Invoked with each MPGET connection just before the server closes it
  /// (the response is fully written). The server is the data *sender*,
  /// so its transport state -- congestion-control caps, autotune growth
  /// -- is only observable here or via for_each_conn before teardown.
  std::function<void(StreamSocket&)> on_conn_done;

  /// Visits every open connection, in accept order: finished MPGET
  /// connections (already handed to on_conn_done) and dropped ones are
  /// skipped.
  void for_each_conn(const std::function<void(StreamSocket&)>& fn);

 private:
  struct PendingReq {
    ServingRequest req;
    bool rejected = false;  ///< answered with a reject frame when due
  };

  struct Conn {
    /// The codec this connection speaks, read from its first bytes.
    enum class Codec : uint8_t { kUnread, kFramed, kMpget };

    ServerApp* self = nullptr;
    StreamSocket* sock = nullptr;
    Codec codec = Codec::kUnread;
    Fifo<PendingReq> pipeline;  ///< front = next to answer (framed)
    bool responding = false;       ///< the front response is streaming
    bool waiting_service = false;  ///< service-time timer armed
    uint64_t response_sent = 0;    ///< body bytes of the active response
    uint64_t mpget_size = 0;       ///< MPGET: the requested body size
    std::vector<uint8_t> frame_buf;  ///< staged frame being written
    size_t frame_off = 0;
    bool tail_sent_ = false;  ///< fin/reject frame staged for the front
    bool dead = false;  ///< closed by the server: nothing more to do
    std::unique_ptr<Timer> service;  ///< pending service-time delay

    void on_readable();  ///< reads the codec, then requests
    void pump_mpget();
    void parse_requests();
    void maybe_start_response();
    void pump_response();
    bool flush_frame();  ///< true when frame_buf fully written
    bool tail_staged() const { return tail_sent_; }
    void stage_tail(uint32_t kind, uint64_t req_id);
  };

  void accept(StreamSocket& c);
  void reap(Conn* conn);
  void finish_request(Conn& c, bool served);

  SocketFactory& factory_;
  ServingConfig cfg_;
  Rng service_rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t inflight_ = 0;
  size_t peak_inflight_ = 0;
  uint64_t served_ = 0;
  uint64_t rejected_ = 0;
  uint64_t conns_refused_ = 0;
  uint64_t conns_accepted_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace mptcp
