// The MPTCP connection ("meta socket"): the paper's primary contribution.
//
// Responsibilities, each traceable to a paper section:
//  * MP_CAPABLE negotiation with graceful fallback to TCP when middleboxes
//    strip options anywhere in the handshake or on the first data packet
//    (section 3.1).
//  * MP_JOIN subflow establishment authenticated by HMACs over the
//    connection keys, token-based connection lookup, ADD_ADDR /
//    REMOVE_ADDR path management (section 3.2).
//  * A single connection-level send buffer with explicit DATA_ACKs,
//    data-sequence mappings into per-subflow sequence spaces, and a shared
//    receive window interpreted against the data sequence space
//    (sections 3.3.1-3.3.5) -- the design that avoids both the
//    per-subflow-buffer deadlock and the payload-encoding deadlock.
//  * DSS checksum fallback handling for content-modifying middleboxes
//    (section 3.3.6).
//  * DATA_FIN teardown decoupled from subflow FINs (section 3.4).
//  * The sender-side buffer mechanisms: opportunistic retransmission (M1),
//    penalization of slow subflows (M2), buffer autotuning (M3), and cwnd
//    capping (M4) (section 4.2).
//  * The connection-level out-of-order receive queue with selectable
//    insertion algorithms (section 4.3).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/coupled_cc.h"
#include "core/keys.h"
#include "core/meta_recv.h"
#include "core/mptcp_types.h"
#include "core/path_manager.h"
#include "core/scheduler.h"
#include "core/subflow.h"
#include "tcp/tcp_buffers.h"
#include "tcp/tcp_socket.h"

namespace mptcp {

class MptcpStack;

class MptcpConnection final : public StreamSocket, private SchedulerHost {
 public:
  enum class Role : uint8_t { kClient, kServer };

  /// Client-side constructor; call connect() afterwards.
  MptcpConnection(MptcpStack& stack, Endpoint local, Endpoint remote);
  /// Server-side constructor; call accept(syn) afterwards.
  MptcpConnection(MptcpStack& stack, const TcpSegment& syn);
  ~MptcpConnection() override;

  MptcpConnection(const MptcpConnection&) = delete;
  MptcpConnection& operator=(const MptcpConnection&) = delete;

  void connect();
  void accept(const TcpSegment& syn);
  /// Accepts an MP_JOIN SYN routed to this connection by token.
  void accept_join(const TcpSegment& syn);

  // --- StreamSocket ----------------------------------------------------------
  size_t write(std::span<const uint8_t> bytes) override;
  size_t send_space() const override;
  size_t read(std::span<uint8_t> out) override;
  /// Zero-copy scatter read over the meta receive queue's chunks.
  size_t peek_views(std::span<std::span<const uint8_t>> out) const override {
    return app_rx_.peek_views(out);
  }
  size_t peek_copy(size_t offset, std::span<uint8_t> out) const override {
    return app_rx_.copy_out(offset, out);
  }
  void consume(size_t n) override;
  size_t readable_bytes() const override { return app_rx_.size(); }
  bool at_eof() const override {
    return data_fin_delivered_ && app_rx_.empty();
  }
  void close() override;
  bool established() const override;

  /// Abortive close: MP_FASTCLOSE + RST on all subflows.
  void abort();

  // --- introspection ---------------------------------------------------------
  MptcpMode mode() const { return mode_; }
  Role role() const { return role_; }
  size_t subflow_count() const { return subflows_.size(); }
  size_t usable_subflow_count() const;
  MptcpSubflow* subflow(size_t i) {
    return i < subflows_.size() ? subflows_[i].get() : nullptr;
  }
  uint64_t local_key() const { return local_key_; }
  uint64_t remote_key() const { return remote_key_; }
  uint32_t local_token() const { return local_token_; }
  uint32_t remote_token() const { return remote_token_; }

  uint64_t data_acked() const { return snd_una_d_; }
  uint64_t data_written() const { return meta_snd_end_ - snd_base_d_; }
  uint64_t data_delivered() const { return delivered_bytes_; }
  uint64_t bytes_in_flight_meta() const { return snd_nxt_d_ - snd_una_d_; }

  /// Sender-side memory: connection-level send queue occupancy (Fig. 5).
  size_t sender_memory() const { return meta_snd_.size(); }
  /// Receiver-side memory: connection + subflow reordering queues (Fig. 5).
  size_t receiver_memory() const;
  size_t meta_snd_capacity() const { return meta_snd_capacity_; }
  size_t meta_rcv_capacity() const { return meta_rcv_capacity_; }

  const MetaReceiveQueue::Stats& recv_queue_stats() const {
    return meta_recv_.stats();
  }

  struct MetaStats {
    uint64_t opportunistic_retransmits = 0;  ///< Mechanism 1 firings
    uint64_t penalizations = 0;              ///< Mechanism 2 firings
    uint64_t meta_rtx_timeouts = 0;
    uint64_t reinjected_bytes = 0;
    uint64_t checksum_failures = 0;
    uint64_t subflow_resets = 0;
    uint64_t fallbacks = 0;
    uint64_t rx_duplicate_bytes = 0;  ///< receiver-side: dropped duplicates
  };
  const MetaStats& meta_stats() const { return meta_stats_; }

  /// Mechanism 3 firings: receive-buffer autotune grow events.
  uint64_t autotune_resizes() const { return n_autotune_resizes_; }
  /// Mechanism 4 firings: summed cwnd-cap activations across subflows.
  uint64_t cc_cap_activations() const;

  /// Scope prefix of this connection in the loop's StatsRegistry
  /// ("mptcp.client", "mptcp.server#2", ...); subflows publish under
  /// "<scope>.sf<id>".
  const std::string& stats_scope() const { return stats_scope_; }
  /// Called by subflows for every DSS mapping they emit.
  void count_dss_mapping() { ++n_dss_mappings_; }

  MptcpStack& stack() { return stack_; }
  const MptcpConfig& config() const { return config_; }

  /// When set, the owning stack frees this connection after it closes
  /// (used by workloads that churn many connections).
  void set_auto_destroy(bool v) { auto_destroy_ = v; }

  // --- path management (core/path_manager.h owns the policy) ------------------
  /// Opens an additional subflow from `local_addr` to `remote`.
  MptcpSubflow* open_subflow(IpAddr local_addr, Endpoint remote);
  /// Signals loss of a local address: aborts its subflows and sends
  /// REMOVE_ADDR on a surviving one (mobility, section 3.4).
  void remove_local_address(IpAddr addr) {
    path_manager_.remove_local_address(addr);
  }
  PathManager& path_manager() { return path_manager_; }

  // --- called by subflows (not application API) -------------------------------
  void sf_capable_synack(uint64_t peer_key, bool csum_required);
  void sf_capable_confirmed(uint64_t key_a, uint64_t key_b);
  void sf_no_mptcp_in_handshake();  ///< option stripped: fall back
  void sf_first_packet_lacks_mptcp();
  void sf_peer_dss_seen();
  void sf_established(MptcpSubflow* sf);
  void sf_closed(MptcpSubflow* sf, bool reset);
  void sf_peer_fin(MptcpSubflow* sf);
  void sf_acked(MptcpSubflow* sf);
  void sf_dss_ack(uint64_t data_ack, uint64_t window_bytes);
  void sf_mapped_data(MptcpSubflow* sf, uint64_t dsn, Payload bytes);
  void sf_fallback_data(Payload bytes);
  void sf_checksum_failure(MptcpSubflow* sf, const MappingRecord& rec,
                           Payload data);
  void sf_data_fin(uint64_t dsn);
  void sf_add_addr(const AddAddrOption& opt);
  void sf_remove_addr(uint8_t addr_id);
  void sf_mp_prio(MptcpSubflow* sf, const MpPrioOption& opt);
  void sf_fastclose();

  /// Asks the peer to treat subflow `i` as backup (sends MP_PRIO) and
  /// mirrors the priority for our own scheduling.
  void set_subflow_backup(size_t i, bool backup) {
    path_manager_.set_subflow_backup(i, backup);
  }

  uint64_t meta_data_ack_value() const;
  uint64_t meta_receive_window() const;
  bool dss_checksum_enabled() const { return checksum_in_use_; }
  uint64_t idsn_local() const { return idsn_local_; }
  uint64_t idsn_remote() const { return idsn_remote_; }

  /// Runs the packet scheduler: one pass of the configured policy over
  /// the buffered data (see core/scheduler.h), then the DATA_FIN rule
  /// and the meta RTO. M1/M2 fire from the policy's window-stall hook.
  void schedule();

  /// The connection's scheduling policy instance (owns rotation/cursor
  /// state; exposes pick/alloc counters and state_entries()).
  Scheduler& scheduler() { return *scheduler_; }
  /// This connection viewed through the scheduler's host interface (for
  /// tests and benches that drive a policy against live send state).
  SchedulerHost& scheduler_host() { return *this; }

 private:
  // --- SchedulerHost (the scheduler's window into this connection) -----------
  std::span<const std::unique_ptr<MptcpSubflow>> sched_subflows() override {
    return subflows_;
  }
  uint64_t sched_batch_bytes() const override {
    return uint64_t{config_.batch_segments} * config_.tcp.mss;
  }
  uint64_t sched_snd_una() const override { return snd_una_d_; }
  uint64_t sched_snd_nxt() const override { return snd_nxt_d_; }
  uint64_t sched_stream_end() const override { return meta_snd_.end_seq(); }
  uint64_t sched_window_edge() const override { return meta_right_edge_; }
  std::deque<std::pair<uint64_t, uint64_t>>& sched_reinject() override {
    return reinject_;
  }
  Payload sched_slice(uint64_t dsn, size_t len) override {
    return meta_snd_.slice_out(dsn, len);
  }
  void sched_record_alloc(uint64_t dsn, uint64_t len,
                          size_t sf_id) override {
    alloc_[dsn] = Alloc{len, sf_id};
    snd_nxt_d_ = dsn + len;
  }
  void sched_count_reinjected(uint64_t bytes) override {
    meta_stats_.reinjected_bytes += bytes;
  }
  void sched_note_pick(MptcpSubflow& sf) override {
    ++n_scheduler_picks_;
    sf.note_scheduler_pick();
  }
  void sched_window_blocked(MptcpSubflow& fast) override {
    window_blocked(&fast);
  }
  void register_stats();
  void init_client_keys();
  void fallback_to_tcp(const char* reason);
  /// Hooks the surviving subflow's send-space signal up to the
  /// application once fallback writes bypass the meta send buffer.
  void wire_fallback_send_space();
  /// Plain-TCP send-buffer room left on the fallback subflow (which must
  /// exist); bounds what write() accepts in fallback mode.
  size_t fallback_room() const;
  void deliver_in_order(Payload bytes);
  void drain_meta_ooo();
  void check_data_fin_consumption();
  void maybe_finish_teardown();
  void maybe_send_meta_window_update();
  void window_blocked(MptcpSubflow* fast);
  uint64_t total_subflow_flight() const;
  MptcpSubflow* best_usable_subflow();
  void reinject_range(uint64_t dsn, uint64_t len);
  void on_meta_rto();
  void arm_meta_rto();
  void autotune_tick();
  std::unique_ptr<CongestionControl> make_cc();
  MptcpSubflow* create_subflow(SubflowKind kind, uint8_t addr_id,
                               Endpoint local, Endpoint remote);
  Host& host_for_subflows();
  void notify_closed_once();

  MptcpStack& stack_;
  MptcpConfig config_;
  Role role_;
  MptcpMode mode_ = MptcpMode::kNegotiating;
  bool checksum_in_use_ = true;

  uint64_t local_key_ = 0, remote_key_ = 0;
  uint32_t local_token_ = 0, remote_token_ = 0;
  uint64_t idsn_local_ = 0, idsn_remote_ = 0;
  bool token_registered_ = false;

  // The group must outlive the subflows: each subflow's LiaCc deregisters
  // from it on destruction (members destruct in reverse declaration order).
  CoupledGroup cc_group_;
  PathManager path_manager_{*this};
  std::vector<std::unique_ptr<MptcpSubflow>> subflows_;
  size_t next_subflow_id_ = 0;
  Endpoint pending_local_;   ///< endpoints for the initial subflow
  Endpoint pending_remote_;
  bool no_new_subflows_ = false;

  // --- sender state (data sequence space) -----------------------------------
  SendBuffer meta_snd_;
  uint64_t snd_base_d_ = 0;   ///< first data byte's dsn (idsn_local + 1)
  uint64_t meta_snd_end_ = 0; ///< == meta_snd_.end_seq(), tracked for stats
  uint64_t snd_una_d_ = 0;    ///< DATA_ACK received
  uint64_t snd_nxt_d_ = 0;    ///< next dsn to allocate to a subflow
  size_t meta_snd_capacity_ = 0;
  uint64_t meta_right_edge_ = 0;  ///< max(data_ack + window) seen
  struct Alloc {
    uint64_t len;
    size_t subflow_id;
  };
  std::map<uint64_t, Alloc> alloc_;  ///< dsn -> allocation record
  std::deque<std::pair<uint64_t, uint64_t>> reinject_;  ///< (dsn, len)
  uint64_t reinjected_until_ = 0;  ///< M1 high-water mark (monotonic)
  std::unique_ptr<Scheduler> scheduler_;  ///< policy + its private state
  std::map<size_t, SimTime> next_penalty_at_;  ///< per-subflow M2 limiter
  Timer meta_rto_timer_;
  int meta_rto_backoff_ = 1;

  bool data_fin_pending_ = false;   ///< close() called
  bool data_fin_allocated_ = false;
  uint64_t data_fin_dsn_ = 0;
  bool data_fin_acked_ = false;

  // --- receiver state ---------------------------------------------------------
  MetaReceiveQueue meta_recv_;
  uint64_t rcv_nxt_d_ = 0;
  RecvQueue app_rx_;
  size_t meta_rcv_capacity_ = 0;
  uint64_t delivered_bytes_ = 0;
  uint64_t last_advertised_meta_window_ = 0;
  bool remote_data_fin_seen_ = false;
  uint64_t remote_data_fin_dsn_ = 0;
  bool data_fin_delivered_ = false;

  // --- autotuning (M3) --------------------------------------------------------
  Timer autotune_timer_;
  std::map<size_t, uint64_t> last_acked_by_sf_;
  std::map<size_t, uint64_t> last_delivered_by_sf_;
  std::map<size_t, uint64_t> rx_bytes_by_sf_;
  std::map<size_t, double> tx_rate_bps_;  ///< per-subflow EMA
  std::map<size_t, double> rx_rate_bps_;
  SimTime last_autotune_ = 0;

  MetaStats meta_stats_;

  // Observability (net/stats.h): hot paths bump these plain fields; the
  // registry reads them only at export, through ONE sampled_group entry
  // per connection (register_stats()), removed wholesale by the
  // destructor. Connection churn therefore costs one registry insert and
  // one erase, however many values the scope exposes.
  std::string stats_scope_;
  uint64_t n_scheduler_picks_ = 0;
  uint64_t n_dss_mappings_ = 0;
  uint64_t n_data_ack_advances_ = 0;
  uint64_t n_data_acked_bytes_ = 0;
  uint64_t n_window_stalls_ = 0;
  uint64_t n_autotune_resizes_ = 0;

  bool closed_notified_ = false;
  bool connected_notified_ = false;
  bool fastclose_sent_ = false;
  bool auto_destroy_ = false;
};

}  // namespace mptcp
