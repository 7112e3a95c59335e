#include "core/subflow.h"

#include <cassert>

#include "core/mptcp_connection.h"
#include "core/mptcp_stack.h"
#include "net/sha1.h"

namespace mptcp {

namespace {

// CPU cost of a passive open, charged only when the Host has a CPU
// configured; calibrated against the Fig. 10 microbenchmark.
constexpr SimTime kCostTcpSyn = 6 * kMicrosecond;
constexpr SimTime kCostMpcSyn = 11 * kMicrosecond;  ///< keys, SHA-1, check
constexpr SimTime kCostJoinSyn = 15 * kMicrosecond;  ///< token lookup, HMAC
constexpr SimTime kCostPerToken = 2;  ///< ns per live token (table)

}  // namespace

MptcpSubflow::MptcpSubflow(MptcpConnection& meta, size_t id, SubflowKind kind,
                           uint8_t addr_id, Host& host, TcpConfig config,
                           Endpoint local, Endpoint remote,
                           std::unique_ptr<CongestionControl> cc)
    : TcpConnection(host, config, local, remote, std::move(cc)),
      meta_(meta),
      id_(id),
      kind_(kind),
      addr_id_(addr_id),
      fallback_check_timer_(host.loop(),
                            [this] { check_peer_speaks_mptcp(); }) {
  local_nonce_ = rng().next_u32();
  register_stats();
}

MptcpSubflow::~MptcpSubflow() {
  // Sampled callbacks read members that are about to die.
  loop().stats().remove_scope(stats_scope_);
}

void MptcpSubflow::register_stats() {
  StatsRegistry& reg = loop().stats();
  stats_scope_ = meta_.stats_scope() + ".sf" + std::to_string(id_);
  // One registry entry for the whole subflow: views of the per-connection
  // TCP stats struct, read only at export. Subflow churn costs one map
  // insert at birth and one erase at death.
  reg.sampled_group(stats_scope_, [this](SampleSink& out) {
    out.emit("dss_mappings_emitted", static_cast<double>(n_mappings_));
    out.emit("scheduler_picks", static_cast<double>(n_picks_));
    out.emit("bytes_sent", static_cast<double>(stats().bytes_sent));
    out.emit("bytes_acked", static_cast<double>(stats().bytes_acked));
    out.emit("bytes_delivered", static_cast<double>(stats().bytes_delivered));
    out.emit("segments_sent", static_cast<double>(stats().segments_sent));
    out.emit("segments_received",
             static_cast<double>(stats().segments_received));
    out.emit("retransmits", static_cast<double>(stats().retransmits));
    out.emit("rto_firings", static_cast<double>(stats().timeouts));
    out.emit("srtt_us",
             static_cast<double>(srtt()) / 1e3);  // SimTime is nanoseconds
    out.emit("cwnd_bytes", static_cast<double>(cwnd()));
  });
}

// ---------------------------------------------------------------------------
// Meta-facing sending interface.
// ---------------------------------------------------------------------------

void MptcpSubflow::push_mapped(uint64_t dsn, Payload bytes) {
  ++n_mappings_;
  MappingRecord rec;
  rec.ssn_begin = snd_buf_end();
  rec.ssn_rel = static_cast<uint32_t>(rec.ssn_begin - iss());
  rec.dsn = dsn;
  rec.length = static_cast<uint32_t>(bytes.size());
  if (meta_.dss_checksum_enabled()) {
    // The payload sum is computed once per buffer and cached; the TCP wire
    // checksum reuses it when these bytes are segmented (section 3.3.6).
    rec.checksum =
        dss_checksum_from_partial(rec.dsn, rec.ssn_rel,
                                  static_cast<uint16_t>(rec.length),
                                  bytes.folded_sum());
  }
  tx_mappings_.add(rec);
  [[maybe_unused]] const size_t expected = bytes.size();
  [[maybe_unused]] const size_t accepted =
      TcpConnection::write_shared(std::move(bytes));
  assert(accepted == expected &&
         "subflow send buffers are sized by the meta level");
}

void MptcpSubflow::send_data_fin(uint64_t dsn) {
  announce_data_fin_ = dsn;
  if (can_send_data()) send_ack();
}

// ---------------------------------------------------------------------------
// Option construction.
// ---------------------------------------------------------------------------

void MptcpSubflow::build_syn_options(std::vector<TcpOption>& opts) {
  switch (kind_) {
    case SubflowKind::kInitialActive: {
      MpCapableOption mpc;
      mpc.version = 0;
      mpc.checksum_required = meta_.config().dss_checksum;
      mpc.sender_key = meta_.local_key();
      opts.push_back(mpc);
      break;
    }
    case SubflowKind::kJoinActive: {
      MpJoinOption mpj;
      mpj.phase = JoinPhase::kSyn;
      mpj.addr_id = addr_id_;
      mpj.backup = backup_;
      mpj.token = meta_.remote_token();
      mpj.nonce = local_nonce_;
      opts.push_back(mpj);
      break;
    }
    default:
      break;  // passive sides never send a plain SYN
  }
}

void MptcpSubflow::build_synack_options(std::vector<TcpOption>& opts,
                                        const TcpSegment&) {
  if (meta_.mode() == MptcpMode::kFallbackTcp) return;
  switch (kind_) {
    case SubflowKind::kInitialPassive: {
      MpCapableOption mpc;
      mpc.version = 0;
      mpc.checksum_required = meta_.config().dss_checksum;
      mpc.sender_key = meta_.local_key();
      opts.push_back(mpc);
      break;
    }
    case SubflowKind::kJoinPassive: {
      MpJoinOption mpj;
      mpj.phase = JoinPhase::kSynAck;
      mpj.addr_id = addr_id_;
      mpj.nonce = local_nonce_;
      mpj.mac = mptcp_join_mac64(meta_.local_key(), meta_.remote_key(),
                                 local_nonce_, remote_nonce_);
      opts.push_back(mpj);
      break;
    }
    default:
      break;
  }
}

void MptcpSubflow::build_segment_options(std::vector<TcpOption>& opts,
                                         uint64_t payload_seq,
                                         size_t payload_len) {
  if (meta_.mode() == MptcpMode::kFallbackTcp) return;

  // Section 3.1: the third ACK of the handshake can be lost, so the
  // MP_CAPABLE echo rides outgoing pure ACKs until the peer has
  // demonstrably seen it (its first DSS proves that). Data segments carry
  // a DSS instead -- equally conclusive to the peer, and the 40-byte
  // option budget cannot fit both the echo and a mapping.
  if (echo_capable_ && !peer_dss_seen_ && payload_len == 0) {
    MpCapableOption mpc;
    mpc.version = 0;
    mpc.checksum_required = meta_.config().dss_checksum;
    mpc.sender_key = meta_.local_key();
    mpc.receiver_key = meta_.remote_key();
    opts.push_back(mpc);
  }
  if (echo_join_ack_ && !peer_dss_seen_ && payload_len == 0) {
    MpJoinOption mpj;
    mpj.phase = JoinPhase::kAck;
    mpj.mac = mptcp_join_mac64(meta_.local_key(), meta_.remote_key(),
                               local_nonce_, remote_nonce_);
    opts.push_back(mpj);
  }

  if (mptcp_confirmed_) {
    DssOption dss;
    dss.data_ack = meta_.meta_data_ack_value();
    if (payload_len > 0) {
      const MappingRecord* rec = tx_mappings_.find(payload_seq);
      if (rec != nullptr) {
        dss.mapping = DssMapping{
            rec->dsn, rec->ssn_rel, static_cast<uint16_t>(rec->length),
            rec->checksum};
        if (announce_data_fin_ &&
            rec->dsn + rec->length == *announce_data_fin_) {
          dss.data_fin = true;
        }
      }
    } else if (announce_data_fin_) {
      dss.data_fin = true;
      dss.data_fin_dsn = *announce_data_fin_;
    }
    opts.push_back(dss);
  }

  for (auto& opt : pending_control_options_) opts.push_back(std::move(opt));
  pending_control_options_.clear();
}

// ---------------------------------------------------------------------------
// Option processing.
// ---------------------------------------------------------------------------

void MptcpSubflow::process_incoming_options(const TcpSegment& seg) {
  const bool is_synack = seg.syn && seg.ack_flag;

  if (const auto* mpc = find_option<MpCapableOption>(seg.options)) {
    handle_mp_capable(*mpc, seg);
  } else if (is_synack && kind_ == SubflowKind::kInitialActive) {
    // A middlebox stripped MP_CAPABLE from the SYN/ACK (or the server does
    // not speak MPTCP): fall back to regular TCP (section 3.1).
    meta_.sf_no_mptcp_in_handshake();
  }

  if (const auto* mpj = find_option<MpJoinOption>(seg.options)) {
    handle_mp_join(*mpj, seg);
  } else if (is_synack && kind_ == SubflowKind::kJoinActive) {
    // MP_JOIN stripped: this path cannot carry a subflow. Kill it; the
    // connection continues on its other subflows.
    abort();
    return;
  }

  if (const auto* dss = find_option<DssOption>(seg.options)) {
    handle_dss(*dss, seg);
  }

  if (const auto* add = find_option<AddAddrOption>(seg.options)) {
    meta_.sf_add_addr(*add);
  }
  if (const auto* rem = find_option<RemoveAddrOption>(seg.options)) {
    meta_.sf_remove_addr(rem->addr_id);
  }
  if (const auto* prio = find_option<MpPrioOption>(seg.options)) {
    meta_.sf_mp_prio(this, *prio);
  }
  if (find_option<MpFastcloseOption>(seg.options) != nullptr) {
    meta_.sf_fastclose();
    return;
  }

  // Section 3.1 server side: if the first non-SYN packet carries no MPTCP
  // option at all, the MP_CAPABLE echo never made it -- a middlebox is
  // stripping options from data segments; fall back immediately. (The
  // client-side check is timer-based -- see on_established -- because a
  // middlebox may inject genuinely TCP-only ACKs, e.g. pro-active ACKing
  // proxies, racing the server's real DSS-bearing segments.)
  if (kind_ == SubflowKind::kInitialPassive && !seg.syn &&
      !first_non_syn_checked_) {
    first_non_syn_checked_ = true;
    bool any_mptcp = false;
    for (const auto& o : seg.options) any_mptcp |= is_mptcp_option(o);
    if (!any_mptcp) meta_.sf_first_packet_lacks_mptcp();
  }
}

void MptcpSubflow::handle_mp_capable(const MpCapableOption& mpc,
                                     const TcpSegment& seg) {
  if (seg.syn && seg.ack_flag) {
    // SYN/ACK at the client: server's key.
    if (kind_ == SubflowKind::kInitialActive && mpc.sender_key) {
      meta_.sf_capable_synack(*mpc.sender_key, mpc.checksum_required);
      mptcp_confirmed_ = true;
      echo_capable_ = true;
    }
  } else if (seg.syn) {
    // SYN at the server: client's key (recorded by accept()).
  } else {
    // Third ACK (or a later echo) at the server: both keys.
    if (kind_ == SubflowKind::kInitialPassive && mpc.sender_key &&
        mpc.receiver_key && !mptcp_confirmed_) {
      if (*mpc.receiver_key == meta_.local_key()) {
        mptcp_confirmed_ = true;
        meta_.sf_capable_confirmed(*mpc.sender_key, *mpc.receiver_key);
      }
    }
    first_non_syn_checked_ = true;
  }
}

void MptcpSubflow::handle_mp_join(const MpJoinOption& mpj,
                                  const TcpSegment& seg) {
  switch (mpj.phase) {
    case JoinPhase::kSyn:
      // Server side: nonce recorded; the meta already routed by token.
      remote_nonce_ = mpj.nonce;
      peer_addr_id_ = mpj.addr_id;
      break;
    case JoinPhase::kSynAck: {
      if (kind_ != SubflowKind::kJoinActive) break;
      remote_nonce_ = mpj.nonce;
      peer_addr_id_ = mpj.addr_id;
      const uint64_t expected =
          mptcp_join_mac64(meta_.remote_key(), meta_.local_key(),
                           remote_nonce_, local_nonce_);
      if (mpj.mac != expected) {
        // Bad authentication: never join an unverified subflow.
        abort();
        return;
      }
      mptcp_confirmed_ = true;
      echo_join_ack_ = true;
      break;
    }
    case JoinPhase::kAck: {
      if (kind_ != SubflowKind::kJoinPassive || mptcp_confirmed_) break;
      (void)seg;
      const uint64_t expected =
          mptcp_join_mac64(meta_.remote_key(), meta_.local_key(),
                           remote_nonce_, local_nonce_);
      if (mpj.mac != expected) {
        abort();
        return;
      }
      mptcp_confirmed_ = true;
      break;
    }
  }
}

void MptcpSubflow::handle_dss(const DssOption& dss, const TcpSegment& seg) {
  if (!peer_dss_seen_) {
    peer_dss_seen_ = true;
    meta_.sf_peer_dss_seen();
    // A join's passive side is confirmed by the ACK MAC; the active side
    // by the SYN/ACK MAC; the initial passive side by the capable echo.
    // Seeing a DSS from the peer is equally conclusive.
    if (!mptcp_confirmed_ &&
        (kind_ == SubflowKind::kInitialPassive ||
         kind_ == SubflowKind::kInitialActive)) {
      mptcp_confirmed_ = true;
    }
  }

  if (dss.data_ack) {
    const uint64_t window =
        uint64_t{seg.window} << incoming_window_scale();
    meta_.sf_dss_ack(*dss.data_ack, window);
  }

  if (dss.mapping) {
    const DssMapping& m = *dss.mapping;
    const uint64_t ssn_abs =
        seq_unwrap(rcv_nxt(), seq_wrap(irs() + m.ssn_rel));
    MappingRecord rec;
    rec.ssn_begin = ssn_abs;
    rec.ssn_rel = m.ssn_rel;
    rec.dsn = m.dsn;
    rec.length = m.length;
    rec.checksum = m.checksum;
    rx_mappings_.add(rec);
    if (dss.data_fin) meta_.sf_data_fin(m.dsn + m.length);
  } else if (dss.data_fin) {
    meta_.sf_data_fin(dss.data_fin_dsn);
  }
}

// ---------------------------------------------------------------------------
// Data path.
// ---------------------------------------------------------------------------

void MptcpSubflow::deliver_data(uint64_t seq, Payload bytes) {
  if (meta_.mode() == MptcpMode::kFallbackTcp) {
    meta_.sf_fallback_data(std::move(bytes));
    return;
  }
  const uint64_t end = seq + bytes.size();
  auto out = rx_mappings_.feed(seq, bytes, meta_.dss_checksum_enabled());
  for (auto& [dsn, data] : out.deliver) {
    meta_.sf_mapped_data(this, dsn, std::move(data));
  }
  if (!out.checksum_failures.empty()) {
    for (auto& [rec, data] : out.checksum_failures) {
      meta_.sf_checksum_failure(this, rec, std::move(data));
    }
    return;  // the meta may have reset us or disabled verification
  }
  rx_mappings_.release_below(end);
}

void MptcpSubflow::on_bytes_acked(uint64_t new_snd_una) {
  tx_mappings_.release_below(new_snd_una);
  meta_.sf_acked(this);
}

void MptcpSubflow::on_established() {
  meta_.sf_established(this);
  if (kind_ == SubflowKind::kInitialActive &&
      meta_.mode() == MptcpMode::kMptcp) {
    arm_fallback_check();
  }
}

void MptcpSubflow::arm_fallback_check() {
  fallback_check_timer_.arm_in(
      std::max<SimTime>(4 * std::max<SimTime>(srtt(), 10 * kMillisecond),
                        300 * kMillisecond));
}

void MptcpSubflow::check_peer_speaks_mptcp() {
  if (peer_dss_seen_ || meta_.mode() != MptcpMode::kMptcp ||
      !can_send_ack()) {
    return;
  }
  if (snd_una() > iss() + 1) {
    // The peer has acknowledged data yet never produced a single DSS: a
    // middlebox strips MPTCP options from non-SYN segments. Fall back.
    meta_.sf_first_packet_lacks_mptcp();
    return;
  }
  arm_fallback_check();  // idle connection: keep watching
}

void MptcpSubflow::on_peer_fin() { meta_.sf_peer_fin(this); }

void MptcpSubflow::on_connection_closed(bool reset) {
  meta_.sf_closed(this, reset);
}

uint64_t MptcpSubflow::advertised_window_bytes() const {
  return meta_.meta_receive_window();
}

uint64_t MptcpSubflow::flow_control_limit() const {
  // MPTCP interprets the receive window against the data sequence space;
  // subflow-level transmission is not separately flow controlled
  // (section 3.3.1). In fallback mode the subflow *is* the connection.
  if (meta_.mode() == MptcpMode::kFallbackTcp) {
    return TcpConnection::flow_control_limit();
  }
  return UINT64_MAX;
}

SimTime MptcpSubflow::syn_processing_cost() const {
  const SimTime per_tokens =
      static_cast<SimTime>(meta_.stack().tokens().size()) * kCostPerToken;
  switch (kind_) {
    case SubflowKind::kInitialPassive:
      return (meta_.mode() == MptcpMode::kFallbackTcp ? kCostTcpSyn
                                                      : kCostMpcSyn) +
             per_tokens;
    case SubflowKind::kJoinPassive:
      return kCostJoinSyn + per_tokens;
    default:
      return 0;
  }
}

size_t MptcpSubflow::clamp_segment_len(uint64_t seq, size_t len) const {
  if (meta_.mode() == MptcpMode::kFallbackTcp) return len;
  const MappingRecord* rec = tx_mappings_.find(seq);
  if (rec == nullptr) return len;
  return static_cast<size_t>(
      std::min<uint64_t>(len, rec->ssn_end() - seq));
}

}  // namespace mptcp
