// The application payload path: the pattern generator and verifier, the
// exact send_space() contract senders size their writes by, and the
// delivered-byte checks of the workload engine.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/bulk_app.h"
#include "app/digest.h"
#include "app/harness.h"
#include "app/socket_factory.h"
#include "sim/topology.h"

namespace mptcp {
namespace {

constexpr uint64_t kOffsets[] = {
    0,         1,         7,         (1ULL << 32) - 3, (1ULL << 63) - 5,
    ~0ULL - 0, ~0ULL - 5, ~0ULL - 40000,
};
constexpr size_t kLengths[] = {0,    1,    15,   16,    17,   1023,
                               1024, 1025, 4099, 65536, 70000};

// --- pattern kernel ---------------------------------------------------------

TEST(PatternKernel, FillMatchesPatternByteAcrossWrapAndAlignment) {
  std::vector<uint8_t> buf(70000 + 8);
  for (uint64_t off : kOffsets) {
    for (size_t n : kLengths) {
      for (size_t shift : {0, 1, 3}) {
        const std::span<uint8_t> out(buf.data() + shift, n);
        pattern_fill(off, out);
        for (size_t i = 0; i < n; ++i) {
          // Offsets past 2^64 wrap, exactly as pattern_byte's multiply.
          ASSERT_EQ(out[i], pattern_byte(off + i))
              << "offset " << off << " len " << n << " byte " << i;
        }
      }
    }
  }
}

TEST(PatternKernel, ViewAndBytesAgreeWithFill) {
  std::vector<uint8_t> want(70000);
  for (uint64_t off : kOffsets) {
    for (size_t n : kLengths) {
      pattern_fill(off, std::span<uint8_t>(want.data(), n));
      const std::span<const uint8_t> view = pattern_view(off, n);
      ASSERT_EQ(view.size(), n);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), want.begin()));
      const std::vector<uint8_t> bytes = pattern_bytes(off, n);
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), want.begin()));
    }
  }
}

TEST(PatternKernel, MismatchesCountsEachPlantedFlipOnce) {
  std::vector<uint8_t> buf(70000 + 8);
  for (uint64_t off : kOffsets) {
    for (size_t n : kLengths) {
      const std::span<uint8_t> data(buf.data() + 1, n);  // unaligned
      pattern_fill(off, data);
      EXPECT_EQ(pattern_mismatches(off, data), 0u);
      if (n == 0) continue;
      for (size_t at : {size_t{0}, n / 2, n - 1}) {
        data[at] ^= 0x5a;
        EXPECT_EQ(pattern_mismatches(off, data), 1u)
            << "offset " << off << " len " << n << " flip " << at;
        data[at] ^= 0x5a;
      }
    }
  }
  // Flips in separate 1 KiB reference blocks each count once.
  std::vector<uint8_t> data = pattern_bytes(3, 5000);
  for (size_t at : {0, 1023, 1024, 4999}) data[at] = ~data[at];
  EXPECT_EQ(pattern_mismatches(3, data), 4u);
  // The wrong offset mismatches almost everywhere.
  EXPECT_GT(pattern_mismatches(4, pattern_bytes(3, 1000)), 900u);
}

/// Receive-side stand-in: a queue of chunks exposed through the
/// zero-copy peek interface, with an unbounded peek_copy() like the
/// RecvQueue-backed transports.
class ChunkedSocket final : public StreamSocket {
 public:
  explicit ChunkedSocket(std::vector<std::vector<uint8_t>> chunks)
      : chunks_(std::move(chunks)) {}

  size_t write(std::span<const uint8_t>) override { return 0; }
  size_t send_space() const override { return 0; }
  size_t read(std::span<uint8_t>) override { return 0; }
  size_t peek_views(std::span<std::span<const uint8_t>> out) const override {
    size_t n = 0;
    for (; n < out.size() && n < chunks_.size(); ++n) out[n] = chunks_[n];
    return n;
  }
  size_t peek_copy(size_t offset, std::span<uint8_t> out) const override {
    size_t copied = 0;
    for (const auto& c : chunks_) {
      for (uint8_t b : c) {
        if (copied == out.size()) return copied;
        if (offset > 0) {
          --offset;
          continue;
        }
        out[copied++] = b;
      }
    }
    return copied;
  }
  void consume(size_t) override {}
  size_t readable_bytes() const override {
    size_t n = 0;
    for (const auto& c : chunks_) n += c.size();
    return n;
  }
  bool at_eof() const override { return false; }
  void close() override {}
  bool established() const override { return true; }

 private:
  std::vector<std::vector<uint8_t>> chunks_;
};

TEST(PatternKernel, ReadableMismatchesWalkViewsThenGatherTheRest) {
  // 100 chunks of 37 bytes: more than the verifier's view slots, so the
  // tail is reached through peek_copy().
  constexpr uint64_t kBase = 12345;
  constexpr size_t kChunk = 37;
  std::vector<std::vector<uint8_t>> chunks;
  for (size_t i = 0; i < 100; ++i) {
    chunks.push_back(pattern_bytes(kBase + i * kChunk, kChunk));
  }
  chunks[3][5] ^= 1;
  chunks[70][36] ^= 1;
  const ChunkedSocket sock(std::move(chunks));
  EXPECT_EQ(readable_pattern_mismatches(sock, kBase, 100 * kChunk), 2u);
  EXPECT_EQ(readable_pattern_mismatches(sock, kBase, 50 * kChunk), 1u);
  EXPECT_EQ(readable_pattern_mismatches(sock, kBase, 3 * kChunk + 5), 0u);
  EXPECT_EQ(readable_pattern_mismatches(sock, kBase, 0), 0u);

  // Not an MPTCP connection, so it never fell back: real corruption.
  PayloadCheck check;
  check.record(sock, 0);
  check.record(sock, 2);
  EXPECT_EQ(check.integrity_errors, 2u);
  EXPECT_EQ(check.alg_rewritten_bytes, 0u);
}

// --- send_space() contract --------------------------------------------------

/// Drives one client connection for a while, checking before every
/// write that send_space() is exactly what write() accepts: a write of
/// less is taken whole, a write of more takes send_space(). After
/// close() both are 0. The peer verifies every delivered byte.
void expect_exact_send_space(TransportKind client, TransportKind server,
                             bool fallback) {
  Topology topo(5);
  const NodeId a = topo.add_host("a");
  const NodeId b = topo.add_host("b");
  LinkConfig link;
  link.rate_bps = 10e6;
  link.prop_delay = 5 * kMillisecond;
  link.buffer_bytes = 64 * 1024;
  topo.connect(a, b, link, link);
  topo.build_routes();

  TransportConfig ct;
  ct.kind = client;
  ct.with_buffers(48 * 1024, 48 * 1024);
  TransportConfig st = ct;
  st.kind = server;
  SocketFactory cf(topo.host(a), ct);
  SocketFactory sf(topo.host(b), st);
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});

  uint64_t off = 0;
  size_t zero_space_writes = 0;
  for (int step = 0; step < 60; ++step) {
    const size_t space = c.send_space();
    if (space >= 2) {
      EXPECT_EQ(c.write(pattern_view(off, space / 2)), space / 2);
      off += space / 2;
    }
    const size_t room = c.send_space();
    const size_t n = c.write(pattern_view(off, room + 1000));
    EXPECT_EQ(n, room) << "step " << step;
    off += n;
    if (room == 0) ++zero_space_writes;
    EXPECT_EQ(c.send_space(), 0u) << "a full write leaves no space";
    topo.loop().run_until(topo.loop().now() + 7 * kMillisecond);
  }
  EXPECT_GT(zero_space_writes, 0u) << "the buffer never filled";

  if (client == TransportKind::kMptcp) {
    MptcpConnection* m = cf.as_mptcp(c);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->mode() == MptcpMode::kFallbackTcp, fallback);
  }

  c.close();
  EXPECT_EQ(c.send_space(), 0u);
  EXPECT_EQ(c.write(pattern_view(off, 100)), 0u);
  topo.loop().run_until(topo.loop().now() + 5 * kSecond);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), off);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

TEST(SendSpace, EqualsWhatWriteAcceptsOnTcp) {
  expect_exact_send_space(TransportKind::kTcp, TransportKind::kTcp, false);
}

TEST(SendSpace, EqualsWhatWriteAcceptsOnMptcp) {
  expect_exact_send_space(TransportKind::kMptcp, TransportKind::kMptcp,
                          false);
}

TEST(SendSpace, EqualsWhatWriteAcceptsInMptcpFallback) {
  // A plain-TCP server answers without MP_CAPABLE: the client falls back
  // and its writes go straight to the one subflow.
  expect_exact_send_space(TransportKind::kMptcp, TransportKind::kTcp, true);
}

// --- delivered bytes --------------------------------------------------------

TEST(DeliveredBytes, FleetRewritesReachOnlyFallbackConnections) {
  // The fleet's DSS corrupters rewrite payload. MPTCP rejects those bytes
  // unless the connection fell back (section 3.3.6), so every mismatch
  // the clients see is on a connection that did.
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kFleet;
  const DigestResult r = run_digest_scenario(cfg);
  EXPECT_GT(r.bytes_delivered, 0u);
  EXPECT_EQ(r.payload_check.integrity_errors, 0u);
  EXPECT_GT(r.payload_check.alg_rewritten_bytes, 0u);
}

TEST(DeliveredBytes, CapacityAndServingDeliverEveryByteIntact) {
  for (DigestScenario s :
       {DigestScenario::kCapacity, DigestScenario::kServing}) {
    DigestConfig cfg;
    cfg.scenario = s;
    const DigestResult r = run_digest_scenario(cfg);
    EXPECT_GT(r.bytes_delivered, 0u);
    EXPECT_EQ(r.payload_check.integrity_errors, 0u);
    EXPECT_EQ(r.payload_check.alg_rewritten_bytes, 0u);
  }
}

}  // namespace
}  // namespace mptcp
