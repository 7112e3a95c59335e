// SendBuffer, ReassemblyQueue, RecvQueue and Fifo tests, including
// randomized property-style checks of reassembly under arbitrary arrival
// orders, of send-buffer packing, and of the FIFO against std::deque.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "net/rng.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {
namespace {

// --- SendBuffer ----------------------------------------------------------------

TEST(SendBuffer, AppendRespectsCapacity) {
  SendBuffer buf(1000);
  std::vector<uint8_t> data(100, 7);
  EXPECT_EQ(buf.append(data, 150), 100u);
  EXPECT_EQ(buf.append(data, 150), 50u);
  EXPECT_EQ(buf.append(data, 150), 0u);
  EXPECT_EQ(buf.size(), 150u);
  EXPECT_EQ(buf.end_seq(), 1150u);
}

TEST(SendBuffer, SliceOutReturnsCorrectRange) {
  SendBuffer buf(500);
  std::vector<uint8_t> data(26);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>('a' + i);
  }
  buf.append(data, 100);
  EXPECT_EQ(buf.slice_out(505, 3), (Payload{'f', 'g', 'h'}));
}

TEST(SendBuffer, SliceOutWithinOneChunkSharesTheBuffer) {
  SendBuffer buf(0);
  std::vector<uint8_t> data(100, 9);
  buf.append(data, 100);
  const Payload a = buf.slice_out(10, 20);
  const Payload b = buf.slice_out(30, 20);
  EXPECT_TRUE(a.shares_buffer_with(b));  // both views of the one chunk
}

TEST(SendBuffer, SliceOutAcrossChunksAssembles) {
  // The first write fills its block's room exactly (2048 is a size
  // class), so the second cannot pack into it and starts a new chunk.
  SendBuffer buf(0);
  std::vector<uint8_t> data(2078);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  buf.append(std::span(data).first(2048), 4096);   // chunk [0,2048)
  buf.append(std::span(data).subspan(2048), 4096);  // chunk [2048,2078)
  ASSERT_EQ(buf.chunk_count(), 2u);
  const Payload out = buf.slice_out(2043, 10);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_FALSE(out.shares_buffer_with(buf.slice_out(0, 1)));
  EXPECT_FALSE(out.shares_buffer_with(buf.slice_out(2048, 1)));
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(2043 + i));
  }
}

std::vector<uint8_t> stream_bytes(size_t start, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>((start + i) * 13);
  return out;
}

TEST(SendBuffer, SmallWritesShareOneChunkUntilTheRoomRunsOut) {
  SendBuffer buf(0);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(buf.append(stream_bytes(i * 500, 500), 1 << 20), 500u);
    EXPECT_EQ(buf.chunk_count(), 1u);  // 2000 of the block's 2048 bytes
  }
  ASSERT_EQ(buf.append(stream_bytes(2000, 100), 1 << 20), 100u);
  EXPECT_EQ(buf.chunk_count(), 2u);  // 48 bytes of room: a new chunk
  EXPECT_EQ(buf.slice_out(0, 2100), Payload(stream_bytes(0, 2100)));
}

TEST(SendBuffer, PackingHonoursTheCapacity) {
  SendBuffer buf(0);
  EXPECT_EQ(buf.append(stream_bytes(0, 100), 150), 100u);
  EXPECT_EQ(buf.append(stream_bytes(100, 100), 150), 50u);  // partial
  EXPECT_EQ(buf.append(stream_bytes(150, 100), 150), 0u);
  EXPECT_EQ(buf.chunk_count(), 1u);
  EXPECT_EQ(buf.slice_out(0, 150), Payload(stream_bytes(0, 150)));
}

TEST(SendBuffer, SliceOutAcrossFormerWriteBoundariesIsZeroCopy) {
  SendBuffer buf(0);
  buf.append(stream_bytes(0, 20), 100);
  buf.append(stream_bytes(20, 30), 100);
  ASSERT_EQ(buf.chunk_count(), 1u);
  const Payload out = buf.slice_out(15, 10);
  EXPECT_TRUE(out.shares_buffer_with(buf.slice_out(0, 1)));
  EXPECT_EQ(out, Payload(stream_bytes(15, 10)));
}

TEST(SendBuffer, FreeThroughAndResetWorkOnAPackedChunk) {
  SendBuffer buf(0);
  for (size_t i = 0; i < 3; ++i) buf.append(stream_bytes(i * 100, 100), 4096);
  buf.free_through(150);  // into the middle write
  EXPECT_EQ(buf.base_seq(), 150u);
  EXPECT_EQ(buf.size(), 150u);
  EXPECT_EQ(buf.slice_out(150, 150), Payload(stream_bytes(150, 150)));
  // The trimmed chunk still ends at its block's mark, so it keeps packing.
  buf.append(stream_bytes(300, 100), 4096);
  EXPECT_EQ(buf.chunk_count(), 1u);
  EXPECT_EQ(buf.slice_out(150, 250), Payload(stream_bytes(150, 250)));
  buf.free_through(400);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.chunk_count(), 0u);
  buf.append(stream_bytes(400, 10), 4096);
  EXPECT_EQ(buf.slice_out(400, 10), Payload(stream_bytes(400, 10)));

  buf.append(stream_bytes(410, 10), 4096);
  buf.reset(1000);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.chunk_count(), 0u);
  buf.append(stream_bytes(0, 30), 4096);
  EXPECT_EQ(buf.end_seq(), 1030u);
  EXPECT_EQ(buf.slice_out(1000, 30), Payload(stream_bytes(0, 30)));
}

/// Property: random writes, slices and ACKs against a flat reference
/// stream. Packing and chunking may change where bytes live, never which
/// bytes a slice returns.
TEST(SendBuffer, RandomWritesSlicesAndAcksMatchAFlatStream) {
  Rng rng(7);
  SendBuffer buf(0);
  size_t written = 0;
  for (int op = 0; op < 4000; ++op) {
    const uint64_t r = rng.next_below(10);
    if (r < 5) {
      const size_t n = 1 + rng.next_below(rng.chance(0.1) ? 20000 : 1500);
      written += buf.append(stream_bytes(written, n), 48 * 1024);
    } else if (r < 8 && !buf.empty()) {
      const size_t off = rng.next_below(buf.size());
      const size_t n = 1 + rng.next_below(buf.size() - off);
      const uint64_t seq = buf.base_seq() + off;
      ASSERT_EQ(buf.slice_out(seq, n),
                Payload(stream_bytes(static_cast<size_t>(seq), n)));
    } else if (!buf.empty()) {
      buf.free_through(buf.base_seq() + 1 + rng.next_below(buf.size()));
    }
    ASSERT_EQ(buf.end_seq(), written);
  }
}
TEST(SendBuffer, FreeThroughAdvancesBase) {
  SendBuffer buf(0);
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < 100; ++i) data[i] = static_cast<uint8_t>(i);
  buf.append(data, 100);
  buf.free_through(40);
  EXPECT_EQ(buf.base_seq(), 40u);
  EXPECT_EQ(buf.size(), 60u);
  EXPECT_EQ(buf.slice_out(40, 2), (Payload{40, 41}));
  // Freeing below base is a no-op.
  buf.free_through(10);
  EXPECT_EQ(buf.base_seq(), 40u);
}

// --- ReassemblyQueue -------------------------------------------------------------

Payload fill(uint64_t seq, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seq + i);
  return Payload(out);
}

/// Pops everything that is ready and checks content correctness.
uint64_t drain_and_verify(ReassemblyQueue& q, uint64_t rcv_nxt) {
  while (auto ready = q.pop_ready(rcv_nxt)) {
    EXPECT_EQ(ready->first, rcv_nxt);
    for (size_t i = 0; i < ready->second.size(); ++i) {
      EXPECT_EQ(ready->second[i], static_cast<uint8_t>(rcv_nxt + i));
    }
    rcv_nxt += ready->second.size();
  }
  return rcv_nxt;
}

TEST(ReassemblyQueue, InOrderChunksPopImmediately) {
  ReassemblyQueue q;
  q.insert(0, fill(0, 10));
  EXPECT_EQ(drain_and_verify(q, 0), 10u);
  EXPECT_TRUE(q.empty());
}

TEST(ReassemblyQueue, GapHoldsDataUntilFilled) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 10));
  EXPECT_FALSE(q.pop_ready(0).has_value());
  q.insert(0, fill(0, 10));
  EXPECT_EQ(drain_and_verify(q, 0), 20u);
}

TEST(ReassemblyQueue, OverlapsAreTrimmedFirstArrivalWins) {
  ReassemblyQueue q;
  q.insert(5, fill(5, 10));   // [5,15)
  q.insert(0, fill(0, 10));   // [0,10) -> tail overlaps, trimmed to [0,5)
  q.insert(12, fill(12, 10)); // [12,22) -> head trimmed to [15,22)
  EXPECT_EQ(drain_and_verify(q, 0), 22u);
  EXPECT_EQ(q.ooo_bytes(), 0u);
}

TEST(ReassemblyQueue, ChunkSpanningExistingChunkIsSplit) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 5));  // [10,15)
  q.insert(0, fill(0, 30));   // spans it: [0,10) + [15,30)
  EXPECT_EQ(drain_and_verify(q, 0), 30u);
}

TEST(ReassemblyQueue, ExactDuplicateIsDropped) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 10));
  const size_t before = q.ooo_bytes();
  q.insert(10, fill(10, 10));
  EXPECT_EQ(q.ooo_bytes(), before);
}

TEST(ReassemblyQueue, SackRangesMergeContiguousChunks) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 5));
  q.insert(15, fill(15, 5));  // contiguous with previous
  q.insert(30, fill(30, 5));
  const auto ranges = q.sack_ranges(3);
  ASSERT_EQ(ranges.size(), 2u);
  // Most recent arrival ([30,35)) first, per RFC 2018.
  EXPECT_EQ(ranges[0], (std::pair<uint64_t, uint64_t>{30, 35}));
  EXPECT_EQ(ranges[1], (std::pair<uint64_t, uint64_t>{10, 20}));
}

TEST(ReassemblyQueue, SackRangesRespectLimit) {
  ReassemblyQueue q;
  for (uint64_t i = 0; i < 10; ++i) q.insert(i * 100, fill(i * 100, 10));
  EXPECT_EQ(q.sack_ranges(3).size(), 3u);
}

/// Property: any permutation of segments reassembles to the exact stream.
class ReassemblyShuffle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReassemblyShuffle, RandomArrivalOrderReassemblesExactly) {
  Rng rng(GetParam());
  constexpr size_t kSegments = 200;
  constexpr size_t kSegLen = 17;  // deliberately odd
  std::vector<uint64_t> seqs;
  for (size_t i = 0; i < kSegments; ++i) seqs.push_back(i * kSegLen);
  // Fisher-Yates with our deterministic RNG.
  for (size_t i = seqs.size() - 1; i > 0; --i) {
    std::swap(seqs[i], seqs[rng.next_below(i + 1)]);
  }
  ReassemblyQueue q;
  uint64_t rcv_nxt = 0;
  for (uint64_t seq : seqs) {
    // Occasionally deliver duplicates and overlapping extents.
    q.insert(seq, fill(seq, kSegLen));
    if (rng.chance(0.3)) q.insert(seq, fill(seq, kSegLen));
    if (rng.chance(0.2) && seq >= kSegLen) {
      q.insert(seq - 5, fill(seq - 5, 10));
    }
    rcv_nxt = drain_and_verify(q, rcv_nxt);
  }
  EXPECT_EQ(rcv_nxt, kSegments * kSegLen);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.ooo_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyShuffle,
                         ::testing::Range<uint64_t>(1, 21));

// --- RecvQueue -----------------------------------------------------------------

std::vector<uint8_t> seq_bytes(size_t start, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(start + i);
  return out;
}

TEST(RecvQueue, ReadCrossesChunkBoundaries) {
  RecvQueue q;
  q.push(Payload(seq_bytes(0, 10)));
  q.push(Payload(seq_bytes(10, 10)));
  q.push(Payload(seq_bytes(20, 10)));
  EXPECT_EQ(q.size(), 30u);
  uint8_t buf[17];
  ASSERT_EQ(q.read(buf), 17u);
  for (size_t i = 0; i < 17; ++i) EXPECT_EQ(buf[i], i);
  EXPECT_EQ(q.size(), 13u);
  ASSERT_EQ(q.read(buf), 13u);  // short read drains the rest
  for (size_t i = 0; i < 13; ++i) EXPECT_EQ(buf[i], 17 + i);
  EXPECT_TRUE(q.empty());
}

TEST(RecvQueue, PeekViewsExposeStoredBytesWithoutCopy) {
  RecvQueue q;
  Payload a(seq_bytes(0, 8));
  Payload b(seq_bytes(8, 8));
  q.push(a);
  q.push(b);
  std::span<const uint8_t> views[4];
  ASSERT_EQ(q.peek_views(views), 2u);
  EXPECT_EQ(views[0].data(), a.data());  // the queue's chunk IS the payload
  EXPECT_EQ(views[1].data(), b.data());
  EXPECT_EQ(views[0].size() + views[1].size(), q.size());
  // A smaller destination gets the front views only.
  std::span<const uint8_t> one[1];
  ASSERT_EQ(q.peek_views(one), 1u);
  EXPECT_EQ(one[0].data(), a.data());
}

TEST(RecvQueue, ConsumeDropsPartialChunksAndKeepsOrder) {
  RecvQueue q;
  q.push(Payload(seq_bytes(0, 10)));
  q.push(Payload(seq_bytes(10, 10)));
  q.consume(4);  // into the first chunk
  EXPECT_EQ(q.size(), 16u);
  uint8_t buf[16];
  ASSERT_EQ(q.read(buf), 16u);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 4 + i);
  q.consume(0);  // no-op on empty
  EXPECT_TRUE(q.empty());
}

TEST(RecvQueue, PopReleasesTheChunkAtOnce) {
  RecvQueue q;
  const Payload a(seq_bytes(0, 10));
  const Payload b(seq_bytes(10, 10));
  q.push(a);
  q.push(b);
  for (size_t i = 2; i < 8; ++i) q.push(Payload(seq_bytes(10 * i, 10)));
  ASSERT_EQ(a.buffer_refs(), 2u);
  q.consume(10);  // one pop of eight: too few to compact
  EXPECT_EQ(a.buffer_refs(), 1u);  // not parked behind the head index
  EXPECT_EQ(b.buffer_refs(), 2u);
  q.clear();
  EXPECT_EQ(b.buffer_refs(), 1u);
}

TEST(RecvQueue, EmptyPushIsIgnoredAndClearResets) {
  RecvQueue q;
  q.push(Payload());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.chunk_count(), 0u);
  q.push(Payload(seq_bytes(0, 5)));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// --- Fifo ----------------------------------------------------------------------

/// Property: the head-indexed FIFO behaves like std::deque under random
/// pushes and pops, including bursts long enough to compact repeatedly
/// and drains to empty.
TEST(Fifo, MatchesDequeUnderRandomPushPop) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Fifo<uint64_t> fifo;
    std::deque<uint64_t> ref;
    uint64_t next = 0;
    for (int op = 0; op < 5000; ++op) {
      // Phases that favour pushing, then popping, so the queue both grows
      // and drains.
      const bool grow = (op / 500) % 2 == 0;
      if (ref.empty() || rng.chance(grow ? 0.7 : 0.3)) {
        fifo.push_back(next);
        ref.push_back(next);
        ++next;
      } else {
        ASSERT_EQ(fifo.front(), ref.front());
        fifo.pop_front();
        ref.pop_front();
      }
      ASSERT_EQ(fifo.size(), ref.size());
      ASSERT_EQ(fifo.empty(), ref.empty());
      if (!ref.empty()) {
        ASSERT_EQ(fifo.front(), ref.front());
        ASSERT_EQ(fifo.back(), ref.back());
      }
      if (op % 97 == 0) {
        ASSERT_TRUE(std::equal(fifo.begin(), fifo.end(), ref.begin(),
                               ref.end()));
      }
    }
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.begin(), fifo.end());
  }
}

TEST(Fifo, IteratorsAreRandomAccessOverTheLiveElements) {
  Fifo<int> fifo;
  EXPECT_EQ(fifo.begin(), fifo.end());  // nothing allocated, nothing seen
  for (int i = 0; i < 10; ++i) fifo.push_back(i);
  fifo.pop_front();
  fifo.pop_front();
  auto it = std::lower_bound(fifo.begin(), fifo.end(), 5);
  ASSERT_NE(it, fifo.end());
  EXPECT_EQ(*it, 5);
  EXPECT_EQ(it - fifo.begin(), 3);
  EXPECT_EQ(fifo.end() - fifo.begin(), 8);
}

}  // namespace
}  // namespace mptcp
