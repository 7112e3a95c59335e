// Shared-payload semantics: refcounted views, zero-copy slicing,
// copy-on-write, and the cached folded checksum -- including the
// end-to-end property that a payload-rewriting middlebox cannot corrupt
// the sender's retransmit buffer through the shared bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/meta_recv.h"
#include "middlebox/payload_modifier.h"
#include "net/checksum.h"
#include "net/payload.h"
#include "net/rng.h"
#include "net/segment.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {
namespace {

std::vector<uint8_t> pattern(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 7 + 3);
  return out;
}

TEST(Payload, CopySharesTheBuffer) {
  Payload a(pattern(100));
  Payload b = a;
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a.buffer_refs(), 2u);
  EXPECT_EQ(a, b);
}

TEST(Payload, SubviewSharesAndSeesTheRightBytes) {
  Payload a(pattern(100));
  Payload s = a.subview(10, 20);
  EXPECT_TRUE(s.shares_buffer_with(a));
  ASSERT_EQ(s.size(), 20u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(s[i], a[10 + i]);
}

TEST(Payload, RemovePrefixAndTruncateAreZeroCopy) {
  Payload a(pattern(50));
  Payload v = a;
  v.remove_prefix(10);
  v.truncate(20);
  EXPECT_TRUE(v.shares_buffer_with(a));
  ASSERT_EQ(v.size(), 20u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(v[i], a[10 + i]);
}

TEST(Payload, MutableDataOnUnsharedBufferDoesNotCopy) {
  Payload a(pattern(10));
  const uint8_t* before = a.data();
  EXPECT_EQ(a.buffer_refs(), 1u);
  uint8_t* w = a.mutable_data();
  EXPECT_EQ(w, before);  // sole owner: written in place
}

TEST(Payload, MutableDataOnSharedBufferCopiesOnWrite) {
  Payload a(pattern(64));
  Payload b = a;
  b.mutable_data()[0] = 0xEE;
  EXPECT_FALSE(a.shares_buffer_with(b));  // b unshared itself
  EXPECT_EQ(a[0], pattern(64)[0]);        // a untouched
  EXPECT_EQ(b[0], 0xEE);
}

TEST(Payload, FoldedSumIsCachedAndMatchesDirectComputation) {
  Payload a(pattern(1460));
  EXPECT_FALSE(a.sum_cached());
  const uint16_t s = a.folded_sum();
  EXPECT_TRUE(a.sum_cached());
  EXPECT_EQ(s, ones_complement_sum(a.span()));
  // Copies inherit the cache; subviews of a partial range do not.
  Payload b = a;
  EXPECT_TRUE(b.sum_cached());
  Payload v = a.subview(1, 10);
  EXPECT_FALSE(v.sum_cached());
  EXPECT_EQ(v.folded_sum(), ones_complement_sum(v.span()));
}

TEST(Payload, MutableDataInvalidatesCachedSum) {
  Payload a(pattern(100));
  const uint16_t before = a.folded_sum();
  ASSERT_TRUE(a.sum_cached());
  a.mutable_data()[50] ^= 0xA5;
  EXPECT_FALSE(a.sum_cached());
  const uint16_t after = a.folded_sum();
  EXPECT_NE(before, after);
  EXPECT_EQ(after, ones_complement_sum(a.span()));
}

TEST(Payload, ConcatSharesSinglePartAndAssemblesMany) {
  const std::vector<uint8_t> bytes = pattern(300);
  Payload whole(bytes);
  const Payload one_part[] = {whole};
  Payload one = Payload::concat(one_part);
  EXPECT_TRUE(one.shares_buffer_with(whole));  // no copy for one fragment

  const Payload parts[] = {whole.subview(0, 100), Payload(),
                           whole.subview(100, 200)};
  Payload two = Payload::concat(parts);
  EXPECT_EQ(two, whole);
  EXPECT_FALSE(two.shares_buffer_with(whole));  // assembled fresh

  EXPECT_TRUE(Payload::concat(std::span<const Payload>{}).empty());
}

TEST(PayloadPool, ResetZeroesStatsAndRecyclesHotSizes) {
  Payload::pool_reset();
  EXPECT_EQ(Payload::pool_stats().hits, 0u);
  EXPECT_EQ(Payload::pool_stats().misses, 0u);
  { Payload a(1460, 0x11); }  // small class block, freed to the pool
  Payload b(2048, 0x22);      // same class: recycled when the pool is on
  const Payload::PoolStats& s = Payload::pool_stats();
  // Under sanitizers the pool is compiled out and both counters stay 0;
  // otherwise the first allocation misses and the second reuses its block.
  if (s.misses != 0) {
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_GE(b.buffer_capacity(), 2048u);  // rounded up to the size class
  }
  Payload::pool_reset();
  EXPECT_EQ(Payload::pool_stats().hits, 0u);
  EXPECT_EQ(Payload::pool_stats().misses, 0u);
}

TEST(PayloadPool, HotSizesRoundUpToTheirClassInEveryBuild) {
  // Sanitized builds compile out only the recycling, not the classes, so
  // block packing has room to work with there too.
  EXPECT_EQ(Payload(100, 1).buffer_capacity(), 2048u);
  EXPECT_EQ(Payload(2048, 1).buffer_capacity(), 2048u);
  EXPECT_EQ(Payload(2049, 1).buffer_capacity(), 16384u);
  EXPECT_EQ(Payload(20000, 1).buffer_capacity(), 20000u);  // exact size
  // The 16-byte header keeps the bytes 16-byte aligned.
  const Payload p(100, 1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p.data()) % 16, 0u);
}

TEST(PayloadPool, LiveCountsFollowBlocksNotViews) {
  const Payload::LiveStats before = Payload::live_stats();
  {
    Payload a(100, 1);
    Payload b = a.subview(10, 10);  // a second view, not a second block
    EXPECT_EQ(Payload::live_stats().blocks, before.blocks + 1);
    EXPECT_EQ(Payload::live_stats().bytes, before.bytes + 2048);
    Payload big(20000, 2);
    EXPECT_EQ(Payload::live_stats().blocks, before.blocks + 2);
    EXPECT_EQ(Payload::live_stats().bytes, before.bytes + 2048 + 20000);
  }
  // Freed blocks sit on the free list (when the pool is on): not live.
  EXPECT_EQ(Payload::live_stats().blocks, before.blocks);
  EXPECT_EQ(Payload::live_stats().bytes, before.bytes);
}

TEST(PayloadPool, RecyclingResetsTheHighWaterMark) {
  Payload::pool_reset();
  const std::vector<uint8_t> more = pattern(1000);
  {
    Payload a(100, 0x11);
    ASSERT_TRUE(a.extend_in_place(more));
    EXPECT_EQ(a.buffer_used(), 1100u);
  }  // back to the free list (when the pool is on)
  Payload b(50, 0x22);
  if (Payload::pool_stats().misses != 0) {
    EXPECT_EQ(Payload::pool_stats().hits, 1u);  // the same block again
  }
  EXPECT_EQ(b.buffer_used(), 50u);
  ASSERT_TRUE(b.extend_in_place(more));
  ASSERT_EQ(b.size(), 1050u);
  for (size_t i = 0; i < 50; ++i) ASSERT_EQ(b[i], 0x22);
  for (size_t i = 0; i < more.size(); ++i) ASSERT_EQ(b[50 + i], more[i]);
  Payload::pool_reset();
}

// --- Block packing (extend_in_place) ----------------------------------------

TEST(PayloadPack, ExtendFillsTheRoomBehindTheView) {
  const std::vector<uint8_t> head = pattern(100);
  const std::vector<uint8_t> tail = pattern(60);
  Payload a(head);
  const uint8_t* block = a.data();
  ASSERT_TRUE(a.extend_in_place(tail));
  EXPECT_EQ(a.data(), block);  // no new allocation
  EXPECT_EQ(a.buffer_used(), 160u);
  ASSERT_EQ(a.size(), 160u);
  for (size_t i = 0; i < 100; ++i) ASSERT_EQ(a[i], head[i]);
  for (size_t i = 0; i < 60; ++i) ASSERT_EQ(a[100 + i], tail[i]);
  EXPECT_EQ(a.folded_sum(), ones_complement_sum(a.span()));
}

TEST(PayloadPack, ExtendRefusesWithoutRoomOrOffTheMark) {
  const std::vector<uint8_t> one = {7};
  Payload full(2048, 1);  // its size class exactly: no room
  EXPECT_FALSE(full.extend_in_place(one));
  Payload exact(20000, 1);  // above the classes: allocated exactly
  EXPECT_FALSE(exact.extend_in_place(one));
  Payload none;
  EXPECT_FALSE(none.extend_in_place(one));
  EXPECT_TRUE(none.extend_in_place({}));  // appending nothing always works
  EXPECT_TRUE(none.empty());

  Payload a(100, 1);
  Payload head = a.subview(0, 50);  // ends below the mark
  EXPECT_FALSE(head.extend_in_place(one));
  EXPECT_EQ(head.size(), 50u);
  Payload room(2000, 1);
  EXPECT_FALSE(room.extend_in_place(pattern(49)));  // 48 bytes of room
  EXPECT_TRUE(room.extend_in_place(pattern(48)));
  EXPECT_EQ(room.buffer_used(), 2048u);
  // A refused extension changes nothing.
  EXPECT_EQ(a.buffer_used(), 100u);
  EXPECT_EQ(full.size(), 2048u);
}

/// Property: views taken before an extension see exactly the bytes (and
/// the cached checksum) they saw before, for any mix of copies, prefix
/// trims and subviews, over a series of extensions.
TEST(PayloadPack, EarlierViewsKeepTheirBytesAndCachedSums) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const size_t first = 1 + rng.next_below(1500);
    Payload grow(pattern(first));
    struct Seen {
      Payload view;
      std::vector<uint8_t> bytes;
      uint16_t sum;
    };
    std::vector<Seen> seen;
    for (int step = 0; step < 8; ++step) {
      // Take a few views of the current bytes, most with a cached sum.
      for (int k = 0; k < 3; ++k) {
        const size_t off = rng.next_below(grow.size());
        const size_t n = 1 + rng.next_below(grow.size() - off);
        Payload v = rng.chance(0.3) ? grow : grow.subview(off, n);
        const uint16_t sum = v.folded_sum();
        seen.push_back({v, std::vector<uint8_t>(v.begin(), v.end()), sum});
      }
      const size_t room = grow.buffer_capacity() - grow.buffer_used();
      const std::vector<uint8_t> more = pattern(1 + rng.next_below(600));
      const bool fits = more.size() <= room;
      const size_t before = grow.size();
      EXPECT_EQ(grow.extend_in_place(more), fits);
      EXPECT_EQ(grow.size(), before + (fits ? more.size() : 0));
      if (fits) {
        EXPECT_FALSE(grow.sum_cached());
      }
    }
    for (const Seen& s : seen) {
      ASSERT_TRUE(s.view.sum_cached());
      EXPECT_EQ(s.view.folded_sum(), s.sum);
      EXPECT_EQ(s.view.folded_sum(), ones_complement_sum(s.view.span()));
      ASSERT_TRUE(std::equal(s.view.begin(), s.view.end(), s.bytes.begin(),
                             s.bytes.end()));
    }
  }
}

TEST(PayloadPack, OnlyTheFirstViewAtTheMarkMayExtend) {
  const std::vector<uint8_t> base = pattern(100);
  Payload a(base);
  Payload b = a;  // both end at the mark
  ASSERT_TRUE(a.extend_in_place(pattern(10)));
  const std::vector<uint8_t> other(10, 0xEE);
  EXPECT_FALSE(b.extend_in_place(other));  // the mark moved past b
  ASSERT_EQ(b.size(), 100u);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), base.begin()));
  for (size_t i = 0; i < 10; ++i) EXPECT_NE(a[100 + i], 0xEE);
  EXPECT_TRUE(a.extend_in_place(other));  // a still ends at the mark
  EXPECT_EQ(a.size(), 120u);
}

TEST(PayloadPack, SharedSubflowChunkExtendingLeavesTheMetaChunkIntact) {
  // A subflow's append_shared chunk is a view into the meta send buffer's
  // block. If the subflow's own buffer then packs a write into that block,
  // the meta buffer loses its room but none of its bytes.
  const std::vector<uint8_t> meta_bytes = pattern(300);
  SendBuffer meta(0);
  ASSERT_EQ(meta.append(meta_bytes, 1 << 20), meta_bytes.size());
  SendBuffer sub(5000);
  ASSERT_EQ(sub.append_shared(meta.slice_out(100, 200), 1 << 20), 200u);

  const std::vector<uint8_t> sub_write(400, 0x5A);
  ASSERT_EQ(sub.append(sub_write, 1 << 20), sub_write.size());
  EXPECT_EQ(sub.chunk_count(), 1u);  // packed into the meta block
  EXPECT_TRUE(sub.slice_out(5000, 600).shares_buffer_with(
      meta.slice_out(0, 300)));

  const std::vector<uint8_t> meta_more(100, 0x33);
  ASSERT_EQ(meta.append(meta_more, 1 << 20), meta_more.size());
  EXPECT_EQ(meta.chunk_count(), 2u);  // its room is gone: a fresh chunk
  EXPECT_EQ(meta.slice_out(0, 300), Payload(meta_bytes));
  EXPECT_EQ(meta.slice_out(300, 100), Payload(meta_more));
  std::vector<uint8_t> want(meta_bytes.begin() + 100, meta_bytes.end());
  want.insert(want.end(), sub_write.begin(), sub_write.end());
  EXPECT_EQ(sub.slice_out(5000, 600), Payload(want));
}

// --- The COW property the retransmit path depends on ------------------------

class CapturingSink : public PacketSink {
 public:
  std::vector<TcpSegment> segs;
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
};

TEST(PayloadCow, ModifierRewriteLeavesSendBufferIntact) {
  // A segment carved from the send buffer shares its bytes; a
  // payload-rewriting middlebox (ALG) must trigger copy-on-write rather
  // than corrupt the copy the sender would retransmit from.
  SendBuffer snd(0);
  const std::vector<uint8_t> original = pattern(1000);
  snd.append(original, original.size());

  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload = snd.slice_out(0, 500);
  const uint16_t clean_sum = seg.payload.folded_sum();
  ASSERT_TRUE(seg.payload.shares_buffer_with(snd.slice_out(0, 500)));

  PayloadModifier alg;
  CapturingSink sink;
  alg.set_downstream(&sink);
  alg.deliver(std::move(seg));
  ASSERT_EQ(alg.segments_modified(), 1u);
  ASSERT_EQ(sink.segs.size(), 1u);

  const Payload& mangled = sink.segs[0].payload;
  EXPECT_EQ(mangled[250], static_cast<uint8_t>(original[250] ^ 0xA5));
  EXPECT_NE(mangled.folded_sum(), clean_sum);  // recomputed post-rewrite

  // The retransmission reads the same range again: bytes and cached sum
  // are those of the original data, not the middlebox's rewrite.
  const Payload rtx = snd.slice_out(0, 500);
  EXPECT_FALSE(rtx.shares_buffer_with(mangled));
  EXPECT_EQ(rtx.folded_sum(), clean_sum);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(rtx[i], original[i]) << "retransmit buffer corrupted at " << i;
  }
}

TEST(PayloadCow, RewriteOfAPackedChunkStaysPrivate) {
  // Two writes packed into one block; the segment straddles the former
  // write boundary as a zero-copy view. The rewrite copies it out, and
  // later packing into the same block touches neither copy.
  const std::vector<uint8_t> original = pattern(1500);
  SendBuffer snd(0);
  snd.append(std::span(original).first(500), 1 << 20);
  snd.append(std::span(original).subspan(500, 500), 1 << 20);
  ASSERT_EQ(snd.chunk_count(), 1u);

  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload = snd.slice_out(250, 500);
  const uint16_t clean_sum = seg.payload.folded_sum();
  ASSERT_TRUE(seg.payload.shares_buffer_with(snd.slice_out(0, 1)));

  PayloadModifier alg;
  CapturingSink sink;
  alg.set_downstream(&sink);
  alg.deliver(std::move(seg));
  ASSERT_EQ(alg.segments_modified(), 1u);
  const Payload& mangled = sink.segs[0].payload;
  EXPECT_EQ(mangled.buffer_used(), 500u);  // the private copy's own mark

  snd.append(std::span(original).subspan(1000), 1 << 20);
  EXPECT_EQ(snd.chunk_count(), 1u);  // still packing the shared block
  const Payload rtx = snd.slice_out(250, 500);
  EXPECT_FALSE(rtx.shares_buffer_with(mangled));
  EXPECT_EQ(rtx.folded_sum(), clean_sum);
  EXPECT_EQ(snd.slice_out(0, 1500), Payload(original));
  EXPECT_EQ(mangled[250], static_cast<uint8_t>(original[500] ^ 0xA5));
}

TEST(PayloadCow, MiddleboxRewriteCannotReachAnyQueueSharingTheBytes) {
  // One wire payload fans out into every structure that can hold it at
  // once on the zero-copy receive path: the sender's retransmit buffer,
  // a subflow reassembly queue, the connection-level out-of-order queue,
  // and the in-order app queue. A middlebox rewriting the in-flight copy
  // must not be visible through any of them.
  const std::vector<uint8_t> original = pattern(1460);
  Payload wire{std::span<const uint8_t>(original)};

  SendBuffer snd(1000);
  ASSERT_EQ(snd.append_shared(wire, size_t{1} << 20), wire.size());
  ReassemblyQueue reasm;
  reasm.insert(5000, wire);
  MetaReceiveQueue meta(RecvAlgo::kShortcuts);
  meta.insert(9000, wire, /*subflow_id=*/0, /*floor=*/0);
  RecvQueue app;
  app.push(wire);

  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload = wire;
  PayloadModifier alg;
  CapturingSink sink;
  alg.set_downstream(&sink);
  alg.deliver(std::move(seg));
  ASSERT_EQ(alg.segments_modified(), 1u);
  const Payload& mangled = sink.segs[0].payload;
  EXPECT_NE(mangled[730], original[730]);

  const Payload want{std::span<const uint8_t>(original)};
  EXPECT_EQ(snd.slice_out(1000, 1460), want);
  auto popped = reasm.pop_ready(5000);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->second, want);
  auto chunk = meta.pop_ready(9000);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->bytes, want);
  std::vector<uint8_t> out(original.size());
  ASSERT_EQ(app.read(out), original.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), original.begin()));
  EXPECT_EQ(wire, want);  // the shared view itself is untouched
}

}  // namespace
}  // namespace mptcp
