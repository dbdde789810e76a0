// Unit tests for the simulated storage engine (DESIGN.md §13): the block device's whole-block
// accounting, the buffer cache's flush/drop semantics, the journal frame codec (including
// torn-tail skipping), and the durability service's group-flush, waiter, callback, and kill
// behavior.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/storage/block_buffer.h"
#include "src/storage/block_device.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
namespace {

TEST(BlockDeviceTest, PaysWholeBlocksForPartialWrites) {
  BlockDevice device;
  device.Append("hello");
  EXPECT_EQ(device.stats().block_writes, 1);
  EXPECT_EQ(device.stats().bytes_written, static_cast<int64_t>(kBlockSize));
  EXPECT_EQ(device.Read(0, 5), "hello");

  // A write spanning two blocks pays for two: it rewrites the partial block holding "hello"
  // and fills the next one.
  std::string big(kBlockSize + 1, 'x');
  device.Append(big);
  EXPECT_EQ(device.stats().block_writes, 3);
  EXPECT_EQ(device.size(), kBlockSize + 6);
}

TEST(BlockDeviceTest, CorruptionFlipsOneByteWithoutPayingForAWrite) {
  BlockDevice device;
  device.Append("abc");
  device.CorruptByteForTest(1);
  EXPECT_EQ(device.Read(0, 3), std::string("a") + static_cast<char>('b' ^ 0xff) + "c");
  EXPECT_EQ(device.stats().block_writes, 1);
}

TEST(BlockBufferTest, FlushMovesTheDurableFrontierAndDropKeepsIt) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  uint64_t a = buffer.Append("aaaa");
  uint64_t b = buffer.Append("bbbb");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(buffer.durable(), 0u);
  EXPECT_EQ(buffer.tail(), 8u);

  buffer.FlushTo(4);
  EXPECT_EQ(buffer.durable(), 4u);
  EXPECT_EQ(buffer.ReadDurable(0, 4), "aaaa");

  buffer.DropVolatile();
  EXPECT_EQ(buffer.tail(), 4u);
  EXPECT_EQ(buffer.durable(), 4u);
  EXPECT_EQ(buffer.ReadDurable(0, 4), "aaaa");
}

TEST(BlockBufferTest, PartialTailBlockIsRewrittenEachFlush) {
  // Two small flushes land in the same 4 KiB block: the second rewrites it — the small-write
  // amplification the group-flusher exists to amortize.
  BlockDevice device;
  BlockBuffer buffer(&device);
  buffer.Append("aaaa");
  buffer.FlushTo(4);
  buffer.Append("bbbb");
  buffer.FlushTo(8);
  EXPECT_EQ(device.stats().block_writes, 2);
  EXPECT_EQ(buffer.ReadDurable(0, 8), "aaaabbbb");
}

TEST(BlockBufferTest, FlushBelowTheTailLeavesTheRestVolatile) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  buffer.Append("aaaa");
  buffer.Append("bbbb");
  buffer.FlushTo(6);
  EXPECT_EQ(buffer.durable(), 6u);
  EXPECT_EQ(buffer.tail(), 8u);
  EXPECT_EQ(device.size(), 6u);  // Only the flushed bytes reached the device.
  EXPECT_EQ(buffer.ReadDurable(0, 6), "aaaabb");
  buffer.FlushTo(2);  // Below the frontier: a no-op that pays nothing.
  EXPECT_EQ(device.stats().block_writes, 1);
  buffer.FlushTo(100);  // Clamped to the tail.
  EXPECT_EQ(buffer.durable(), 8u);
  EXPECT_EQ(buffer.ReadDurable(4, 4), "bbbb");
}

TEST(BlockBufferTest, DropAfterAPartialFlushKeepsOnlyTheFlushedPrefix) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  buffer.Append("aaaa");
  buffer.Append("bbbb");
  buffer.FlushTo(6);
  buffer.DropVolatile();
  EXPECT_EQ(buffer.tail(), 6u);
  EXPECT_EQ(buffer.durable(), 6u);
  // Appends resume at the durable frontier.
  EXPECT_EQ(buffer.Append("cc"), 6u);
  buffer.FlushTo(buffer.tail());
  EXPECT_EQ(buffer.ReadDurable(0, 8), "aaaabbcc");
}

TEST(BlockBufferTest, AppendAndFlushAfterPrefixTruncation) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  std::string first(kBlockSize + 100, 'a');
  buffer.Append(first);
  buffer.FlushTo(buffer.tail());
  // Truncating at a mid-block offset frees only the whole block below it; retained() keeps
  // the exact offset and the surviving bytes keep their logical offsets.
  EXPECT_EQ(buffer.TruncatePrefix(kBlockSize + 10), kBlockSize);
  EXPECT_EQ(buffer.retained(), kBlockSize + 10);
  EXPECT_EQ(device.base(), kBlockSize);
  EXPECT_EQ(device.resident_bytes(), 100u);
  EXPECT_EQ(buffer.TruncatePrefix(kBlockSize), 0u);  // Behind retained(): nothing to free.

  EXPECT_EQ(buffer.Append("tail"), kBlockSize + 100);
  buffer.FlushTo(buffer.tail());
  EXPECT_EQ(buffer.durable(), kBlockSize + 104);
  // Reads at the truncated base and at the retained offset both resolve.
  EXPECT_EQ(buffer.ReadDurable(kBlockSize, 2), "aa");
  EXPECT_EQ(buffer.ReadDurable(buffer.retained(), 2), "aa");
  EXPECT_EQ(buffer.ReadDurable(kBlockSize + 98, 6), "aatail");
  // 2 blocks for the first flush, 1 for rewriting the partial block the append extended.
  EXPECT_EQ(device.stats().block_writes, 3);
}

TEST(BlockBufferTest, ScriptedFlushesPayTheHistoricBlockCounts) {
  // Every flush pays ceil((upto - floor(durable / B) * B) / B) blocks: the partial block at
  // the old frontier is rewritten, plus every block the new bytes reach.
  BlockDevice device;
  BlockBuffer buffer(&device);
  struct Step {
    uint64_t append;
    uint64_t flush_to;
    int64_t blocks_after;
  };
  const Step steps[] = {
      {4, 4, 1},                            // PartialTailBlockIsRewrittenEachFlush, first.
      {4, 8, 2},                            // ... and its second: the tail block again.
      {kBlockSize - 8, kBlockSize, 3},      // Fills block 0 exactly: rewritten once more.
      {10, kBlockSize + 10, 4},             // Aligned frontier: only the new block.
      {3 * kBlockSize, 2 * kBlockSize + 1, 6},  // Partial flush: blocks 1 and 2.
      {0, 4 * kBlockSize + 10, 9},          // The rest: blocks 2, 3 and 4.
      {0, 4 * kBlockSize + 10, 9},          // Nothing new: free.
  };
  for (const Step& step : steps) {
    buffer.Append(std::string(step.append, 's'));
    buffer.FlushTo(step.flush_to);
    EXPECT_EQ(buffer.durable(), step.flush_to);
    EXPECT_EQ(device.stats().block_writes, step.blocks_after);
    EXPECT_EQ(device.stats().bytes_written,
              step.blocks_after * static_cast<int64_t>(kBlockSize));
  }
}

TEST(JournalCodecTest, PrimitivesRoundTrip) {
  std::string payload;
  PutU8(&payload, 7);
  PutU32(&payload, 0xDEADBEEF);
  PutU64(&payload, 0x0123456789ABCDEFull);
  PutStr(&payload, "version-id");
  Cursor cursor(payload);
  EXPECT_EQ(cursor.U8(), 7);
  EXPECT_EQ(cursor.U32(), 0xDEADBEEFu);
  EXPECT_EQ(cursor.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(cursor.Str(), "version-id");
  EXPECT_TRUE(cursor.empty());
}

TEST(JournalCodecTest, ReplayYieldsWholeFramesAndSkipsTornTail) {
  BlockDevice device;
  BlockBuffer buffer(&device);
  std::string first;
  PutU64(&first, 41);
  AppendFrame(&buffer, FrameType::kRecord, first);
  std::string second;
  PutU64(&second, 42);
  uint64_t end = AppendFrame(&buffer, FrameType::kTrim, second);

  // Flush to one byte short of the second frame's end: it is torn and must be skipped.
  buffer.FlushTo(end - 1);
  std::vector<uint64_t> seen;
  ReplayFrames(buffer, buffer.durable(), [&](FrameType type, Cursor cursor) {
    EXPECT_EQ(type, FrameType::kRecord);
    seen.push_back(cursor.U64());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 41u);

  // Completing the flush makes the second frame whole.
  buffer.FlushTo(end);
  seen.clear();
  ReplayFrames(buffer, buffer.durable(),
               [&](FrameType, Cursor cursor) { seen.push_back(cursor.U64()); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{41, 42}));
}

// --- DurabilityService ---

struct ServiceFixture {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService service{&scheduler, &models, /*seed=*/1};
};

sim::Task<void> AwaitSeq(DurabilityService* svc, uint64_t seqnum, bool* ok, bool* done) {
  *ok = co_await svc->WaitSeq(seqnum);
  *done = true;
}

sim::Task<void> AwaitOffset(DurabilityService* svc, uint64_t offset, bool* ok, bool* done) {
  *ok = co_await svc->WaitOffset(offset);
  *done = true;
}

TEST(DurabilityServiceTest, WaitSeqResumesTrueOnceFlushed) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  uint64_t end = fx.service.AppendFrame(FrameType::kRecord, payload);
  fx.service.NoteCommit(1, end);

  bool ok = false, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 1, &ok, &done));
  fx.scheduler.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(fx.service.durable_seq(), 1u);
  EXPECT_GE(fx.service.stats().flushes, 1);
  EXPECT_TRUE(fx.service.SeqDurable(1));
}

TEST(DurabilityServiceTest, GroupFlushCoalescesManyAppends) {
  // All appends land before the first flush's latency elapses, so one or two flush rounds
  // absorb all of them (frames appended mid-flush ride the next round).
  ServiceFixture fx;
  for (uint64_t i = 1; i <= 64; ++i) {
    std::string payload;
    PutU64(&payload, i);
    fx.service.NoteCommit(i, fx.service.AppendFrame(FrameType::kRecord, payload));
  }
  fx.scheduler.Run();
  EXPECT_EQ(fx.service.durable_seq(), 64u);
  EXPECT_EQ(fx.service.stats().frames, 64);
  EXPECT_LE(fx.service.stats().flushes, 2);
}

TEST(DurabilityServiceTest, WhenDurableFiresSynchronouslyOnceDurable) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));

  int fired = 0;
  fx.service.WhenDurable(1, [&] { ++fired; });
  EXPECT_EQ(fired, 0);  // Not durable yet: deferred.
  fx.scheduler.Run();
  EXPECT_EQ(fired, 1);
  fx.service.WhenDurable(1, [&] { ++fired; });
  EXPECT_EQ(fired, 2);  // Already durable: synchronous.
}

TEST(DurabilityServiceTest, KillFailsWaitersDropsCallbacksAndKeepsDurablePrefix) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();  // Seq 1 durable.

  PutU64(&payload, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  bool ok = true, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 2, &ok, &done));
  int fired = 0;
  fx.service.WhenDurable(2, [&] { ++fired; });
  fx.service.Kill();  // Before the flush latency elapses.
  fx.scheduler.Run();

  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // The waiter saw the kill, not a bogus success.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(fx.service.stats().kills, 1);
  EXPECT_EQ(fx.service.stats().failed_waits, 1);
  EXPECT_EQ(fx.service.stats().dropped_callbacks, 1);
  // The durable prefix survives: replay still sees seq 1.
  EXPECT_EQ(fx.service.durable_seq(), 1u);
  int frames = 0;
  fx.service.Replay([&](FrameType, Cursor) { ++frames; });
  EXPECT_EQ(frames, 1);
}

TEST(DurabilityServiceTest, WaitersRegisteredAfterAKillFailFast) {
  // A kill between the mutation and the co_await: the awaited seqnum/offset is beyond every
  // pending commit / the journal tail, so the waiter must resume false immediately instead of
  // suspending forever (or matching a reused seqnum later).
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  uint64_t end = fx.service.AppendFrame(FrameType::kRecord, payload);
  fx.service.NoteCommit(1, end);
  fx.service.Kill();

  bool seq_ok = true, seq_done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 1, &seq_ok, &seq_done));
  bool off_ok = true, off_done = false;
  fx.scheduler.Spawn(AwaitOffset(&fx.service, end, &off_ok, &off_done));
  fx.scheduler.Run();
  EXPECT_TRUE(seq_done);
  EXPECT_FALSE(seq_ok);
  EXPECT_TRUE(off_done);
  EXPECT_FALSE(off_ok);
  EXPECT_EQ(fx.service.stats().failed_waits, 2);
}

TEST(DurabilityServiceTest, SeqnumsMayBeReusedAfterAKill) {
  // The log allocator rolls back to the durable watermark on restart, so post-kill commits
  // reuse the wiped seqnums; the commit bookkeeping must accept them.
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();  // Seq 1 durable.

  PutU64(&payload, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.service.Kill();  // Seq 2 wiped.

  std::string retry;
  PutU64(&retry, 2);
  fx.service.NoteCommit(2, fx.service.AppendFrame(FrameType::kRecord, retry));
  bool ok = false, done = false;
  fx.scheduler.Spawn(AwaitSeq(&fx.service, 2, &ok, &done));
  fx.scheduler.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(fx.service.durable_seq(), 2u);
}

TEST(DurabilityServiceTest, ReportsWriteAmplification) {
  ServiceFixture fx;
  std::string payload;
  PutU64(&payload, 1);
  fx.service.NoteCommit(1, fx.service.AppendFrame(FrameType::kRecord, payload));
  fx.scheduler.Run();
  // A ~13-byte frame cost a 4 KiB block write: amplification far above 1.
  EXPECT_GT(fx.service.WriteAmplification(), 1.0);
}

}  // namespace
}  // namespace halfmoon::storage
