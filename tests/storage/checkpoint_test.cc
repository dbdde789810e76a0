// Unit tests for the checkpoint tier (DESIGN.md §14): the manifest codec, newest-valid
// manifest selection with fallback past torn and corrupt images, prefix truncation of both
// the checkpoint store and the journal (the durable_bytes_dropped accounting), and the
// CheckpointService round machinery with its crash probes.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/sim/scheduler.h"
#include "src/storage/block_device.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
namespace {

// Writes an n-frame image plus its manifest (all durable) and returns the manifest.
CheckpointManifest WriteImage(CheckpointStore* store, uint8_t domain, int n, uint64_t cut,
                              uint64_t watermark = 0) {
  CheckpointManifest m;
  m.domain = domain;
  m.cut = cut;
  m.image_start = store->tail();
  m.watermark_floor = watermark;
  for (int i = 0; i < n; ++i) {
    std::string payload;
    PutU64(&payload, static_cast<uint64_t>(i));
    // Pad frames past a trivial size so a few of them span 4KiB device blocks and prefix
    // truncation genuinely frees device memory.
    payload.append(2048, 'i');
    store->AppendFrame(FrameType::kCkptRecord, payload);
  }
  store->Flush();
  m.frame_count = static_cast<uint64_t>(n);
  m.checksum = ChecksumImage(*store, m.image_start, store->tail());
  store->AppendFrame(FrameType::kCkptManifest, EncodeManifest(m));
  store->Flush();
  return m;
}

TEST(CheckpointManifestTest, CodecRoundTrips) {
  CheckpointManifest m;
  m.domain = kCkptKvDomain;
  m.cut = 0xAABB;
  m.image_start = 0x1122;
  m.frame_count = 7;
  m.checksum = 0xDEADBEEFCAFEF00Dull;
  m.watermark_floor = 41;
  std::string payload = EncodeManifest(m);
  CheckpointManifest back = DecodeManifest(Cursor(payload));
  EXPECT_EQ(back.domain, m.domain);
  EXPECT_EQ(back.cut, m.cut);
  EXPECT_EQ(back.image_start, m.image_start);
  EXPECT_EQ(back.frame_count, m.frame_count);
  EXPECT_EQ(back.checksum, m.checksum);
  EXPECT_EQ(back.watermark_floor, m.watermark_floor);
}

TEST(CheckpointStoreTest, FindsTheNewestValidManifestOfTheDomain) {
  CheckpointStore store;
  InstalledManifest found;
  EXPECT_FALSE(FindLatestValidManifest(store, kCkptLogDomain, &found));
  WriteImage(&store, kCkptLogDomain, 3, /*cut=*/100);
  CheckpointManifest kv = WriteImage(&store, kCkptKvDomain, 2, /*cut=*/50);
  CheckpointManifest newest = WriteImage(&store, kCkptLogDomain, 5, /*cut=*/200, 9);

  ASSERT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found));
  EXPECT_EQ(found.manifest.cut, newest.cut);
  EXPECT_EQ(found.manifest.frame_count, 5u);
  EXPECT_EQ(found.manifest.watermark_floor, 9u);

  // Domains are independent: the kv manifest is found even though a newer log one exists.
  InstalledManifest kv_found;
  ASSERT_TRUE(FindLatestValidManifest(store, kCkptKvDomain, &kv_found));
  EXPECT_EQ(kv_found.manifest.cut, kv.cut);

  int frames = 0;
  ReplayImage(store, found, [&](FrameType type, Cursor) {
    EXPECT_EQ(type, FrameType::kCkptRecord);
    ++frames;
  });
  EXPECT_EQ(frames, 5);
}

TEST(CheckpointStoreTest, CorruptNewestImageFallsBackToThePrevious) {
  CheckpointStore store;
  CheckpointManifest older = WriteImage(&store, kCkptLogDomain, 3, /*cut=*/100);
  CheckpointManifest newest = WriteImage(&store, kCkptLogDomain, 4, /*cut=*/200);

  // A latent media error inside the newest image region: the checksum must catch it and
  // recovery must fall back to the older manifest instead of installing garbage.
  store.CorruptDurableByteForTest(newest.image_start + kFrameHeaderBytes + 2);
  InstalledManifest found;
  int rejected = 0;
  ASSERT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found, &rejected));
  EXPECT_EQ(found.manifest.cut, older.cut);
  EXPECT_EQ(rejected, 1);
}

TEST(CheckpointStoreTest, EverySingleByteFlipIsRejectedAtEveryTailLength) {
  // The checksum runs over 64-bit words and falls back to bytes for the < 8-byte tail. Image
  // regions of 0 and 5..17 bytes (no frame, or one frame with a 0..12-byte payload) cover
  // every region length mod 8, so every tail length and every byte position within a word.
  for (uint64_t len = 0; len <= 17; ++len) {
    if (len > 0 && len < kFrameHeaderBytes) continue;  // No whole frame is that short.
    SCOPED_TRACE("image length " + std::to_string(len));
    CheckpointStore store;
    CheckpointManifest m;
    m.domain = kCkptLogDomain;
    m.image_start = store.tail();
    if (len > 0) {
      std::string payload;
      for (uint64_t i = 0; i < len - kFrameHeaderBytes; ++i) {
        payload.push_back(static_cast<char>(0x11 * (i + 1)));
      }
      store.AppendFrame(FrameType::kCkptRecord, payload);
      m.frame_count = 1;
    }
    store.Flush();
    ASSERT_EQ(store.tail() - m.image_start, len);
    m.checksum = ChecksumImage(store, m.image_start, store.tail());
    store.AppendFrame(FrameType::kCkptManifest, EncodeManifest(m));
    store.Flush();

    InstalledManifest found;
    ASSERT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found));
    for (uint64_t off = m.image_start; off < m.image_start + len; ++off) {
      store.CorruptDurableByteForTest(off);
      EXPECT_FALSE(FindLatestValidManifest(store, kCkptLogDomain, &found)) << "offset " << off;
      store.CorruptDurableByteForTest(off);  // Flip back: the image validates again.
      EXPECT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found)) << "offset " << off;
    }
  }
}

TEST(CheckpointStoreTest, ChecksumSeesEverySingleByteFlipOfShortRanges) {
  // Ranges of 1..17 bytes at every start phase within a word, including the 1..4-byte ranges
  // no whole image can have: every single-byte flip changes the checksum.
  CheckpointStore store;
  store.AppendFrame(FrameType::kCkptRecord, std::string(32, 'r'));
  store.Flush();
  for (uint64_t from = 0; from < 8; ++from) {
    for (uint64_t len = 1; len <= 17; ++len) {
      uint64_t clean = ChecksumImage(store, from, from + len);
      for (uint64_t off = from; off < from + len; ++off) {
        store.CorruptDurableByteForTest(off);
        EXPECT_NE(ChecksumImage(store, from, from + len), clean)
            << "range [" << from << ", " << from + len << ") flip at " << off;
        store.CorruptDurableByteForTest(off);
      }
    }
  }
}

TEST(CheckpointStoreTest, UnflushedManifestDiesWithTheVolatileTail) {
  CheckpointStore store;
  CheckpointManifest m;
  m.domain = kCkptLogDomain;
  m.image_start = store.tail();
  store.AppendFrame(FrameType::kCkptRecord, "xxxx");
  store.Flush();
  m.frame_count = 1;
  m.cut = 10;
  m.checksum = ChecksumImage(store, m.image_start, store.tail());
  store.AppendFrame(FrameType::kCkptManifest, EncodeManifest(m));
  store.DropVolatile();  // Crash before the manifest flush: the round never happened.

  InstalledManifest found;
  EXPECT_FALSE(FindLatestValidManifest(store, kCkptLogDomain, &found));
}

TEST(CheckpointStoreTest, TruncatedImageRegionIsRejected) {
  CheckpointStore store;
  WriteImage(&store, kCkptLogDomain, 3, /*cut=*/100);
  CheckpointManifest newest = WriteImage(&store, kCkptLogDomain, 4, /*cut=*/200);
  // Normal post-round housekeeping: release everything below the newest image.
  store.TruncatePrefix(newest.image_start);
  EXPECT_GT(store.device().stats().bytes_dropped, 0);

  InstalledManifest found;
  ASSERT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found));
  EXPECT_EQ(found.manifest.cut, newest.cut);

  // Now corrupt the only surviving image: the older manifest (and its region) went with the
  // truncated prefix, so recovery must report "no valid manifest" rather than resurrect a
  // truncated image — the one remaining candidate is rejected by its checksum.
  store.CorruptDurableByteForTest(newest.image_start + kFrameHeaderBytes + 1);
  int rejected = 0;
  EXPECT_FALSE(FindLatestValidManifest(store, kCkptLogDomain, &found, &rejected));
  EXPECT_EQ(rejected, 1);
}

TEST(DurabilityTruncationTest, TruncateToReleasesThePrefixAndCountsDroppedBytes) {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService service(&scheduler, &models, /*seed=*/1);
  // Enough frames to span several blocks so truncation genuinely frees device memory.
  std::string big(1024, 'x');
  uint64_t mid = 0;
  for (int i = 0; i < 64; ++i) {
    std::string payload;
    PutU64(&payload, static_cast<uint64_t>(i));
    PutStr(&payload, big);
    uint64_t end = service.AppendFrame(FrameType::kRecord, payload);
    if (i == 31) mid = end;
  }
  scheduler.Run();
  ASSERT_EQ(service.durable_offset(), service.tail_offset());
  uint64_t resident_before = service.device().resident_bytes();

  service.TruncateTo(mid);
  EXPECT_EQ(service.retained_offset(), mid);
  EXPECT_GT(service.stats().durable_bytes_dropped, 0);
  // The journal's device footprint actually shrank (the compaction satellite's core claim).
  EXPECT_LT(service.device().resident_bytes(), resident_before);
  EXPECT_EQ(service.stats().durable_bytes_dropped, service.device().stats().bytes_dropped);

  // Replay now starts at the truncation point: exactly the surviving frames remain.
  std::vector<uint64_t> seen;
  service.Replay([&](FrameType, Cursor cursor) { seen.push_back(cursor.U64()); });
  ASSERT_EQ(seen.size(), 32u);
  EXPECT_EQ(seen.front(), 32u);
  EXPECT_EQ(seen.back(), 63u);
}

TEST(CheckpointServiceTest, RoundWalksStampsTruncatesAndReportsStats) {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService journal(&scheduler, &models, /*seed=*/3);
  CheckpointStore store;
  CheckpointService service(&scheduler, &models, /*seed=*/3);

  // A toy target: "live state" is a vector of values; the journal holds their history.
  std::vector<uint64_t> live;
  for (uint64_t i = 0; i < 20; ++i) {
    std::string payload;
    PutU64(&payload, i);
    journal.NoteCommit(i + 1, journal.AppendFrame(FrameType::kRecord, payload));
    live.assign(1, i);  // Only the newest value is live.
  }
  scheduler.Run();

  size_t cursor = 0;
  service.AddTarget(CheckpointService::Target{
      .domain = kCkptLogDomain,
      .journal = &journal,
      .store = &store,
      .begin_walk = [&] { cursor = 0; },
      .write_slice =
          [&](CheckpointStore* s, int64_t budget, int64_t* frames) {
            for (int64_t used = 0; cursor < live.size(); ++used, ++cursor) {
              if (used >= budget) return false;
              std::string payload;
              PutU64(&payload, live[cursor]);
              s->AppendFrame(FrameType::kCkptRecord, payload);
              ++*frames;
            }
            return true;
          },
      .watermark_floor = [&] { return journal.durable_seq(); },
  });

  uint64_t journal_size_before = journal.device().resident_bytes();
  EXPECT_TRUE(service.TriggerRound());
  EXPECT_FALSE(service.TriggerRound());  // One round in flight at a time.
  EXPECT_LT(service.CheckpointBound(), ~0ull);  // GC fenced while the round walks.
  scheduler.Run();

  EXPECT_EQ(service.stats().rounds_completed, 1);
  EXPECT_EQ(service.stats().manifests_written, 1);
  EXPECT_EQ(service.stats().image_frames, 1);
  EXPECT_GT(service.stats().journal_bytes_truncated, 0);
  EXPECT_LE(journal.device().resident_bytes(), journal_size_before);
  EXPECT_GT(journal.retained_offset(), 0u);

  InstalledManifest found;
  ASSERT_TRUE(FindLatestValidManifest(store, kCkptLogDomain, &found));
  EXPECT_EQ(found.manifest.cut, journal.retained_offset());
  EXPECT_EQ(found.manifest.watermark_floor, 20u);
  EXPECT_EQ(service.CheckpointBound(), ~0ull);  // Idle again: GC unfenced.
}

TEST(CheckpointServiceTest, CrashProbeAbandonsTheRound) {
  sim::Scheduler scheduler;
  LatencyModels models;
  DurabilityService journal(&scheduler, &models, /*seed=*/5);
  CheckpointStore store;
  CheckpointService service(&scheduler, &models, /*seed=*/5);
  std::string payload;
  PutU64(&payload, 1);
  journal.NoteCommit(1, journal.AppendFrame(FrameType::kRecord, payload));
  scheduler.Run();

  service.AddTarget(CheckpointService::Target{
      .domain = kCkptLogDomain,
      .journal = &journal,
      .store = &store,
      .begin_walk = [] {},
      .write_slice =
          [&](CheckpointStore* s, int64_t, int64_t* frames) {
            s->AppendFrame(FrameType::kCkptRecord, "vv");
            ++*frames;
            return true;
          },
      .watermark_floor = [&] { return journal.durable_seq(); },
  });
  service.InstallCrashProbe([](const char* site) {
    return std::string_view(site) == "ckpt.write";
  });

  EXPECT_TRUE(service.TriggerRound());
  scheduler.Run();
  EXPECT_EQ(service.stats().rounds_abandoned, 1);
  EXPECT_EQ(service.stats().rounds_completed, 0);
  EXPECT_EQ(service.stats().manifests_written, 0);
  // The dead slice's bytes evaporated with the volatile tail: nothing durable, no manifest.
  EXPECT_EQ(store.durable(), 0u);
  EXPECT_EQ(journal.retained_offset(), 0u);  // And the journal was never truncated.

  // The next round (no probe hit) completes: abandonment is not sticky.
  service.InstallCrashProbe(nullptr);
  EXPECT_TRUE(service.TriggerRound());
  scheduler.Run();
  EXPECT_EQ(service.stats().rounds_completed, 1);
}

}  // namespace
}  // namespace halfmoon::storage
