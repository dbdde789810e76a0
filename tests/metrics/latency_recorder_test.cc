#include "src/metrics/latency_recorder.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/time.h"

namespace halfmoon::metrics {
namespace {

TEST(LatencyRecorderTest, EmptyRecorderReturnsZero) {
  LatencyRecorder rec;
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.Median(), 0);
  EXPECT_EQ(rec.P99(), 0);
}

TEST(LatencyRecorderTest, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(5));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(5));
  EXPECT_EQ(rec.Median(), Milliseconds(5));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(5));
}

TEST(LatencyRecorderTest, MedianOfKnownSequence) {
  LatencyRecorder rec;
  for (int i = 1; i <= 101; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.Median(), Milliseconds(51));
}

TEST(LatencyRecorderTest, P99OfKnownSequence) {
  LatencyRecorder rec;
  for (int i = 1; i <= 101; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.P99(), Milliseconds(100));
}

TEST(LatencyRecorderTest, PercentileIsOrderInsensitive) {
  LatencyRecorder a, b;
  for (int i = 1; i <= 100; ++i) a.Record(Milliseconds(i));
  for (int i = 100; i >= 1; --i) b.Record(Milliseconds(i));
  EXPECT_EQ(a.Median(), b.Median());
  EXPECT_EQ(a.P99(), b.P99());
}

TEST(LatencyRecorderTest, CeilRankNeverRoundsTailDown) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Record(Milliseconds(i));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(1));
  EXPECT_EQ(rec.Median(), Milliseconds(51));  // rank 49.5 → index 50.
  // rank 98.01 → index 99, the largest sample. llround rounded this down to 99ms.
  EXPECT_EQ(rec.P99(), Milliseconds(100));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(100));
}

TEST(LatencyRecorderTest, SmallSamplePercentiles) {
  LatencyRecorder rec;
  for (int v : {10, 20, 30, 40}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(10));
  EXPECT_EQ(rec.Median(), Milliseconds(30));  // rank 1.5 → index 2.
  EXPECT_EQ(rec.P99(), Milliseconds(40));     // rank 2.97 → index 3.
  EXPECT_EQ(rec.Percentile(100), Milliseconds(40));
}

TEST(LatencyRecorderTest, CachedSortStaysCorrectAcrossRecords) {
  // Percentile caches the sorted view; every Record must invalidate it.
  LatencyRecorder rec;
  rec.Record(Milliseconds(50));
  EXPECT_EQ(rec.Median(), Milliseconds(50));
  rec.Record(Milliseconds(10));
  rec.Record(Milliseconds(90));
  EXPECT_EQ(rec.Median(), Milliseconds(50));
  EXPECT_EQ(rec.Percentile(100), Milliseconds(90));
  rec.Record(Milliseconds(5));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(5));
}

TEST(LatencyRecorderTest, MeanMs) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(2));
  rec.Record(Milliseconds(4));
  EXPECT_DOUBLE_EQ(rec.MeanMs(), 3.0);
}

TEST(LatencyRecorderTest, ClearResets) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(1));
  rec.Clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.count(), 0u);
}

TEST(LatencyRecorderTest, MergeCombinesSampleSets) {
  // Per-shard recorders merged must equal one recorder that saw every sample.
  LatencyRecorder shard_a, shard_b, reference;
  for (int i = 1; i <= 50; ++i) {
    shard_a.Record(Milliseconds(i));
    reference.Record(Milliseconds(i));
  }
  for (int i = 51; i <= 101; ++i) {
    shard_b.Record(Milliseconds(i));
    reference.Record(Milliseconds(i));
  }
  shard_a.Merge(shard_b);
  EXPECT_EQ(shard_a.count(), reference.count());
  EXPECT_EQ(shard_a.Median(), reference.Median());
  EXPECT_EQ(shard_a.P99(), reference.P99());
  EXPECT_EQ(shard_a.Percentile(0), Milliseconds(1));
  EXPECT_EQ(shard_a.Percentile(100), Milliseconds(101));
  EXPECT_DOUBLE_EQ(shard_a.MeanMs(), reference.MeanMs());
}

TEST(LatencyRecorderTest, MergePercentilesInterleaveCorrectly) {
  // The merged distribution's percentiles must come from the union, not either input:
  // evens in one recorder, odds in the other; median of the union differs from both.
  LatencyRecorder evens, odds;
  for (int i = 2; i <= 200; i += 2) evens.Record(Milliseconds(i));
  for (int i = 1; i <= 199; i += 2) odds.Record(Milliseconds(i));
  SimDuration median_evens = evens.Median();
  evens.Merge(odds);
  EXPECT_EQ(evens.count(), 200u);
  EXPECT_EQ(evens.Median(), Milliseconds(101));  // rank 99.5 → index 100 of 1..200.
  EXPECT_NE(evens.Median(), median_evens);
  EXPECT_EQ(evens.P99(), Milliseconds(199));  // rank 197.01 → index 198 of 1..200.
}

TEST(LatencyRecorderTest, MergeInvalidatesCachedSort) {
  LatencyRecorder rec, other;
  rec.Record(Milliseconds(10));
  EXPECT_EQ(rec.Median(), Milliseconds(10));  // Builds the sorted cache.
  other.Record(Milliseconds(2));
  rec.Merge(other);
  EXPECT_EQ(rec.Percentile(0), Milliseconds(2));
}

TEST(LatencyRecorderTest, WarmCacheSurvivesEveryMergeShape) {
  // Merging into a recorder whose sorted cache is warm must never serve percentiles of the
  // pre-merge sample set, whatever the merge shape: plain fold, self-merge, and a fold into a
  // recorder that was cleared and refilled between percentile reads.
  LatencyRecorder rec, other;
  for (int v : {40, 10, 30, 20}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.P99(), Milliseconds(40));  // Warm cache at length 4.
  for (int v : {90, 60, 80, 70}) other.Record(Milliseconds(v));
  rec.Merge(other);
  EXPECT_EQ(rec.P99(), Milliseconds(90));
  EXPECT_EQ(rec.Median(), Milliseconds(60));  // rank 3.5 -> index 4 of 10..90.

  rec.Merge(rec);  // Self-merge with a warm cache: percentiles unchanged, count doubled.
  EXPECT_EQ(rec.count(), 16u);
  EXPECT_EQ(rec.Median(), Milliseconds(60));
  EXPECT_EQ(rec.P99(), Milliseconds(90));

  rec.Clear();
  for (int v : {3, 1, 2}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.Median(), Milliseconds(2));  // Warm again at length 3.
  LatencyRecorder low;
  for (int v : {5, 4, 6}) low.Record(Milliseconds(v));
  rec.Merge(low);
  EXPECT_EQ(rec.Percentile(100), Milliseconds(6));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(1));
}

TEST(LatencyRecorderTest, MergeEmptyAndSelf) {
  LatencyRecorder rec, empty;
  rec.Record(Milliseconds(7));
  rec.Merge(empty);  // No-op.
  EXPECT_EQ(rec.count(), 1u);
  empty.Merge(rec);
  EXPECT_EQ(empty.Median(), Milliseconds(7));
  rec.Merge(rec);  // Self-merge doubles the sample set.
  EXPECT_EQ(rec.count(), 2u);
  EXPECT_EQ(rec.Median(), Milliseconds(7));
}

TEST(LatencyRecorderTest, ClearThenRefillInvalidatesCache) {
  // Structural invalidation must survive Clear: after emptying both vectors, a refill to any
  // length (including the ORIGINAL length) rebuilds the sorted view from the new samples.
  LatencyRecorder rec;
  for (int v : {30, 10, 20}) rec.Record(Milliseconds(v));
  EXPECT_EQ(rec.Median(), Milliseconds(20));  // Builds the cache at length 3.
  rec.Clear();
  for (int v : {90, 70, 80}) rec.Record(Milliseconds(v));  // Length 3 again.
  EXPECT_EQ(rec.Median(), Milliseconds(80));
  EXPECT_EQ(rec.Percentile(0), Milliseconds(70));
}

TEST(LatencyRecorderTest, ThreadLocalRecordersFoldAfterJoin) {
  // The single-owner aggregation pattern: each worker thread records into its OWN recorder,
  // the main thread Merges after joining. The fold must equal one recorder that saw every
  // sample, regardless of how the OS interleaved the workers.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<LatencyRecorder> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &per_thread] {
      for (int i = 0; i < kPerThread; ++i) {
        per_thread[static_cast<size_t>(t)].Record(Milliseconds(t * kPerThread + i + 1));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LatencyRecorder merged, reference;
  for (const LatencyRecorder& rec : per_thread) merged.Merge(rec);
  for (int i = 1; i <= kThreads * kPerThread; ++i) reference.Record(Milliseconds(i));
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.Median(), reference.Median());
  EXPECT_EQ(merged.P99(), reference.P99());
  EXPECT_DOUBLE_EQ(merged.MeanMs(), reference.MeanMs());
}

TEST(LatencyRecorderTest, MillisecondHelpers) {
  LatencyRecorder rec;
  rec.Record(Milliseconds(10));
  EXPECT_DOUBLE_EQ(rec.MedianMs(), 10.0);
  EXPECT_DOUBLE_EQ(rec.P99Ms(), 10.0);
}

}  // namespace
}  // namespace halfmoon::metrics
