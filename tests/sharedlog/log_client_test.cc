#include "src/sharedlog/log_client.h"

#include <gtest/gtest.h>

#include "src/common/latency_model.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"

namespace halfmoon::sharedlog {
namespace {

struct ClientFixture {
  sim::Scheduler scheduler;
  Rng rng{7};
  LatencyModels models;
  LogSpace space;
  LogClient client{&scheduler, &rng, &models, &space, {}, nullptr};

  // Second client on another "node" sharing the space but with its own index replica.
  LogClient other{&scheduler, &rng, &models, &space, {}, nullptr};
};

FieldMap Fields(const std::string& op) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", 0);
  return f;
}

TEST(LogClientTest, AppendTakesCalibratedTime) {
  ClientFixture fx;
  SeqNum seq = 0;
  fx.scheduler.Spawn([](ClientFixture* fx, SeqNum* out) -> sim::Task<void> {
    *out = co_await fx->client.Append(OneTag("t"), Fields("a"));
  }(&fx, &seq));
  fx.scheduler.Run();
  EXPECT_GT(seq, 0u);
  // One append should take on the order of the calibrated 1.18 ms median.
  EXPECT_GT(fx.scheduler.Now(), Microseconds(300));
  EXPECT_LT(fx.scheduler.Now(), Milliseconds(10));
}

TEST(LogClientTest, AppenderIndexCoversItsOwnRecords) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    SeqNum seq = co_await fx->client.Append(OneTag("t"), Fields("a"));
    EXPECT_GE(fx->client.indexed_upto(), seq);
    EXPECT_LT(fx->other.indexed_upto(), seq);  // No propagation wired in this fixture.
  }(&fx));
  fx.scheduler.Run();
}

TEST(LogClientTest, CachedReadPrevIsFast) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    SeqNum seq = co_await fx->client.Append(OneTag("t"), Fields("a"));
    SimTime before = fx->scheduler.Now();
    auto rec = co_await fx->client.ReadPrev("t", seq);
    SimTime elapsed = fx->scheduler.Now() - before;
    EXPECT_TRUE(rec != nullptr);
    if (rec == nullptr) co_return;
    EXPECT_LT(elapsed, Milliseconds(2));  // Cached path, ~0.12 ms median.
  }(&fx));
  fx.scheduler.Run();
  EXPECT_EQ(fx.client.stats().read_prev_cached, 1);
  EXPECT_EQ(fx.client.stats().read_prev_uncached, 0);
}

TEST(LogClientTest, StaleReplicaTakesUncachedPathAndSyncs) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    SeqNum seq = co_await fx->client.Append(OneTag("t"), Fields("a"));
    // `other` has not heard about the record: its read must sync.
    auto rec = co_await fx->other.ReadPrev("t", seq);
    EXPECT_TRUE(rec != nullptr);
    if (rec == nullptr) co_return;
    EXPECT_EQ(rec->seqnum, seq);
    EXPECT_GE(fx->other.indexed_upto(), seq);
    // Second read of the same prefix is now cached.
    co_await fx->other.ReadPrev("t", seq);
  }(&fx));
  fx.scheduler.Run();
  EXPECT_EQ(fx.other.stats().read_prev_uncached, 1);
  EXPECT_EQ(fx.other.stats().read_prev_cached, 1);
}

TEST(LogClientTest, CondAppendDetectsStaleOffsets) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    CondAppendResult first = co_await fx->client.CondAppend(OneTag("s"), Fields("init"),
                                                            "s", 0);
    EXPECT_TRUE(first.ok);
    CondAppendResult second = co_await fx->other.CondAppend(OneTag("s"), Fields("init"),
                                                            "s", 0);
    EXPECT_FALSE(second.ok);
    EXPECT_EQ(second.existing_seqnum, first.seqnum);
  }(&fx));
  fx.scheduler.Run();
  EXPECT_EQ(fx.other.stats().cond_append_conflicts, 1);
}

TEST(LogClientTest, CondAppendBatchCostsOneRound) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    TagId s = fx->client.tags().Intern("s");
    TagId kx = fx->client.tags().Intern("k:x");
    std::vector<LogSpace::BatchEntry> batch(2);
    batch[0].tags = OneTag(s);
    batch[0].fields = Fields("write-pre");
    batch[1].tags = TwoTags(s, kx);
    batch[1].fields = Fields("write");
    SimTime before = fx->scheduler.Now();
    CondAppendResult r = co_await fx->client.CondAppendBatch(std::move(batch), s, 0);
    SimTime elapsed = fx->scheduler.Now() - before;
    EXPECT_TRUE(r.ok);
    EXPECT_LT(elapsed, Milliseconds(5));  // ~ one append latency, not two.
  }(&fx));
  fx.scheduler.Run();
  EXPECT_EQ(fx.client.stats().cond_appends, 2);  // Two records, one round.
}

TEST(LogClientTest, ReadStreamServesLocalIndexReplicaView) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    co_await fx->client.Append(OneTag("s"), Fields("a"));
    co_await fx->client.Append(OneTag("s"), Fields("b"));
    // The appender's replica covers its own records.
    std::vector<LogRecordPtr> own = co_await fx->client.ReadStream("s");
    EXPECT_EQ(own.size(), 2u);
    // A node whose replica has not caught up sees a (safe) prefix — here, nothing.
    std::vector<LogRecordPtr> stale = co_await fx->other.ReadStream("s");
    EXPECT_TRUE(stale.empty());
    // After the index propagates (modeled by AdvanceIndex), the stream is visible.
    fx->other.AdvanceIndex(fx->client.indexed_upto());
    std::vector<LogRecordPtr> fresh = co_await fx->other.ReadStream("s");
    EXPECT_EQ(fresh.size(), 2u);
  }(&fx));
  fx.scheduler.Run();
}

TEST(LogClientTest, TrimRemovesRecords) {
  ClientFixture fx;
  fx.scheduler.Spawn([](ClientFixture* fx) -> sim::Task<void> {
    co_await fx->client.Append(OneTag("s"), Fields("a"));
    co_await fx->client.Trim("s", kMaxSeqNum);
    std::vector<LogRecordPtr> stream = co_await fx->client.ReadStream("s");
    EXPECT_TRUE(stream.empty());
  }(&fx));
  fx.scheduler.Run();
  EXPECT_EQ(fx.client.stats().trims, 1);
}

// Fixture with the node-local payload cache on.
struct CachedClientFixture {
  sim::Scheduler scheduler;
  Rng rng{7};
  LatencyModels models;
  LogSpace log;
  LogClient client{&scheduler,
                   &rng,
                   &models,
                   &log,
                   {},
                   nullptr,
                   AppendBatchConfig{.enabled = false},
                   /*read_cache=*/true};
};

TEST(LogClientReadCacheTest, TrimDuringCacheHitDelayFailsClosed) {
  // Regression test for the stale-cache-across-Trim bug: a cache-hit ReadPrev validates,
  // suspends for its hit latency, and a Trim releases the cached record mid-delay. Serving
  // the cached payload would resurrect trimmed data; the read must fail closed (re-read,
  // which now finds nothing) and drop the entry.
  CachedClientFixture fx;
  TagId tag = fx.client.tags().Intern("t");
  SeqNum seq = 0;
  fx.scheduler.Spawn([](CachedClientFixture* fx, TagId tag, SeqNum* out) -> sim::Task<void> {
    *out = co_await fx->client.Append(std::vector<TagId>(1, tag), Fields("a"));
  }(&fx, tag, &seq));
  fx.scheduler.Run();
  ASSERT_GT(seq, 0u);  // The appended record is now cached (CacheCommitted).

  LogRecordPtr result;
  bool done = false;
  fx.scheduler.Spawn(
      [](CachedClientFixture* fx, TagId tag, SeqNum seq, LogRecordPtr* out,
         bool* done) -> sim::Task<void> {
        *out = co_await fx->client.ReadPrev(tag, seq);
        *done = true;
      }(&fx, tag, seq, &result, &done));
  // Fires while the read is suspended in the cache-hit delay (the trim is synchronous state
  // mutation, as when another node's GC scan releases the records).
  fx.scheduler.Post(SimDuration{0}, [&fx, tag, seq] {
    fx.log.Trim(fx.scheduler.Now(), tag, seq);
  });
  fx.scheduler.Run();

  EXPECT_TRUE(done);
  EXPECT_EQ(result, nullptr);  // Fail-closed: the trimmed payload is NOT served.
  EXPECT_EQ(fx.client.stats().cache_hits, 1);
  EXPECT_EQ(fx.client.stats().read_cache_stale_invalidations, 1);
}

TEST(LogClientReadCacheTest, UntrimmedCacheHitStillServesAndCountsNoInvalidation) {
  CachedClientFixture fx;
  TagId tag = fx.client.tags().Intern("t");
  fx.scheduler.Spawn([](CachedClientFixture* fx, TagId tag) -> sim::Task<void> {
    SeqNum seq = co_await fx->client.Append(std::vector<TagId>(1, tag), Fields("a"));
    LogRecordPtr record = co_await fx->client.ReadPrev(tag, seq);
    EXPECT_NE(record, nullptr);
    if (record == nullptr) co_return;
    EXPECT_EQ(record->seqnum, seq);
  }(&fx, tag));
  fx.scheduler.Run();
  EXPECT_EQ(fx.client.stats().cache_hits, 1);
  EXPECT_EQ(fx.client.stats().read_cache_stale_invalidations, 0);
}

TEST(LogClientReadCacheTest, OwnTrimEvictsTheCachedRecord) {
  // The client's own Trim drops its cache entry up front, so no stale validation is needed
  // on the next read.
  CachedClientFixture fx;
  TagId tag = fx.client.tags().Intern("t");
  fx.scheduler.Spawn([](CachedClientFixture* fx, TagId tag) -> sim::Task<void> {
    SeqNum seq = co_await fx->client.Append(std::vector<TagId>(1, tag), Fields("a"));
    co_await fx->client.Trim(tag, seq);
    LogRecordPtr record = co_await fx->client.ReadPrev(tag, seq);
    EXPECT_EQ(record, nullptr);
  }(&fx, tag));
  fx.scheduler.Run();
  EXPECT_EQ(fx.client.stats().cache_hits, 0);
  EXPECT_EQ(fx.client.stats().read_cache_stale_invalidations, 0);
}

}  // namespace
}  // namespace halfmoon::sharedlog
