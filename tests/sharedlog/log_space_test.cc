#include "src/sharedlog/log_space.h"

#include <algorithm>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/sharedlog/log_space.h"

namespace halfmoon::sharedlog {
namespace {

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  return f;
}

TEST(LogSpaceTest, AppendAssignsMonotonicSeqnums) {
  LogSpace log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("x", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("x", 1));
  SeqNum c = log.Append(0, OneTag("u"), Fields("x", 2));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(LogSpaceTest, SeqnumsStartAboveZero) {
  // Seqnum 0 is reserved as "before everything" (fresh objects carry version 0).
  LogSpace log;
  EXPECT_GT(log.Append(0, OneTag("t"), Fields("x", 0)), 0u);
}

TEST(LogSpaceTest, ReadPrevFindsLatestAtOrBefore) {
  LogSpace log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  log.Append(0, OneTag("t"), Fields("c", 0));

  auto at_b = log.ReadPrev("t", b);
  ASSERT_TRUE(at_b != nullptr);
  EXPECT_EQ(at_b->fields.GetStr("op"), "b");

  auto between = log.ReadPrev("t", b - 1);
  ASSERT_TRUE(between != nullptr);
  EXPECT_EQ(between->seqnum, a);

  EXPECT_EQ(log.ReadPrev("t", a - 1), nullptr);
  auto latest = log.ReadPrev("t", kMaxSeqNum);
  ASSERT_TRUE(latest != nullptr);
  EXPECT_EQ(latest->fields.GetStr("op"), "c");
}

TEST(LogSpaceTest, ReadPrevRespectsSubStreams) {
  LogSpace log;
  log.Append(0, OneTag("t1"), Fields("one", 0));
  log.Append(0, OneTag("t2"), Fields("two", 0));
  auto r = log.ReadPrev("t1", kMaxSeqNum);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->fields.GetStr("op"), "one");
  EXPECT_EQ(log.ReadPrev("t3", kMaxSeqNum), nullptr);
}

TEST(LogSpaceTest, ReadNextFindsEarliestAtOrAfter) {
  LogSpace log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  auto r = log.ReadNext("t", b);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->fields.GetStr("op"), "b");
  EXPECT_EQ(log.ReadNext("t", b + 1), nullptr);
}

TEST(LogSpaceTest, MultiTagRecordsAppearInAllStreams) {
  LogSpace log;
  SeqNum s = log.Append(0, TwoTags("step", "obj"), Fields("w", 1));
  EXPECT_EQ(log.ReadPrev("step", kMaxSeqNum)->seqnum, s);
  EXPECT_EQ(log.ReadPrev("obj", kMaxSeqNum)->seqnum, s);
}

TEST(LogSpaceTest, ReadStreamReturnsRecordsInOrder) {
  LogSpace log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  log.Append(0, OneTag("u"), Fields("skip", 0));
  log.Append(0, OneTag("t"), Fields("b", 1));
  std::vector<LogRecordPtr> stream = log.ReadStream("t");
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0]->fields.GetStr("op"), "a");
  EXPECT_EQ(stream[1]->fields.GetStr("op"), "b");
}

TEST(LogSpaceTest, TrimRemovesPrefixOfSubStream) {
  LogSpace log;
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 1));
  log.Trim(0, "t", a);
  EXPECT_EQ(log.ReadPrev("t", a), nullptr);
  EXPECT_EQ(log.ReadPrev("t", kMaxSeqNum)->seqnum, b);
  EXPECT_EQ(log.ReadStream("t").size(), 1u);
}

TEST(LogSpaceTest, TrimFreesStorageOnlyWhenAllTagsTrimmed) {
  LogSpace log;
  log.Append(0, TwoTags("a", "b"), Fields("w", 0));
  int64_t full = log.CurrentBytes();
  ASSERT_GT(full, 0);
  log.Trim(0, "a", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), full);  // Still referenced by "b".
  EXPECT_EQ(log.live_records(), 1u);
  log.Trim(0, "b", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), 0);
  EXPECT_EQ(log.live_records(), 0u);
}

TEST(LogSpaceTest, StreamLengthCountsTrimmedHistory) {
  // Logical offsets must be stable across trims (logCondAppend positions).
  LogSpace log;
  log.Append(0, OneTag("t"), Fields("a", 0));
  log.Append(0, OneTag("t"), Fields("b", 1));
  log.Trim(0, "t", kMaxSeqNum);
  EXPECT_EQ(log.StreamLength("t"), 2u);
}

TEST(LogSpaceTest, CondAppendSucceedsAtExpectedOffset) {
  LogSpace log;
  CondAppendResult r0 = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  EXPECT_TRUE(r0.ok);
  CondAppendResult r1 = log.CondAppend(0, OneTag("s"), Fields("read", 1), "s", 1);
  EXPECT_TRUE(r1.ok);
  EXPECT_GT(r1.seqnum, r0.seqnum);
}

TEST(LogSpaceTest, CondAppendConflictReturnsExistingRecord) {
  LogSpace log;
  CondAppendResult winner = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  CondAppendResult loser = log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  EXPECT_FALSE(loser.ok);
  EXPECT_EQ(loser.existing_seqnum, winner.seqnum);
  // The losing append left no trace.
  EXPECT_EQ(log.StreamLength("s"), 1u);
}

TEST(LogSpaceTest, CondAppendBatchCommitsConsecutively) {
  LogSpace log;
  TagId s = log.tags().Intern("s");
  TagId kx = log.tags().Intern("k:x");
  std::vector<LogSpace::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  CondAppendResult r = log.CondAppendBatch(0, std::move(batch), s, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(log.StreamLength("s"), 2u);
  auto commit = log.ReadPrev("k:x", kMaxSeqNum);
  ASSERT_TRUE(commit != nullptr);
  EXPECT_EQ(commit->seqnum, r.seqnum + 1);
}

TEST(LogSpaceTest, CondAppendBatchConflictIsAllOrNothing) {
  LogSpace log;
  log.CondAppend(0, OneTag("s"), Fields("init", 0), "s", 0);
  TagId s = log.tags().Find("s");
  TagId kx = log.tags().Intern("k:x");
  std::vector<LogSpace::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  CondAppendResult r = log.CondAppendBatch(0, std::move(batch), s, 0);  // Stale offset.
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(log.StreamLength("s"), 1u);
  EXPECT_EQ(log.ReadPrev("k:x", kMaxSeqNum), nullptr);
}

TEST(LogSpaceTest, FindFirstByStepHonorsStreamOrder) {
  LogSpace log;
  SeqNum first = log.Append(0, OneTag("s"), Fields("read", 3));
  log.Append(0, OneTag("s"), Fields("read", 3));  // A racing duplicate.
  auto r = log.FindFirstByStep("s", "read", 3);
  ASSERT_TRUE(r != nullptr);
  EXPECT_EQ(r->seqnum, first);
  EXPECT_EQ(log.FindFirstByStep("s", "read", 4), nullptr);
}

TEST(LogSpaceTest, StreamTagsWithPrefixEnumeratesLiveStreams) {
  LogSpace log;
  log.Append(0, OneTag("k:a"), Fields("w", 0));
  log.Append(0, OneTag("k:b"), Fields("w", 0));
  log.Append(0, OneTag("other"), Fields("w", 0));
  std::vector<std::string> tags = log.StreamTagsWithPrefix("k:");
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], "k:a");
  EXPECT_EQ(tags[1], "k:b");
  log.Trim(0, "k:a", kMaxSeqNum);
  EXPECT_EQ(log.StreamTagsWithPrefix("k:").size(), 1u);
}

TEST(LogSpaceTest, ReadsAliasTheStoredRecordWithoutCopying) {
  // Every read API must return a view of the one committed record, not a duplicate.
  LogSpace log;
  SeqNum s = log.Append(0, TwoTags("t", "u"), Fields("read", 5));
  LogRecordPtr stored = log.Get(s);
  ASSERT_TRUE(stored != nullptr);
  EXPECT_EQ(log.ReadPrev("t", kMaxSeqNum).get(), stored.get());
  EXPECT_EQ(log.ReadNext("u", 0).get(), stored.get());
  EXPECT_EQ(log.FindFirstByStep("t", "read", 5).get(), stored.get());
  std::vector<LogRecordPtr> stream = log.ReadStream("t");
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].get(), stored.get());
}

TEST(LogSpaceTest, TrimCompactsStreamIndexMemory) {
  // Regression: the old index kept every trimmed seqnum forever, so a long-lived stream's
  // index grew without bound. The compacted index must stay bounded by the live suffix.
  LogSpace log;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 10; ++i) {
      log.Append(0, OneTag("t"), Fields("w", cycle * 10 + i));
    }
    log.Trim(0, "t", kMaxSeqNum);
    EXPECT_EQ(log.IndexEntries(), 0u);
    EXPECT_EQ(log.live_records(), 0u);
    EXPECT_EQ(log.CurrentBytes(), 0);
  }
  // Logical offsets keep counting the full (trimmed) history.
  EXPECT_EQ(log.StreamLength("t"), 1000u);
}

TEST(LogSpaceTest, FullyTrimmedStreamsLeaveNoResidue) {
  // Regression for the fully-trimmed-stream leak: after every stream of a batch of objects
  // is trimmed, neither the record store, the per-tag indices, nor the live-tag set may
  // retain anything.
  LogSpace log;
  for (int i = 0; i < 50; ++i) {
    log.Append(0, OneTag("k:obj" + std::to_string(i)), Fields("w", i));
  }
  EXPECT_EQ(log.StreamTagsWithPrefix("k:").size(), 50u);
  for (int i = 0; i < 50; ++i) {
    log.Trim(0, "k:obj" + std::to_string(i), kMaxSeqNum);
  }
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.IndexEntries(), 0u);
  EXPECT_TRUE(log.StreamTagsWithPrefix("k:").empty());
}

TEST(LogSpaceTest, CondAppendOffsetsStayStableAfterCompaction) {
  // A trimmed prefix must not shift logCondAppend positions: the next logical offset is the
  // full-history length, and appends at stale offsets still conflict.
  LogSpace log;
  ASSERT_TRUE(log.CondAppend(0, OneTag("s"), Fields("a", 0), "s", 0).ok);
  ASSERT_TRUE(log.CondAppend(0, OneTag("s"), Fields("b", 1), "s", 1).ok);
  log.Trim(0, "s", kMaxSeqNum);
  ASSERT_EQ(log.StreamLength("s"), 2u);
  CondAppendResult next = log.CondAppend(0, OneTag("s"), Fields("c", 2), "s", 2);
  EXPECT_TRUE(next.ok);
  EXPECT_EQ(log.StreamLength("s"), 3u);
}

TEST(LogSpaceTest, CondAppendBatchThenPartialTrimReleasesRefs) {
  LogSpace log;
  TagId s = log.tags().Intern("s");
  std::vector<LogSpace::BatchEntry> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[static_cast<size_t>(i)].tags = OneTag(s);
    batch[static_cast<size_t>(i)].fields = Fields("w", i);
  }
  CondAppendResult r = log.CondAppendBatch(0, std::move(batch), s, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(log.live_records(), 3u);

  // Trim past the first two records of the batch: their storage is released, the survivor
  // stays readable, and FindFirstByStep only sees live records.
  log.Trim(0, s, r.seqnum + 1);
  EXPECT_EQ(log.live_records(), 1u);
  EXPECT_EQ(log.IndexEntries(), 1u);
  EXPECT_EQ(log.FindFirstByStep("s", "w", 0), nullptr);
  EXPECT_EQ(log.FindFirstByStep("s", "w", 1), nullptr);
  LogRecordPtr survivor = log.FindFirstByStep("s", "w", 2);
  ASSERT_TRUE(survivor != nullptr);
  EXPECT_EQ(survivor->seqnum, r.seqnum + 2);
  // A view handed out before the trim keeps the record alive independently of the store.
  LogRecordPtr held = log.Get(r.seqnum + 2);
  log.Trim(0, "s", kMaxSeqNum);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(held->fields.GetInt("step"), 2);
}

TEST(LogSpaceTest, CommitListenerFiresPerAppend) {
  LogSpace log;
  std::vector<SeqNum> seen;
  log.SetCommitListener([&](SeqNum s) { seen.push_back(s); });
  SeqNum a = log.Append(0, OneTag("t"), Fields("a", 0));
  SeqNum b = log.Append(0, OneTag("t"), Fields("b", 0));
  EXPECT_EQ(seen, (std::vector<SeqNum>{a, b}));
}

TEST(LogSpaceTest, CondAppendBatchMismatchLeavesNoTrace) {
  // The undo path of a failed batch must restore every observable structure: seqnum counter,
  // record store, stream indices, and the commit listener must stay silent.
  LogSpace log;
  TagId s = log.tags().Intern("s");
  TagId kx = log.tags().Intern("k:x");
  log.CondAppend(0, OneTag(s), Fields("init", 0), s, 0);
  SeqNum next_before = log.next_seqnum();
  size_t live_before = log.live_records();
  size_t index_before = log.IndexEntries();
  int64_t bytes_before = log.CurrentBytes();
  int listener_calls = 0;
  log.SetCommitListener([&](SeqNum) { ++listener_calls; });

  std::vector<LogSpace::BatchEntry> batch(2);
  batch[0].tags = OneTag(s);
  batch[0].fields = Fields("write-pre", 1);
  batch[1].tags = TwoTags(s, kx);
  batch[1].fields = Fields("write", 1);
  CondAppendResult r = log.CondAppendBatch(0, std::move(batch), s, /*cond_pos=*/0);

  EXPECT_FALSE(r.ok);
  EXPECT_EQ(log.next_seqnum(), next_before);
  EXPECT_EQ(log.live_records(), live_before);
  EXPECT_EQ(log.IndexEntries(), index_before);
  EXPECT_EQ(log.CurrentBytes(), bytes_before);
  EXPECT_EQ(listener_calls, 0);
}

TEST(LogSpaceTest, AppendGroupMixedVerdicts) {
  // One group-committed round carrying an unconditional request, a passing cond request, a
  // conflicting cond request, and a trailing unconditional one. Each request sees the stream
  // state left by its predecessors; the conflicting one leaves no trace; the listener fires
  // exactly once, with the round's last committed seqnum.
  LogSpace log;
  TagId s = log.tags().Intern("s");
  TagId t = log.tags().Intern("t");
  std::vector<SeqNum> listener_calls;
  log.SetCommitListener([&](SeqNum n) { listener_calls.push_back(n); });

  std::vector<LogSpace::GroupRequest> requests(4);
  requests[0].entries.push_back({OneTag(t), Fields("a", 0)});
  requests[1].entries.push_back({OneTag(s), Fields("b", 0)});
  requests[1].cond_tag = s;
  requests[1].cond_pos = 0;
  requests[2].entries.push_back({OneTag(s), Fields("c", 0)});
  requests[2].cond_tag = s;
  requests[2].cond_pos = 0;  // Stale: request 1 already took offset 0.
  requests[3].entries.push_back({TwoTags(s, t), Fields("d", 1)});

  std::vector<LogSpace::GroupVerdict> verdicts = log.AppendGroup(0, std::move(requests));
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_TRUE(verdicts[0].ok);
  EXPECT_TRUE(verdicts[1].ok);
  EXPECT_FALSE(verdicts[2].ok);
  EXPECT_EQ(verdicts[2].existing_seqnum, verdicts[1].seqnum);
  EXPECT_TRUE(verdicts[3].ok);
  // Committed seqnums are consecutive across the surviving requests.
  EXPECT_EQ(verdicts[1].seqnum, verdicts[0].seqnum + 1);
  EXPECT_EQ(verdicts[3].seqnum, verdicts[1].seqnum + 1);
  EXPECT_EQ(log.live_records(), 3u);
  EXPECT_EQ(log.StreamLength("s"), 2u);  // "b" and "d"; "c" left no trace.
  ASSERT_EQ(listener_calls.size(), 1u);
  EXPECT_EQ(listener_calls[0], verdicts[3].seqnum);
}

TEST(LogSpaceTest, AppendGroupAllConflictingKeepsListenerSilent) {
  LogSpace log;
  TagId s = log.tags().Intern("s");
  log.CondAppend(0, OneTag(s), Fields("init", 0), s, 0);
  int listener_calls = 0;
  log.SetCommitListener([&](SeqNum) { ++listener_calls; });
  std::vector<LogSpace::GroupRequest> requests(2);
  for (auto& request : requests) {
    request.entries.push_back({OneTag(s), Fields("x", 0)});
    request.cond_tag = s;
    request.cond_pos = 0;  // Both stale.
  }
  std::vector<LogSpace::GroupVerdict> verdicts = log.AppendGroup(0, std::move(requests));
  EXPECT_FALSE(verdicts[0].ok);
  EXPECT_FALSE(verdicts[1].ok);
  EXPECT_EQ(listener_calls, 0);
  EXPECT_EQ(log.live_records(), 1u);
}

TEST(LogSpaceTest, AppendGroupMultiEntryRequestCommitsAtomically) {
  // A request's entries are an atomic sub-group (the batched cond-append shape): on success
  // they take consecutive seqnums, on conflict none of them appear.
  LogSpace log;
  TagId s = log.tags().Intern("s");
  std::vector<LogSpace::GroupRequest> requests(2);
  requests[0].entries.push_back({OneTag(s), Fields("pre", 0)});
  requests[0].entries.push_back({OneTag(s), Fields("commit", 0)});
  requests[0].cond_tag = s;
  requests[0].cond_pos = 0;
  requests[1].entries.push_back({OneTag(s), Fields("pre", 1)});
  requests[1].entries.push_back({OneTag(s), Fields("commit", 1)});
  requests[1].cond_tag = s;
  requests[1].cond_pos = 0;  // Conflicts: request 0 grew the stream to length 2.
  std::vector<LogSpace::GroupVerdict> verdicts = log.AppendGroup(0, std::move(requests));
  EXPECT_TRUE(verdicts[0].ok);
  EXPECT_FALSE(verdicts[1].ok);
  EXPECT_EQ(verdicts[1].existing_seqnum, verdicts[0].seqnum);
  EXPECT_EQ(log.StreamLength("s"), 2u);
  EXPECT_EQ(log.live_records(), 2u);
}

TEST(LogSpaceTest, OpIdsAreInternedAndStamped) {
  // Protocol op names are pre-interned to the kOp* constants; Append stamps each record's
  // dense op id so FindFirstByStep scans with integer compares.
  LogSpace log;
  EXPECT_EQ(log.ops().Find("read"), kOpRead);
  EXPECT_EQ(log.ops().Find("write"), kOpWrite);
  EXPECT_EQ(log.ops().Find("invoke-pre"), kOpInvokePre);
  SeqNum s = log.Append(0, OneTag("t"), Fields("write", 3));
  EXPECT_EQ(log.Get(s)->op, kOpWrite);
  EXPECT_EQ(log.FindFirstByStep(log.tags().Find("t"), kOpWrite, 3)->seqnum, s);
  // A record without an "op" field carries the invalid id and never matches a step scan.
  FieldMap opless;
  opless.SetInt("step", 3);
  SeqNum u = log.Append(0, OneTag("u"), std::move(opless));
  EXPECT_EQ(log.Get(u)->op, kInvalidOpId);
  EXPECT_EQ(log.FindFirstByStep("u", "no-such-op", 3), nullptr);
}

TEST(LogSpaceTest, ByteAccountingMatchesRecordSizes) {
  LogSpace log;
  EXPECT_EQ(log.CurrentBytes(), 0);
  log.Append(0, OneTag("t"), Fields("a", 0));
  int64_t one = log.CurrentBytes();
  log.Append(0, OneTag("t"), Fields("a", 0));
  EXPECT_EQ(log.CurrentBytes(), 2 * one);
  log.Trim(0, "t", kMaxSeqNum);
  EXPECT_EQ(log.CurrentBytes(), 0);
}

// ---- Flat stream runs ----

TEST(LogSpaceTest, StreamTrimmedToEmptyHoldsNoIndexCapacity) {
  // IndexEntries counts live entries only; the capacity view also sees a buffer a fully
  // trimmed stream might keep (std::deque kept a node per stream, even when empty).
  LogSpace log;
  for (int i = 0; i < 100; ++i) log.Append(0, OneTag("t"), Fields("w", i));
  for (int i = 0; i < 20; ++i) log.Append(0, OneTag("k:obj" + std::to_string(i)), Fields("w", i));
  EXPECT_GE(log.IndexCapacity(), 120u);
  log.Trim(0, "t", kMaxSeqNum);
  for (int i = 0; i < 20; ++i) log.Trim(0, "k:obj" + std::to_string(i), kMaxSeqNum);
  EXPECT_EQ(log.IndexEntries(), 0u);
  EXPECT_EQ(log.IndexCapacity(), 0u);
}

TEST(LogSpaceTest, TrimToEmptyThenReappendContinuesOffsets) {
  LogSpace log;
  for (size_t pos = 0; pos < 5; ++pos) {
    ASSERT_TRUE(log.CondAppend(0, OneTag("s"), Fields("a", 0), "s", pos).ok);
  }
  EXPECT_EQ(log.Trim(0, "s", kMaxSeqNum), 5u);
  EXPECT_EQ(log.StreamLength("s"), 5u);
  EXPECT_EQ(log.IndexCapacity(), 0u);
  CondAppendResult at5 = log.CondAppend(0, OneTag("s"), Fields("b", 5), "s", 5);
  ASSERT_TRUE(at5.ok);
  CondAppendResult at6 = log.CondAppend(0, OneTag("s"), Fields("c", 6), "s", 6);
  ASSERT_TRUE(at6.ok);
  EXPECT_EQ(log.StreamLength("s"), 7u);
  // A stale offset in the re-appended suffix conflicts with its occupant.
  CondAppendResult stale = log.CondAppend(0, OneTag("s"), Fields("d", 5), "s", 5);
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.existing_seqnum, at5.seqnum);
  // A partial trim shifts nothing either.
  EXPECT_EQ(log.Trim(0, "s", at5.seqnum), 1u);
  EXPECT_EQ(log.StreamLength("s"), 7u);
  stale = log.CondAppend(0, OneTag("s"), Fields("d", 6), "s", 6);
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.existing_seqnum, at6.seqnum);
  EXPECT_TRUE(log.CondAppend(0, OneTag("s"), Fields("e", 7), "s", 7).ok);
  EXPECT_EQ(log.ReadPrev("s", kMaxSeqNum)->fields.GetStr("op"), "e");
  EXPECT_EQ(log.ReadNext("s", 0)->seqnum, at6.seqnum);
}

TEST(LogSpaceTest, FuzzyRestoreInsertsMidStreamAfterPartialTrim) {
  LogSpace log;
  TagId t = log.tags().Intern("t");
  for (SeqNum seqnum : {10, 20, 30, 40, 50, 60}) {
    log.RestoreRecord(0, seqnum, OneTag(t), Fields("w", static_cast<int64_t>(seqnum)),
                      /*fuzzy=*/true);
  }
  // Two pops leave a dead prefix in front of the live entries.
  EXPECT_EQ(log.Trim(0, t, 25), 2u);
  log.RestoreRecord(0, 35, OneTag(t), Fields("w", 35), /*fuzzy=*/true);
  log.RestoreRecord(0, 35, OneTag(t), Fields("w", 35), /*fuzzy=*/true);  // Absorbed: no-op.
  log.RestoreRecord(0, 55, OneTag(t), Fields("w", 55), /*fuzzy=*/true);
  std::vector<SeqNum> seqnums;
  for (const LogRecordPtr& record : log.ReadStream(t)) seqnums.push_back(record->seqnum);
  EXPECT_EQ(seqnums, (std::vector<SeqNum>{30, 35, 40, 50, 55, 60}));
  EXPECT_EQ(log.live_records(), 6u);
  EXPECT_EQ(log.StreamLength(t), 8u);  // base 2 + 6 live.
  EXPECT_EQ(log.ReadPrev(t, 36)->seqnum, 35u);
  EXPECT_EQ(log.ReadNext(t, 31)->seqnum, 35u);
  EXPECT_EQ(log.LatestSeqNoAtMost(t, 54), 50u);
  EXPECT_EQ(log.LatestSeqNoAtMost(t, 29), kInvalidSeqNum);  // Trimmed entries stay dead.
  EXPECT_EQ(log.Trim(0, t, 35), 2u);
  EXPECT_EQ(log.ReadNext(t, 0)->seqnum, 40u);
  EXPECT_EQ(log.Trim(0, t, kMaxSeqNum), 4u);
  EXPECT_EQ(log.live_records(), 0u);
  EXPECT_EQ(log.IndexCapacity(), 0u);
}

// Reference for LiveTagsWithPrefix: every interned name whose stream has a live record and
// which starts with `prefix`, in name order.
std::vector<std::string> NaiveLiveNames(const LogSpace& log, std::string_view prefix) {
  std::vector<std::string> names;
  for (TagId tag = 0; tag < log.tags().size(); ++tag) {
    const std::string& name = log.tags().Name(tag);
    if (name.starts_with(prefix) && !log.ReadStream(tag).empty()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void ExpectLiveTagsMatchNaive(const LogSpace& log, const std::string& when) {
  for (std::string_view prefix : {"", "k:", "k", "k:o", "x", "zz"}) {
    std::vector<std::string> naive = NaiveLiveNames(log, prefix);
    std::vector<std::string> by_id;
    for (TagId tag : log.LiveTagsWithPrefix(prefix)) by_id.push_back(log.tags().Name(tag));
    EXPECT_EQ(by_id, naive) << when << ", prefix \"" << prefix << "\"";
    EXPECT_EQ(log.StreamTagsWithPrefix(prefix), naive) << when << ", prefix \"" << prefix
                                                       << "\"";
  }
}

void RunLiveTagsTrimReappendCycle(LogSpace& log) {
  std::mt19937_64 rng(7);
  std::vector<TagId> tags;
  for (int i = 0; i < 40; ++i) {
    // Interning order differs from name order ("k:obj9" > "k:obj10").
    tags.push_back(log.tags().Intern("k:obj" + std::to_string((i * 17) % 40)));
  }
  for (const char* other : {"k", "kk:a", "x:1", "ssf.extra"}) {
    tags.push_back(log.tags().Intern(other));
  }
  auto append_some = [&] {
    for (int i = 0; i < 120; ++i) {
      TagId a = tags[rng() % tags.size()];
      TagId b = tags[rng() % tags.size()];
      log.Append(0, a == b ? OneTag(a) : TwoTags(a, b), Fields("w", i));
    }
  };
  append_some();
  ExpectLiveTagsMatchNaive(log, "after appends");
  // Partial trims, then every "k:" stream trimmed to empty (the other tags keep their
  // records alive through multi-tag references).
  for (TagId tag : tags) {
    if (rng() % 2 == 0) log.Trim(0, tag, log.next_seqnum() / 2);
  }
  ExpectLiveTagsMatchNaive(log, "after partial trims");
  for (TagId tag : log.LiveTagsWithPrefix("k:")) log.Trim(0, tag, kMaxSeqNum);
  EXPECT_TRUE(log.LiveTagsWithPrefix("k:").empty());
  ExpectLiveTagsMatchNaive(log, "after trim to empty");
  append_some();
  ExpectLiveTagsMatchNaive(log, "after re-append");
  for (TagId tag : tags) log.Trim(0, tag, kMaxSeqNum);
  ExpectLiveTagsMatchNaive(log, "after full trim");
  EXPECT_EQ(log.IndexCapacity(), 0u);
}

TEST(LogSpaceTest, LiveTagsMatchNaiveFilterAcrossTrimAndReappend) {
  LogSpace log;
  RunLiveTagsTrimReappendCycle(log);
}

TEST(LogSpaceTest, LiveTagsMatchNaiveFilterOnFourShards) {
  LogSpace log(4);
  std::vector<bool> owning(4, false);
  for (int i = 0; i < 40; ++i) {
    owning[log.ShardOfTag(log.tags().Intern("k:obj" + std::to_string(i)))] = true;
  }
  ASSERT_EQ(std::count(owning.begin(), owning.end(), true), 4) << "tags should span shards";
  RunLiveTagsTrimReappendCycle(log);
}

}  // namespace
}  // namespace halfmoon::sharedlog
