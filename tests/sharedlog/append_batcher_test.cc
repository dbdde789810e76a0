// Tests for node-local group commit (AppendBatcher): batched-vs-unbatched equivalence,
// in-round conflict resolution, window batching, and occupancy accounting.

#include "src/sharedlog/append_batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/scheduler.h"
#include "src/sim/service_station.h"

namespace halfmoon::sharedlog {
namespace {

// A mini-cluster of `nodes` LogClients sharing one LogSpace of `shards` shards, with group
// commit configurable per fixture. The scheduler is declared first so clients (and their
// batcher round loops) are destroyed before the scheduler tears down any still-suspended
// detached frames.
struct BatchFixture {
  explicit BatchFixture(AppendBatchConfig batch, int nodes = 2, uint64_t seed = 7,
                        uint32_t shards = 1)
      : rng(seed), space(shards) {
    for (int i = 0; i < nodes; ++i) {
      clients.push_back(std::make_unique<LogClient>(
          &scheduler, &rng, &models, &space, std::vector<sim::ServiceStation*>{}, nullptr,
          batch));
    }
  }

  sim::Scheduler scheduler;
  Rng rng;
  LatencyModels models;
  LogSpace space;
  std::vector<std::unique_ptr<LogClient>> clients;
};

FieldMap Payload(const std::string& value) {
  FieldMap f;
  f.SetStr("v", value);
  return f;
}

// ---- Randomized batched-vs-unbatched equivalence -------------------------------------------
//
// W workers across two nodes each run a per-worker-seeded random program of appends,
// cond-appends, and batched cond-appends against their own stream tag (single writer per
// cond stream: the expected offset is the worker's own success count, so every verdict is
// deterministic) plus a shared tag written by everyone. The batched and unbatched runs must
// produce identical per-worker record sequences, identical verdicts, and the same multiset
// of shared-tag payloads — only timing and seqnum assignment may differ.

struct WorkerTrace {
  std::vector<std::string> own_payloads;  // Payloads on the worker's stream, in order.
  std::vector<bool> verdicts;             // ok flag per cond-append issued.
};

struct RunResult {
  std::vector<WorkerTrace> workers;
  std::vector<std::string> shared_payloads_sorted;
  // Fingerprint of the full log content ordered by seqnum — used by the same-seed
  // determinism check, where even seqnum assignment must be identical.
  std::vector<std::string> log_by_seqnum;
  SimTime end_time = 0;
  int64_t append_rounds = 0;
  int64_t batched_requests = 0;
  int64_t rounds_overlapped = 0;
  int64_t max_inflight = 0;
};

sim::Task<void> WorkerProgram(LogClient* client, TagId own, TagId shared, uint64_t seed,
                              int ops, WorkerTrace* trace) {
  // The program is driven by a private rng keyed on the worker seed, so the op sequence is
  // identical across batched and unbatched runs regardless of timing.
  Rng program(seed);
  size_t own_len = 0;  // Successful records on `own` so far == next expected offset.
  for (int i = 0; i < ops; ++i) {
    std::string value = "w" + std::to_string(seed) + "." + std::to_string(i);
    switch (program.UniformInt(0, 2)) {
      case 0: {  // Unconditional append to own + shared stream.
        co_await client->Append(TwoTags(own, shared), Payload(value));
        trace->own_payloads.push_back(value);
        ++own_len;
        break;
      }
      case 1: {  // Single-writer cond-append: always lands at the expected offset.
        CondAppendResult r =
            co_await client->CondAppend(OneTag(own), Payload(value), own, own_len);
        trace->verdicts.push_back(r.ok);
        if (r.ok) {
          trace->own_payloads.push_back(value);
          ++own_len;
        }
        break;
      }
      default: {  // Batched cond-append: two records, atomic, consecutive offsets.
        std::vector<LogSpace::BatchEntry> batch(2);
        batch[0].tags = OneTag(own);
        batch[0].fields = Payload(value + "a");
        batch[1].tags = TwoTags(own, shared);
        batch[1].fields = Payload(value + "b");
        CondAppendResult r =
            co_await client->CondAppendBatch(std::move(batch), own, own_len);
        trace->verdicts.push_back(r.ok);
        if (r.ok) {
          trace->own_payloads.push_back(value + "a");
          trace->own_payloads.push_back(value + "b");
          own_len += 2;
        }
        break;
      }
    }
  }
}

RunResult RunWorkload(AppendBatchConfig batch, uint64_t seed, int workers_per_node,
                      int ops_per_worker, uint32_t shards = 1) {
  BatchFixture fx(batch, /*nodes=*/2, seed, shards);
  TagId shared = fx.space.tags().Intern("shared");
  int total_workers = 2 * workers_per_node;
  RunResult result;
  result.workers.resize(total_workers);
  for (int w = 0; w < total_workers; ++w) {
    TagId own = fx.space.tags().Intern("worker:" + std::to_string(w));
    fx.scheduler.Spawn(WorkerProgram(fx.clients[w % 2].get(), own, shared,
                                     /*seed=*/1000 + w, ops_per_worker,
                                     &result.workers[w]));
  }
  fx.scheduler.Run();
  for (const LogRecordPtr& record : fx.space.ReadStreamUpTo(shared, kMaxSeqNum)) {
    result.shared_payloads_sorted.push_back(record->fields.GetStr("v"));
  }
  std::sort(result.shared_payloads_sorted.begin(), result.shared_payloads_sorted.end());
  for (SeqNum s = 1; s < fx.space.next_seqnum(); ++s) {
    LogRecordPtr record = fx.space.Get(s);
    if (record != nullptr) result.log_by_seqnum.push_back(record->fields.GetStr("v"));
  }
  result.end_time = fx.scheduler.Now();
  for (const auto& client : fx.clients) {
    result.append_rounds += client->stats().append_rounds;
    result.batched_requests += client->stats().batched_requests;
    result.rounds_overlapped += client->stats().pipeline_rounds_overlapped;
    result.max_inflight =
        std::max(result.max_inflight, client->stats().pipeline_max_inflight);
  }
  return result;
}

TEST(AppendBatcherTest, BatchedMatchesUnbatchedContent) {
  // The 4-shard input runs both paths on a sharded log: per-shard batcher queues on one
  // side, the per-request round routed to the sequencing shard on the other.
  for (uint32_t shards : {1u, 4u}) {
    for (uint64_t seed : {1u, 13u, 977u}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + " seed " + std::to_string(seed));
      RunResult batched =
          RunWorkload(AppendBatchConfig{.enabled = true}, seed, /*workers_per_node=*/6,
                      /*ops_per_worker=*/12, shards);
      RunResult reference =
          RunWorkload(AppendBatchConfig{.enabled = false}, seed, /*workers_per_node=*/6,
                      /*ops_per_worker=*/12, shards);
      ASSERT_EQ(batched.workers.size(), reference.workers.size());
      for (size_t w = 0; w < batched.workers.size(); ++w) {
        EXPECT_EQ(batched.workers[w].own_payloads, reference.workers[w].own_payloads)
            << "worker " << w;
        EXPECT_EQ(batched.workers[w].verdicts, reference.workers[w].verdicts)
            << "worker " << w;
      }
      EXPECT_EQ(batched.shared_payloads_sorted, reference.shared_payloads_sorted);
      EXPECT_EQ(batched.log_by_seqnum.size(), reference.log_by_seqnum.size());
      // Batching actually kicked in: fewer sequencer rounds than requests.
      EXPECT_GT(batched.batched_requests, batched.append_rounds);
      EXPECT_EQ(reference.append_rounds, 0);
    }
  }
}

TEST(AppendBatcherTest, BatchedRunsAreBitIdenticalAcrossRepeats) {
  RunResult first = RunWorkload(AppendBatchConfig{.enabled = true}, 42, 4, 10);
  RunResult second = RunWorkload(AppendBatchConfig{.enabled = true}, 42, 4, 10);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.log_by_seqnum, second.log_by_seqnum);  // Same content at the same seqnums.
  EXPECT_EQ(first.append_rounds, second.append_rounds);
  EXPECT_EQ(first.batched_requests, second.batched_requests);
}

// Two cond-appends with the same condition landing in the same round: the round evaluates
// requests in submission order, so exactly the first wins and the loser's existing_seqnum
// names the winner's record — same outcome as two back-to-back unbatched rounds.
TEST(AppendBatcherTest, CondConflictWithinOneRound) {
  BatchFixture fx(AppendBatchConfig{.enabled = true, .window = Microseconds(50)},
                  /*nodes=*/1);
  TagId s = fx.space.tags().Intern("s");
  CondAppendResult first, second;
  auto submit = [](LogClient* client, TagId tag, CondAppendResult* out) -> sim::Task<void> {
    *out = co_await client->CondAppend(OneTag(tag), FieldMap(), tag, 0);
  };
  fx.scheduler.Spawn(submit(fx.clients[0].get(), s, &first));
  fx.scheduler.Spawn(submit(fx.clients[0].get(), s, &second));
  fx.scheduler.Run();
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.existing_seqnum, first.seqnum);
  const LogClientStats& stats = fx.clients[0]->stats();
  EXPECT_EQ(stats.append_rounds, 1);  // Both requests shared one sequencer round.
  EXPECT_EQ(stats.batched_requests, 2);
  EXPECT_EQ(stats.max_round_occupancy, 2);
  EXPECT_EQ(stats.cond_append_conflicts, 1);
  EXPECT_EQ(fx.space.live_records(), 1u);  // The losing append left no trace.
}

TEST(AppendBatcherTest, WindowCollectsStaggeredRequestsIntoOneRound) {
  BatchFixture fx(AppendBatchConfig{.enabled = true, .window = Microseconds(100)},
                  /*nodes=*/1);
  std::vector<SeqNum> seqnums(8, 0);
  auto submit = [](BatchFixture* fx, int i, SeqNum* out) -> sim::Task<void> {
    co_await fx->scheduler.Delay(Microseconds(i));  // Staggered arrivals inside the window.
    *out = co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
  };
  for (int i = 0; i < 8; ++i) fx.scheduler.Spawn(submit(&fx, i, &seqnums[i]));
  fx.scheduler.Run();
  const LogClientStats& stats = fx.clients[0]->stats();
  EXPECT_EQ(stats.append_rounds, 1);
  EXPECT_EQ(stats.batched_requests, 8);
  EXPECT_EQ(stats.max_round_occupancy, 8);
  // FIFO demux: consecutive seqnums in arrival order.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seqnums[i], seqnums[0] + static_cast<SeqNum>(i));
}

TEST(AppendBatcherTest, MaxBatchSplitsOversizedRounds) {
  BatchFixture fx(AppendBatchConfig{.enabled = true, .window = Microseconds(100),
                                    .max_batch = 4},
                  /*nodes=*/1);
  auto submit = [](BatchFixture* fx) -> sim::Task<void> {
    co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
  };
  for (int i = 0; i < 10; ++i) fx.scheduler.Spawn(submit(&fx));
  fx.scheduler.Run();
  const LogClientStats& stats = fx.clients[0]->stats();
  EXPECT_EQ(stats.batched_requests, 10);
  EXPECT_EQ(stats.max_round_occupancy, 4);
  EXPECT_GE(stats.append_rounds, 3);  // ceil(10 / 4)
}

// An isolated request must not pay for batching machinery: with window 0 and nothing else in
// flight, the batched append completes at exactly the unbatched append's calibrated time
// (same rng, same latency sample, same leg/service split).
TEST(AppendBatcherTest, IsolatedAppendKeepsUnbatchedLatency) {
  auto run_one = [](bool enabled) {
    BatchFixture fx(AppendBatchConfig{.enabled = enabled}, /*nodes=*/1, /*seed=*/5);
    auto submit = [](BatchFixture* fx) -> sim::Task<void> {
      co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
    };
    fx.scheduler.Spawn(submit(&fx));
    fx.scheduler.Run();
    return fx.scheduler.Now();
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

// ---- Pipelined group commit (DESIGN.md §12) -------------------------------------------------
//
// The pipelined engine keeps up to pipeline_depth sequencer rounds in flight but commits
// them strictly in departure order, so the protocol-visible outcome at any depth must be
// identical to depth 1's. The workload shape uses a small max_batch so the
// round-limited regime (more pending work than one round can carry) actually engages the
// pipeline.

TEST(AppendBatcherTest, PipelinedMatchesSerialContent) {
  for (uint64_t seed : {1u, 13u, 977u}) {
    RunResult serial = RunWorkload(AppendBatchConfig{.enabled = true, .max_batch = 4},
                                   seed, /*workers_per_node=*/8, /*ops_per_worker=*/12);
    for (int depth : {2, 4, 8}) {
      RunResult piped =
          RunWorkload(AppendBatchConfig{.enabled = true, .max_batch = 4,
                                        .pipeline_depth = depth},
                      seed, /*workers_per_node=*/8, /*ops_per_worker=*/12);
      SCOPED_TRACE("seed " + std::to_string(seed) + " depth " + std::to_string(depth));
      ASSERT_EQ(piped.workers.size(), serial.workers.size());
      for (size_t w = 0; w < piped.workers.size(); ++w) {
        EXPECT_EQ(piped.workers[w].own_payloads, serial.workers[w].own_payloads)
            << "worker " << w;
        EXPECT_EQ(piped.workers[w].verdicts, serial.workers[w].verdicts) << "worker " << w;
      }
      EXPECT_EQ(piped.shared_payloads_sorted, serial.shared_payloads_sorted);
      EXPECT_EQ(piped.log_by_seqnum.size(), serial.log_by_seqnum.size());
      // The pipeline actually engaged — rounds overlapped — and it bought simulated time.
      EXPECT_GT(piped.rounds_overlapped, 0);
      EXPECT_GE(piped.max_inflight, 2);
      EXPECT_LT(piped.end_time, serial.end_time);
    }
  }
}

TEST(AppendBatcherTest, PipelinedRunsAreBitIdenticalAcrossRepeats) {
  AppendBatchConfig cfg{.enabled = true, .max_batch = 4, .pipeline_depth = 4};
  RunResult first = RunWorkload(cfg, 42, 8, 10);
  RunResult second = RunWorkload(cfg, 42, 8, 10);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.log_by_seqnum, second.log_by_seqnum);  // Same content at the same seqnums.
  EXPECT_EQ(first.append_rounds, second.append_rounds);
  EXPECT_EQ(first.rounds_overlapped, second.rounds_overlapped);
}

// An explicitly-constructed depth-1 config and the default config are the same engine, bit
// for bit (the cluster-level golden pins in sharded_equivalence_test check depth 1 against
// the pre-pipelining capture).
TEST(AppendBatcherTest, DepthOneIsBitIdenticalToSerialEngine) {
  RunResult serial = RunWorkload(AppendBatchConfig{.enabled = true}, 7, 6, 12);
  RunResult depth1 =
      RunWorkload(AppendBatchConfig{.enabled = true, .pipeline_depth = 1}, 7, 6, 12);
  EXPECT_EQ(depth1.end_time, serial.end_time);
  EXPECT_EQ(depth1.log_by_seqnum, serial.log_by_seqnum);
  EXPECT_EQ(depth1.append_rounds, serial.append_rounds);
  EXPECT_EQ(depth1.rounds_overlapped, 0);
}

// Cond-conflict-heavy shape: many workers race cond-appends on ONE stream, retrying with an
// incremented offset after every conflict until each lands all its records. Which worker wins
// a given offset is timing-dependent (so it may differ across depths), but the protocol
// invariants may not: every offset gets exactly one record, every loser observed the winner,
// and the multiset of committed payloads is depth-invariant.
sim::Task<void> ContendingWorker(LogClient* client, TagId stream, uint64_t seed, int ops,
                                 int64_t* conflicts) {
  size_t believed_len = 0;
  for (int i = 0; i < ops; ++i) {
    std::string value = "c" + std::to_string(seed) + "." + std::to_string(i);
    for (;;) {
      CondAppendResult r =
          co_await client->CondAppend(OneTag(stream), Payload(value), stream, believed_len);
      if (r.ok) {
        ++believed_len;
        break;
      }
      ++*conflicts;
      ++believed_len;  // Someone else owns this offset; try the next one.
    }
  }
}

TEST(AppendBatcherTest, CondConflictHeavyShapeIsDepthInvariant) {
  auto run_at_depth = [](int depth) {
    BatchFixture fx(AppendBatchConfig{.enabled = true, .max_batch = 4,
                                      .pipeline_depth = depth},
                    /*nodes=*/2, /*seed=*/11);
    TagId stream = fx.space.tags().Intern("contended");
    int64_t conflicts = 0;
    for (int w = 0; w < 12; ++w) {
      fx.scheduler.Spawn(ContendingWorker(fx.clients[w % 2].get(), stream, 100 + w,
                                          /*ops=*/6, &conflicts));
    }
    fx.scheduler.Run();
    std::vector<std::string> payloads;
    for (const LogRecordPtr& record : fx.space.ReadStreamUpTo(stream, kMaxSeqNum)) {
      payloads.push_back(record->fields.GetStr("v"));
    }
    return std::make_pair(payloads, conflicts);
  };
  auto [serial_payloads, serial_conflicts] = run_at_depth(1);
  EXPECT_EQ(serial_payloads.size(), 12u * 6u);  // Every record landed exactly once.
  EXPECT_GT(serial_conflicts, 0);               // The shape is actually conflict-heavy.
  std::vector<std::string> serial_sorted = serial_payloads;
  std::sort(serial_sorted.begin(), serial_sorted.end());
  for (int depth : {2, 4, 8}) {
    auto [payloads, conflicts] = run_at_depth(depth);
    SCOPED_TRACE("depth " + std::to_string(depth));
    EXPECT_EQ(payloads.size(), 12u * 6u);
    EXPECT_GT(conflicts, 0);
    std::sort(payloads.begin(), payloads.end());
    EXPECT_EQ(payloads, serial_sorted);
  }
}

// With max_batch 1 every append is its own round, so a burst of simultaneous appends is the
// purest pipelining scenario: depth K should run ~K rounds concurrently and finish in ~1/K
// the serial time.
TEST(AppendBatcherTest, PipelineOverlapsRoundsAndShrinksMakespan) {
  auto run_at_depth = [](int depth) {
    BatchFixture fx(AppendBatchConfig{.enabled = true, .max_batch = 1,
                                      .pipeline_depth = depth, .adaptive = false},
                    /*nodes=*/1, /*seed=*/3);
    auto submit = [](BatchFixture* fx) -> sim::Task<void> {
      co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
    };
    for (int i = 0; i < 16; ++i) fx.scheduler.Spawn(submit(&fx));
    fx.scheduler.Run();
    return std::make_pair(fx.scheduler.Now(), fx.clients[0]->stats().pipeline_max_inflight);
  };
  auto [serial_time, serial_inflight] = run_at_depth(1);
  auto [piped_time, piped_inflight] = run_at_depth(4);
  EXPECT_EQ(serial_inflight, 1);  // Depth 1 never has two rounds airborne.
  EXPECT_EQ(piped_inflight, 4);
  // 16 rounds at depth 4 ≈ 4 serial "generations" plus skew: comfortably under half.
  EXPECT_LT(piped_time * 2, serial_time);
}

// The adaptive controller: a storm of small arrivals saturates the pipeline with
// under-filled rounds, so the window widens and the depth rises; once the storm passes,
// isolated appends shrink both back toward the configured floor.
TEST(AppendBatcherTest, AdaptiveControllerWidensUnderStormAndNarrowsWhenIdle) {
  BatchFixture fx(AppendBatchConfig{.enabled = true, .pipeline_depth = 4},
                  /*nodes=*/1, /*seed=*/9);
  // Open-loop burst: arrivals far outpace the round rate, so the queue holds several full
  // rounds (depth raises) and the drain tail departs under-filled with every slot busy
  // (window widens).
  auto storm = [](BatchFixture* fx, int i) -> sim::Task<void> {
    co_await fx->scheduler.Delay(Microseconds(i));
    co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
  };
  for (int i = 0; i < 400; ++i) fx.scheduler.Spawn(storm(&fx, i));
  auto tail = [](BatchFixture* fx, int i) -> sim::Task<void> {
    co_await fx->scheduler.Delay(Milliseconds(50 + 20 * i));  // Long-idle isolated appends.
    co_await fx->clients[0]->Append(OneTag("t"), FieldMap());
  };
  for (int i = 0; i < 8; ++i) fx.scheduler.Spawn(tail(&fx, i));
  fx.scheduler.Run();
  const LogClientStats& stats = fx.clients[0]->stats();
  EXPECT_GT(stats.ctrl_depth_raised, 0);
  EXPECT_GT(stats.ctrl_window_widened, 0);
  EXPECT_GT(stats.ctrl_window_narrowed, 0);
  EXPECT_GT(stats.ctrl_depth_lowered, 0);
  EXPECT_GT(stats.pipeline_rounds_overlapped, 0);
  // Fully decayed by the idle tail: the next isolated append pays no residual window.
  AppendBatcher* batcher = fx.clients[0]->batcher();
  ASSERT_NE(batcher, nullptr);
  EXPECT_EQ(batcher->effective_window(), 0);
  EXPECT_EQ(batcher->effective_depth(), 1);
}

}  // namespace
}  // namespace halfmoon::sharedlog
