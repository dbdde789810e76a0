// Recovery-cost analysis (§7 "Recovery cost").
//
// SSF execution is modeled as a Bernoulli process: each attempt crashes with probability f
// and is re-executed. Halfmoon's asymmetric protocols optimize the failure-free path but must
// *replay* log-free operations during re-execution, while the symmetric protocol skips every
// logged operation. The paper's model predicts Halfmoon stays ahead as long as f is below its
// failure-free advantage (boundary f ≈ 30%, far above real failure rates).
//
// This harness sweeps f and reports median latency for Boki and both Halfmoon protocols on
// the balanced synthetic workload, plus the advantage of the best Halfmoon protocol.
//
// Part 2 measures whole-node recovery at scale (DESIGN.md §13): populate a durable cluster
// with 10^7 log records (scaled by HM_BENCH_SCALE), kill the storage tier, and wall-clock
// the journal replay that rebuilds the tag indices — the time-to-recover a restarted node
// pays before serving again. Results land in BENCH_recovery.json; the replay-throughput
// floor is enforced only on full-scale unsanitized runs (gate_enforced records which).
//
// Part 2 also records the process's peak RSS right after the 10^7-record replay: the
// durable journal lives once, on the simulated device, so the retained journal is paid for
// once in memory.
//
// Part 3 measures what incremental checkpointing (DESIGN.md §14) buys: a long-history /
// small-live-state workload (256 object streams trimmed to their last 32 records) swept over
// history length × checkpoint interval. Without checkpoints, time-to-recover grows with the
// full history; with them, recovery = newest image + the journal suffix above the cut, so
// TTR and the retained journal are bounded by live state + one interval, independent of how
// much history was ever appended. Gated (full-scale, unsanitized): ≥5x TTR advantage at
// 10^7 records, history-independent retained-journal size, and bounded image write overhead.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_space.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/workloads/loadgen.h"
#include "src/workloads/synthetic.h"

namespace halfmoon::bench {
namespace {

struct RunResult {
  double median_ms;
  double crashes_per_invocation;
};

RunResult RunAtFailureRate(core::ProtocolKind protocol, double attempt_failure_rate) {
  ExperimentOptions options;
  options.protocol = protocol;
  ExperimentWorld world(options);

  workloads::SyntheticConfig config;
  config.num_objects = 10000;
  config.value_bytes = 256;
  config.ops_per_request = 10;
  config.read_ratio = 0.5;
  workloads::SyntheticWorkload synthetic(&world.runtime(), config);
  synthetic.Setup();

  // Convert the per-attempt failure probability f into a per-crash-site probability. An
  // attempt passes ~2 crash sites per op plus the invoke path; calibrate against a quick dry
  // count: ~22 sites for 10 ops.
  constexpr double kSitesPerAttempt = 22.0;
  double per_site = attempt_failure_rate <= 0.0
                        ? 0.0
                        : 1.0 - std::pow(1.0 - attempt_failure_rate, 1.0 / kSitesPerAttempt);
  world.cluster().failure_injector().SetCrashProbability(per_site);

  workloads::LoadGenConfig load;
  load.requests_per_second = 50;
  load.warmup = Seconds(2);
  load.duration = Scaled(Seconds(10));
  workloads::LoadGenerator generator(
      &world.runtime(), load, [&synthetic]() {
        return std::make_pair(workloads::SyntheticWorkload::FunctionName(),
                              synthetic.NextInput());
      });
  generator.RunToCompletion();

  RunResult result;
  result.median_ms = generator.latency().MedianMs();
  result.crashes_per_invocation =
      static_cast<double>(world.runtime().stats().crashes) /
      static_cast<double>(world.runtime().stats().invocations);
  return result;
}

void RunSweep() {
  metrics::TablePrinter table({"failure_rate_f", "Boki_ms", "HM-read_ms", "HM-write_ms",
                               "best_HM_advantage", "crashes/inv(Boki)"});
  for (double f : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    RunResult boki = RunAtFailureRate(core::ProtocolKind::kBoki, f);
    RunResult hmr = RunAtFailureRate(core::ProtocolKind::kHalfmoonRead, f);
    RunResult hmw = RunAtFailureRate(core::ProtocolKind::kHalfmoonWrite, f);
    double best = std::min(hmr.median_ms, hmw.median_ms);
    double advantage = 100.0 * (1.0 - best / boki.median_ms);
    table.AddRow({Fmt(f, 1), Fmt(boki.median_ms, 1), Fmt(hmr.median_ms, 1),
                  Fmt(hmw.median_ms, 1), Fmt(advantage, 1) + "%",
                  Fmt(boki.crashes_per_invocation, 2)});
  }
  table.Print();
  std::printf("\n(the advantage shrinks as f grows: Halfmoon replays log-free operations on\n");
  std::printf(" re-execution while the symmetric protocol skips logged ones; the paper's\n");
  std::printf(" boundary model puts the break-even near f = 30%%, far beyond real rates)\n");
}

// ---- Part 2: whole-node recovery at scale (DESIGN.md §13) ----

struct RecoveryAtScale {
  int64_t records = 0;
  double populate_seconds = 0.0;
  double replay_seconds = 0.0;
  double replay_records_per_s = 0.0;
  double journal_mb = 0.0;
  double write_amplification = 0.0;
  double peak_rss_mb = 0.0;  // Process high-water mark once the replay finished.
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double WallSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

RecoveryAtScale RunRecoveryAtScale(int64_t records) {
  runtime::ClusterConfig ccfg;
  ccfg.function_nodes = 1;
  ccfg.workers_per_node = 1;
  ccfg.durable = true;
  runtime::Cluster cluster(ccfg);
  sharedlog::LogSpace& log = cluster.log_space();

  // A realistic record shape: one object tag out of a 256-stream keyspace, an op marker and
  // a step counter — ~90 journal bytes per record, the Table 1 microop ballpark.
  std::vector<sharedlog::TagId> tags;
  tags.reserve(256);
  for (int i = 0; i < 256; ++i) tags.push_back(log.tags().Intern("obj:" + std::to_string(i)));

  // Populate in batches, draining the scheduler between them so the group-flusher and the
  // WhenDurable-gated index propagation keep up instead of accumulating 10^7 callbacks.
  constexpr int64_t kBatch = 1 << 18;
  auto populate_start = std::chrono::steady_clock::now();
  for (int64_t done = 0; done < records;) {
    int64_t upto = std::min(records, done + kBatch);
    for (; done < upto; ++done) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", done);
      log.Append(cluster.scheduler().Now(),
                 std::vector<sharedlog::TagId>(1, tags[static_cast<size_t>(done & 255)]),
                 std::move(fields));
    }
    cluster.scheduler().Run();
  }
  RecoveryAtScale result;
  result.records = records;
  result.populate_seconds = WallSeconds(populate_start);

  const storage::DurabilityService& journal = *cluster.log_durability();
  HM_CHECK_MSG(journal.durable_offset() == journal.tail_offset(),
               "populate did not quiesce: unflushed journal tail");
  result.journal_mb = static_cast<double>(journal.durable_offset()) / 1e6;
  result.write_amplification = journal.WriteAmplification();

  size_t live_before = log.live_records();
  sharedlog::SeqNum next_before = log.next_seqnum();
  auto replay_start = std::chrono::steady_clock::now();
  cluster.KillRestartStorage();  // Wipes volatile state, replays both journals.
  result.replay_seconds = WallSeconds(replay_start);
  result.replay_records_per_s =
      static_cast<double>(records) / std::max(result.replay_seconds, 1e-9);

  HM_CHECK_MSG(log.live_records() == live_before, "replay lost records");
  HM_CHECK_MSG(log.next_seqnum() == next_before, "replay moved the seqnum allocator");
  result.peak_rss_mb = PeakRssMb();
  return result;
}

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

RecoveryAtScale RunRecoveryAtScaleSection() {
  double scale = BenchScale();
  int64_t records = std::max<int64_t>(20000, static_cast<int64_t>(1e7 * scale));
  RecoveryAtScale r = RunRecoveryAtScale(records);

  std::printf("  records:            %lld (10^7 x HM_BENCH_SCALE)\n",
              static_cast<long long>(r.records));
  std::printf("  journal size:       %.1f MB (write amplification %.2fx)\n", r.journal_mb,
              r.write_amplification);
  std::printf("  populate:           %.2f s wall\n", r.populate_seconds);
  std::printf("  time-to-recover:    %.3f s wall (%.0f records/s replayed)\n",
              r.replay_seconds, r.replay_records_per_s);
  std::printf("  peak RSS:           %.1f MB\n", r.peak_rss_mb);

  // The replay-throughput floor is a hard gate only where it is meaningful: full-scale
  // (smoke scales amortize nothing) and uninstrumented builds. The measured numbers are
  // recorded either way.
  const bool gate_enforced = !kSanitized && scale >= 1.0;
  if (gate_enforced) {
    HM_CHECK_MSG(r.replay_records_per_s >= 1e6,
                 "journal replay fell below the 1M records/s floor");
  }
  return r;
}

// ---- Part 3: checkpointed recovery — cost bounded by live state (DESIGN.md §14) ----

struct CheckpointRun {
  int64_t records = 0;
  int64_t interval = 0;  // Records between checkpoint rounds; 0 = checkpointing off.
  int64_t rounds = 0;
  double populate_seconds = 0.0;
  double replay_seconds = 0.0;
  double journal_appended_mb = 0.0;  // Everything ever journaled (history).
  double journal_retained_mb = 0.0;  // What survives compaction (live + one interval).
  double image_mb = 0.0;             // Checkpoint-store bytes written (write overhead).
  bool used_checkpoint = false;
  int64_t suffix_frames = 0;
};

// Long history, small live state: 256 object streams, each trimmed to its last 32 records
// as populate proceeds. `interval` > 0 triggers a checkpoint round (and drains it) every
// that many records — except at the very end, so recovery always pays an honest suffix.
CheckpointRun RunCheckpointedRecovery(int64_t records, int64_t interval) {
  runtime::ClusterConfig ccfg;
  ccfg.function_nodes = 1;
  ccfg.workers_per_node = 1;
  ccfg.durable = true;
  ccfg.checkpoint = interval > 0;
  ccfg.checkpoint_trigger_bytes = 0;  // Rounds driven by the record-count interval below.
  runtime::Cluster cluster(ccfg);
  sharedlog::LogSpace& log = cluster.log_space();

  constexpr int kStreams = 256;
  constexpr size_t kLivePerStream = 32;
  std::vector<sharedlog::TagId> tags;
  tags.reserve(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    tags.push_back(log.tags().Intern("obj:" + std::to_string(i)));
  }
  std::vector<std::deque<sharedlog::SeqNum>> rings(kStreams);

  constexpr int64_t kBatch = 1 << 18;
  // Drain boundaries must land on interval boundaries, or a sub-batch interval never gets
  // its round triggered.
  const int64_t batch = interval > 0 ? std::min(kBatch, interval) : kBatch;
  auto populate_start = std::chrono::steady_clock::now();
  CheckpointRun result;
  result.records = records;
  result.interval = interval;
  int64_t next_round = interval > 0 ? interval : records + 1;
  for (int64_t done = 0; done < records;) {
    int64_t upto = std::min(records, done + batch);
    for (; done < upto; ++done) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", done);
      size_t stream = static_cast<size_t>(done % kStreams);
      sharedlog::SeqNum seq =
          log.Append(cluster.scheduler().Now(),
                     std::vector<sharedlog::TagId>(1, tags[stream]), std::move(fields));
      rings[stream].push_back(seq);
    }
    cluster.scheduler().Run();
    // Trim each stream down to its live window. The trims are journaled too — full replay
    // still pays for the whole history; only compaction escapes it.
    for (size_t s = 0; s < rings.size(); ++s) {
      if (rings[s].size() <= kLivePerStream) continue;
      sharedlog::SeqNum trim_upto = 0;
      while (rings[s].size() > kLivePerStream) {
        trim_upto = rings[s].front();
        rings[s].pop_front();
      }
      log.Trim(cluster.scheduler().Now(), tags[s], trim_upto);
    }
    cluster.scheduler().Run();
    // A round per interval boundary, skipping the final one: a checkpoint taken at the exact
    // end would make the replay suffix empty and the comparison trivially flattering.
    while (done >= next_round && done < records) {
      result.rounds += cluster.checkpoint_service()->TriggerRound() ? 1 : 0;
      cluster.scheduler().Run();
      next_round += interval;
    }
  }
  result.populate_seconds = WallSeconds(populate_start);

  const storage::DurabilityService& journal = *cluster.log_durability();
  HM_CHECK_MSG(journal.durable_offset() == journal.tail_offset(),
               "populate did not quiesce: unflushed journal tail");
  result.journal_appended_mb = static_cast<double>(journal.stats().appended_bytes) / 1e6;
  result.journal_retained_mb =
      static_cast<double>(journal.durable_offset() - journal.retained_offset()) / 1e6;
  if (cluster.log_checkpoint_store() != nullptr) {
    result.image_mb = static_cast<double>(cluster.log_checkpoint_store()->tail()) / 1e6;
  }

  size_t live_before = log.live_records();
  sharedlog::SeqNum next_before = log.next_seqnum();
  auto replay_start = std::chrono::steady_clock::now();
  cluster.KillRestartStorage();
  result.replay_seconds = WallSeconds(replay_start);
  result.used_checkpoint = cluster.last_log_recovery().used_checkpoint;
  result.suffix_frames = cluster.last_log_recovery().suffix_frames;

  HM_CHECK_MSG(log.live_records() == live_before, "replay lost records");
  HM_CHECK_MSG(log.next_seqnum() == next_before, "replay moved the seqnum allocator");
  return result;
}

void RunCheckpointSweepSection(const RecoveryAtScale& part2) {
  double scale = BenchScale();
  auto scaled = [scale](double records) {
    return std::max<int64_t>(10000, static_cast<int64_t>(records * scale));
  };
  // History × interval: three history lengths with a fixed-interval checkpoint cadence plus
  // their no-checkpoint baselines, and a coarser cadence at the longest history. Recovery
  // cost without checkpoints tracks the history column; with them it tracks the interval.
  struct SweepPoint {
    int64_t records;
    int64_t interval;
  };
  const SweepPoint sweep[] = {
      {scaled(2.5e6), 0},           {scaled(2.5e6), scaled(1.25e6)},
      {scaled(5e6), 0},             {scaled(5e6), scaled(1.25e6)},
      {scaled(1e7), 0},             {scaled(1e7), scaled(2.5e6)},
      {scaled(1e7), scaled(1.25e6)},
  };

  metrics::TablePrinter table({"records", "ckpt_interval", "rounds", "TTR_s", "retained_MB",
                               "journal_MB", "image_MB", "suffix_frames"});
  std::vector<CheckpointRun> runs;
  for (const SweepPoint& point : sweep) {
    CheckpointRun r = RunCheckpointedRecovery(point.records, point.interval);
    // Hard-fail if the replay-suffix path silently degraded to a full replay (or vice
    // versa): the sweep's comparison is meaningless if both columns measure the same path.
    HM_CHECK_MSG(r.used_checkpoint == (point.interval > 0),
                 "recovery took the wrong path for this sweep point");
    table.AddRow({std::to_string(r.records),
                  r.interval == 0 ? "off" : std::to_string(r.interval),
                  std::to_string(r.rounds), Fmt(r.replay_seconds, 3),
                  Fmt(r.journal_retained_mb, 1), Fmt(r.journal_appended_mb, 1),
                  Fmt(r.image_mb, 1), std::to_string(r.suffix_frames)});
    runs.push_back(r);
  }
  table.Print();
  std::printf("\n(without checkpoints TTR and the retained journal track the records column;\n");
  std::printf(" with them both track live state + one interval — history-independent)\n");

  const CheckpointRun& full_off = runs[4];   // 10^7, no checkpoints.
  const CheckpointRun& full_on = runs[6];    // 10^7, fine cadence.
  const CheckpointRun& half_on = runs[3];    // 5x10^6, same cadence.
  double ttr_advantage = full_off.replay_seconds / std::max(full_on.replay_seconds, 1e-9);
  double retained_growth =
      full_on.journal_retained_mb / std::max(half_on.journal_retained_mb, 1e-9);
  double image_overhead =
      full_on.image_mb / std::max(full_on.journal_appended_mb, 1e-9);
  std::printf("  TTR advantage at 10^7:        %.1fx (gate: >= 5x)\n", ttr_advantage);
  std::printf("  retained growth 5e6 -> 1e7:   %.2fx (gate: < 1.5x, history-independent)\n",
              retained_growth);
  std::printf("  image write overhead:         %.3fx of journal bytes (gate: < 0.2x)\n",
              image_overhead);

  const bool gate_enforced = !kSanitized && scale >= 1.0;
  if (gate_enforced) {
    HM_CHECK_MSG(ttr_advantage >= 5.0,
                 "checkpointed recovery lost its 5x TTR advantage at 10^7 records");
    HM_CHECK_MSG(retained_growth < 1.5,
                 "retained journal grew with history despite checkpointing");
    HM_CHECK_MSG(image_overhead < 0.2, "checkpoint images cost too many extra write bytes");
  }

  FILE* json = std::fopen("BENCH_recovery.json", "w");
  HM_CHECK(json != nullptr);
  std::fprintf(json,
               "{\"bench\": \"recovery_at_scale\", \"records\": %lld,\n"
               " \"journal_mb\": %.1f, \"write_amplification\": %.3f,\n"
               " \"populate_seconds\": %.3f, \"replay_seconds\": %.3f,\n"
               " \"replay_records_per_s\": %.0f, \"peak_rss_mb\": %.1f,\n"
               " \"gate\": {\"replay_records_per_s_floor\": 1000000, \"gate_enforced\": %s},\n"
               " \"hardware\": {\"hardware_threads\": %u, \"compiler\": \"%s\"},\n"
               " \"checkpoint\": {\n"
               "  \"sweep\": [\n",
               static_cast<long long>(part2.records), part2.journal_mb,
               part2.write_amplification, part2.populate_seconds, part2.replay_seconds,
               part2.replay_records_per_s, part2.peak_rss_mb, gate_enforced ? "true" : "false",
               std::thread::hardware_concurrency(), __VERSION__);
  for (size_t i = 0; i < runs.size(); ++i) {
    const CheckpointRun& r = runs[i];
    std::fprintf(json,
                 "   {\"records\": %lld, \"interval\": %lld, \"rounds\": %lld,\n"
                 "    \"ttr_seconds\": %.3f, \"retained_mb\": %.1f, \"journal_mb\": %.1f,\n"
                 "    \"image_mb\": %.1f, \"suffix_frames\": %lld,"
                 " \"used_checkpoint\": %s}%s\n",
                 static_cast<long long>(r.records), static_cast<long long>(r.interval),
                 static_cast<long long>(r.rounds), r.replay_seconds, r.journal_retained_mb,
                 r.journal_appended_mb, r.image_mb, static_cast<long long>(r.suffix_frames),
                 r.used_checkpoint ? "true" : "false", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"ttr_advantage_at_1e7\": %.1f, \"retained_growth_5e6_to_1e7\": %.2f,\n"
               "  \"image_write_overhead\": %.3f,\n"
               "  \"gate\": {\"ttr_advantage_floor\": 5.0, \"retained_growth_ceiling\": 1.5,\n"
               "   \"image_overhead_ceiling\": 0.2, \"gate_enforced\": %s}}}\n",
               ttr_advantage, retained_growth, image_overhead,
               gate_enforced ? "true" : "false");
  std::fclose(json);
  std::printf("  wrote BENCH_recovery.json\n");
}

}  // namespace
}  // namespace halfmoon::bench

int main() {
  std::printf("== Recovery cost under crash-retry (Section 7) ==\n\n");
  halfmoon::bench::RunSweep();
  std::printf("\n== Whole-node recovery at scale (DESIGN.md S13) ==\n\n");
  halfmoon::bench::RecoveryAtScale part2 = halfmoon::bench::RunRecoveryAtScaleSection();
  std::printf("\n== Checkpointed recovery: cost bounded by live state (DESIGN.md S14) ==\n\n");
  halfmoon::bench::RunCheckpointSweepSection(part2);
  return 0;
}
