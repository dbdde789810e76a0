// Table 1: latency of log, read, and write operations in Boki's infrastructure.
//
//            |   Log    |   Read   |  Write
//   median   |  1.18ms  |  1.88ms  |  2.47ms
//   99%-tile |  1.91ms  |  4.60ms  |  5.86ms
//
// This binary measures the same primitives against our substrates (shared-log append, raw DB
// read, conditional DB write) and prints the measured vs. paper quantiles. It also registers
// the primitives as google-benchmark manual-time benchmarks over simulated time.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/ssf_runtime.h"
#include "src/metrics/latency_recorder.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_client.h"

namespace halfmoon::bench {
namespace {

constexpr int kSamples = 20000;

struct MicroFixture {
  sim::Scheduler scheduler;
  Rng rng{1};
  LatencyModels models;
  sharedlog::LogSpace space;
  kvstore::KvState state;
  sharedlog::LogClient log{&scheduler, &rng, &models, &space, {}, nullptr};
  kvstore::KvClient kv{&scheduler, &rng, &models, &state, nullptr};
};

FieldMap RecordFields() {
  FieldMap f;
  f.SetStr("op", "bench");
  f.SetInt("step", 0);
  return f;
}

enum class MicroOp { kLogAppend, kLogReadPrevCached, kDbRead, kDbCondWrite, kDbPlainWrite };

// The node-local payload cache (ClusterConfig::log_read_cache) under the Halfmoon-read
// log-free read: repeated bounded logReadPrev of the same tag. The first read misses and
// populates; every following read is validated against the index replica and served from
// node memory. Uses the sharded-client constructor, the only one that takes the cache flag.
metrics::LatencyRecorder RunNodeCacheMicroOp(int count, sharedlog::LogClientStats* stats) {
  sim::Scheduler scheduler;
  Rng rng{1};
  LatencyModels models;
  sharedlog::LogSpace log_space;
  sharedlog::LogClient log{&scheduler,
                           &rng,
                           &models,
                           &log_space,
                           {},
                           nullptr,
                           sharedlog::AppendBatchConfig{.enabled = false},
                           /*read_cache=*/true};
  metrics::LatencyRecorder recorder;
  scheduler.Spawn([](sim::Scheduler* scheduler, sharedlog::LogClient* log, int count,
                     metrics::LatencyRecorder* rec) -> sim::Task<void> {
    sharedlog::SeqNum last = co_await log->Append(sharedlog::OneTag("t"), RecordFields());
    for (int i = 0; i < count; ++i) {
      SimTime before = scheduler->Now();
      co_await log->ReadPrev("t", last);
      rec->Record(scheduler->Now() - before);
    }
  }(&scheduler, &log, count, &recorder));
  scheduler.Run();
  if (stats != nullptr) {
    stats->read_record_shared += log.stats().read_record_shared;
    stats->read_record_copies += log.stats().read_record_copies;
    stats->cache_hits += log.stats().cache_hits;
    stats->cache_misses += log.stats().cache_misses;
    stats->reads_index_local += log.stats().reads_index_local;
    stats->reads_storage += log.stats().reads_storage;
  }
  return recorder;
}

// Runs `count` iterations of one primitive, recording per-op simulated latency. Log-client
// stats are accumulated into `stats` (zero-copy audit of the read path).
metrics::LatencyRecorder RunMicroOp(MicroOp op, int count, sharedlog::LogClientStats* stats) {
  MicroFixture fx;
  metrics::LatencyRecorder recorder;
  fx.scheduler.Spawn([](MicroFixture* fx, MicroOp op, int count,
                        metrics::LatencyRecorder* rec) -> sim::Task<void> {
    co_await fx->kv.Put("k", PadValue("v", 256));
    sharedlog::SeqNum last = co_await fx->log.Append(sharedlog::OneTag("t"), RecordFields());
    for (int i = 0; i < count; ++i) {
      SimTime before = fx->scheduler.Now();
      switch (op) {
        case MicroOp::kLogAppend:
          last = co_await fx->log.Append(sharedlog::OneTag("t"), RecordFields());
          break;
        case MicroOp::kLogReadPrevCached:
          co_await fx->log.ReadPrev("t", last);
          break;
        case MicroOp::kDbRead:
          co_await fx->kv.Get("k");
          break;
        case MicroOp::kDbCondWrite:
          co_await fx->kv.CondPut("k", PadValue("v", 256),
                                  kvstore::VersionTuple{static_cast<uint64_t>(i + 2), 0});
          break;
        case MicroOp::kDbPlainWrite:
          co_await fx->kv.Put("k", PadValue("v", 256));
          break;
      }
      rec->Record(fx->scheduler.Now() - before);
    }
  }(&fx, op, count, &recorder));
  fx.scheduler.Run();
  if (stats != nullptr) {
    stats->read_record_shared += fx.log.stats().read_record_shared;
    stats->read_record_copies += fx.log.stats().read_record_copies;
    stats->cache_hits += fx.log.stats().cache_hits;
    stats->cache_misses += fx.log.stats().cache_misses;
    stats->reads_index_local += fx.log.stats().reads_index_local;
    stats->reads_storage += fx.log.stats().reads_storage;
  }
  return recorder;
}

void PrintTable1() {
  std::printf("== Table 1: latency of log, read and write operations ==\n");
  std::printf("   (paper reference: log 1.18/1.91 ms, read 1.88/4.60 ms, write 2.47/5.86 ms;\n");
  std::printf("    logReadPrev cached 0.12/0.72 ms per Boki, cited in Section 4.1)\n\n");

  struct Row {
    const char* label;
    MicroOp op;
    double paper_median;
    double paper_p99;
  };
  const Row rows[] = {
      {"Log (append)", MicroOp::kLogAppend, 1.18, 1.91},
      {"Read (DynamoDB)", MicroOp::kDbRead, 1.88, 4.60},
      {"Write (DynamoDB cond.)", MicroOp::kDbCondWrite, 2.47, 5.86},
      {"logReadPrev (cached)", MicroOp::kLogReadPrevCached, 0.12, 0.72},
      {"Write (DynamoDB plain)", MicroOp::kDbPlainWrite, 2.20, 5.20},
  };

  metrics::TablePrinter table({"operation", "median_ms", "p99_ms", "paper_median_ms",
                               "paper_p99_ms"});
  sharedlog::LogClientStats log_stats;
  for (const Row& row : rows) {
    metrics::LatencyRecorder rec =
        RunMicroOp(row.op, static_cast<int>(kSamples * BenchScale()), &log_stats);
    table.AddRow({row.label, Fmt(rec.MedianMs()), Fmt(rec.P99Ms()), Fmt(row.paper_median),
                  Fmt(row.paper_p99)});
  }
  metrics::LatencyRecorder cache_rec =
      RunNodeCacheMicroOp(static_cast<int>(kSamples * BenchScale()), &log_stats);
  table.AddRow({"logReadPrev (node cache)", Fmt(cache_rec.MedianMs()), Fmt(cache_rec.P99Ms()),
                Fmt(0.12), Fmt(0.72)});
  table.Print();
  std::printf("\nzero-copy audit: read_record_shared=%lld read_record_copies=%lld\n",
              static_cast<long long>(log_stats.read_record_shared),
              static_cast<long long>(log_stats.read_record_copies));
  std::printf("read-path audit: index_local=%lld storage=%lld cache_hits=%lld"
              " cache_misses=%lld\n",
              static_cast<long long>(log_stats.reads_index_local),
              static_cast<long long>(log_stats.reads_storage),
              static_cast<long long>(log_stats.cache_hits),
              static_cast<long long>(log_stats.cache_misses));
  std::printf("\n");
}

// Logged-bytes-by-class audit: a small read-modify-write workload on a real cluster, one run
// per protocol, with committed bytes sliced by append class (class 0 = control records —
// init/invoke/switch; class 1+kind = that protocol's own records; see core::LogAppendClass).
// The §4.6 storage comparison between protocols is exactly the protocol-class column, and
// the slices must add up to the cluster's total appended bytes.
void PrintLoggedBytesAudit() {
  std::printf("== Logged bytes by append class (simulated, 6 counter increments) ==\n");
  metrics::TablePrinter table(
      {"protocol", "total_bytes", "control_bytes", "protocol_bytes", "protocol_share"});
  const core::ProtocolKind protocols[] = {
      core::ProtocolKind::kBoki,
      core::ProtocolKind::kHalfmoonRead,
      core::ProtocolKind::kHalfmoonWrite,
      core::ProtocolKind::kTransitional,
  };
  for (core::ProtocolKind protocol : protocols) {
    runtime::Cluster cluster{runtime::ClusterConfig{}};
    core::RuntimeConfig rcfg;
    rcfg.default_protocol = protocol;
    core::SsfRuntime runtime(&cluster, rcfg);
    runtime.PopulateObject("c", "0");
    runtime.RegisterFunction("inc", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value v = co_await ctx.Read("c");
      co_await ctx.Write("c", std::to_string(std::stoll(v) + 1));
      co_return v;
    });
    for (int i = 0; i < 6; ++i) {
      cluster.scheduler().Spawn([](core::SsfRuntime* rt) -> sim::Task<void> {
        co_await rt->InvokeSsf("inc", "");
      }(&runtime));
      cluster.scheduler().Run();
    }

    const int64_t total = cluster.TotalLoggedBytes();
    const int64_t control = cluster.TotalLoggedBytesByClass(0);
    const int64_t own = cluster.TotalLoggedBytesByClass(core::LogAppendClass(protocol));
    // Every byte must be attributed: control + the per-protocol classes cover the total.
    int64_t by_class = control;
    for (core::ProtocolKind k : protocols) {
      by_class += cluster.TotalLoggedBytesByClass(core::LogAppendClass(k));
    }
    HM_CHECK_MSG(by_class == total, "append-class slices do not sum to total logged bytes");
    table.AddRow({core::ProtocolName(protocol), std::to_string(total),
                  std::to_string(control), std::to_string(own),
                  Fmt(total > 0 ? static_cast<double>(own) / static_cast<double>(total)
                                : 0.0)});
  }
  table.Print();
  std::printf("\n");
}

// Group-commit pipeline audit: a concurrent append storm on a real cluster at pipeline
// depth 4, reported as the batching/pipelining counters next to the latency table — rounds
// departed, requests merged into them (batched_requests - append_rounds sequencer trips
// saved), the in-flight depth histogram, and the adaptive controller's decisions.
void PrintPipelineAudit() {
  std::printf("== Group-commit pipeline audit (128 appenders, depth 4) ==\n");
  runtime::ClusterConfig config;
  config.function_nodes = 1;
  config.seed = 1;
  config.append_batch_pipeline = 4;
  runtime::Cluster cluster(config);
  for (int w = 0; w < 128; ++w) {
    cluster.scheduler().Spawn([](runtime::Cluster* c, int w) -> sim::Task<void> {
      for (int i = 0; i < 16; ++i) {
        FieldMap fields;
        fields.SetStr("op", "bench");
        fields.SetInt("step", i);
        co_await c->node(0).log().Append(
            sharedlog::OneTag("w" + std::to_string(w)), std::move(fields));
      }
    }(&cluster, w));
  }
  cluster.scheduler().Run();
  const sharedlog::LogClientStats& stats = cluster.node(0).log().stats();
  const int64_t merged = stats.batched_requests - stats.append_rounds;
  const double occupancy = static_cast<double>(stats.batched_requests) /
                           static_cast<double>(std::max<int64_t>(1, stats.append_rounds));
  std::printf("rounds=%lld requests=%lld merged=%lld occupancy=%.2f max_round=%lld\n",
              static_cast<long long>(stats.append_rounds),
              static_cast<long long>(stats.batched_requests),
              static_cast<long long>(merged), occupancy,
              static_cast<long long>(stats.max_round_occupancy));
  std::printf("in-flight histogram (rounds departing at depth d):");
  for (int d = 1; d < sharedlog::LogClientStats::kPipelineHistBuckets; ++d) {
    if (stats.pipeline_inflight_hist[d] == 0) continue;
    std::printf(" d=%d:%lld", d, static_cast<long long>(stats.pipeline_inflight_hist[d]));
  }
  std::printf(" (max %lld, overlapped %lld)\n",
              static_cast<long long>(stats.pipeline_max_inflight),
              static_cast<long long>(stats.pipeline_rounds_overlapped));
  std::printf("controller: depth +%lld/-%lld, window widened %lld / narrowed %lld\n\n",
              static_cast<long long>(stats.ctrl_depth_raised),
              static_cast<long long>(stats.ctrl_depth_lowered),
              static_cast<long long>(stats.ctrl_window_widened),
              static_cast<long long>(stats.ctrl_window_narrowed));
  HM_CHECK_MSG(merged > 0, "no appends were merged into shared rounds");
  HM_CHECK_MSG(stats.pipeline_rounds_overlapped > 0, "depth-4 audit never overlapped rounds");
}

void BM_MicroOp(benchmark::State& state) {
  MicroFixture fx;
  auto op = static_cast<MicroOp>(state.range(0));
  // Setup outside the timed region.
  fx.scheduler.Spawn([](MicroFixture* fx) -> sim::Task<void> {
    co_await fx->kv.Put("k", PadValue("v", 256));
    co_await fx->log.Append(sharedlog::OneTag("t"), RecordFields());
  }(&fx));
  fx.scheduler.Run();

  uint64_t version = 2;
  for (auto _ : state) {
    SimTime before = fx.scheduler.Now();
    fx.scheduler.Spawn([](MicroFixture* fx, MicroOp op, uint64_t version) -> sim::Task<void> {
      switch (op) {
        case MicroOp::kLogAppend:
          co_await fx->log.Append(sharedlog::OneTag("t"), RecordFields());
          break;
        case MicroOp::kLogReadPrevCached:
          co_await fx->log.ReadPrev("t", fx->log.indexed_upto());
          break;
        case MicroOp::kDbRead:
          co_await fx->kv.Get("k");
          break;
        case MicroOp::kDbCondWrite:
          co_await fx->kv.CondPut("k", PadValue("v", 256),
                                  kvstore::VersionTuple{version, 0});
          break;
        case MicroOp::kDbPlainWrite:
          co_await fx->kv.Put("k", PadValue("v", 256));
          break;
      }
    }(&fx, op, version++));
    fx.scheduler.Run();
    state.SetIterationTime(ToSecondsDouble(fx.scheduler.Now() - before));
  }
}

}  // namespace
}  // namespace halfmoon::bench

BENCHMARK(halfmoon::bench::BM_MicroOp)
    ->ArgName("op")
    ->DenseRange(0, 4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  halfmoon::bench::PrintTable1();
  halfmoon::bench::PrintLoggedBytesAudit();
  halfmoon::bench::PrintPipelineAudit();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
