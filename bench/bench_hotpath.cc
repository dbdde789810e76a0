// Hot-path microbenchmark for the simulator's metadata path (see DESIGN.md "Performance
// architecture"): the zero-copy read path, the flat field map, interned TagIds, group commit,
// the timer wheel, sharding, pipelined rounds, the read cache, the incremental GC frontier,
// coalesced index propagation, and the online advisor.
//
// Every section that simulates runs a fixed shape on the constant ClusterConfig defaults, and
// HM_CHECKs its counters against recorded values: op counts, content checksums, scheduler
// events, sequencer rounds, cache hits. Those pins are machine- and environment-independent,
// so each win is gated exactly. Where a reference mode still lives in src/ (per-request
// appends, the binary-heap scheduler, per-commit propagation) — or a from-scratch scan can
// recompute an incremental answer (the GC frontier) — the section runs both and asserts
// identical results.
// Wall-clock rates are reported, never gated.
//
// Output: BENCH_hotpath.json in the working directory, plus a human-readable summary on
// stdout. HM_BENCH_SCALE scales the timed passes and iteration counts, never a pinned shape.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/core/advisor.h"
#include "src/core/online_advisor.h"
#include "src/metrics/workload_sketch.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_client.h"
#include "src/sharedlog/log_space.h"
#include "src/sharedlog/tag_registry.h"
#include "src/sim/scheduler.h"

namespace halfmoon::bench {
namespace {

using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Timed repetitions at this HM_BENCH_SCALE: `full` passes at scale 1, never fewer than one.
int Passes(int full, double scale) { return std::max(1, static_cast<int>(full * scale)); }

// The cluster every simulated section runs on: the ClusterConfig defaults at `nodes`
// function nodes.
runtime::ClusterConfig PinnedConfig(int nodes) {
  runtime::ClusterConfig config;
  config.function_nodes = nodes;
  config.seed = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Struct workload: the append/read/trim cycle driven straight against a LogSpace.
// ---------------------------------------------------------------------------

struct WorkloadShape {
  int rounds = 8;
  int appends_per_round = 1024;
  int read_reps = 6;      // ReadStream sweeps per instance per round.
  int instances = 16;     // Step-log streams.
  int objects = 64;       // Per-object write-log streams ("k:...").
  size_t value_bytes = 256;
};

// The log-heavy shape: metadata-only records (value_bytes = 0 — Halfmoon's log records carry
// op/step metadata, values live in the KV store), few stream sweeps, and a wide tag universe
// so per-op tag handling dominates.
WorkloadShape LogHeavyShape() {
  WorkloadShape shape;
  shape.rounds = 6;
  shape.appends_per_round = 8192;
  shape.read_reps = 4;
  shape.instances = 256;
  shape.objects = 4096;
  shape.value_bytes = 0;
  return shape;
}

struct WorkloadResult {
  uint64_t ops = 0;        // Simulated log operations (appends + reads + trims + scans).
  uint64_t checksum = 0;   // Fold of observed data; defeats dead-code elimination.
  double seconds = 0.0;
};

// Identities the runtime would hand the log: an instance id and an object key. Names use
// realistic lengths — instance ids are invocation UUIDs and object keys are composite
// ("table/partition/object") in real deployments, not three-byte labels.
std::vector<std::string> InstanceNames(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "ssf-instance-%08x-4242-attempt-0", i * 2654435761u);
    out.push_back(buf);
  }
  return out;
}
std::vector<std::string> ObjectKeys(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "app/table-%d/partition-%03d/object-%06d", i % 8, i % 64, i);
    out.push_back(buf);
  }
  return out;
}

// Step tags interned once per instance (as Env::step_tag does) and object tags resolved by
// the two-part InternPrefixed hit path (as Env::WriteTag does) — one hash of the key bytes,
// no string building, vector-indexed streams. The per-object version index (Halfmoon's
// per-key version list in the KV store) is keyed by TagId.
class LogWorkload {
 public:
  explicit LogWorkload(const WorkloadShape& shape)
      : keys_(ObjectKeys(shape.objects)), has_value_(shape.value_bytes > 0) {
    for (const std::string& name : InstanceNames(shape.instances)) {
      step_tags_.push_back(space_.tags().Intern(name));
    }
  }

  void Append(int instance, int object, int64_t step, size_t value_bytes) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", step);
    if (value_bytes > 0) fields.SetStr("value", PadValue("x", value_bytes));
    TagId obj = ObjTag(object);
    last_ = space_.Append(0, sharedlog::TwoTags(step_tags_[instance], obj), std::move(fields));
    // PutVersioned: record the write in the version index (flat, indexed by dense TagId —
    // mirrors KvState::versioned_).
    if (obj >= versions_.size()) versions_.resize(obj + 1);
    versions_[obj].push_back(last_);
  }
  uint64_t ReadStreamBytes(int instance) {
    uint64_t bytes = 0;
    for (const LogRecordPtr& record : space_.ReadStream(step_tags_[instance])) {
      bytes += has_value_ ? record->fields.GetStr("value").size()
                          : static_cast<uint64_t>(record->fields.GetInt("step"));
    }
    return bytes;
  }
  uint64_t ReadPrevSeq(int object) {
    TagId obj = ObjTag(object);
    uint64_t latest = 0;  // GetVersioned's index lookup: one bounds-checked vector access.
    if (obj < versions_.size() && !versions_[obj].empty()) latest = versions_[obj].back();
    LogRecordPtr record = space_.ReadPrev(obj, last_);
    return (record != nullptr ? record->seqnum : 0) + latest;
  }
  uint64_t FindFirstSeq(int instance, int64_t step) {
    LogRecordPtr record = space_.FindFirstByStep(step_tags_[instance], "write", step);
    return record != nullptr ? record->seqnum : 0;
  }
  uint64_t PrefixScanCount() { return space_.LiveTagsWithPrefix("k:").size(); }
  void TrimObjectHalf(int object) {
    TagId tag = ObjTag(object);
    LogRecordPtr latest = space_.ReadPrev(tag, last_);
    if (latest != nullptr && latest->seqnum > 0) space_.Trim(0, tag, latest->seqnum - 1);
    if (tag < versions_.size()) {
      std::vector<SeqNum>& versions = versions_[tag];  // GC drops superseded versions.
      if (versions.size() > 1) versions.erase(versions.begin(), versions.end() - 1);
    }
  }

 private:
  TagId ObjTag(int object) { return space_.tags().InternPrefixed("k:", keys_[object]); }
  sharedlog::LogSpace space_;
  std::vector<TagId> step_tags_;
  std::vector<std::string> keys_;
  std::vector<std::vector<SeqNum>> versions_;  // Flat, indexed by dense TagId.
  SeqNum last_ = 0;
  bool has_value_ = true;
};

// One pass of the append/read/trim cycle on a fresh LogWorkload.
WorkloadResult RunLogWorkload(const WorkloadShape& shape) {
  LogWorkload impl(shape);
  WorkloadResult out;
  auto start = std::chrono::steady_clock::now();
  int64_t step = 0;
  for (int round = 0; round < shape.rounds; ++round) {
    for (int i = 0; i < shape.appends_per_round; ++i) {
      int instance = i % shape.instances;
      int object = i % shape.objects;
      impl.Append(instance, object, step++, shape.value_bytes);
      ++out.ops;
    }
    for (int rep = 0; rep < shape.read_reps; ++rep) {
      for (int instance = 0; instance < shape.instances; instance += 16) {
        out.checksum += impl.ReadStreamBytes(instance);
        ++out.ops;
      }
      for (int object = 0; object < shape.objects; ++object) {
        out.checksum += impl.ReadPrevSeq(object);
        ++out.ops;
      }
    }
    for (int instance = 0; instance < shape.instances; instance += 8) {
      out.checksum += impl.FindFirstSeq(instance, step - 1 - instance);
      ++out.ops;
    }
    out.checksum += impl.PrefixScanCount();
    ++out.ops;
    // GC pass: trim everything but the last round's suffix from the object streams, and the
    // step streams entirely (retired instances re-register next round).
    if (round % 2 == 1) {
      for (int object = 0; object < shape.objects; ++object) {
        impl.TrimObjectHalf(object);
        ++out.ops;
      }
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

// Best-of-N wall clock; every pass must observe identical data.
WorkloadResult BestOfLogWorkload(int passes, const WorkloadShape& shape) {
  WorkloadResult best = RunLogWorkload(shape);
  for (int pass = 1; pass < passes; ++pass) {
    WorkloadResult next = RunLogWorkload(shape);
    HM_CHECK_MSG(next.ops == best.ops && next.checksum == best.checksum,
                 "workload passes observed different data");
    if (next.seconds < best.seconds) best = next;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Tag-intern micro-section: resolving "k:<key>" per operation by building the string and
// hashing it against a string-keyed map vs the two-part InternPrefixed hit path.
// ---------------------------------------------------------------------------

struct TagInternResult {
  double string_ns = 0.0;
  double interned_ns = 0.0;
  int64_t intern_requests = 0;
  size_t distinct_tags = 0;
  uint64_t checksum = 0;
};

TagInternResult RunTagInternMicro(uint64_t iters) {
  TagInternResult out;
  std::vector<std::string> keys = ObjectKeys(256);

  // String path: "k:" + key materialized and byte-hashed every time.
  std::unordered_map<std::string, uint64_t> string_ids;
  for (size_t i = 0; i < keys.size(); ++i) string_ids.emplace("k:" + keys[i], i);
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    out.checksum += string_ids.find("k:" + keys[i % keys.size()])->second;
  }
  out.string_ns = SecondsSince(start) * 1e9 / static_cast<double>(iters);

  // Interned path: hash the key bytes behind a constant prefix; no allocation on hits.
  sharedlog::TagRegistry registry;
  for (const std::string& key : keys) registry.InternPrefixed("k:", key);
  uint64_t base = out.checksum;
  start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    out.checksum += registry.InternPrefixed("k:", keys[i % keys.size()]);
  }
  out.interned_ns = SecondsSince(start) * 1e9 / static_cast<double>(iters);
  HM_CHECK_MSG(out.checksum - base == base, "intern hit path resolved different ids");

  out.intern_requests = registry.intern_requests();
  out.distinct_tags = registry.size();
  // At-most-once materialization: millions of requests, a fixed number of distinct names.
  HM_CHECK(out.intern_requests == static_cast<int64_t>(iters + keys.size()));
  HM_CHECK(out.distinct_tags == keys.size());
  return out;
}

// ---------------------------------------------------------------------------
// Frontier micro-section: the O(1) incremental RunningFrontier() vs the from-scratch init
// stream scan it replaced. The scan must walk every finished-but-untrimmed init record.
// ---------------------------------------------------------------------------

struct FrontierResult {
  double scan_ns = 0.0;
  double incremental_ns = 0.0;
  size_t live_inits = 0;
  uint64_t checksum = 0;
};

FrontierResult RunFrontierMicro(uint64_t iters) {
  FrontierResult out;
  runtime::Cluster cluster(PinnedConfig(1));
  std::unordered_set<std::string> finished;

  // 1024 instances on the init stream; the oldest 768 finished but not yet GC-trimmed —
  // exactly the window a from-scratch scan has to wade through on every GC/switch query.
  constexpr int kInstances = 1024;
  constexpr int kFinished = 768;
  for (int i = 0; i < kInstances; ++i) {
    std::string instance = "inst-" + std::to_string(i);
    FieldMap fields;
    fields.SetStr("op", "init");
    fields.SetInt("step", 0);
    fields.SetStr("instance", instance);
    TagId step_tag = cluster.log_space().tags().Intern(instance);
    SeqNum seqnum = cluster.log_space().Append(
        0, sharedlog::TwoTags(step_tag, sharedlog::kInitTagId), std::move(fields));
    cluster.RegisterInitRecord(instance, seqnum);
    if (i < kFinished) {
      cluster.MarkInstanceFinished(instance);
      finished.insert(instance);
    }
  }
  out.live_inits = kInstances;

  // From-scratch scan of the init stream: the reference answer.
  auto scan = [&]() -> SeqNum {
    for (const auto& record : cluster.log_space().ReadStream(sharedlog::kInitTagId)) {
      if (finished.count(record->fields.GetStr("instance")) == 0) return record->seqnum;
    }
    return cluster.log_space().next_seqnum();
  };

  uint64_t scan_iters = iters / 64 + 1;  // The scan is orders of magnitude slower.
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < scan_iters; ++i) out.checksum += scan();
  out.scan_ns = SecondsSince(start) * 1e9 / static_cast<double>(scan_iters);

  uint64_t base = 0;
  start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) base += cluster.RunningFrontier();
  out.incremental_ns = SecondsSince(start) * 1e9 / static_cast<double>(iters);

  HM_CHECK_MSG(cluster.RunningFrontier() == scan(),
               "incremental frontier diverged from the init-stream scan");
  out.checksum += base;
  return out;
}

// ---------------------------------------------------------------------------
// Propagation section: commit notifications vs index-advance wake-ups, coalesced vs the
// per-commit reference mode, over a real cluster run with concurrent appenders.
// ---------------------------------------------------------------------------

struct PropagationResult {
  int64_t commits = 0;
  int64_t ticks = 0;
  SimTime end_time = 0;
  std::vector<SeqNum> indexed_upto;
};

PropagationResult RunPropagation(bool coalesce, int appends_per_node) {
  runtime::ClusterConfig config = PinnedConfig(8);
  config.coalesce_index_propagation = coalesce;
  runtime::Cluster cluster(config);
  for (int n = 0; n < cluster.node_count(); ++n) {
    cluster.scheduler().Spawn([](runtime::Cluster* c, int node, int total) -> sim::Task<void> {
      for (int i = 0; i < total; ++i) {
        FieldMap fields;
        fields.SetStr("op", "write");
        fields.SetInt("step", i);
        co_await c->node(node).log().Append(
            sharedlog::OneTag("t" + std::to_string(node)), std::move(fields));
      }
    }(&cluster, n, appends_per_node));
  }
  cluster.scheduler().Run();
  PropagationResult out;
  out.commits = cluster.index_propagation_commits();
  out.ticks = cluster.index_propagation_ticks();
  out.end_time = cluster.scheduler().Now();
  for (int n = 0; n < cluster.node_count(); ++n) {
    out.indexed_upto.push_back(cluster.node(n).log().indexed_upto());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Worker streams: every closed-loop worker appends to its own single-writer stream, so each
// stream's step sequence is program order under any batching, queue, shard count or pipeline
// depth — the content the sections below require to be mode-invariant.
// ---------------------------------------------------------------------------

struct DrivenShape {
  int nodes = 4;
  int workers_per_node = 48;
  int ops_per_worker = 192;
};

std::vector<TagId> WorkerTags(runtime::Cluster& cluster, const DrivenShape& shape) {
  std::vector<TagId> tags;
  for (int w = 0; w < shape.nodes * shape.workers_per_node; ++w) {
    tags.push_back(cluster.log_space().tags().Intern("w:" + std::to_string(w)));
  }
  return tags;
}

// Committed content of the worker streams: every record's (worker, step) pair in stream
// order, folded one 64-bit word at a time with the FNV prime, plus the record count. Folding
// the worker index in keeps streams with identical step sequences from cancelling, so a
// record lost, added or reordered in any one stream changes the fingerprint. The seed is the
// FNV-1a basis with its last digit dropped, not the basis itself; the pinned fingerprints
// were captured with it, so it stays.
struct StreamContent {
  uint64_t fingerprint = 1469598103934665603ull;
  uint64_t records = 0;
  bool operator==(const StreamContent&) const = default;
};

StreamContent WorkerStreams(runtime::Cluster& cluster, const std::vector<TagId>& worker_tags) {
  StreamContent out;
  for (uint64_t w = 0; w < worker_tags.size(); ++w) {
    for (const LogRecordPtr& record :
         cluster.log_space().ReadStreamUpTo(worker_tags[w], sharedlog::kMaxSeqNum)) {
      uint64_t step = static_cast<uint64_t>(record->fields.GetInt("step"));
      out.fingerprint = (out.fingerprint ^ (w << 32 | step)) * kFnvPrime;
      ++out.records;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driven log-heavy section: a real cluster (LogClient + stations + scheduler) under
// concurrent appenders, run with group commit + timer wheel and with the per-request append
// path + binary-heap scheduler (the reference modes kept in src/). Committed content must be
// identical; scheduler events per op measure what group commit and the wheel buy.
// ---------------------------------------------------------------------------

struct DrivenResult {
  uint64_t sim_ops = 0;       // Log appends + cond-appends + reads driven through clients.
  uint64_t events = 0;        // Scheduler events fired to simulate them.
  StreamContent content;      // Mode-invariant: group commit changes when, not what.
  double seconds = 0.0;
  int64_t append_rounds = 0;  // Batched mode only: sequencer rounds and their occupancy.
  int64_t batched_requests = 0;
};

sim::Task<void> DrivenWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                             int ops, uint64_t* read_sink) {
  sharedlog::LogClient& log = cluster->node(node).log();
  size_t own_len = 0;  // Single writer of `own`: the next expected stream offset.
  for (int i = 0; i < ops; ++i) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", i);
    if (i % 4 == 3) {
      sharedlog::CondAppendResult r = co_await log.CondAppend(
          sharedlog::TwoTags(own, obj), std::move(fields), own, own_len);
      if (r.ok) ++own_len;
    } else {
      co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
      ++own_len;
    }
    if (i % 8 == 7) {
      // Cached-path read against the worker's own stream. Results feed a sink, not the
      // cross-mode content: read timing (and thus what a bounded read sees) legitimately
      // differs between batched and unbatched runs.
      LogRecordPtr record = co_await log.ReadPrev(own, log.indexed_upto());
      if (record != nullptr) *read_sink += static_cast<uint64_t>(record->seqnum) & 7u;
    }
  }
}

DrivenResult RunDrivenLogHeavy(bool batched, const DrivenShape& shape) {
  runtime::ClusterConfig config = PinnedConfig(shape.nodes);
  // Group commit + timer wheel off or on, as a unit.
  config.group_commit_appends = batched;
  config.queue_mode = batched ? sim::QueueMode::kTimerWheel : sim::QueueMode::kPriorityQueue;
  runtime::Cluster cluster(config);

  std::vector<TagId> worker_tags = WorkerTags(cluster, shape);
  uint64_t read_sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < static_cast<int>(worker_tags.size()); ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 32));
    cluster.scheduler().Spawn(DrivenWorker(&cluster, w % shape.nodes, worker_tags[w], obj,
                                           shape.ops_per_worker, &read_sink));
  }
  cluster.scheduler().Run();

  DrivenResult out;
  out.seconds = SecondsSince(start);
  out.sim_ops = static_cast<uint64_t>(cluster.TotalLogAppends() + cluster.TotalLogReads());
  out.events = cluster.scheduler().events_processed();
  for (int n = 0; n < cluster.node_count(); ++n) {
    out.append_rounds += cluster.node(n).log().stats().append_rounds;
    out.batched_requests += cluster.node(n).log().stats().batched_requests;
  }
  out.content = WorkerStreams(cluster, worker_tags);
  if (read_sink == ~0ull) std::printf("(unreachable)\n");  // Keep the reads observable.
  return out;
}

std::pair<DrivenResult, DrivenResult> BestOfDriven(int passes, const DrivenShape& shape) {
  DrivenResult best_base, best_cand;
  for (int pass = 0; pass < passes; ++pass) {
    DrivenResult base = RunDrivenLogHeavy(/*batched=*/false, shape);
    DrivenResult cand = RunDrivenLogHeavy(/*batched=*/true, shape);
    HM_CHECK_MSG(base.content == cand.content, "group commit changed committed log content");
    if (pass == 0) {
      best_base = base;
      best_cand = cand;
      continue;
    }
    HM_CHECK_MSG(base.content == best_base.content, "driven passes observed different data");
    if (base.seconds < best_base.seconds) best_base = base;
    if (cand.seconds < best_cand.seconds) best_cand = cand;
  }
  return {best_base, best_cand};
}

// ---------------------------------------------------------------------------
// Append-storm sections: hundreds of closed-loop appenders per node — more than max_batch, so
// the pending queue always holds more than one full round — against the sequencer. Shard
// scaling runs one shard and four at pipeline depth 1: each node's batcher keeps one round in
// flight per shard, so one shard serializes rounds end to end while four run four at once.
// The pipeline section keeps one shard and raises the rounds in flight per node (depth
// 1/2/4/8, committed in departure order). The measured quantity is simulated throughput —
// committed appends per virtual second — and committed content must be shard- and
// depth-invariant.
// ---------------------------------------------------------------------------

struct StormResult {
  uint64_t appends = 0;
  SimTime end_time = 0;
  StreamContent content;
  int64_t append_rounds = 0;  // Sequencer rounds across all nodes and shards.
  int64_t rounds_overlapped = 0;
  int64_t max_inflight = 0;
  int64_t ctrl_raised = 0;
  int64_t ctrl_widened = 0;
  int64_t ctrl_narrowed = 0;
  int64_t ctrl_lowered = 0;

  double AppendsPerVsec() const {
    return static_cast<double>(appends) / ToSecondsDouble(end_time);
  }
};

sim::Task<void> StormWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                            int ops) {
  sharedlog::LogClient& log = cluster->node(node).log();
  for (int i = 0; i < ops; ++i) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", i);
    co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
  }
}

StormResult RunAppendStorm(int shards, int depth, const DrivenShape& shape) {
  runtime::ClusterConfig config = PinnedConfig(shape.nodes);
  config.log_shards = shards;
  config.append_batch_pipeline = depth;
  runtime::Cluster cluster(config);

  std::vector<TagId> worker_tags = WorkerTags(cluster, shape);
  for (int w = 0; w < static_cast<int>(worker_tags.size()); ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 64));
    cluster.scheduler().Spawn(StormWorker(&cluster, w % shape.nodes, worker_tags[w], obj,
                                          shape.ops_per_worker));
  }
  cluster.scheduler().Run();

  StormResult out;
  out.end_time = cluster.scheduler().Now();
  out.appends = static_cast<uint64_t>(cluster.TotalLogAppends());
  for (int n = 0; n < cluster.node_count(); ++n) {
    const sharedlog::LogClientStats& stats = cluster.node(n).log().stats();
    out.append_rounds += stats.append_rounds;
    out.rounds_overlapped += stats.pipeline_rounds_overlapped;
    out.max_inflight = std::max(out.max_inflight, stats.pipeline_max_inflight);
    out.ctrl_raised += stats.ctrl_depth_raised;
    out.ctrl_widened += stats.ctrl_window_widened;
    out.ctrl_narrowed += stats.ctrl_window_narrowed;
    out.ctrl_lowered += stats.ctrl_depth_lowered;
  }
  out.content = WorkerStreams(cluster, worker_tags);
  return out;
}

// ---------------------------------------------------------------------------
// Read-cache section: the Halfmoon-read log-free read path (ReadPrev of an object's write
// log at the client's index horizon) with the node-local consistent cache enabled. Workers
// mix one write per eight reads over a shared object set; the cache serves repeat reads
// whose cached record still matches the index replica's latest-version answer.
// ---------------------------------------------------------------------------

struct CacheRunResult {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t reads_index_local = 0;
  int64_t reads_storage = 0;
  SimTime end_time = 0;
};

sim::Task<void> CacheWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                            int ops, uint64_t* sink) {
  sharedlog::LogClient& log = cluster->node(node).log();
  for (int i = 0; i < ops; ++i) {
    if (i % 8 == 0) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", i);
      co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
    } else {
      LogRecordPtr record = co_await log.ReadPrev(obj, log.indexed_upto());
      if (record != nullptr) *sink += static_cast<uint64_t>(record->fields.GetInt("step"));
    }
  }
}

CacheRunResult RunReadCache(bool cache_enabled, const DrivenShape& shape) {
  runtime::ClusterConfig config = PinnedConfig(shape.nodes);
  config.log_read_cache = cache_enabled;
  runtime::Cluster cluster(config);

  int total_workers = shape.nodes * shape.workers_per_node;
  uint64_t sink = 0;
  for (int w = 0; w < total_workers; ++w) {
    TagId own = cluster.log_space().tags().Intern("w:" + std::to_string(w));
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 16));
    cluster.scheduler().Spawn(CacheWorker(&cluster, w % shape.nodes, own, obj,
                                          shape.ops_per_worker, &sink));
  }
  cluster.scheduler().Run();

  CacheRunResult out;
  out.end_time = cluster.scheduler().Now();
  for (int n = 0; n < cluster.node_count(); ++n) {
    const sharedlog::LogClientStats& stats = cluster.node(n).log().stats();
    out.cache_hits += stats.cache_hits;
    out.cache_misses += stats.cache_misses;
    out.reads_index_local += stats.reads_index_local;
    out.reads_storage += stats.reads_storage;
  }
  if (sink == ~0ull) std::printf("(unreachable)\n");
  return out;
}

// ---------------------------------------------------------------------------
// Timer-wheel micro-section: the same post/drain event storm through the binary-heap
// reference queue and the hierarchical wheel. Delays span L0 slots through mid levels, the
// wheel's busiest regime.
// ---------------------------------------------------------------------------

struct EventResult {
  uint64_t events = 0;
  double seconds = 0.0;
};

// Events capture what the simulation's real call sites capture: a couple of pointers plus a
// value (~32 bytes), within the scheduler's inline event storage.
EventResult RunSchedulerEvents(sim::QueueMode mode, uint64_t total, int batch) {
  sim::Scheduler scheduler(mode);
  EventResult out;
  uint64_t counter = 0;
  uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  while (out.events < total) {
    uint64_t before = scheduler.events_processed();
    for (int i = 0; i < batch; ++i) {
      auto delay = static_cast<SimDuration>(
          (static_cast<uint64_t>(i) * 2654435761ull) % static_cast<uint64_t>(Milliseconds(2)));
      scheduler.Post(delay, [&counter, &sink, &out, i] {
        counter += static_cast<uint64_t>(i) + sink + out.events;
      });
    }
    scheduler.Run();
    out.events += scheduler.events_processed() - before;
  }
  out.seconds = SecondsSince(start);
  if (counter == 0) std::printf("(unreachable)\n");
  return out;
}

// ---------------------------------------------------------------------------
// Zero-copy audit: exercise the client read paths and report the stats counters.
// ---------------------------------------------------------------------------

struct AuditResult {
  int64_t shared = 0;
  int64_t copies = 0;
};

AuditResult RunZeroCopyAudit() {
  sim::Scheduler scheduler;
  Rng rng{11};
  LatencyModels models;
  sharedlog::LogSpace space;
  sharedlog::LogClient client{&scheduler, &rng, &models, &space, {}, nullptr};
  scheduler.Spawn([](sharedlog::LogClient* log) -> sim::Task<void> {
    for (int i = 0; i < 64; ++i) {
      FieldMap fields;
      fields.SetStr("op", "write");
      fields.SetInt("step", i);
      co_await log->Append(sharedlog::OneTag(std::string("t")), std::move(fields));
    }
    for (int i = 0; i < 64; ++i) {
      co_await log->ReadPrev("t", log->indexed_upto());
      co_await log->ReadNext("t", 1);
      co_await log->FindFirstByStep("t", "write", i);
    }
    co_await log->ReadStream("t");
  }(&client));
  scheduler.Run();
  return AuditResult{client.stats().read_record_shared, client.stats().read_record_copies};
}

// ---------------------------------------------------------------------------
// Advisor-drift section (DESIGN.md §11): the online cost-model advisor over a
// million-object keyspace whose hot set drifts from read-heavy to write-heavy.
// ---------------------------------------------------------------------------
//
// Direct-drive: the workload feeds the REAL hot-path sketch and the decisions run the REAL
// AdvisorDecision with the shipped dwell/token dampers, while log cost is accounted with the
// protocols' record-count model (HM-read: 2 records per write, reads log-free; HM-write: 1
// record per read, writes log-free; 2 records per §4.7 object switch). This keeps a
// 10^6-object sweep in benchmark time while measuring exactly the decision pipeline the
// runtime ships; the end-to-end byte gate on a real cluster is online_advisor_test.
struct AdvisorDriftResult {
  int64_t objects = 0;
  int64_t hot_objects = 0;
  size_t sketch_bytes = 0;
  int64_t advisor_bytes = 0;
  int64_t static_read_bytes = 0;
  int64_t static_write_bytes = 0;
  int64_t switches = 0;
  int64_t sweep_ticks = 0;  // Bounded keyspace-walk slices across both sweeps.
  int64_t ids_per_tick = 0;
  double wall_seconds = 0;
};

AdvisorDriftResult RunAdvisorDrift(double scale) {
  AdvisorDriftResult r;
  r.objects = std::max<int64_t>(1 << 16, static_cast<int64_t>(1'000'000 * scale));
  r.hot_objects = 4096;
  r.ids_per_tick = 65536;
  constexpr int64_t kRecordBytes = 96;   // Uniform record-size model; ratios are what matter.
  constexpr int64_t kMinOps = 16;
  constexpr double kMargin = 0.05;

  metrics::WorkloadSketchConfig sketch_config;
  sketch_config.width = 1 << 17;  // eps*N stays below kMinOps for the phase-B window.
  sketch_config.depth = 4;
  metrics::WorkloadSketch sketch(sketch_config);
  r.sketch_bytes = sketch.MemoryBytes();
  const size_t sketch_bytes_at_start = r.sketch_bytes;

  const double boundary = core::RuntimeBoundaryReadRatio(core::WorkloadProfile{});

  // Per-object protocol (advisor run): everyone starts on the HM-read default. Tracked
  // per-phase true counts feed the static-protocol cost model; the ADVISOR only ever sees
  // the sketch estimates.
  constexpr uint8_t kRead = 0, kWrite = 1;
  std::vector<uint8_t> protocol(static_cast<size_t>(r.objects), kRead);

  int64_t advisor_records = 0, static_read_records = 0, static_write_records = 0;

  // One workload phase: each hot object performs `hot_reads`+`hot_writes`, and (optionally)
  // every cold object one read. Costs accrue to all three accounting models at once.
  auto run_phase = [&](int hot_reads, int hot_writes, bool touch_cold) {
    for (int64_t o = 0; o < r.hot_objects; ++o) {
      const uint64_t id = static_cast<uint64_t>(o);
      for (int i = 0; i < hot_reads; ++i) sketch.RecordRead(id);
      for (int i = 0; i < hot_writes; ++i) sketch.RecordWrite(id);
      static_read_records += 2ll * hot_writes;
      static_write_records += hot_reads;
      advisor_records += protocol[o] == kRead ? 2ll * hot_writes : hot_reads;
    }
    if (touch_cold) {
      for (int64_t o = r.hot_objects; o < r.objects; ++o) {
        sketch.RecordRead(static_cast<uint64_t>(o));
        static_write_records += 1;  // HM-write logs every read; HM-read and advisor: free.
      }
    }
  };

  // One full advisor sweep: the bounded incremental walk over the whole keyspace, the
  // shipped decision rule, and the shipped dampers (dwell via last-switch epoch stamps, a
  // token bucket sized to admit the full hot set per sweep).
  int64_t sweep_epoch = 0;
  std::vector<int64_t> last_switch(static_cast<size_t>(r.objects), -1);
  double tokens = 2.0 * static_cast<double>(r.hot_objects);
  auto run_sweep = [&]() {
    ++sweep_epoch;
    for (int64_t cursor = 0; cursor < r.objects; cursor += r.ids_per_tick) {
      ++r.sweep_ticks;
      const int64_t end = std::min(r.objects, cursor + r.ids_per_tick);
      for (int64_t o = cursor; o < end; ++o) {
        const uint64_t id = static_cast<uint64_t>(o);
        std::optional<core::ProtocolKind> decision = core::AdvisorDecision(
            static_cast<int64_t>(sketch.EstimateReads(id)),
            static_cast<int64_t>(sketch.EstimateWrites(id)), boundary, kMargin, kMinOps);
        if (!decision.has_value()) continue;
        const uint8_t want =
            *decision == core::ProtocolKind::kHalfmoonRead ? kRead : kWrite;
        if (want == protocol[o]) continue;
        if (last_switch[o] == sweep_epoch) continue;  // Dwell: once per sweep window.
        if (tokens < 1.0) continue;
        tokens -= 1.0;
        last_switch[o] = sweep_epoch;
        protocol[o] = want;
        advisor_records += 2;  // BEGIN + END transition records.
        ++r.switches;
      }
    }
  };

  auto start = std::chrono::steady_clock::now();

  // Phase A: read-heavy hot set over the full keyspace; the sweep must leave everything on
  // the HM-read default.
  run_phase(/*hot_reads=*/180, /*hot_writes=*/20, /*touch_cold=*/true);
  run_sweep();
  // Count-min estimates only overcount, so over a million-object tail a few cold objects can
  // collide with hot buckets in every row and draw a spurious switch; the gate bounds that
  // tail (< 1/64 of the hot set) rather than demanding sketch exactness.
  const int64_t spurious_cap = r.hot_objects / 64;
  HM_CHECK_MSG(r.switches <= spurious_cap,
               "advisor switched objects on the read-heavy phase");

  // The mix drifts write-heavy: age out the old window, show one drift chunk, sweep (the
  // hot set flips to HM-write), then the write-heavy tail runs on the switched protocol.
  sketch.AdvanceEpoch();
  sketch.AdvanceEpoch();
  run_phase(/*hot_reads=*/5, /*hot_writes=*/45, /*touch_cold=*/false);
  run_sweep();
  for (int64_t o = 0; o < r.hot_objects; ++o) {
    HM_CHECK_MSG(protocol[o] == kWrite, "a hot object did not switch after the drift");
  }
  HM_CHECK_MSG(r.switches <= r.hot_objects + 2 * spurious_cap,
               "spurious cold-object switches exceeded the sketch-noise bound");
  run_phase(/*hot_reads=*/15, /*hot_writes=*/135, /*touch_cold=*/false);

  r.wall_seconds = SecondsSince(start);
  r.advisor_bytes = advisor_records * kRecordBytes;
  r.static_read_bytes = static_read_records * kRecordBytes;
  r.static_write_bytes = static_write_records * kRecordBytes;

  // The §4.6 gates: strictly fewer simulated log bytes than BOTH static assignments, a
  // bounded switch count, and sketch memory independent of the keyspace size.
  HM_CHECK_MSG(r.advisor_bytes < r.static_read_bytes,
               "advisor did not beat static Halfmoon-read");
  HM_CHECK_MSG(r.advisor_bytes < r.static_write_bytes,
               "advisor did not beat static Halfmoon-write");
  HM_CHECK_MSG(r.switches <= 2 * r.hot_objects, "switch count exceeded the cap");
  HM_CHECK_MSG(sketch.MemoryBytes() == sketch_bytes_at_start,
               "sketch memory grew with the keyspace");
  return r;
}

void Report() {
  double scale = BenchScale();
  const uint64_t event_total = static_cast<uint64_t>(2'000'000 * scale);
  const uint64_t intern_iters = static_cast<uint64_t>(4'000'000 * scale);
  const uint64_t frontier_iters = static_cast<uint64_t>(4'000'000 * scale);
  constexpr int kEventBatch = 4096;

  std::printf("== Hot-path benchmark ==\n");

  // Section 1: the struct workload, straight against a LogSpace, in the payload-heavy default
  // shape and the metadata-only log-heavy shape. Op counts and observed-data checksums are
  // pinned.
  WorkloadResult log_struct = BestOfLogWorkload(Passes(2, scale), WorkloadShape{});
  HM_CHECK(log_struct.ops == 11592);
  HM_CHECK(log_struct.checksum == 31657472);
  WorkloadResult log_heavy = BestOfLogWorkload(Passes(9, scale), LogHeavyShape());
  HM_CHECK(log_heavy.ops == 160326);
  HM_CHECK(log_heavy.checksum == 5997633536ull);

  // Section 2: the driven log-heavy shape — a real cluster under concurrent appenders, per-
  // request appends + binary heap vs group commit + timer wheel. Committed content is asserted
  // identical every pass; what group commit buys is pinned as events and rounds.
  RunDrivenLogHeavy(/*batched=*/true, DrivenShape{2, 8, 32});  // Warm-up.
  auto [per_request, grouped] = BestOfDriven(Passes(5, scale), DrivenShape{});
  HM_CHECK(per_request.sim_ops == 41472 && grouped.sim_ops == 41472);
  HM_CHECK(per_request.events == 170972);  // 4.12 events per op.
  HM_CHECK(grouped.events == 47684);   // 1.15 events per op.
  HM_CHECK(grouped.append_rounds == 1509);
  HM_CHECK(grouped.batched_requests == 36864);
  HM_CHECK(grouped.content.records == 36864);
  // Every worker's stream holds exactly its steps 0..191, in program order.
  HM_CHECK(grouped.content.fingerprint == 0x7701ef0b48a98383ull);

  // Section 3: shard scaling. High per-node concurrency so a single shard's one-round-in-
  // flight sequencer pipeline is the bottleneck; four shards run four rounds concurrently.
  // Simulated time is deterministic, so the floor is a hard regression gate.
  const DrivenShape storm_shape{2, 256, 48};
  StormResult one_shard = RunAppendStorm(/*shards=*/1, /*depth=*/1, storm_shape);
  StormResult four_shard = RunAppendStorm(/*shards=*/4, /*depth=*/1, storm_shape);
  HM_CHECK_MSG(one_shard.content == four_shard.content, "sharding changed committed log content");
  HM_CHECK(one_shard.appends == 24576 && four_shard.appends == 24576);
  HM_CHECK(one_shard.content.records == 24576);
  HM_CHECK(one_shard.content.fingerprint == 0x7d25b206087d0383ull);  // Steps 0..47 each.
  HM_CHECK(one_shard.append_rounds == 384);
  HM_CHECK(four_shard.append_rounds == 528);
  double one_shard_tput = one_shard.AppendsPerVsec();
  double four_shard_tput = four_shard.AppendsPerVsec();
  double shard_speedup = four_shard_tput / one_shard_tput;
  HM_CHECK_MSG(shard_speedup >= 1.8, "shard scaling fell below the 1.8x floor");

  // Section 4: pipelined group commit. The same storm through one sequencer at depths 1
  // (the one-shard run above), 2, 4 and 8; committed content must be depth-invariant, and
  // depth 4 must commit the storm at least 1.5x faster in simulated time.
  const StormResult& pipe_d1 = one_shard;
  StormResult pipe_d2 = RunAppendStorm(/*shards=*/1, /*depth=*/2, storm_shape);
  StormResult pipe_d4 = RunAppendStorm(/*shards=*/1, /*depth=*/4, storm_shape);
  StormResult pipe_d8 = RunAppendStorm(/*shards=*/1, /*depth=*/8, storm_shape);
  for (const StormResult* r : {&pipe_d2, &pipe_d4, &pipe_d8}) {
    HM_CHECK_MSG(pipe_d1.content == r->content, "pipelining changed committed log content");
    HM_CHECK(pipe_d1.appends == r->appends);
  }
  HM_CHECK_MSG(pipe_d1.rounds_overlapped == 0, "depth 1 overlapped rounds");
  HM_CHECK(pipe_d4.append_rounds == 384);
  HM_CHECK(pipe_d4.rounds_overlapped == 381);
  HM_CHECK(pipe_d4.max_inflight == 4);
  HM_CHECK(pipe_d4.ctrl_raised == 6 && pipe_d4.ctrl_lowered == 0);
  HM_CHECK(pipe_d4.ctrl_widened == 0 && pipe_d4.ctrl_narrowed == 0);
  double pipe_d1_tput = pipe_d1.AppendsPerVsec();
  double pipe_d2_tput = pipe_d2.AppendsPerVsec();
  double pipe_d4_tput = pipe_d4.AppendsPerVsec();
  double pipe_d8_tput = pipe_d8.AppendsPerVsec();
  double pipe_speedup = pipe_d4_tput / pipe_d1_tput;
  HM_CHECK_MSG(pipe_speedup >= 1.5, "pipelined group commit fell below the 1.5x floor");

  // Section 5: the node-local read cache on the Halfmoon-read log-free read mix (1 write
  // per 8 reads over shared objects). Cache-off is the reference; the cache must cut
  // simulated completion time, and the hit count is pinned.
  const DrivenShape cache_shape{4, 16, 128};
  CacheRunResult cache_on = RunReadCache(/*cache_enabled=*/true, cache_shape);
  CacheRunResult cache_off = RunReadCache(/*cache_enabled=*/false, cache_shape);
  HM_CHECK_MSG(cache_off.cache_hits == 0 && cache_off.cache_misses == 0,
               "read cache counters moved with the cache disabled");
  HM_CHECK(cache_on.cache_hits == 6482 && cache_on.cache_misses == 686);
  double cache_hit_rate = static_cast<double>(cache_on.cache_hits) /
                          static_cast<double>(cache_on.cache_hits + cache_on.cache_misses);
  double cache_time_ratio =
      ToSecondsDouble(cache_off.end_time) / ToSecondsDouble(cache_on.end_time);

  // Section 6: tag interning and frontier micro-sections.
  TagInternResult intern = RunTagInternMicro(intern_iters);
  FrontierResult frontier = RunFrontierMicro(frontier_iters);

  // Section 7: index-propagation coalescing on a real cluster. The reference run must be
  // observably identical (bit-identical virtual time and final replica state).
  PropagationResult coalesced = RunPropagation(/*coalesce=*/true, /*appends_per_node=*/64);
  PropagationResult reference = RunPropagation(/*coalesce=*/false, /*appends_per_node=*/64);
  HM_CHECK_MSG(coalesced.end_time == reference.end_time &&
                   coalesced.indexed_upto == reference.indexed_upto,
               "coalesced propagation changed observable simulation state");
  HM_CHECK(coalesced.commits == 512 && coalesced.ticks == 367);
  double coalescing_ratio =
      static_cast<double>(coalesced.commits) / static_cast<double>(coalesced.ticks);

  // Section 8: binary-heap reference vs timer wheel on the same multi-level delay storm.
  EventResult pq_events = RunSchedulerEvents(sim::QueueMode::kPriorityQueue, event_total,
                                             kEventBatch);
  EventResult wheel_events = RunSchedulerEvents(sim::QueueMode::kTimerWheel, event_total,
                                                kEventBatch);

  AuditResult audit = RunZeroCopyAudit();
  HM_CHECK_MSG(audit.copies == 0, "read path copied a record");
  HM_CHECK(audit.shared == 256);

  // Section 9: the online advisor over a drifting million-object keyspace (gates inside).
  AdvisorDriftResult drift = RunAdvisorDrift(scale);

  double struct_ops = static_cast<double>(log_struct.ops) / log_struct.seconds;
  double heavy_ops = static_cast<double>(log_heavy.ops) / log_heavy.seconds;
  double pq_eps = static_cast<double>(pq_events.events) / pq_events.seconds;
  double wheel_eps = static_cast<double>(wheel_events.events) / wheel_events.seconds;
  double per_request_ops = static_cast<double>(per_request.sim_ops) / per_request.seconds;
  double grouped_ops = static_cast<double>(grouped.sim_ops) / grouped.seconds;
  double per_request_epo = static_cast<double>(per_request.events) /
                           static_cast<double>(std::max<uint64_t>(1, per_request.sim_ops));
  double grouped_epo = static_cast<double>(grouped.events) /
                       static_cast<double>(std::max<uint64_t>(1, grouped.sim_ops));
  double occupancy = static_cast<double>(grouped.batched_requests) /
                     static_cast<double>(std::max<int64_t>(1, grouped.append_rounds));

  std::printf("  log struct:  default %llu ops (checksum %llu) %.0f ops/s; log-heavy %llu ops"
              " (checksum %llu) %.0f ops/s\n",
              static_cast<unsigned long long>(log_struct.ops),
              static_cast<unsigned long long>(log_struct.checksum), struct_ops,
              static_cast<unsigned long long>(log_heavy.ops),
              static_cast<unsigned long long>(log_heavy.checksum), heavy_ops);
  std::printf("  log-heavy (driven): per-request %.0f ops/s (%.2f ev/op), group commit %.0f"
              " ops/s (%.2f ev/op) (%.2fx)\n",
              per_request_ops, per_request_epo, grouped_ops, grouped_epo,
              grouped_ops / per_request_ops);
  std::printf("  group commit: %lld requests over %lld rounds (%.2f occupancy); content"
              " %016llx\n",
              static_cast<long long>(grouped.batched_requests),
              static_cast<long long>(grouped.append_rounds), occupancy,
              static_cast<unsigned long long>(grouped.content.fingerprint));
  std::printf("  shard scaling: 1 shard %.0f appends/vsec, 4 shards %.0f appends/vsec"
              " (%.2fx); content %016llx\n",
              one_shard_tput, four_shard_tput, shard_speedup,
              static_cast<unsigned long long>(one_shard.content.fingerprint));
  std::printf("  pipeline:    depth 1/2/4/8 = %.0f/%.0f/%.0f/%.0f appends/vsec (d4 %.2fx);"
              " max in-flight %lld, %lld overlapped rounds, controller +%lld/-%lld depth"
              " %lld/%lld window\n",
              pipe_d1_tput, pipe_d2_tput, pipe_d4_tput, pipe_d8_tput, pipe_speedup,
              static_cast<long long>(pipe_d4.max_inflight),
              static_cast<long long>(pipe_d4.rounds_overlapped),
              static_cast<long long>(pipe_d4.ctrl_raised),
              static_cast<long long>(pipe_d4.ctrl_lowered),
              static_cast<long long>(pipe_d4.ctrl_widened),
              static_cast<long long>(pipe_d4.ctrl_narrowed));
  std::printf("  read cache:  %.1f%% hit rate (%lld hits, %lld misses), %.2fx less"
              " simulated time; index-local reads %lld, storage reads %lld\n",
              cache_hit_rate * 100.0, static_cast<long long>(cache_on.cache_hits),
              static_cast<long long>(cache_on.cache_misses), cache_time_ratio,
              static_cast<long long>(cache_on.reads_index_local),
              static_cast<long long>(cache_on.reads_storage));
  std::printf("  timer wheel: pq %.0f ev/s, wheel %.0f ev/s (%.2fx)\n", pq_eps, wheel_eps,
              wheel_eps / pq_eps);
  std::printf("  tag intern:  string %.1f ns/op, interned %.1f ns/op (%.2fx); %lld requests"
              " -> %zu names\n",
              intern.string_ns, intern.interned_ns, intern.string_ns / intern.interned_ns,
              static_cast<long long>(intern.intern_requests), intern.distinct_tags);
  std::printf("  frontier:    scan %.1f ns/op, incremental %.1f ns/op (%.0fx)\n",
              frontier.scan_ns, frontier.incremental_ns,
              frontier.scan_ns / frontier.incremental_ns);
  std::printf("  propagation: %lld commits -> %lld wake-ups (%.2fx coalescing)\n",
              static_cast<long long>(coalesced.commits),
              static_cast<long long>(coalesced.ticks), coalescing_ratio);
  std::printf("  zero-copy:   read_record_shared=%lld read_record_copies=%lld\n",
              static_cast<long long>(audit.shared), static_cast<long long>(audit.copies));
  std::printf("  advisor drift: %lld objects (%lld hot), advisor %lld B vs static-read"
              " %lld B / static-write %lld B (%.2fx / %.2fx), %lld switches, %lld ticks,"
              " sketch %zu B, %.2fs\n",
              static_cast<long long>(drift.objects),
              static_cast<long long>(drift.hot_objects),
              static_cast<long long>(drift.advisor_bytes),
              static_cast<long long>(drift.static_read_bytes),
              static_cast<long long>(drift.static_write_bytes),
              static_cast<double>(drift.static_read_bytes) /
                  static_cast<double>(drift.advisor_bytes),
              static_cast<double>(drift.static_write_bytes) /
                  static_cast<double>(drift.advisor_bytes),
              static_cast<long long>(drift.switches),
              static_cast<long long>(drift.sweep_ticks), drift.sketch_bytes,
              drift.wall_seconds);

  FILE* json = std::fopen("BENCH_hotpath.json", "w");
  HM_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"hotpath\",\n"
               "  \"log_struct\": {\"sim_ops_per_sec\": %.1f, \"log_ops\": %llu,\n"
               "                 \"checksum\": %llu},\n"
               "  \"log_heavy_struct\": {\"optimized_sim_ops_per_sec\": %.1f,\n"
               "                \"log_ops\": %llu, \"checksum\": %llu},\n"
               "  \"log_heavy\": {\"pr2_sim_ops_per_sec\": %.1f,\n"
               "                \"optimized_sim_ops_per_sec\": %.1f, \"sim_ops\": %llu,\n"
               "                \"pr2_events_per_op\": %.2f, \"optimized_events_per_op\": %.2f,\n"
               "                \"append_rounds\": %lld, \"batched_requests\": %lld,\n"
               "                \"batch_occupancy\": %.2f},\n"
               "  \"speedup_vs_pr2\": %.3f,\n"
               "  \"shard_scaling\": {\"one_shard_appends_per_vsec\": %.1f,\n"
               "                   \"four_shard_appends_per_vsec\": %.1f,\n"
               "                   \"speedup\": %.3f, \"appends\": %llu,\n"
               "                   \"one_shard_rounds\": %lld, \"four_shard_rounds\": %lld},\n"
               "  \"pipeline\": {\"depth1_appends_per_vsec\": %.1f,\n"
               "               \"depth2_appends_per_vsec\": %.1f,\n"
               "               \"depth4_appends_per_vsec\": %.1f,\n"
               "               \"depth8_appends_per_vsec\": %.1f, \"speedup\": %.3f,\n"
               "               \"appends\": %llu, \"depth4_rounds\": %lld,\n"
               "               \"rounds_overlapped\": %lld, \"max_inflight\": %lld,\n"
               "               \"ctrl_depth_raised\": %lld, \"ctrl_depth_lowered\": %lld,\n"
               "               \"ctrl_window_widened\": %lld, \"ctrl_window_narrowed\": %lld,\n"
               "               \"gate\": \"speedup >= 1.5, checksum depth-invariant\"},\n"
               "  \"read_cache\": {\"hit_rate\": %.3f, \"hits\": %lld, \"misses\": %lld,\n"
               "                 \"sim_time_ratio\": %.3f, \"reads_index_local\": %lld,\n"
               "                 \"reads_storage\": %lld},\n"
               "  \"timer_wheel\": {\"pq_events_per_sec\": %.1f,\n"
               "                  \"wheel_events_per_sec\": %.1f, \"speedup\": %.3f},\n"
               "  \"tag_intern\": {\"string_ns_per_op\": %.2f, \"interned_ns_per_op\": %.2f,\n"
               "                 \"speedup\": %.3f, \"intern_requests\": %lld,\n"
               "                 \"distinct_tags\": %zu},\n"
               "  \"frontier\": {\"scan_ns_per_op\": %.1f, \"incremental_ns_per_op\": %.2f,\n"
               "               \"speedup\": %.1f, \"live_inits\": %zu},\n"
               "  \"propagation\": {\"commits\": %lld, \"ticks\": %lld,\n"
               "                  \"coalescing_ratio\": %.3f},\n"
               "  \"advisor_drift\": {\"objects\": %lld, \"hot_objects\": %lld,\n"
               "                   \"advisor_bytes\": %lld, \"static_read_bytes\": %lld,\n"
               "                   \"static_write_bytes\": %lld, \"switches\": %lld,\n"
               "                   \"sweep_ticks\": %lld, \"ids_per_tick\": %lld,\n"
               "                   \"sketch_bytes\": %zu, \"gate\": \"advisor < both statics\"},\n"
               "  \"read_record_shared\": %lld,\n"
               "  \"read_record_copies\": %lld,\n"
               "  \"hardware\": {\"hardware_threads\": %u, \"compiler\": \"%s\"}\n"
               "}\n",
               struct_ops, static_cast<unsigned long long>(log_struct.ops),
               static_cast<unsigned long long>(log_struct.checksum), heavy_ops,
               static_cast<unsigned long long>(log_heavy.ops),
               static_cast<unsigned long long>(log_heavy.checksum),
               per_request_ops, grouped_ops, static_cast<unsigned long long>(grouped.sim_ops),
               per_request_epo, grouped_epo, static_cast<long long>(grouped.append_rounds),
               static_cast<long long>(grouped.batched_requests), occupancy,
               grouped_ops / per_request_ops, one_shard_tput, four_shard_tput, shard_speedup,
               static_cast<unsigned long long>(four_shard.appends),
               static_cast<long long>(one_shard.append_rounds),
               static_cast<long long>(four_shard.append_rounds),
               pipe_d1_tput, pipe_d2_tput, pipe_d4_tput, pipe_d8_tput, pipe_speedup,
               static_cast<unsigned long long>(pipe_d4.appends),
               static_cast<long long>(pipe_d4.append_rounds),
               static_cast<long long>(pipe_d4.rounds_overlapped),
               static_cast<long long>(pipe_d4.max_inflight),
               static_cast<long long>(pipe_d4.ctrl_raised),
               static_cast<long long>(pipe_d4.ctrl_lowered),
               static_cast<long long>(pipe_d4.ctrl_widened),
               static_cast<long long>(pipe_d4.ctrl_narrowed), cache_hit_rate,
               static_cast<long long>(cache_on.cache_hits),
               static_cast<long long>(cache_on.cache_misses), cache_time_ratio,
               static_cast<long long>(cache_on.reads_index_local),
               static_cast<long long>(cache_on.reads_storage),
               pq_eps, wheel_eps, wheel_eps / pq_eps,
               intern.string_ns, intern.interned_ns, intern.string_ns / intern.interned_ns,
               static_cast<long long>(intern.intern_requests), intern.distinct_tags,
               frontier.scan_ns, frontier.incremental_ns,
               frontier.scan_ns / frontier.incremental_ns, frontier.live_inits,
               static_cast<long long>(coalesced.commits),
               static_cast<long long>(coalesced.ticks), coalescing_ratio,
               static_cast<long long>(drift.objects),
               static_cast<long long>(drift.hot_objects),
               static_cast<long long>(drift.advisor_bytes),
               static_cast<long long>(drift.static_read_bytes),
               static_cast<long long>(drift.static_write_bytes),
               static_cast<long long>(drift.switches),
               static_cast<long long>(drift.sweep_ticks),
               static_cast<long long>(drift.ids_per_tick), drift.sketch_bytes,
               static_cast<long long>(audit.shared), static_cast<long long>(audit.copies),
               std::thread::hardware_concurrency(), __VERSION__);
  std::fclose(json);
  std::printf("  wrote BENCH_hotpath.json\n");
}

}  // namespace
}  // namespace halfmoon::bench

int main() {
  halfmoon::bench::Report();
  return 0;
}
