// Per-function-node client of the shared log. Adds what LogSpace deliberately leaves out:
// operation latencies (calibrated to Boki, Table 1 / §4.1), queueing at the sequencer and
// storage stations, and the node-local index replica that makes logReadPrev cheap.
//
// The index replica trails the authoritative log: each committed seqnum is propagated to every
// client after a sampled delay. A logReadPrev bounded by `max_seqnum` can be served from the
// local index iff the replica already covers `max_seqnum` (the 0.12 ms path); otherwise the
// client syncs with a storage node (the slower path).
//
// Appends (DESIGN.md §9, §12): every append entry point is one request through one private
// round. The round goes to the shard that sequences the request (LogSpace::RouteShard), with
// per-shard sequencer stations and — with group commit on — per-shard AppendBatcher queues,
// so appends to tags on different shards commit in parallel simulated time. Without group
// commit the round is the per-request reference path: its own latency sample, and the
// write-ahead gate before its reply leg. Reads need no fan-out: LogSpace answers queries for
// the whole log.
//
// On top of the index replica the client can keep a consistent *payload* cache: committed
// LogRecordPtrs by tag, validated on each logReadPrev against the index replica's
// latest-seqnum-at-most answer. A hit skips the index walk and the storage hop entirely
// (Halfmoon-read's log-free reads); a stale entry can never be returned because validation
// compares seqnums, and the index replica is complete up to indexed_upto_.

#ifndef HALFMOON_SHAREDLOG_LOG_CLIENT_H_
#define HALFMOON_SHAREDLOG_LOG_CLIENT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sharedlog/append_batcher.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/scheduler.h"
#include "src/sim/service_station.h"
#include "src/sim/task.h"

namespace halfmoon::storage {
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::sharedlog {

// How a sampled end-to-end latency is split across the wire legs and the server occupancy.
// The split keeps low-load latency equal to the calibrated sample while letting the station
// inject queueing delay under load. Shared by LogClient and AppendBatcher so a batched round
// costs exactly one unbatched append latency.
inline constexpr double kRequestLegFraction = 0.4;
inline constexpr double kServiceFraction = 0.2;

// Counters for the logging-overhead analysis (the paper's "number of abstract logging
// operations", §4.3) and cache behaviour.
struct LogClientStats {
  int64_t appends = 0;
  int64_t cond_appends = 0;
  int64_t cond_append_conflicts = 0;
  int64_t read_prev_cached = 0;
  int64_t read_prev_uncached = 0;
  int64_t read_next = 0;
  int64_t stream_reads = 0;
  int64_t trims = 0;
  // Read-path provenance, bumped on EVERY log read (ReadPrev, ReadNext, ReadStream,
  // FindFirstByStep — the pre-PR 5 counters above only classified ReadPrev): index-local
  // reads are served by the node's index replica without a storage round trip.
  int64_t reads_index_local = 0;
  int64_t reads_storage = 0;
  // Node-local payload cache (read_cache in ClusterConfig). Hits/misses are counted on the
  // logReadPrev fast path only — the cache's reason to exist is Halfmoon-read's log-free
  // read, which is a bounded logReadPrev.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Cache-hit validations that went stale while the hit's read delay was pending (a
  // concurrent Trim released the cached record mid-read). The read fails closed: the entry
  // is dropped and the read is re-served from the index replica.
  int64_t read_cache_stale_invalidations = 0;
  // Zero-copy audit: every record a read returns is counted either as a shared view
  // (refcount bump on the committed record) or as a deep copy. The read path is copy-free by
  // construction, so read_record_copies must stay 0; the counter exists so benchmarks and
  // tests can observe the claim instead of trusting it.
  int64_t read_record_shared = 0;
  int64_t read_record_copies = 0;
  // Group-commit occupancy (batched mode only). append_rounds counts sequencer rounds the
  // batcher issued; batched_requests counts the append/cond-append requests they carried.
  // Their ratio is the node's mean batch occupancy — how many per-request rounds each round
  // of group commit replaced.
  int64_t append_rounds = 0;
  int64_t batched_requests = 0;
  int64_t max_round_occupancy = 0;
  // Pipeline observability (DESIGN.md §12). pipeline_inflight_hist[d] counts rounds that
  // departed with d rounds in flight (themselves included; depth 1 always lands in bucket
  // 1, deeper pipelines clamp into the last bucket). rounds "merged" — requests that
  // shared a round instead of paying their own — is batched_requests - append_rounds, so no
  // separate counter. The ctrl_* counters record the adaptive controller's decisions.
  static constexpr int kPipelineHistBuckets = 9;
  std::array<int64_t, kPipelineHistBuckets> pipeline_inflight_hist{};
  int64_t pipeline_rounds_overlapped = 0;  // Rounds that departed with another in flight.
  int64_t pipeline_max_inflight = 0;
  int64_t ctrl_window_widened = 0;
  int64_t ctrl_window_narrowed = 0;
  int64_t ctrl_depth_raised = 0;
  int64_t ctrl_depth_lowered = 0;
  // Simulated logged bytes: LogRecord::ByteSize of every record this client successfully
  // committed (conditional appends that lose their race contribute nothing), in total and
  // split by append class. Class 0 is control/runtime machinery (init records, invoke
  // steps, switch BEGIN/END); the core layer stamps protocol classes (1 + ProtocolKind)
  // via LogClient::set_append_class. "Log-optimal" (§4.3) is a claim about bytes, not
  // record counts — these counters are what the bench_table1 audit and the advisor drift
  // gate measure.
  static constexpr int kAppendClasses = 8;
  int64_t appended_bytes = 0;
  std::array<int64_t, kAppendClasses> appended_bytes_by_class{};

  // Folds another client's counters into this one (per-node stats summed into cluster-wide
  // totals, like LatencyRecorder::Merge). Order-independent.
  void Add(const LogClientStats& other) {
    appends += other.appends;
    cond_appends += other.cond_appends;
    cond_append_conflicts += other.cond_append_conflicts;
    read_prev_cached += other.read_prev_cached;
    read_prev_uncached += other.read_prev_uncached;
    read_next += other.read_next;
    stream_reads += other.stream_reads;
    trims += other.trims;
    reads_index_local += other.reads_index_local;
    reads_storage += other.reads_storage;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    read_cache_stale_invalidations += other.read_cache_stale_invalidations;
    read_record_shared += other.read_record_shared;
    read_record_copies += other.read_record_copies;
    append_rounds += other.append_rounds;
    batched_requests += other.batched_requests;
    max_round_occupancy = std::max(max_round_occupancy, other.max_round_occupancy);
    for (int d = 0; d < kPipelineHistBuckets; ++d) {
      pipeline_inflight_hist[d] += other.pipeline_inflight_hist[d];
    }
    pipeline_rounds_overlapped += other.pipeline_rounds_overlapped;
    pipeline_max_inflight = std::max(pipeline_max_inflight, other.pipeline_max_inflight);
    ctrl_window_widened += other.ctrl_window_widened;
    ctrl_window_narrowed += other.ctrl_window_narrowed;
    ctrl_depth_raised += other.ctrl_depth_raised;
    ctrl_depth_lowered += other.ctrl_depth_lowered;
    appended_bytes += other.appended_bytes;
    for (int c = 0; c < kAppendClasses; ++c) {
      appended_bytes_by_class[c] += other.appended_bytes_by_class[c];
    }
  }
};

class LogClient {
 public:
  // `sequencer_stations` holds one station per log shard, or is empty to disable queueing
  // (microbenches); `storage_station` may be null for the same reason. `batch` enables
  // node-local group commit: appends and cond-appends are collected by per-shard
  // AppendBatchers and shipped in shared sequencer rounds (see append_batcher.h). Disabled by
  // default so microbenches and unit fixtures get the per-request reference path; the
  // cluster runtime enables it via ClusterConfig. `read_cache` enables the node-local
  // payload cache.
  LogClient(sim::Scheduler* scheduler, Rng* rng, const LatencyModels* models, LogSpace* log,
            std::vector<sim::ServiceStation*> sequencer_stations,
            sim::ServiceStation* storage_station,
            AppendBatchConfig batch = AppendBatchConfig{.enabled = false},
            bool read_cache = false)
      : scheduler_(scheduler),
        rng_(rng),
        models_(models),
        log_(log),
        storage_station_(storage_station),
        sequencer_stations_(std::move(sequencer_stations)),
        read_cache_enabled_(read_cache) {
    HM_CHECK(sequencer_stations_.empty() ||
             sequencer_stations_.size() == log->shard_count());
    if (batch.enabled) {
      batchers_.reserve(log->shard_count());
      for (uint32_t i = 0; i < log->shard_count(); ++i) {
        batchers_.push_back(std::make_unique<AppendBatcher>(this, batch, i));
      }
    }
  }

  // The log's tag interner (shared across all clients of the same LogSpace).
  TagRegistry& tags() { return log_->tags(); }

  // logAppend: returns the record's seqnum. The record commits mid-flight (after the request
  // leg), so other nodes can observe it before the reply reaches the caller.
  sim::Task<SeqNum> Append(std::vector<TagId> tags, FieldMap fields);

  // logCondAppend (§5.1).
  sim::Task<CondAppendResult> CondAppend(std::vector<TagId> tags, FieldMap fields,
                                         TagId cond_tag, size_t cond_pos);

  // Conditionally appends several records in one sequencer round (Boki's batched append).
  // Costs a single append latency; the records receive consecutive batch seqnums
  // (LogSpace::BatchSeq).
  sim::Task<CondAppendResult> CondAppendBatch(std::vector<LogSpace::BatchEntry> batch,
                                              TagId cond_tag, size_t cond_pos);

  // Unconditional batched append (one round, consecutive batch seqnums); returns the first
  // seqnum.
  sim::Task<SeqNum> AppendBatch(std::vector<LogSpace::BatchEntry> batch);

  // Boki-style conflict resolution: the first record logged for (op, step) in `tag` wins.
  // Served against the local index replica at cache cost; used immediately after an append,
  // when the replica provably covers the appended seqnum. The hot path takes a pre-interned
  // OpId (the kOp* constants) so the scan is integer compares.
  sim::Task<LogRecordPtr> FindFirstByStep(TagId tag, OpId op, int64_t step);
  sim::Task<LogRecordPtr> FindFirstByStep(TagId tag, const std::string& op, int64_t step) {
    return FindFirstByStep(tag, log_->ops().Find(op), step);
  }

  // logReadPrev / logReadNext. Return shared views of the committed records (null when no
  // record qualifies); the log's copy is never duplicated.
  sim::Task<LogRecordPtr> ReadPrev(TagId tag, SeqNum max_seqnum);
  sim::Task<LogRecordPtr> ReadNext(TagId tag, SeqNum min_seqnum);

  // Fetches a whole sub-stream as shared views (step-log retrieval in Init).
  sim::Task<std::vector<LogRecordPtr>> ReadStream(TagId tag);

  // logTrim.
  sim::Task<void> Trim(TagId tag, SeqNum upto);

  // ---- Name-based convenience entry points (tests, microbenches) ----
  // Writes intern the names; reads resolve without interning. These are thin forwarders,
  // so latency modelling and stats are identical to the TagId path.
  sim::Task<SeqNum> Append(std::vector<std::string> tag_names, FieldMap fields) {
    return Append(InternAll(std::move(tag_names)), std::move(fields));
  }
  sim::Task<CondAppendResult> CondAppend(std::vector<std::string> tag_names, FieldMap fields,
                                         std::string_view cond_tag, size_t cond_pos) {
    return CondAppend(InternAll(std::move(tag_names)), std::move(fields),
                      tags().Intern(cond_tag), cond_pos);
  }
  sim::Task<LogRecordPtr> FindFirstByStep(std::string_view tag, const std::string& op,
                                          int64_t step) {
    return FindFirstByStep(tags().Find(tag), log_->ops().Find(op), step);
  }
  sim::Task<LogRecordPtr> ReadPrev(std::string_view tag, SeqNum max_seqnum) {
    return ReadPrev(tags().Find(tag), max_seqnum);
  }
  sim::Task<LogRecordPtr> ReadNext(std::string_view tag, SeqNum min_seqnum) {
    return ReadNext(tags().Find(tag), min_seqnum);
  }
  sim::Task<std::vector<LogRecordPtr>> ReadStream(std::string_view tag) {
    return ReadStream(tags().Find(tag));
  }
  sim::Task<void> Trim(std::string_view tag, SeqNum upto) {
    return Trim(tags().Find(tag), upto);
  }

  // Called by the cluster's propagation machinery when this node's index replica catches up
  // to `seqnum`.
  void AdvanceIndex(SeqNum seqnum) {
    if (seqnum > indexed_upto_) indexed_upto_ = seqnum;
  }

  SeqNum indexed_upto() const { return indexed_upto_; }
  const LogClientStats& stats() const { return stats_; }

  // Byte-attribution class for this client's NEXT append (0 = control, the default). The
  // append round consumes the stamp in its pre-suspension prologue and resets it to 0, so an
  // unstamped append is always control. The caller must stamp synchronously immediately
  // before the append call — no co_await in between — which makes the pairing correct even
  // with other coroutines interleaving on the same client. (A stamped call that turns out
  // to append nothing, e.g. a replayed step, leaves the stamp for the client's next append;
  // that only shifts attribution of one control record during crash replay.)
  void set_append_class(int cls) { append_class_ = cls; }

  // Non-null iff node-local group commit is enabled for this client (shard 0's batcher).
  AppendBatcher* batcher() { return batchers_.empty() ? nullptr : batchers_[0].get(); }

  // Fault-injection hooks, installed by the runtime layer (Cluster). `probe` consults the
  // cluster's FailureInjector and returns true when a crash fires at the named site;
  // `thrower` raises the runtime's crash exception (SsfCrashed) — sharedlog stays unaware of
  // the runtime types. Both null (the default) disables batch-site injection entirely.
  void InstallCrashHooks(std::function<bool(const char*)> probe,
                         std::function<void(const char*)> thrower) {
    crash_probe_ = std::move(probe);
    crash_thrower_ = std::move(thrower);
  }

  // Write-ahead gate (DESIGN.md §13): with a durability service attached, the append round
  // waits for the committed records' journal frames before its reply leg / caller
  // resumption, so every externally-known seqnum is durable. Null detaches (a volatile
  // cluster never attaches and stays bit-identical to the pre-storage engine).
  void SetDurability(storage::DurabilityService* durability) { durability_ = durability; }

  // Node-loss soft-state wipe: rolls the index replica back to `durable_seqnum` (what replay
  // rebuilds; pass 0 for a function-node loss, which restarts with an empty replica) and
  // drops the payload cache — its entries reference records the kill destroyed.
  void ResetSoftState(SeqNum durable_seqnum) {
    indexed_upto_ = std::min(indexed_upto_, durable_seqnum);
    read_cache_.clear();
  }

 private:
  friend class AppendBatcher;

  std::vector<TagId> InternAll(std::vector<std::string> names) {
    std::vector<TagId> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) ids.push_back(tags().Intern(name));
    return ids;
  }

  // One append request's sequencer round, sequenced by its LogSpace::RouteShard. With group
  // commit the shard's batcher runs the round (both legs; it advances the index replica at
  // commit) and this waits for durability after the reply; otherwise this runs the
  // per-request round, whose durable gate precedes its reply leg. T is SeqNum (the first
  // seqnum) for the unconditional entry points and CondAppendResult for the conditional ones.
  template <typename T>
  sim::Task<T> AppendRound(LogSpace::GroupRequest request);

  // Service share of one round at `shard`'s sequencer station (a plain delay without
  // queueing), and at the storage station.
  sim::Task<void> SequencerRound(uint32_t shard, SimDuration total_latency);
  sim::Task<void> StorageRound(SimDuration total_latency);
  // The write-ahead gate for one committed seqnum. Returns false when a kill destroyed the
  // record before it reached the device; crashable waiters (protocol-class appends, which
  // run inside attempts) abort into the runtime's retry loop instead of returning.
  sim::Task<bool> AwaitDurable(SeqNum seqnum, bool crashable);

  // Exactly LogRecord::ByteSize for the record these tags/fields will commit as. Computed
  // in the round's prologue BEFORE the request moves, and credited to the stats only once
  // the commit verdict is known.
  static int64_t RecordBytes(const std::vector<TagId>& tags, const FieldMap& fields) {
    return static_cast<int64_t>(sizeof(SeqNum) + 8 + tags.size() * sizeof(TagId) +
                                fields.ByteSize());
  }
  void NoteAppendedBytes(int cls, int64_t bytes) {
    stats_.appended_bytes += bytes;
    if (cls < 0 || cls >= LogClientStats::kAppendClasses) cls = 0;
    stats_.appended_bytes_by_class[cls] += bytes;
  }

  // Payload-cache maintenance: committed records are the freshest for each of their tags at
  // commit time, so read-your-writes hits come for free. In batch order, so for tags shared
  // across entries the last (freshest) entry wins.
  void CacheCommitted(SeqNum first, size_t count) {
    if (!read_cache_enabled_) return;
    for (size_t i = 0; i < count; ++i) {
      LogRecordPtr record = log_->Get(log_->BatchSeq(first, i));
      if (record == nullptr) continue;
      for (TagId tag : record->tags) read_cache_[tag] = record;
    }
  }

  sim::Scheduler* scheduler_;
  Rng* rng_;
  const LatencyModels* models_;
  LogSpace* log_;
  sim::ServiceStation* storage_station_;
  std::vector<sim::ServiceStation*> sequencer_stations_;  // Per shard; empty: no queueing.
  std::vector<std::unique_ptr<AppendBatcher>> batchers_;  // Per shard; empty when disabled.
  SeqNum indexed_upto_ = 0;
  // Node-local consistent payload cache: latest committed record seen per tag. Entries are
  // validated against the index replica before use, so they can be stale but never wrong;
  // trimmed records fail validation and get overwritten on the next miss.
  bool read_cache_enabled_ = false;
  std::unordered_map<TagId, LogRecordPtr> read_cache_;
  storage::DurabilityService* durability_ = nullptr;  // See SetDurability.
  int append_class_ = 0;
  std::function<bool(const char*)> crash_probe_;    // See InstallCrashHooks.
  std::function<void(const char*)> crash_thrower_;  // Must throw; never returns normally.
  LogClientStats stats_;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_LOG_CLIENT_H_
