// Tag-partitioned sharded shared log (DESIGN.md §9).
//
// A ShardedLog owns N LogSpace shards plus the state they share (interners, storage gauge,
// seqnum watermark, live-tag index, commit listener). Tags are partitioned across shards by a
// pure function of the tag name (TagRegistry::ShardOf), so every cond-append arbitration, GC
// stream, and switch transition-log entry — all keyed by tags — lands wholly on one shard and
// keeps its single-log semantics. Each shard runs its own sequencer rounds (see LogClient),
// which is what lets appends to disjoint tags commit in parallel simulated time.
//
// Sequence numbers are encoded as `local * shard_count + shard` against one shared watermark
// (the cross-shard merge rule, see log_space.h), so seqnums from different shards stay
// totally ordered in commit order: cursorTS comparisons, logReadPrev bounds, and
// FindFirstByStep checkpoints need no changes. With shard_count == 1 the encoding — and every
// observable behaviour — is bit-identical to the unsharded log.
//
// Because every LogSpace shard routes each call to the owning shard itself, the facade is
// thin: queries delegate to shard 0 (any shard answers for the whole log) and only the
// storage accountants (live_records, IndexEntries) aggregate across shards.

#ifndef HALFMOON_SHAREDLOG_SHARDED_LOG_H_
#define HALFMOON_SHAREDLOG_SHARDED_LOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/metrics/storage_sampler.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/log_space.h"
#include "src/sharedlog/tag_registry.h"

namespace halfmoon::sharedlog {

class ShardedLog {
 public:
  using BatchEntry = LogSpace::BatchEntry;
  using GroupRequest = LogSpace::GroupRequest;
  using GroupVerdict = LogSpace::GroupVerdict;

  explicit ShardedLog(uint32_t shard_count = 1);
  ShardedLog(const ShardedLog&) = delete;
  ShardedLog& operator=(const ShardedLog&) = delete;

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  // Shard i as a LogSpace; any shard routes every call, so &shard(0) serves legacy
  // LogSpace* consumers for the whole log.
  LogSpace& shard(uint32_t i) { return *shards_[i]; }
  const LogSpace& shard(uint32_t i) const { return *shards_[i]; }

  // Shard owning `tag`'s sub-stream (pure function of the tag name).
  uint32_t ShardOfTag(TagId tag) const { return shared_.tags.ShardOf(tag); }
  // Shard that sequenced (and stores) the record at `seqnum`.
  uint32_t ShardOfSeq(SeqNum seqnum) const {
    return static_cast<uint32_t>(seqnum % shards_.size());
  }

  TagRegistry& tags() { return shared_.tags; }
  const TagRegistry& tags() const { return shared_.tags; }
  TagRegistry& ops() { return shared_.ops; }
  const TagRegistry& ops() const { return shared_.ops; }

  // ---- Append paths (routed to the owning shard by LogSpace itself) ----
  SeqNum Append(SimTime now, std::vector<TagId> tags, FieldMap fields) {
    return shards_[0]->Append(now, std::move(tags), std::move(fields));
  }
  SeqNum Append(SimTime now, std::vector<std::string> tag_names, FieldMap fields) {
    return shards_[0]->Append(now, std::move(tag_names), std::move(fields));
  }
  CondAppendResult CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                              TagId cond_tag, size_t cond_pos) {
    return shards_[0]->CondAppend(now, std::move(tags), std::move(fields), cond_tag, cond_pos);
  }
  CondAppendResult CondAppend(SimTime now, std::vector<std::string> tag_names, FieldMap fields,
                              std::string_view cond_tag, size_t cond_pos) {
    return shards_[0]->CondAppend(now, std::move(tag_names), std::move(fields), cond_tag,
                                  cond_pos);
  }
  CondAppendResult CondAppendBatch(SimTime now, std::vector<BatchEntry> batch, TagId cond_tag,
                                   size_t cond_pos) {
    return shards_[0]->CondAppendBatch(now, std::move(batch), cond_tag, cond_pos);
  }
  SeqNum AppendBatch(SimTime now, std::vector<BatchEntry> batch) {
    return shards_[0]->AppendBatch(now, std::move(batch));
  }

  // Seqnum of the i-th record of an atomic batch that committed first at `first`
  // (in-batch stride is the shard count; see log_space.h).
  SeqNum BatchSeq(SeqNum first, size_t i) const { return shards_[0]->BatchSeq(first, i); }

  // ---- Read paths ----
  LogRecordPtr Get(SeqNum seqnum) const { return shards_[0]->Get(seqnum); }
  LogRecordPtr FindFirstByStep(TagId tag, OpId op, int64_t step) const {
    return shards_[0]->FindFirstByStep(tag, op, step);
  }
  LogRecordPtr FindFirstByStep(TagId tag, const std::string& op, int64_t step) const {
    return shards_[0]->FindFirstByStep(tag, op, step);
  }
  LogRecordPtr FindFirstByStep(std::string_view tag, const std::string& op,
                               int64_t step) const {
    return shards_[0]->FindFirstByStep(tag, op, step);
  }
  std::vector<TagId> LiveTagsWithPrefix(std::string_view prefix) const {
    return shards_[0]->LiveTagsWithPrefix(prefix);
  }
  std::vector<std::string> StreamTagsWithPrefix(std::string_view prefix) const {
    return shards_[0]->StreamTagsWithPrefix(prefix);
  }
  LogRecordPtr ReadPrev(TagId tag, SeqNum max_seqnum) const {
    return shards_[0]->ReadPrev(tag, max_seqnum);
  }
  LogRecordPtr ReadPrev(std::string_view tag, SeqNum max_seqnum) const {
    return shards_[0]->ReadPrev(tag, max_seqnum);
  }
  SeqNum LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const {
    return shards_[0]->LatestSeqNoAtMost(tag, max_seqnum);
  }
  LogRecordPtr ReadNext(TagId tag, SeqNum min_seqnum) const {
    return shards_[0]->ReadNext(tag, min_seqnum);
  }
  LogRecordPtr ReadNext(std::string_view tag, SeqNum min_seqnum) const {
    return shards_[0]->ReadNext(tag, min_seqnum);
  }
  std::vector<LogRecordPtr> ReadStream(TagId tag) const { return shards_[0]->ReadStream(tag); }
  std::vector<LogRecordPtr> ReadStream(std::string_view tag) const {
    return shards_[0]->ReadStream(tag);
  }
  std::vector<LogRecordPtr> ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const {
    return shards_[0]->ReadStreamUpTo(tag, max_seqnum);
  }
  std::vector<LogRecordPtr> ReadStreamUpTo(std::string_view tag, SeqNum max_seqnum) const {
    return shards_[0]->ReadStreamUpTo(tag, max_seqnum);
  }
  size_t StreamLength(TagId tag) const { return shards_[0]->StreamLength(tag); }
  size_t StreamLength(std::string_view tag) const { return shards_[0]->StreamLength(tag); }

  // ---- GC ----
  size_t Trim(SimTime now, TagId tag, SeqNum upto) { return shards_[0]->Trim(now, tag, upto); }
  size_t Trim(SimTime now, std::string_view tag, SeqNum upto) {
    return shards_[0]->Trim(now, tag, upto);
  }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13) ----
  // Attaches the durability service: every commit journals a kRecord frame, every releasing
  // trim a kTrim frame, and every newly interned tag a kTagDef frame. Must be attached before
  // the first workload append (earlier interns — the pre-interned protocol tags — are
  // deterministic constructor state and need no journal).
  void AttachDurability(storage::DurabilityService* svc);

  // Drops everything a node loss destroys: records, sub-stream indices, the live-tag index,
  // the watermark, and the storage gauge's current bytes. The tag/op interners survive — ids
  // are deterministic client-side handles, and replay cross-checks them via kTagDef frames.
  void ResetVolatile(SimTime now);

  // Journal replay entry points (frames decoded by RestoreLogFromJournal). `fuzzy` marks a
  // replay-suffix on top of a checkpoint image (DESIGN.md §14): restores become idempotent
  // check-and-inserts instead of strictly ordered installs.
  void RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags, FieldMap fields,
                     bool fuzzy = false) {
    shards_[0]->RestoreRecord(now, seqnum, std::move(tags), std::move(fields), fuzzy);
  }
  void RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after) {
    shards_[0]->RestoreTrim(now, tag, upto, base_after);
  }
  // Cross-checks a replayed kTagDef frame against the surviving registry: the journaled
  // (id, name) assignment must match bit for bit, or the replayed record frames' tag ids
  // would silently index the wrong streams.
  void VerifyTagDef(TagId id, std::string_view name) const {
    HM_CHECK_MSG(shared_.tags.Contains(id) && shared_.tags.Name(id) == name,
                 "journal replay: tag definition does not match the registry");
  }

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // One checkpoint round walks every interned tag in id order (stable across registry
  // growth), emitting record bodies (deduped round-wide — records are multi-tag) and
  // per-tag stream snapshots. The walk is resumable in bounded slices; tags interned after a
  // slice are picked up by later slices, and their records also ride the replay suffix, so
  // either way the image + suffix composition is exact.
  void BeginCheckpointWalk() {
    walk_next_tag_ = 0;
    // A fresh stamp marks every record body as not yet emitted this round. 0 means "never
    // emitted", so a wrapped counter skips it.
    if (++shared_.checkpoint_round == 0) ++shared_.checkpoint_round;
  }
  // Emits roughly `budget` items' worth of image frames; returns true once every tag has
  // been walked. *frames counts frames appended by this slice.
  bool WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget, int64_t* frames) {
    int64_t consumed = 0;
    while (walk_next_tag_ < shared_.tags.size()) {
      if (consumed >= budget) return false;
      TagId tag = walk_next_tag_++;
      LogSpace& owner = *shards_[shared_.tags.ShardOf(tag)];
      consumed += static_cast<int64_t>(owner.CheckpointTag(tag, store, frames));
    }
    return true;
  }

  // Image-restore entry points (any shard routes to the owner).
  void RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields) {
    shards_[0]->RestoreCheckpointRecord(now, seqnum, std::move(tags), std::move(fields));
  }
  void RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                               const std::vector<SeqNum>& seqnums) {
    shards_[0]->RestoreCheckpointStream(now, tag, base, seqnums);
  }
  // Raises the watermark to at least `floor` (see LogSpace::EnsureWatermark).
  void EnsureWatermark(SeqNum floor) { shards_[0]->EnsureWatermark(floor); }

  // ---- Accounting / hooks ----
  SeqNum next_seqnum() const { return shards_[0]->next_seqnum(); }
  size_t live_records() const;   // Summed across shards.
  size_t IndexEntries() const;   // Summed across shards.
  int64_t CurrentBytes() const { return shared_.gauge.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return shared_.gauge; }
  // Fires in strictly increasing seqnum order across all shards (see log_space.h).
  void SetCommitListener(std::function<void(SeqNum)> listener) {
    shared_.commit_listener = std::move(listener);
  }

 private:
  LogSpace::Shared shared_;
  std::vector<std::unique_ptr<LogSpace>> shards_;

  // Checkpoint-walk cursor (valid between BeginCheckpointWalk and the slice returning true).
  TagId walk_next_tag_ = 0;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_SHARDED_LOG_H_
