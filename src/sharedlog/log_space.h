// The authoritative state of the shared log: the sequencers' counter, the record store, and
// the per-tag sub-stream index.
//
// LogSpace is pure state — all latency, caching, and queueing live in LogClient. This split
// mirrors Boki: a metalog/sequencer that orders records, storage nodes that hold them, and
// per-function-node index replicas that trail the authoritative index by a propagation delay.
//
// Sharding (DESIGN.md §9): one LogSpace is the whole log, sequenced by `shard_count`
// sequencers. Tags are partitioned across shards by a pure function of the tag name
// (TagRegistry::ShardOf); a request is sequenced by the shard owning its routing tag (the
// cond tag, else the first entry's first tag, see RouteShard), so every cond-append
// arbitration lands on one shard. Sequence numbers use a (local round, shard) encoding,
//     enc = local * shard_count + shard,   local = floor(watermark / shard_count) + 1,
// against ONE watermark, so encoded seqnums are strictly increasing in commit order across
// ALL shards (the watermark is the cross-shard merge rule): per-tag streams stay sorted by
// construction, cursorTS stays a total order, and shard_count == 1 degenerates to the
// historic next_seqnum_++ bit for bit. Records are keyed by their (globally unique) seqnum
// and streams by tag id, so the store itself needs no partitioning: a shard is its seqnum
// residue class, its sequencer station and its per-node batcher queue (LogClient).
//
// Performance notes (see DESIGN.md "Performance architecture"):
//   * Records are immutable after commit and stored behind shared_ptr-to-const; every read
//     API returns a shared view (LogRecordPtr), never a copy.
//   * Tags are interned ids (see tag_registry.h): the steady-state append/read/trim API takes
//     TagId only, so no std::string is built or hashed per operation. The string-named
//     overloads below are convenience entry points for tests and cold bootstrap code; they
//     intern (writes) or look up (reads) the name and forward to the TagId path.
//   * A sub-stream keeps only its untrimmed seqnum suffix (a flat run + base offset), so
//     trimmed history costs no memory while logical logCondAppend offsets stay stable.
//   * No per-tag side index tracks which streams are live: prefix scans (the GC's per-object
//     write-log enumeration, once per pass) scan the dense stream table instead, so starting
//     and trimming a stream — once per invocation — touches nothing but the stream itself.

#ifndef HALFMOON_SHAREDLOG_LOG_SPACE_H_
#define HALFMOON_SHAREDLOG_LOG_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/metrics/storage_sampler.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/tag_registry.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::sharedlog {

class LogSpace {
 public:
  explicit LogSpace(uint32_t shard_count = 1);
  LogSpace(const LogSpace&) = delete;
  LogSpace& operator=(const LogSpace&) = delete;

  uint32_t shard_count() const { return shard_count_; }
  // Shard owning `tag`'s sub-stream (pure function of the tag name).
  uint32_t ShardOfTag(TagId tag) const { return tags_.ShardOf(tag); }

  // The tag interner shared by everything layered on this log. "ssf.init" and "ssf.finish"
  // are pre-interned to kInitTagId / kFinishTagId.
  TagRegistry& tags() { return tags_; }
  const TagRegistry& tags() const { return tags_; }

  // The op-name interner ("op" field values). The protocol ops are pre-interned to the kOp*
  // constants of log_record.h; every commit stamps its record's `op` id from its fields.
  TagRegistry& ops() { return ops_; }
  const TagRegistry& ops() const { return ops_; }

  struct BatchEntry {
    std::vector<TagId> tags;
    FieldMap fields;
  };

  // One append request. The entries form an atomic sub-group: all of them commit (at
  // consecutive batch positions, see BatchSeq) or none do. A request with cond_tag ==
  // kInvalidTagId is unconditional; otherwise it carries the logCondAppend condition (§5.1)
  // "the first entry lands at logical offset cond_pos of cond_tag's stream", and cond_tag
  // must be one of the first entry's tags.
  struct GroupRequest {
    std::vector<BatchEntry> entries;
    TagId cond_tag = kInvalidTagId;
    size_t cond_pos = 0;
  };
  // Per-request outcome of AppendGroup. On success `seqnum` is the first entry's position;
  // on conflict `existing_seqnum` is the record occupying the expected offset.
  struct GroupVerdict {
    bool ok = false;
    SeqNum seqnum = kInvalidSeqNum;
    SeqNum existing_seqnum = kInvalidSeqNum;
  };

  // The shard that sequences `request`: the owner of its cond tag, else of its first
  // entry's first tag. Racing cond-appends on one tag therefore serialize through one
  // shard's sequencer no matter which node issued them.
  uint32_t RouteShard(const GroupRequest& request) const;

  // The one commit routine: orders several independent append requests in ONE sequencer
  // round. Requests are evaluated strictly in vector order, each seeing the stream state left
  // by its predecessors — exactly as if they had been submitted back-to-back as separate
  // rounds in that order, which is what makes node-local append batching protocol-invisible
  // (AppendBatcher). Each request is sequenced by its RouteShard. Index replicas learn about
  // the whole round as a unit: the commit listener fires once, with the round's last
  // committed seqnum (not at all if every request conflicted). `now` feeds storage
  // accounting. A conditional request that conflicts appends nothing.
  std::vector<GroupVerdict> AppendGroup(SimTime now, std::vector<GroupRequest> requests);

  // ---- One-request rounds (AppendGroup with a single request) ----
  GroupVerdict AppendOne(SimTime now, GroupRequest request);
  // logAppend: returns the record's seqnum.
  SeqNum Append(SimTime now, std::vector<TagId> tags, FieldMap fields);
  // logCondAppend: on conflict nothing is appended and existing_seqnum names the record
  // actually at `cond_pos`.
  CondAppendResult CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                              TagId cond_tag, size_t cond_pos);
  // Boki's batched append, which Halfmoon-read uses to install the version record and the
  // commit record of a write in one sequencer round (§4.1): all records commit or none do,
  // under the condition on the first record. The unconditional form returns the first
  // seqnum (the i-th record receives BatchSeq(first, i)).
  CondAppendResult CondAppendBatch(SimTime now, std::vector<BatchEntry> batch, TagId cond_tag,
                                   size_t cond_pos);
  SeqNum AppendBatch(SimTime now, std::vector<BatchEntry> batch);

  // Seqnum of the i-th record of an atomic batch whose first record committed at `first`.
  // One shard allocates the whole batch, so in-batch neighbours are `shard_count` apart in
  // the encoded space (adjacent when unsharded).
  SeqNum BatchSeq(SeqNum first, size_t i) const {
    return first + static_cast<SeqNum>(i) * shard_count_;
  }

  // Shared view of the live record at `seqnum`; null if absent or fully trimmed.
  LogRecordPtr Get(SeqNum seqnum) const;

  // First live record in `tag`'s sub-stream whose "op" and "step" fields match. Boki resolves
  // peer races by honoring the first record logged for a step (§5.1). The scan compares the
  // record's interned op id — no string comparison per record.
  LogRecordPtr FindFirstByStep(TagId tag, OpId op, int64_t step) const;
  LogRecordPtr FindFirstByStep(TagId tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(tag, ops_.Find(op), step);
  }

  // Ids of all live (non-empty) streams whose name starts with `prefix`, in name order (GC
  // scan over per-object write logs). Scans the dense stream table, then sorts the matches
  // by name: O(interned tags + matches · log matches) per call, paid once per GC pass
  // instead of an ordered-index update on every stream start and trim.
  std::vector<TagId> LiveTagsWithPrefix(std::string_view prefix) const;

  // Name-returning variant of LiveTagsWithPrefix, for tests and display.
  std::vector<std::string> StreamTagsWithPrefix(std::string_view prefix) const;

  // Latest record in `tag`'s sub-stream with seqnum <= max (logReadPrev).
  LogRecordPtr ReadPrev(TagId tag, SeqNum max_seqnum) const;

  // Seqnum of the record ReadPrev(tag, max_seqnum) would return, or kInvalidSeqNum if none.
  // This is a pure index-replica query (tag → seqnum list; no record payload touched), which
  // is what LogClient's node-local read cache validates its cached payloads against.
  SeqNum LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const;

  // Earliest record in `tag`'s sub-stream with seqnum >= min (logReadNext).
  LogRecordPtr ReadNext(TagId tag, SeqNum min_seqnum) const;

  // All live records of a sub-stream, in seqnum order (used to fetch step logs in Init).
  std::vector<LogRecordPtr> ReadStream(TagId tag) const;

  // Live records of a sub-stream with seqnum <= max_seqnum: the view of an index replica
  // that has caught up to max_seqnum.
  std::vector<LogRecordPtr> ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const;

  // Garbage-collects a sub-stream: logically deletes records with seqnum <= upto from `tag`,
  // and frees the trimmed prefix of the stream's seqnum index. A record's storage is freed
  // once every one of its tags has trimmed past it. Returns the number of records removed
  // from this stream (0 when the tag has no stream or the prefix was already trimmed), which
  // feeds the GC's per-category trim counters.
  size_t Trim(SimTime now, TagId tag, SeqNum upto);

  // Logical offset (position since the beginning of time) that the *next* record appended to
  // `tag` would occupy. Used by clients to pre-check conditional appends in tests.
  size_t StreamLength(TagId tag) const;

  // ---- Name-based convenience entry points (tests, cold bootstrap paths) ----
  // Writes intern their tag names; reads resolve without interning, so probing a name that
  // was never appended does not grow the registry.
  SeqNum Append(SimTime now, std::vector<std::string> tag_names, FieldMap fields) {
    return Append(now, InternAll(std::move(tag_names)), std::move(fields));
  }
  CondAppendResult CondAppend(SimTime now, std::vector<std::string> tag_names, FieldMap fields,
                              std::string_view cond_tag, size_t cond_pos) {
    return CondAppend(now, InternAll(std::move(tag_names)), std::move(fields),
                      tags_.Intern(cond_tag), cond_pos);
  }
  LogRecordPtr FindFirstByStep(std::string_view tag, const std::string& op, int64_t step) const {
    return FindFirstByStep(tags_.Find(tag), op, step);
  }
  LogRecordPtr ReadPrev(std::string_view tag, SeqNum max_seqnum) const {
    return ReadPrev(tags_.Find(tag), max_seqnum);
  }
  LogRecordPtr ReadNext(std::string_view tag, SeqNum min_seqnum) const {
    return ReadNext(tags_.Find(tag), min_seqnum);
  }
  std::vector<LogRecordPtr> ReadStream(std::string_view tag) const {
    return ReadStream(tags_.Find(tag));
  }
  std::vector<LogRecordPtr> ReadStreamUpTo(std::string_view tag, SeqNum max_seqnum) const {
    return ReadStreamUpTo(tags_.Find(tag), max_seqnum);
  }
  size_t Trim(SimTime now, std::string_view tag, SeqNum upto) {
    return Trim(now, tags_.Find(tag), upto);
  }
  size_t StreamLength(std::string_view tag) const { return StreamLength(tags_.Find(tag)); }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13, §14) ----
  // Attaches the durability service: every commit journals a kRecord frame, every releasing
  // trim a kTrim frame, and every newly interned tag a kTagDef frame. Must be attached before
  // the first workload append (earlier interns — the pre-interned protocol tags — are
  // deterministic constructor state and need no journal). Null (the default) journals
  // nothing and draws no extra latency samples — bit-identical to the pre-storage simulation.
  void AttachDurability(storage::DurabilityService* svc);

  // Drops everything a node loss destroys: records, sub-stream indices, the watermark, and
  // the storage gauge's current bytes. The tag/op interners survive — ids are deterministic
  // client-side handles, and replay cross-checks them via kTagDef frames.
  void ResetVolatile(SimTime now);

  // Reinstalls a committed record from its journal frame: same index/stream/gauge effects as
  // the original append, but no commit listener and no re-journaling. In strict mode (full
  // replay) frames arrive in commit order, so seqnums are strictly increasing (asserted) and
  // the watermark advances to each restored seqnum. In fuzzy mode (replay-suffix on top of a
  // checkpoint image, §14) the image may already reflect the record in some — or all — of its
  // streams: the body is installed only if absent and each stream gets a sorted
  // check-and-insert, so replaying an already-absorbed frame is a no-op.
  void RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags, FieldMap fields,
                     bool fuzzy = false);

  // Re-applies a durable trim during replay (no re-journaling). `base_after` is the stream's
  // logical base right after the original trim (journaled in the kTrim frame): restoring
  // takes max(base, base_after) instead of counting pops, which lands on the exact original
  // base whether or not the checkpoint image had already absorbed the trim.
  void RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after);

  // Cross-checks a replayed kTagDef frame against the surviving registry: the journaled
  // (id, name) assignment must match bit for bit, or the replayed record frames' tag ids
  // would silently index the wrong streams.
  void VerifyTagDef(TagId id, std::string_view name) const {
    HM_CHECK_MSG(tags_.Contains(id) && tags_.Name(id) == name,
                 "journal replay: tag definition does not match the registry");
  }

  // Raises the watermark to at least `floor` (no-op when already past it). Recovery calls
  // this with the manifest's watermark floor / the journal's durable seqnum: truncation can
  // erase the highest durable records (trimmed ones), and the restored allocator must still
  // never re-issue their seqnums.
  void EnsureWatermark(SeqNum floor) {
    if (watermark_ < floor) watermark_ = floor;
  }

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // One checkpoint round walks every interned tag in id order (stable across registry
  // growth), emitting record bodies (deduped round-wide — records are multi-tag) and
  // per-tag stream snapshots. The walk is resumable in bounded slices; tags interned after a
  // slice are picked up by later slices, and their records also ride the replay suffix, so
  // either way the image + suffix composition is exact.
  void BeginCheckpointWalk();
  // Emits roughly `budget` items' worth of image frames; returns true once every tag has
  // been walked. *frames counts frames appended by this slice.
  bool WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget, int64_t* frames);

  // Image-restore installers. A body installs with zero live-tag refs (streams re-reference
  // it as they restore); a stream sets its base, pushes its seqnums and takes one ref per
  // entry. Bodies precede the streams that reference them in every image.
  void RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                               FieldMap fields);
  void RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                               const std::vector<SeqNum>& seqnums);

  // Smallest seqnum the next append could receive; strictly greater than every committed
  // seqnum (watermark + 1, which IS the next seqnum when unsharded).
  SeqNum next_seqnum() const { return watermark_ + 1; }

  // Number of records currently held (not yet trimmed from all their tags).
  size_t live_records() const { return records_.size(); }

  // Total seqnum entries retained across the sub-stream indices. Bounded by the number of
  // live (tag, record) pairs: trimmed prefixes are compacted away, so a fully trimmed stream
  // holds zero entries no matter how long its history (regression guard for the old
  // keep-forever index).
  size_t IndexEntries() const;

  // Seqnum slots allocated across the sub-stream indices (live entries, a not yet compacted
  // dead prefix, and spare capacity). A fully trimmed stream holds none.
  size_t IndexCapacity() const;

  int64_t CurrentBytes() const { return gauge_.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return gauge_; }

  // Invoked synchronously at each commit round with its last seqnum; the runtime uses it to
  // schedule index propagation to every function node. Encoded seqnums are allocated in
  // commit order, so the listener observes a strictly increasing sequence no matter which
  // shards commit.
  void SetCommitListener(std::function<void(SeqNum)> listener) {
    commit_listener_ = std::move(listener);
  }

 private:
  // A sorted run of seqnums in one flat buffer: the live entries are buf_[head_, end). Popping
  // the front only advances head_; the dead prefix is compacted away once it is at least half
  // the buffer (amortized O(1) per pop), and a run popped to empty frees its buffer, so a
  // fully trimmed stream holds no index memory. Not a std::deque: that allocates a map and a
  // node even when empty, and its move constructor may throw, so streams_ growth would copy
  // every stream (DESIGN.md §7).
  class SeqRun {
   public:
    using const_iterator = std::vector<SeqNum>::const_iterator;

    const_iterator begin() const { return buf_.begin() + static_cast<ptrdiff_t>(head_); }
    const_iterator end() const { return buf_.end(); }
    size_t size() const { return buf_.size() - head_; }
    bool empty() const { return head_ == buf_.size(); }
    SeqNum front() const { return buf_[head_]; }
    SeqNum back() const { return buf_.back(); }
    SeqNum operator[](size_t i) const { return buf_[head_ + i]; }
    size_t capacity() const { return buf_.capacity(); }

    void push_back(SeqNum seqnum) { buf_.push_back(seqnum); }
    void insert(const_iterator pos, SeqNum seqnum) { buf_.insert(pos, seqnum); }
    void pop_front() {
      if (++head_ == buf_.size()) {
        std::vector<SeqNum>().swap(buf_);
        head_ = 0;
      } else if (head_ * 2 >= buf_.size()) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<SeqNum> buf_;
    size_t head_ = 0;
  };

  struct TagStream {
    // Untrimmed seqnums appended under this tag, in order. The logical offset of seqnums[i]
    // in the stream's full history is base + i: logical offsets for logCondAppend are stable
    // positions even after the trimmed prefix is compacted away.
    SeqRun seqnums;
    // Number of entries trimmed (and freed) from the front of the stream's history.
    size_t base = 0;

    size_t length() const { return base + seqnums.size(); }
  };
  static_assert(std::is_nothrow_move_constructible_v<TagStream>,
                "streams_ growth must move streams, not copy them");

  std::vector<TagId> InternAll(std::vector<std::string> names) {
    std::vector<TagId> ids;
    ids.reserve(names.size());
    for (const std::string& name : names) ids.push_back(tags_.Intern(name));
    return ids;
  }

  struct StoredRecord {
    LogRecordPtr record;
    // Number of tags that still reference this record (not yet trimmed past it).
    int live_tag_refs = 0;
    // Checkpoint round that last emitted this body (0 = never); fills the padding after
    // live_tag_refs, so the stamp costs no record memory.
    uint32_t checkpoint_round = 0;
  };

  // Allocates the next encoded seqnum for an append sequenced by `shard` and advances the
  // watermark. Strictly increasing across shards; exactly watermark + 1 when unsharded.
  SeqNum AllocSeqNum(uint32_t shard) {
    SeqNum local = watermark_ / shard_count_ + 1;
    SeqNum enc = local * shard_count_ + shard;
    watermark_ = enc;
    return enc;
  }

  // Commits one record sequenced by `shard`: allocates its seqnum, installs it, and journals
  // it. The commit listener is AppendGroup's business (once per round).
  SeqNum AppendLocal(SimTime now, uint32_t shard, std::vector<TagId> tags, FieldMap fields);

  // The shared body of AppendLocal and RestoreRecord: builds the immutable record and
  // installs it into the record store, the per-tag sub-streams, and the storage gauge —
  // everything EXCEPT seqnum allocation, journaling, and commit notification, which is
  // exactly what differs between a live append and a journal replay.
  LogRecordPtr InstallRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                             FieldMap fields);
  // Encodes the kRecord / kCkptRecord payload (they share one encoding: seqnum, tags, fields)
  // into the reused payload_ buffer.
  const std::string& EncodeRecordPayload(const LogRecord& record);
  // Builds the immutable record object (op interned) without installing it anywhere.
  LogRecordPtr MakeRecord(SeqNum seqnum, std::vector<TagId> tags, FieldMap fields);
  void JournalRecord(const LogRecord& record);

  // Emits the image frames of `tag`'s sub-stream into the checkpoint store: first a
  // kCkptRecord body for every referenced record not yet emitted this round (each record
  // carries the stamp of the last round that emitted it, compared against checkpoint_round_),
  // then one kCkptTagStream frame with the stream's base and live seqnums. Fully-trimmed
  // streams (empty run, base > 0) are emitted too: their base carries the logical offsets
  // logCondAppend depends on. Returns the walk-budget items consumed (0 when the tag has no
  // stream); increments *frames per frame appended.
  size_t CheckpointTag(TagId tag, storage::CheckpointStore* store, int64_t* frames);

  // Stream for `tag`, or null if the tag never had an append (or was never interned).
  // Interned ids are dense, so the stream table is a flat vector indexed by id: the per-op
  // "hash" is a bounds check.
  const TagStream* FindStream(TagId tag) const {
    return tag < streams_.size() ? &streams_[tag] : nullptr;
  }
  TagStream& StreamFor(TagId tag);

  void ReleaseRef(SimTime now, SeqNum seqnum);

  // Evaluates a logCondAppend condition against the current stream state. Returns true when
  // the append may proceed; on conflict fills `existing` with the occupant of `cond_pos`.
  bool CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing);

  const uint32_t shard_count_;
  TagRegistry tags_;
  TagRegistry ops_;
  metrics::StorageGauge gauge_;
  SeqNum watermark_ = 0;  // Largest encoded seqnum committed so far; 0 = nothing committed.
  std::function<void(SeqNum)> commit_listener_;
  storage::DurabilityService* durability_ = nullptr;  // See AttachDurability.

  std::unordered_map<SeqNum, StoredRecord> records_;
  std::vector<TagStream> streams_;  // Indexed by TagId; grown on first append of a tag.

  // Checkpoint walk (DESIGN.md §14): the current round's stamp (bumped per round, never 0),
  // the cursor (valid between BeginCheckpointWalk and the slice returning true), and the
  // reused encode buffer for record and stream payloads.
  uint32_t checkpoint_round_ = 0;
  TagId walk_next_tag_ = 0;
  std::string payload_;
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_LOG_SPACE_H_
