// The external state: a key-value store with DynamoDB-flavoured semantics.
//
// Three facilities, exactly what the protocols need (§4.1, §4.2, §5.2):
//   * plain Get/Put on a single-version "LATEST" slot per key,
//   * conditional Put that applies only if the stored version tuple is smaller
//     (DynamoDB conditional update, used by Halfmoon-write and by Boki),
//   * multi-version storage layered over plain KV where each version is a separate
//     subkey (used by Halfmoon-read; version numbers are unordered pointers — the
//     write log defines the order).
//
// KvState is pure state; latency/queueing live in KvClient.

#ifndef HALFMOON_KVSTORE_KV_STATE_H_
#define HALFMOON_KVSTORE_KV_STATE_H_

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/common/value.h"
#include "src/metrics/storage_sampler.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::kvstore {

// Handle of a multi-version object: the interned id of its write-log tag ("k:<key>").
// Kept as a plain integer alias so the KV layer stays independent of the shared log.
using ObjectId = uint64_t;

// Version tuple for conditional updates: (cursorTS, consecutive-write counter), compared
// lexicographically (§4.2). Fresh objects carry the zero version, smaller than any write.
struct VersionTuple {
  uint64_t cursor_ts = 0;
  uint64_t counter = 0;

  auto operator<=>(const VersionTuple&) const = default;
};

class KvState {
 public:
  KvState() = default;
  KvState(const KvState&) = delete;
  KvState& operator=(const KvState&) = delete;

  // ---- Single-version (LATEST) slot ----

  std::optional<Value> Get(const std::string& key) const;

  // Unconditional write; leaves the stored version tuple untouched.
  void Put(SimTime now, const std::string& key, Value value);

  // Conditional write: applies iff the stored version is strictly smaller than `version`
  // (missing keys count as version zero). Returns whether the update was applied.
  bool CondPut(SimTime now, const std::string& key, Value value, VersionTuple version);

  std::optional<VersionTuple> GetVersion(const std::string& key) const;

  // ---- Multi-version objects ----
  //
  // Versioned storage is keyed by the object's interned write-log tag id rather than its
  // string key: the protocols already hold the TagId for "k:<key>" (they append the commit
  // record under it), so the version index costs an integer hash per access and never
  // re-hashes the key string.

  void PutVersioned(SimTime now, ObjectId object, const std::string& version_id, Value value);
  std::optional<Value> GetVersioned(ObjectId object, const std::string& version_id) const;
  bool DeleteVersioned(SimTime now, ObjectId object, const std::string& version_id);
  size_t VersionCount(ObjectId object) const;

  int64_t CurrentBytes() const { return gauge_.CurrentBytes(); }
  metrics::StorageGauge& gauge() { return gauge_; }

  size_t key_count() const { return latest_.size(); }

  // Objects currently holding at least one version (the flat index can be longer).
  size_t versioned_object_count() const { return versioned_objects_; }

  // ---- Durable medium + crash-restart recovery (DESIGN.md §13) ----

  // Attaches the durability service: every applied mutation journals a kKv* frame before the
  // client's reply leg fires (the write-ahead gate lives in KvClient). Null detaches.
  void AttachDurability(storage::DurabilityService* svc) { durability_ = svc; }

  // Journal offset one past the most recently journaled mutation — the threshold KvClient
  // hands to WaitOffset before acknowledging a write externally.
  uint64_t last_journal_offset() const { return last_journal_offset_; }

  // Drops everything a node loss destroys: both version indices and the gauge's current
  // bytes. The journal itself lives in the durability service and survives.
  void ResetVolatile(SimTime now);

  // Re-applies one replayed kKv* journal frame without re-journaling it. In strict mode
  // (full replay) restore order is append order, so replayed CondPuts re-apply
  // unconditionally and versioned deletes always find their victim — they were journaled
  // only when they applied (asserted). In fuzzy mode (replay-suffix on top of a checkpoint
  // image, DESIGN.md §14) the image may already reflect the frame: a CondPut whose version
  // is no longer newer and a delete that finds nothing are silently absorbed.
  void RestoreFrame(SimTime now, storage::FrameType type, storage::Cursor cursor,
                    bool fuzzy = false);

  // ---- Incremental checkpointing (DESIGN.md §14) ----
  // The walk snapshots the latest slots (as map-node pointers) and the versioned-object bound
  // at round start, then emits one frame per latest slot / stored version across bounded
  // slices.
  // Keys and versions written after round start are covered by the replay suffix either way,
  // so the fuzzy image + suffix composition is exact.
  void BeginCheckpointWalk();
  // Emits roughly `budget` image frames; returns true once the walk is complete. *frames
  // counts frames appended by this slice.
  bool WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget, int64_t* frames);

  // Image-restore installers (kCkptKvLatest / kCkptKvVersion frames).
  void RestoreCheckpointFrame(SimTime now, storage::FrameType type, storage::Cursor cursor);

 private:
  struct LatestSlot {
    Value value;
    VersionTuple version;
  };

  static int64_t LatestEntryBytes(const std::string& key, const Value& value) {
    return static_cast<int64_t>(key.size() + value.size() + sizeof(VersionTuple));
  }
  static int64_t VersionedEntryBytes(const std::string& version_id, const Value& value) {
    return static_cast<int64_t>(sizeof(ObjectId) + version_id.size() + value.size());
  }

  // Journals `payload_` as one `type` frame.
  void JournalFrame(storage::FrameType type);

  std::unordered_map<std::string, LatestSlot> latest_;
  uint64_t latest_generation_ = 0;  // Bumped whenever latest_ loses keys (ResetVolatile).
  std::string payload_;  // Reused encode buffer for journal and image frame payloads.
  // object -> version_id -> value, indexed by ObjectId. Interned tag ids are dense, so the
  // outer level is a flat vector (grown on first write to an object) instead of a hash map:
  // a versioned access costs one bounds-checked index, no hashing at either level's outer
  // step. Ordered inner map for deterministic iteration in tests/GC.
  std::vector<std::map<std::string, Value>> versioned_;
  size_t versioned_objects_ = 0;  // Objects currently holding at least one version.
  metrics::StorageGauge gauge_;

  storage::DurabilityService* durability_ = nullptr;
  uint64_t last_journal_offset_ = 0;
  bool restoring_ = false;  // Suppresses journaling while RestoreFrame re-applies mutations.

  // Checkpoint-walk cursor (valid between BeginCheckpointWalk and the slice returning true).
  // Latest slots snapshotted at round start; valid while walk_generation_ is current.
  std::vector<const std::pair<const std::string, LatestSlot>*> walk_slots_;
  uint64_t walk_generation_ = 0;
  size_t walk_slot_idx_ = 0;
  size_t walk_object_ = 0;        // Next versioned object to (re)visit.
  size_t walk_object_limit_ = 0;  // versioned_.size() at round start.
  std::string walk_version_;      // Last version emitted of walk_object_ (resume point).
  bool walk_version_valid_ = false;
};

}  // namespace halfmoon::kvstore

#endif  // HALFMOON_KVSTORE_KV_STATE_H_
