#include "src/kvstore/kv_state.h"

#include <utility>

#include "src/common/check.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::kvstore {

std::optional<Value> KvState::Get(const std::string& key) const {
  auto it = latest_.find(key);
  if (it == latest_.end()) return std::nullopt;
  return it->second.value;
}

void KvState::Put(SimTime now, const std::string& key, Value value) {
  if (durability_ != nullptr && !restoring_) {
    payload_.clear();
    storage::PutStr(&payload_, key);
    storage::PutStr(&payload_, value);
    JournalFrame(storage::FrameType::kKvPut);
  }
  auto [it, inserted] = latest_.try_emplace(key);
  if (!inserted) {
    gauge_.Add(now, -LatestEntryBytes(key, it->second.value));
  }
  gauge_.Add(now, LatestEntryBytes(key, value));
  it->second.value = std::move(value);
}

bool KvState::CondPut(SimTime now, const std::string& key, Value value, VersionTuple version) {
  auto it = latest_.find(key);
  // Missing keys carry the zero version; the write applies iff its version is larger.
  VersionTuple stored = it == latest_.end() ? VersionTuple{} : it->second.version;
  if (!(stored < version)) return false;
  // Only applied conditional writes are journaled, so replay re-applies them verbatim.
  if (durability_ != nullptr && !restoring_) {
    payload_.clear();
    storage::PutStr(&payload_, key);
    storage::PutStr(&payload_, value);
    storage::PutU64(&payload_, version.cursor_ts);
    storage::PutU64(&payload_, version.counter);
    JournalFrame(storage::FrameType::kKvCondPut);
  }
  if (it == latest_.end()) {
    gauge_.Add(now, LatestEntryBytes(key, value));
    latest_.emplace(key, LatestSlot{std::move(value), version});
    return true;
  }
  gauge_.Add(now, -LatestEntryBytes(key, it->second.value));
  gauge_.Add(now, LatestEntryBytes(key, value));
  it->second.value = std::move(value);
  it->second.version = version;
  return true;
}

std::optional<VersionTuple> KvState::GetVersion(const std::string& key) const {
  auto it = latest_.find(key);
  if (it == latest_.end()) return std::nullopt;
  return it->second.version;
}

void KvState::PutVersioned(SimTime now, ObjectId object, const std::string& version_id,
                           Value value) {
  if (durability_ != nullptr && !restoring_) {
    payload_.clear();
    storage::PutU64(&payload_, object);
    storage::PutStr(&payload_, version_id);
    storage::PutStr(&payload_, value);
    JournalFrame(storage::FrameType::kKvPutVersioned);
  }
  if (object >= versioned_.size()) versioned_.resize(object + 1);
  auto& versions = versioned_[object];
  if (versions.empty()) ++versioned_objects_;
  auto [it, inserted] = versions.try_emplace(version_id);
  if (!inserted) {
    // Idempotent re-write of the same version (a retried SSF re-creating the version it
    // already wrote): replace without double-accounting.
    gauge_.Add(now, -VersionedEntryBytes(version_id, it->second));
  }
  gauge_.Add(now, VersionedEntryBytes(version_id, value));
  it->second = std::move(value);
}

std::optional<Value> KvState::GetVersioned(ObjectId object,
                                           const std::string& version_id) const {
  if (object >= versioned_.size()) return std::nullopt;
  const auto& versions = versioned_[object];
  auto vit = versions.find(version_id);
  if (vit == versions.end()) return std::nullopt;
  return vit->second;
}

bool KvState::DeleteVersioned(SimTime now, ObjectId object, const std::string& version_id) {
  if (object >= versioned_.size()) return false;
  auto& versions = versioned_[object];
  auto vit = versions.find(version_id);
  if (vit == versions.end()) return false;
  // Journaled only when something is actually released (replay asserts the same).
  if (durability_ != nullptr && !restoring_) {
    payload_.clear();
    storage::PutU64(&payload_, object);
    storage::PutStr(&payload_, version_id);
    JournalFrame(storage::FrameType::kKvDeleteVersioned);
  }
  gauge_.Add(now, -VersionedEntryBytes(version_id, vit->second));
  versions.erase(vit);
  if (versions.empty()) --versioned_objects_;
  return true;
}

size_t KvState::VersionCount(ObjectId object) const {
  return object < versioned_.size() ? versioned_[object].size() : 0;
}

void KvState::ResetVolatile(SimTime now) {
  gauge_.Add(now, -gauge_.CurrentBytes());
  latest_.clear();
  ++latest_generation_;  // Invalidates the node pointers an in-flight walk holds.
  versioned_.clear();
  versioned_objects_ = 0;
  // The journal tail rolled back to the durable frontier with the kill; future mutations
  // re-establish the ack threshold. Zero is always already durable.
  last_journal_offset_ = 0;
}

void KvState::RestoreFrame(SimTime now, storage::FrameType type, storage::Cursor cursor,
                           bool fuzzy) {
  restoring_ = true;
  switch (type) {
    case storage::FrameType::kKvPut: {
      std::string key(cursor.Str());
      Value value(cursor.Str());
      Put(now, key, std::move(value));
      break;
    }
    case storage::FrameType::kKvCondPut: {
      std::string key(cursor.Str());
      Value value(cursor.Str());
      VersionTuple version{cursor.U64(), cursor.U64()};
      bool applied = CondPut(now, key, std::move(value), version);
      // Fuzzy suffix replay: the image may already carry this (or a newer) version — the
      // condition re-rejects it, which is exactly the idempotence we need.
      HM_CHECK_MSG(applied || fuzzy, "journal replay: conditional put no longer applies");
      break;
    }
    case storage::FrameType::kKvPutVersioned: {
      ObjectId object = cursor.U64();
      std::string version_id(cursor.Str());
      Value value(cursor.Str());
      PutVersioned(now, object, version_id, std::move(value));
      break;
    }
    case storage::FrameType::kKvDeleteVersioned: {
      ObjectId object = cursor.U64();
      std::string version_id(cursor.Str());
      bool released = DeleteVersioned(now, object, version_id);
      // Fuzzy: the image may have been snapshotted after this delete already applied.
      HM_CHECK_MSG(released || fuzzy,
                   "journal replay: versioned delete found nothing to release");
      break;
    }
    default:
      HM_CHECK_MSG(false, "journal replay: unexpected frame type in the KV journal");
  }
  restoring_ = false;
}

void KvState::BeginCheckpointWalk() {
  walk_slots_.clear();
  walk_slots_.reserve(latest_.size());
  for (const auto& entry : latest_) walk_slots_.push_back(&entry);
  walk_generation_ = latest_generation_;
  walk_slot_idx_ = 0;
  walk_object_ = 0;
  walk_object_limit_ = versioned_.size();
  walk_version_.clear();
  walk_version_valid_ = false;
}

bool KvState::WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget,
                                   int64_t* frames) {
  int64_t consumed = 0;
  // Latest slots first. The slots were snapshotted at round start as map-node pointers, which
  // survive rehashing; only ResetVolatile erases keys, and it bumps the generation. The values
  // and versions read here are whatever the slot holds NOW — fuzziness the replay suffix
  // absorbs.
  HM_CHECK_MSG(walk_slot_idx_ == walk_slots_.size() || walk_generation_ == latest_generation_,
               "checkpoint walk: latest slot vanished");
  while (walk_slot_idx_ < walk_slots_.size()) {
    if (consumed >= budget) return false;
    const auto& [key, slot] = *walk_slots_[walk_slot_idx_++];
    payload_.clear();
    storage::PutStr(&payload_, key);
    storage::PutStr(&payload_, slot.value);
    storage::PutU64(&payload_, slot.version.cursor_ts);
    storage::PutU64(&payload_, slot.version.counter);
    store->AppendFrame(storage::FrameType::kCkptKvLatest, payload_);
    ++*frames;
    ++consumed;
  }
  // Then the version index, resumable mid-object: versions can be inserted or GC'd between
  // slices (ordered map, no iterator held across the pause), and objects past the round-start
  // bound are suffix-only.
  while (walk_object_ < walk_object_limit_) {
    const auto& versions = versioned_[walk_object_];
    auto it = walk_version_valid_ ? versions.upper_bound(walk_version_) : versions.begin();
    while (it != versions.end()) {
      // Pause before `it`: the resume point stays the last version emitted, so the next
      // slice's upper_bound lands back on `it`.
      if (consumed >= budget) return false;
      payload_.clear();
      storage::PutU64(&payload_, static_cast<uint64_t>(walk_object_));
      storage::PutStr(&payload_, it->first);
      storage::PutStr(&payload_, it->second);
      store->AppendFrame(storage::FrameType::kCkptKvVersion, payload_);
      ++*frames;
      ++consumed;
      walk_version_ = it->first;
      walk_version_valid_ = true;
      ++it;
    }
    ++walk_object_;
    walk_version_.clear();
    walk_version_valid_ = false;
  }
  return true;
}

void KvState::RestoreCheckpointFrame(SimTime now, storage::FrameType type,
                                     storage::Cursor cursor) {
  switch (type) {
    case storage::FrameType::kCkptKvLatest: {
      std::string key(cursor.Str());
      Value value(cursor.Str());
      VersionTuple version{cursor.U64(), cursor.U64()};
      // Direct slot install: a slot's value (last Put) and version (last applied CondPut)
      // evolve independently, so neither public mutator alone could reproduce it.
      auto [it, inserted] = latest_.try_emplace(key, LatestSlot{std::move(value), version});
      HM_CHECK_MSG(inserted, "checkpoint image installs a latest slot twice");
      gauge_.Add(now, LatestEntryBytes(key, it->second.value));
      break;
    }
    case storage::FrameType::kCkptKvVersion: {
      ObjectId object = cursor.U64();
      std::string version_id(cursor.Str());
      Value value(cursor.Str());
      if (object >= versioned_.size()) versioned_.resize(object + 1);
      auto& versions = versioned_[object];
      if (versions.empty()) ++versioned_objects_;
      auto [it, inserted] = versions.try_emplace(version_id, std::move(value));
      HM_CHECK_MSG(inserted, "checkpoint image installs a version twice");
      gauge_.Add(now, VersionedEntryBytes(version_id, it->second));
      break;
    }
    default:
      HM_CHECK_MSG(false, "unexpected frame type in a KV checkpoint image");
  }
}

void KvState::JournalFrame(storage::FrameType type) {
  last_journal_offset_ = durability_->AppendFrame(type, payload_);
}

}  // namespace halfmoon::kvstore
