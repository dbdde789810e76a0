#include "src/sharedlog/tag_registry.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace halfmoon::sharedlog {

namespace {
constexpr size_t kInitialTableSize = 64;  // Power of two; grown at 2/3 load.
}  // namespace

size_t TagRegistry::ProbeFor(uint64_t hash, std::string_view prefix,
                             std::string_view suffix) const {
  size_t i = static_cast<size_t>(Finalize(hash)) & table_mask_;
  while (true) {
    const Slot& slot = table_[i];
    if (slot.id == kInvalidTagId) return i;
    if (slot.hash == hash) {
      std::string_view name = *names_[slot.id];
      if (name.size() == prefix.size() + suffix.size() &&
          name.substr(0, prefix.size()) == prefix && name.substr(prefix.size()) == suffix) {
        return i;
      }
    }
    i = (i + 1) & table_mask_;
  }
}

void TagRegistry::GrowTable() {
  size_t new_size = table_.empty() ? kInitialTableSize : table_.size() * 2;
  std::vector<Slot> old = std::move(table_);
  table_.assign(new_size, Slot{});
  table_mask_ = new_size - 1;
  // Reinsertion only moves {hash, id} pairs — no name is rehashed or compared (entries are
  // unique by construction, so the first empty slot is always the right destination).
  for (const Slot& slot : old) {
    if (slot.id == kInvalidTagId) continue;
    size_t i = static_cast<size_t>(Finalize(slot.hash)) & table_mask_;
    while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
    table_[i] = slot;
  }
}

TagId TagRegistry::Intern(std::string_view name) {
  ++intern_requests_;
  if (table_.empty()) GrowTable();
  uint64_t hash = HashName(name);
  size_t i = ProbeFor(hash, name, {});
  if (table_[i].id != kInvalidTagId) return table_[i].id;
  return Register(std::string(name), hash);
}

TagId TagRegistry::InternPrefixed(std::string_view prefix, std::string_view suffix) {
  ++intern_requests_;
  if (table_.empty()) GrowTable();
  uint64_t hash = HashName(prefix, suffix);
  size_t i = ProbeFor(hash, prefix, suffix);
  if (table_[i].id != kInvalidTagId) return table_[i].id;
  // First sight: materialize the concatenated name once.
  std::string full;
  full.reserve(prefix.size() + suffix.size());
  full.append(prefix);
  full.append(suffix);
  return Register(std::move(full), hash);
}

TagId TagRegistry::Find(std::string_view name) const {
  if (table_.empty()) return kInvalidTagId;
  return table_[ProbeFor(HashName(name), name, {})].id;
}

TagId TagRegistry::FindPrefixed(std::string_view prefix, std::string_view suffix) const {
  if (table_.empty()) return kInvalidTagId;
  return table_[ProbeFor(HashName(prefix, suffix), prefix, suffix)].id;
}

const std::string& TagRegistry::Name(TagId id) const {
  HM_CHECK_MSG(id < names_.size(), "TagRegistry::Name: unknown TagId");
  return *names_[id];
}

std::vector<TagId> TagRegistry::IdsWithPrefix(std::string_view prefix) const {
  std::vector<TagId> out;
  for (TagId id = 0; id < names_.size(); ++id) {
    if (names_[id]->starts_with(prefix)) out.push_back(id);
  }
  std::sort(out.begin(), out.end(),
            [this](TagId a, TagId b) { return *names_[a] < *names_[b]; });
  return out;
}

TagId TagRegistry::Register(std::string full_name, uint64_t hash) {
  TagId id = names_.size();
  store_.push_back(std::move(full_name));
  const std::string& name = store_.back();
  names_.push_back(&name);
  // The finalized name hash decides the owning shard, so the mapping depends only on the
  // name — never on interning order or process layout.
  shard_of_.push_back(shard_count_ <= 1
                          ? 0u
                          : static_cast<uint32_t>(Finalize(hash) % shard_count_));
  if ((names_.size() + 1) * 3 > table_.size() * 2) GrowTable();
  size_t i = static_cast<size_t>(Finalize(hash)) & table_mask_;
  while (table_[i].id != kInvalidTagId) i = (i + 1) & table_mask_;
  table_[i] = Slot{hash, id};
  if (intern_sink_) intern_sink_(id, name);
  return id;
}

}  // namespace halfmoon::sharedlog
