// String-tag interning for the shared log.
//
// Every sub-stream name ("<instance-id>", "k:<key>", "switch:<scope>", "ssf.init", ...) is
// interned exactly once into a dense 64-bit TagId. After that, every append/read/trim hashes
// a single integer instead of building and hashing a fresh std::string — the metadata cost
// Halfmoon's one-record-per-op design is meant to avoid (§4, Theorem 4.6).
//
// Two structures, both owned here:
//   * table_    — open-addressed {hash, id} slots (no per-entry heap node): a lookup is a
//                 linear probe over a contiguous array plus one name verification, with
//                 heterogeneous support so a two-part name like ("k:", key) is hashed *as
//                 if concatenated* without allocating,
//   * names_    — dense id → name (pointers into store_'s stable entries).
// There is deliberately no name-ordered index: it would cost a tree node and a string
// compare chain on every intern — one per invocation for step logs — while prefix
// enumeration (IdsWithPrefix here, LogSpace::LiveTagsWithPrefix for the GC) is rare enough
// to scan the dense ids and sort the matches.
//
// Invariants:
//   * ids are dense and assigned in interning order; names are never un-interned, so every
//     returned `const std::string&` / string_view stays valid for the registry's lifetime;
//   * Intern(name) == InternPrefixed(prefix, suffix) whenever name == prefix + suffix —
//     guaranteed by hashing the logical concatenation with the same streaming polynomial
//     hash (split-invariant: mixing bytes in two parts equals mixing them in one);
//   * intern_requests() - hits never exceeds size(): each distinct name is materialized
//     (allocated, hashed as a string) at most once, which the bench asserts.

#ifndef HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
#define HALFMOON_SHAREDLOG_TAG_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/sharedlog/log_record.h"

namespace halfmoon::sharedlog {

class TagRegistry {
 public:
  TagRegistry() = default;
  TagRegistry(const TagRegistry&) = delete;
  TagRegistry& operator=(const TagRegistry&) = delete;

  // Returns the id for `name`, creating it on first sight.
  TagId Intern(std::string_view name);

  // Returns the id for the logical name `prefix + suffix` without concatenating unless the
  // name is new. This is the steady-state entry point for two-part names ("k:" + key).
  TagId InternPrefixed(std::string_view prefix, std::string_view suffix);

  // Lookup without interning; kInvalidTagId if the name was never interned. Used by read
  // paths that must not grow the registry for names that cannot have records.
  TagId Find(std::string_view name) const;
  TagId FindPrefixed(std::string_view prefix, std::string_view suffix) const;

  // Full string name of an interned id. Aborts on out-of-range ids.
  const std::string& Name(TagId id) const;

  bool Contains(TagId id) const { return id < names_.size(); }

  // All interned ids whose name starts with `prefix`, in name order (a scan over every
  // interned name, then a sort of the matches).
  std::vector<TagId> IdsWithPrefix(std::string_view prefix) const;

  // Number of distinct names interned so far.
  size_t size() const { return names_.size(); }

  // ---- Tag → shard mapping (sharded shared log) ----
  // The mapping is a pure function of the tag *name* (finalized name hash mod shard count),
  // so it is identical across runs, processes, and interning orders — a prerequisite for the
  // shard-equivalence guarantees. Must be set before the first interning; a single-shard
  // registry (the default) maps every tag to shard 0.
  void SetShardCount(uint32_t shard_count) {
    HM_CHECK_MSG(names_.empty(), "TagRegistry::SetShardCount after tags were interned");
    HM_CHECK(shard_count >= 1);
    shard_count_ = shard_count;
  }
  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(TagId id) const {
    HM_CHECK_MSG(id < shard_of_.size(), "TagRegistry::ShardOf: unknown TagId");
    return shard_of_[id];
  }

  // Total Intern/InternPrefixed calls. size() staying flat while this grows proves the
  // steady state never re-materializes a tag name (acceptance criterion of ISSUE 2).
  int64_t intern_requests() const { return intern_requests_; }

  // Fires once per NEWLY registered name, with its freshly assigned id — Register is the
  // single insertion point, so repeat interns never re-fire. The durability layer hooks this
  // to journal kTagDef frames (DESIGN.md §13): the (id, name) assignment is volatile sequencer
  // state, and replay cross-checks it against the journal.
  void SetInternSink(std::function<void(TagId, std::string_view)> sink) {
    intern_sink_ = std::move(sink);
  }

 private:
  // Polynomial rolling hash: h := h*r + byte for every byte. Appending is a monoid action,
  // so Mix(Mix(h, a), b) == Mix(h, ab) for any split — hashing ("k:", key) equals hashing
  // the concatenated name. Unlike byte-at-a-time FNV (whose multiply chain is one 3-cycle
  // dependency per byte), the loop consumes 8 bytes per step: the eight byte·r^k products
  // are independent, leaving a single multiply on the critical path per word.
  static constexpr uint64_t kR = kFnvPrime;  // Odd multiplier; names hash from kFnvBasis.
  static constexpr uint64_t Pow(int k) {
    uint64_t p = 1;
    for (int i = 0; i < k; ++i) p *= kR;
    return p;
  }
  static uint64_t Mix(uint64_t h, std::string_view s) {
    constexpr uint64_t kR8 = Pow(8), kR7 = Pow(7), kR6 = Pow(6), kR5 = Pow(5), kR4 = Pow(4),
                       kR3 = Pow(3), kR2 = Pow(2);
    const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
    size_t n = s.size();
    for (; n >= 8; n -= 8, p += 8) {
      h = h * kR8 + (p[0] * kR7 + p[1] * kR6 + p[2] * kR5 + p[3] * kR4 + p[4] * kR3 +
                     p[5] * kR2 + p[6] * kR + p[7]);
    }
    for (; n > 0; --n, ++p) h = h * kR + *p;
    return h;
  }
  static uint64_t HashName(std::string_view name) { return Mix(kFnvBasis, name); }
  static uint64_t HashName(std::string_view prefix, std::string_view suffix) {
    return Mix(Mix(kFnvBasis, prefix), suffix);
  }
  // Low bits of a polynomial hash are weak (mod-2^64 products never see high bits), so the
  // probe start position comes from a finalizer, not the raw hash.
  static uint64_t Finalize(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  // One open-addressing slot: the full 64-bit hash as a fingerprint plus the id. A slot is
  // empty iff id == kInvalidTagId. Entries are never removed, so linear probing needs no
  // tombstones, and growing the table reinserts {hash, id} pairs without touching a name.
  struct Slot {
    uint64_t hash = 0;
    TagId id = kInvalidTagId;
  };

  // Probe for the slot holding `hash` + a name equal to prefix+suffix (suffix may be empty
  // and prefix the full name). Returns the matching slot index, or the empty slot where the
  // name would be inserted.
  size_t ProbeFor(uint64_t hash, std::string_view prefix, std::string_view suffix) const;

  TagId Register(std::string full_name, uint64_t hash);
  void GrowTable();

  std::deque<std::string> store_;              // Stable name storage, one entry per id.
  std::vector<Slot> table_;                    // Open-addressed name → id index.
  size_t table_mask_ = 0;                      // table_.size() - 1 (size is a power of two).
  std::vector<const std::string*> names_;      // Dense id → name (stable pointers).
  int64_t intern_requests_ = 0;
  std::function<void(TagId, std::string_view)> intern_sink_;
  uint32_t shard_count_ = 1;
  std::vector<uint32_t> shard_of_;  // Dense id → owning shard (all 0 when unsharded).
};

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_TAG_REGISTRY_H_
