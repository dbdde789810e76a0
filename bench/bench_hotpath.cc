// Hot-path microbenchmark for the simulator's metadata path (see DESIGN.md "Performance
// architecture"): the zero-copy read path, the flat field map, the allocation-free scheduler
// loop, and — since the tag-interning change — interned TagIds, the incremental GC frontier,
// and coalesced index propagation.
//
// The binary embeds two faithful replicas so each speedup compares like with like inside one
// process:
//   * `legacy`  — the seed implementation: std::map field map, deep-copy reads, a per-tag
//                 index that never shrinks on Trim, std::function-backed events;
//   * `pr1`     — the previous PR's implementation: zero-copy shared records and compacted
//                 deque streams, but with std::string tags — every operation builds and
//                 hashes a tag string, and streams live in an unordered_map keyed by string.
// Both replicas run the *same* simulated op sequence as the current implementation, and the
// checksums must match exactly.
//
// The PR 3 baseline needs no replica: the group-commit batcher and the timer wheel both keep
// a reference mode in the tree (AppendBatchConfig{.enabled = false}, QueueMode::
// kPriorityQueue), so the driven log-heavy section runs the real cluster in last PR's
// configuration against the current one and asserts the committed log content is identical.
//
// Output: BENCH_hotpath.json in the working directory, plus a human-readable summary on
// stdout. HM_BENCH_SCALE scales the workload size.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/check.h"
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

// ---------------------------------------------------------------------------
// Baseline replica: the seed implementation, verbatim in structure.
// ---------------------------------------------------------------------------
namespace legacy {

using Tag = std::string;
using Field = std::variant<int64_t, std::string>;

class FieldMap {
 public:
  void SetInt(const std::string& key, int64_t v) { fields_[key] = v; }
  void SetStr(const std::string& key, std::string v) { fields_[key] = std::move(v); }
  int64_t GetInt(const std::string& key) const { return std::get<int64_t>(fields_.at(key)); }
  const std::string& GetStr(const std::string& key) const {
    return std::get<std::string>(fields_.at(key));
  }
  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& [key, field] : fields_) {
      total += 2;
      total += std::holds_alternative<int64_t>(field) ? 8 : std::get<std::string>(field).size();
    }
    return total;
  }

 private:
  std::map<std::string, Field> fields_;
};

struct LogRecord {
  SeqNum seqnum = 0;
  std::vector<Tag> tags;
  FieldMap fields;
  size_t ByteSize() const {
    size_t total = 8 + fields.ByteSize();
    for (const Tag& tag : tags) total += tag.size();
    return total;
  }
};

// The seed's LogSpace: records stored by value, reads deep-copy, the per-tag index keeps
// every seqnum ever appended (Trim only advances a cursor), and prefix enumeration scans all
// streams then sorts.
class LogSpace {
 public:
  SeqNum Append(std::vector<Tag> tags, FieldMap fields) {
    SeqNum seqnum = next_seqnum_++;
    LogRecord record;
    record.seqnum = seqnum;
    record.tags = std::move(tags);
    record.fields = std::move(fields);
    StoredRecord stored;
    stored.live_tag_refs = static_cast<int>(record.tags.size());
    for (const Tag& tag : record.tags) {
      streams_[tag].seqnums.push_back(seqnum);
    }
    stored.record = std::move(record);
    records_.emplace(seqnum, std::move(stored));
    return seqnum;
  }

  std::optional<LogRecord> ReadPrev(const Tag& tag, SeqNum max_seqnum) const {
    auto it = streams_.find(tag);
    if (it == streams_.end()) return std::nullopt;
    const TagStream& stream = it->second;
    for (size_t i = stream.seqnums.size(); i > stream.trimmed; --i) {
      SeqNum seqnum = stream.seqnums[i - 1];
      if (seqnum > max_seqnum) continue;
      std::optional<LogRecord> record = LookupLive(seqnum);
      if (record.has_value()) return record;
    }
    return std::nullopt;
  }

  std::vector<LogRecord> ReadStream(const Tag& tag) const {
    std::vector<LogRecord> result;
    auto it = streams_.find(tag);
    if (it == streams_.end()) return result;
    const TagStream& stream = it->second;
    for (size_t i = stream.trimmed; i < stream.seqnums.size(); ++i) {
      std::optional<LogRecord> record = LookupLive(stream.seqnums[i]);
      if (record.has_value()) result.push_back(std::move(*record));
    }
    return result;
  }

  std::optional<LogRecord> FindFirstByStep(const Tag& tag, const std::string& op,
                                           int64_t step) const {
    auto it = streams_.find(tag);
    if (it == streams_.end()) return std::nullopt;
    const TagStream& stream = it->second;
    for (size_t i = stream.trimmed; i < stream.seqnums.size(); ++i) {
      std::optional<LogRecord> record = LookupLive(stream.seqnums[i]);
      if (!record.has_value()) continue;
      if (record->fields.GetStr("op") == op && record->fields.GetInt("step") == step) {
        return record;
      }
    }
    return std::nullopt;
  }

  std::vector<Tag> StreamTagsWithPrefix(const std::string& prefix) const {
    std::vector<Tag> tags;
    for (const auto& [tag, stream] : streams_) {
      if (tag.size() >= prefix.size() && tag.compare(0, prefix.size(), prefix) == 0 &&
          stream.trimmed < stream.seqnums.size()) {
        tags.push_back(tag);
      }
    }
    std::sort(tags.begin(), tags.end());
    return tags;
  }

  void Trim(const Tag& tag, SeqNum upto) {
    auto it = streams_.find(tag);
    if (it == streams_.end()) return;
    TagStream& stream = it->second;
    while (stream.trimmed < stream.seqnums.size() && stream.seqnums[stream.trimmed] <= upto) {
      ReleaseRef(stream.seqnums[stream.trimmed]);
      ++stream.trimmed;
    }
  }

 private:
  struct TagStream {
    std::vector<SeqNum> seqnums;  // Grows forever; Trim only advances `trimmed`.
    size_t trimmed = 0;
  };
  struct StoredRecord {
    LogRecord record;
    int live_tag_refs = 0;
  };

  std::optional<LogRecord> LookupLive(SeqNum seqnum) const {
    auto it = records_.find(seqnum);
    if (it == records_.end()) return std::nullopt;
    return it->second.record;  // Deep copy: tags, field map nodes, value bytes.
  }

  void ReleaseRef(SeqNum seqnum) {
    auto it = records_.find(seqnum);
    if (it == records_.end()) return;
    if (--it->second.live_tag_refs <= 0) records_.erase(it);
  }

  SeqNum next_seqnum_ = 1;
  std::unordered_map<SeqNum, StoredRecord> records_;
  std::unordered_map<Tag, TagStream> streams_;
};

// The seed's event queue: std::function-backed events, PostResume wrapping via a lambda.
class EventQueue {
 public:
  void Post(SimTime time, std::function<void()> fn) {
    queue_.push(Event{time, next_seq_++, std::move(fn)});
  }
  uint64_t Drain() {
    uint64_t fired = 0;
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      event.fn();
      ++fired;
    }
    return fired;
  }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  uint64_t next_seq_ = 0;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// PR 1 replica: zero-copy records and compacted streams, but std::string tags.
// Every append/read/trim materializes a tag string and hashes its bytes; the stream table is
// an unordered_map keyed by string; live tags mirror into a std::set<std::string>.
// ---------------------------------------------------------------------------
namespace pr1 {

using Tag = std::string;

struct LogRecord {
  SeqNum seqnum = 0;
  std::vector<Tag> tags;
  FieldMap fields;  // PR 1 already had the flat field map.
  size_t ByteSize() const {
    size_t total = 8 + fields.ByteSize();
    for (const Tag& tag : tags) total += tag.size();
    return total;
  }
};
using LogRecordPtr = std::shared_ptr<const LogRecord>;

class LogSpace {
 public:
  SeqNum Append(std::vector<Tag> tags, FieldMap fields) {
    SeqNum seqnum = next_seqnum_++;
    auto record = std::make_shared<LogRecord>();
    record->seqnum = seqnum;
    record->tags = std::move(tags);
    record->fields = std::move(fields);
    StoredRecord stored;
    stored.live_tag_refs = static_cast<int>(record->tags.size());
    gauge_.Add(0, static_cast<int64_t>(record->ByteSize()));
    for (const Tag& tag : record->tags) {
      TagStream& stream = streams_[tag];
      if (stream.seqnums.empty()) live_tags_.insert(tag);
      stream.seqnums.push_back(seqnum);
    }
    stored.record = std::move(record);
    records_.emplace(seqnum, std::move(stored));
    return seqnum;
  }

  LogRecordPtr ReadPrev(const Tag& tag, SeqNum max_seqnum) const {
    const TagStream* stream = FindStream(tag);
    if (stream == nullptr) return nullptr;
    auto upper = std::upper_bound(stream->seqnums.begin(), stream->seqnums.end(), max_seqnum);
    if (upper == stream->seqnums.begin()) return nullptr;
    return LookupLive(*(upper - 1));
  }

  std::vector<LogRecordPtr> ReadStream(const Tag& tag) const {
    std::vector<LogRecordPtr> out;
    const TagStream* stream = FindStream(tag);
    if (stream == nullptr) return out;
    out.reserve(stream->seqnums.size());
    for (SeqNum seqnum : stream->seqnums) {
      LogRecordPtr record = LookupLive(seqnum);
      if (record != nullptr) out.push_back(std::move(record));
    }
    return out;
  }

  LogRecordPtr FindFirstByStep(const Tag& tag, const std::string& op, int64_t step) const {
    const TagStream* stream = FindStream(tag);
    if (stream == nullptr) return nullptr;
    for (SeqNum seqnum : stream->seqnums) {
      LogRecordPtr record = LookupLive(seqnum);
      if (record == nullptr) continue;
      if (record->fields.GetStr("op") == op && record->fields.GetInt("step") == step) {
        return record;
      }
    }
    return nullptr;
  }

  std::vector<Tag> StreamTagsWithPrefix(const std::string& prefix) const {
    std::vector<Tag> tags;
    for (auto it = live_tags_.lower_bound(prefix); it != live_tags_.end(); ++it) {
      if (it->compare(0, prefix.size(), prefix) != 0) break;
      tags.push_back(*it);
    }
    return tags;
  }

  void Trim(const Tag& tag, SeqNum upto) {
    auto it = streams_.find(tag);
    if (it == streams_.end()) return;
    TagStream& stream = it->second;
    while (!stream.seqnums.empty() && stream.seqnums.front() <= upto) {
      ReleaseRef(stream.seqnums.front());
      stream.seqnums.pop_front();
      ++stream.base;
    }
    if (stream.seqnums.empty() && stream.base > 0) live_tags_.erase(tag);
  }

 private:
  struct TagStream {
    std::deque<SeqNum> seqnums;
    size_t base = 0;
  };
  struct StoredRecord {
    LogRecordPtr record;
    int live_tag_refs = 0;
  };

  const TagStream* FindStream(const Tag& tag) const {
    auto it = streams_.find(tag);
    return it == streams_.end() ? nullptr : &it->second;
  }

  LogRecordPtr LookupLive(SeqNum seqnum) const {
    auto it = records_.find(seqnum);
    if (it == records_.end()) return nullptr;
    return it->second.record;
  }

  void ReleaseRef(SeqNum seqnum) {
    auto it = records_.find(seqnum);
    if (it == records_.end()) return;
    if (--it->second.live_tag_refs <= 0) {
      gauge_.Add(0, -static_cast<int64_t>(it->second.record->ByteSize()));
      records_.erase(it);
    }
  }

  SeqNum next_seqnum_ = 1;
  std::unordered_map<SeqNum, StoredRecord> records_;
  std::unordered_map<Tag, TagStream> streams_;
  std::set<Tag> live_tags_;
  metrics::StorageGauge gauge_;  // PR 1 carried the same storage accounting.
};

}  // namespace pr1

// ---------------------------------------------------------------------------
// Workload: identical op sequence against any of the three implementations.
// ---------------------------------------------------------------------------

struct WorkloadShape {
  int rounds = 8;
  int appends_per_round = 1024;
  int read_reps = 6;      // ReadStream sweeps per instance per round.
  int instances = 16;     // Step-log streams.
  int objects = 64;       // Per-object write-log streams ("k:...").
  size_t value_bytes = 256;
};

// The tag-cost section: metadata-only records (value_bytes = 0 — Halfmoon's log records
// carry op/step metadata, values live in the KV store), few stream sweeps, and a wide tag
// universe so per-op tag handling (string building + hashing against string-keyed tables vs
// interned-id indexing) dominates.
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

// Drives one implementation through the append/read/trim cycle. `Adapter` supplies the
// implementation-specific calls; the sequence of simulated operations is identical.
template <typename Adapter>
WorkloadResult RunLogWorkload(const WorkloadShape& shape, Adapter& impl) {
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

// Best-of-N wall-clock measurement with the two sides interleaved pass by pass (fresh
// adapters each pass), so transient load on the host hits both sides alike instead of
// skewing whichever happened to run during the noisy window. Every pass of every side must
// observe identical data.
template <typename BaselineT, typename CandidateT>
std::pair<WorkloadResult, WorkloadResult> BestOfInterleaved(int passes,
                                                            const WorkloadShape& shape) {
  WorkloadResult best_base, best_cand;
  for (int pass = 0; pass < passes; ++pass) {
    BaselineT baseline(shape);
    WorkloadResult base = RunLogWorkload(shape, baseline);
    CandidateT candidate(shape);
    WorkloadResult cand = RunLogWorkload(shape, candidate);
    HM_CHECK_MSG(base.checksum == cand.checksum, "workload sides observed different data");
    if (pass == 0) {
      best_base = base;
      best_cand = cand;
    } else {
      HM_CHECK_MSG(base.checksum == best_base.checksum,
                   "workload passes observed different data");
      if (base.seconds < best_base.seconds) best_base = base;
      if (cand.seconds < best_cand.seconds) best_cand = cand;
    }
  }
  return {best_base, best_cand};
}

// Pre-built identities shared by the adapters so every implementation receives the same
// inputs the runtime would hand it: an instance id and an object key. What differs is what
// each implementation has to *do* with them per operation. Names use realistic lengths —
// instance ids are invocation UUIDs and object keys are composite ("table/partition/object")
// in real deployments, not three-byte labels.
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

// Current implementation: step tags interned once per instance (as Env::step_tag does) and
// object tags resolved by the two-part InternPrefixed hit path (as Env::WriteTag does) —
// one hash of the key bytes, no string building, vector-indexed streams. The per-object
// version index (Halfmoon's per-key version list in the KV store) is keyed by TagId.
class OptimizedAdapter {
 public:
  explicit OptimizedAdapter(const WorkloadShape& shape)
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

// PR 1: same zero-copy storage, but every operation builds (or copies) a tag string and
// hashes its bytes against a string-keyed table; the version index is keyed by key string.
class Pr1Adapter {
 public:
  explicit Pr1Adapter(const WorkloadShape& shape)
      : instances_(InstanceNames(shape.instances)),
        keys_(ObjectKeys(shape.objects)),
        has_value_(shape.value_bytes > 0) {}

  void Append(int instance, int object, int64_t step, size_t value_bytes) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", step);
    if (value_bytes > 0) fields.SetStr("value", PadValue("x", value_bytes));
    // TwoTags(step_tag, WriteLogTag(key)) in PR 1: one copy, one move into the tag vector.
    std::vector<pr1::Tag> tags;
    tags.reserve(2);
    tags.push_back(instances_[instance]);
    tags.push_back(ObjTag(object));
    last_ = space_.Append(std::move(tags), std::move(fields));
    versions_[keys_[object]].push_back(last_);  // PutVersioned against the string-keyed index.
  }
  uint64_t ReadStreamBytes(int instance) {
    uint64_t bytes = 0;
    for (const pr1::LogRecordPtr& record : space_.ReadStream(instances_[instance])) {
      bytes += has_value_ ? record->fields.GetStr("value").size()
                          : static_cast<uint64_t>(record->fields.GetInt("step"));
    }
    return bytes;
  }
  uint64_t ReadPrevSeq(int object) {
    const std::vector<SeqNum>& versions = versions_[keys_[object]];
    uint64_t latest = versions.empty() ? 0 : versions.back();
    pr1::LogRecordPtr record = space_.ReadPrev(ObjTag(object), last_);
    return (record != nullptr ? record->seqnum : 0) + latest;
  }
  uint64_t FindFirstSeq(int instance, int64_t step) {
    pr1::LogRecordPtr record = space_.FindFirstByStep(instances_[instance], "write", step);
    return record != nullptr ? record->seqnum : 0;
  }
  uint64_t PrefixScanCount() { return space_.StreamTagsWithPrefix("k:").size(); }
  void TrimObjectHalf(int object) {
    pr1::Tag tag = ObjTag(object);
    pr1::LogRecordPtr latest = space_.ReadPrev(tag, last_);
    if (latest != nullptr && latest->seqnum > 0) space_.Trim(tag, latest->seqnum - 1);
    std::vector<SeqNum>& versions = versions_[keys_[object]];
    if (versions.size() > 1) versions.erase(versions.begin(), versions.end() - 1);
  }

 private:
  // What WriteLogTag(key) did before interning: build "k:<key>" for every operation.
  pr1::Tag ObjTag(int object) { return "k:" + keys_[object]; }
  pr1::LogSpace space_;
  std::vector<std::string> instances_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string, std::vector<SeqNum>> versions_;
  SeqNum last_ = 0;
  bool has_value_ = true;
};

// Seed implementation driver (deep-copy reads, unbounded index).
class LegacyAdapter {
 public:
  explicit LegacyAdapter(const WorkloadShape& shape)
      : instances_(InstanceNames(shape.instances)),
        keys_(ObjectKeys(shape.objects)),
        has_value_(shape.value_bytes > 0) {}

  void Append(int instance, int object, int64_t step, size_t value_bytes) {
    legacy::FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", step);
    if (value_bytes > 0) fields.SetStr("value", PadValue("x", value_bytes));
    last_ = space_.Append({instances_[instance], ObjTag(object)}, std::move(fields));
    versions_[keys_[object]].push_back(last_);
  }
  uint64_t ReadStreamBytes(int instance) {
    uint64_t bytes = 0;
    for (const legacy::LogRecord& record : space_.ReadStream(instances_[instance])) {
      bytes += has_value_ ? record.fields.GetStr("value").size()
                          : static_cast<uint64_t>(record.fields.GetInt("step"));
    }
    return bytes;
  }
  uint64_t ReadPrevSeq(int object) {
    const std::vector<SeqNum>& versions = versions_[keys_[object]];
    uint64_t latest = versions.empty() ? 0 : versions.back();
    std::optional<legacy::LogRecord> record = space_.ReadPrev(ObjTag(object), last_);
    return (record.has_value() ? record->seqnum : 0) + latest;
  }
  uint64_t FindFirstSeq(int instance, int64_t step) {
    std::optional<legacy::LogRecord> record =
        space_.FindFirstByStep(instances_[instance], "write", step);
    return record.has_value() ? record->seqnum : 0;
  }
  uint64_t PrefixScanCount() { return space_.StreamTagsWithPrefix("k:").size(); }
  void TrimObjectHalf(int object) {
    legacy::Tag tag = ObjTag(object);
    std::optional<legacy::LogRecord> latest = space_.ReadPrev(tag, last_);
    if (latest.has_value() && latest->seqnum > 0) space_.Trim(tag, latest->seqnum - 1);
    std::vector<SeqNum>& versions = versions_[keys_[object]];
    if (versions.size() > 1) versions.erase(versions.begin(), versions.end() - 1);
  }

 private:
  legacy::Tag ObjTag(int object) { return "k:" + keys_[object]; }
  legacy::LogSpace space_;
  std::vector<std::string> instances_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string, std::vector<SeqNum>> versions_;
  SeqNum last_ = 0;
  bool has_value_ = true;
};

// ---------------------------------------------------------------------------
// Tag-intern micro-section: resolving "k:<key>" per operation, PR 1 style (build the string,
// hash it against a string-keyed map) vs the two-part InternPrefixed hit path.
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

  // PR 1 path: "k:" + key materialized and byte-hashed every time.
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
  runtime::ClusterConfig config;
  config.function_nodes = 1;
  runtime::Cluster cluster(config);
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

  // From-scratch scan replica (the pre-incremental implementation).
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
  runtime::ClusterConfig config;
  config.function_nodes = 8;
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
// Event-loop workload: post + drain cycles through either queue implementation.
// ---------------------------------------------------------------------------

struct EventResult {
  uint64_t events = 0;
  double seconds = 0.0;
};

// Events capture what the simulation's real call sites capture: a couple of pointers plus a
// value (~32 bytes) — beyond std::function's small-buffer optimization, within the
// scheduler's inline event storage.
EventResult RunLegacyEvents(uint64_t total, int batch) {
  legacy::EventQueue queue;
  EventResult out;
  uint64_t counter = 0;
  uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  while (out.events < total) {
    for (int i = 0; i < batch; ++i) {
      queue.Post(static_cast<SimTime>(i % 7), [&counter, &sink, &out, i] {
        counter += static_cast<uint64_t>(i) + sink + out.events;
      });
    }
    out.events += queue.Drain();
  }
  out.seconds = SecondsSince(start);
  if (counter == 0) std::printf("(unreachable)\n");
  return out;
}

EventResult RunOptimizedEvents(uint64_t total, int batch) {
  sim::Scheduler scheduler;
  EventResult out;
  uint64_t counter = 0;
  uint64_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  while (out.events < total) {
    uint64_t before = scheduler.events_processed();
    for (int i = 0; i < batch; ++i) {
      scheduler.Post(static_cast<SimDuration>(i % 7), [&counter, &sink, &out, i] {
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
// Driven log-heavy section: a real cluster (LogClient + stations + scheduler) under
// concurrent appenders. The embedded PR 2 baseline is the same binary with group commit
// disabled and the binary-heap scheduler — exactly the previous PR's configuration. The
// candidate runs the AppendBatcher + timer wheel. Committed content must be identical
// (the full-scale batched-vs-unbatched equivalence assertion); wall-clock time and
// events-per-op measure what group commit and the wheel buy.
// ---------------------------------------------------------------------------

struct DrivenResult {
  uint64_t sim_ops = 0;       // Log appends + cond-appends + reads driven through clients.
  uint64_t events = 0;        // Scheduler events fired to simulate them.
  uint64_t checksum = 0;      // Mode-invariant fold of all committed per-worker streams.
  double seconds = 0.0;
  int64_t append_rounds = 0;  // Batched mode only: sequencer rounds and their occupancy.
  int64_t batched_requests = 0;
};

struct DrivenShape {
  int nodes = 4;
  int workers_per_node = 48;
  int ops_per_worker = 192;
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
      // cross-mode checksum: read timing (and thus what a bounded read sees) legitimately
      // differs between batched and unbatched runs.
      LogRecordPtr record = co_await log.ReadPrev(own, log.indexed_upto());
      if (record != nullptr) *read_sink += static_cast<uint64_t>(record->seqnum) & 7u;
    }
  }
}

DrivenResult RunDrivenLogHeavy(bool batched, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  // PR 2 configuration vs current: group commit + timer wheel off or on, as a unit.
  config.group_commit_appends = batched;
  config.queue_mode = batched ? sim::QueueMode::kTimerWheel : sim::QueueMode::kPriorityQueue;
  runtime::Cluster cluster(config);

  int total_workers = shape.nodes * shape.workers_per_node;
  std::vector<TagId> worker_tags;
  worker_tags.reserve(total_workers);
  for (int w = 0; w < total_workers; ++w) {
    worker_tags.push_back(cluster.log_space().tags().Intern("w:" + std::to_string(w)));
  }
  uint64_t read_sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < total_workers; ++w) {
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
  // Content fingerprint: each worker stream's step sequence in order (program order for its
  // single writer), combined order-independently across workers. Identical for the batched
  // and unbatched runs — group commit must not change what commits, only when.
  for (int w = 0; w < total_workers; ++w) {
    uint64_t h = 1469598103934665603ull;
    for (const LogRecordPtr& record :
         cluster.log_space().ReadStreamUpTo(worker_tags[w], sharedlog::kMaxSeqNum)) {
      h = (h ^ static_cast<uint64_t>(record->fields.GetInt("step"))) * 1099511628211ull;
    }
    out.checksum ^= h;
  }
  // The committed record count must also agree (no stream escaped the fingerprint).
  out.checksum += cluster.log_space().next_seqnum();
  if (read_sink == ~0ull) std::printf("(unreachable)\n");  // Keep the reads observable.
  return out;
}

std::pair<DrivenResult, DrivenResult> BestOfDriven(int passes, const DrivenShape& shape) {
  DrivenResult best_base, best_cand;
  for (int pass = 0; pass < passes; ++pass) {
    DrivenResult base = RunDrivenLogHeavy(/*batched=*/false, shape);
    DrivenResult cand = RunDrivenLogHeavy(/*batched=*/true, shape);
    HM_CHECK_MSG(base.checksum == cand.checksum,
                 "group commit changed committed log content");
    if (pass == 0) {
      best_base = base;
      best_cand = cand;
      continue;
    }
    HM_CHECK_MSG(base.checksum == best_base.checksum,
                 "driven passes observed different data");
    if (base.seconds < best_base.seconds) best_base = base;
    if (cand.seconds < best_cand.seconds) best_cand = cand;
  }
  return {best_base, best_cand};
}

// ---------------------------------------------------------------------------
// Shard-scaling section: the same offered load against a 1-shard and a 4-shard log. The
// bottleneck sharding removes is the sequencer: each node's batcher keeps at most one
// sequencer round in flight per shard, so with hundreds of concurrent workers per node a
// single shard serializes rounds end to end while four shards run four rounds concurrently.
// The measured quantity is *simulated* throughput — committed appends per virtual second —
// at identical offered load; committed per-stream content must be shard-invariant.
// ---------------------------------------------------------------------------

struct ShardRunResult {
  uint64_t appends = 0;
  SimTime end_time = 0;
  uint64_t checksum = 0;      // Order-independent fold of per-worker stream contents.
  int64_t append_rounds = 0;  // Sequencer rounds across all nodes and shards.
};

sim::Task<void> ShardWorker(runtime::Cluster* cluster, int node, TagId own, TagId obj,
                            int ops) {
  sharedlog::LogClient& log = cluster->node(node).log();
  for (int i = 0; i < ops; ++i) {
    FieldMap fields;
    fields.SetStr("op", "write");
    fields.SetInt("step", i);
    co_await log.Append(sharedlog::TwoTags(own, obj), std::move(fields));
  }
}

ShardRunResult RunShardScaling(int shards, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  config.log_shards = shards;
  config.append_batch_pipeline = 1;  // The PR 5 baseline: serial rounds, shard scaling only
                                     // (the pipeline section measures depth; pinned so the
                                     // CI HM_PIPELINE legs don't move this gate).
  runtime::Cluster cluster(config);

  int total_workers = shape.nodes * shape.workers_per_node;
  std::vector<TagId> worker_tags;
  worker_tags.reserve(total_workers);
  for (int w = 0; w < total_workers; ++w) {
    worker_tags.push_back(cluster.log_space().tags().Intern("w:" + std::to_string(w)));
  }
  for (int w = 0; w < total_workers; ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 64));
    cluster.scheduler().Spawn(ShardWorker(&cluster, w % shape.nodes, worker_tags[w], obj,
                                          shape.ops_per_worker));
  }
  cluster.scheduler().Run();

  ShardRunResult out;
  out.end_time = cluster.scheduler().Now();
  out.appends = static_cast<uint64_t>(cluster.TotalLogAppends());
  for (int n = 0; n < cluster.node_count(); ++n) {
    out.append_rounds += cluster.node(n).log().stats().append_rounds;
  }
  // Per-worker streams are single-writer, so their step sequences are program order under
  // any shard count; fold them order-independently across workers.
  for (int w = 0; w < total_workers; ++w) {
    uint64_t h = 1469598103934665603ull;
    for (const LogRecordPtr& record :
         cluster.log_space().ReadStreamUpTo(worker_tags[w], sharedlog::kMaxSeqNum)) {
      h = (h ^ static_cast<uint64_t>(record->fields.GetInt("step"))) * 1099511628211ull;
    }
    out.checksum ^= h;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pipeline section: the same round-limited append storm against the serial group-commit
// engine (pipeline depth 1, the PR 3 baseline) and the pipelined engine (depth 4). One
// explicit shard so the single sequencer is the bottleneck, and more concurrent workers per
// node than max_batch so the pending queue always holds more than one full round — the
// regime where overlapping rounds pays. Committed content and the final seqnum must be
// depth-invariant (the FIFO commit-ticket assertion at full scale); the measured quantity is
// simulated throughput, so the >= 1.5x gate below is deterministic, not a wall-clock guess.
// ---------------------------------------------------------------------------

struct PipelineRunResult {
  uint64_t appends = 0;
  SimTime end_time = 0;
  uint64_t checksum = 0;   // Order-independent fold of per-worker stream contents.
  uint64_t next_seqnum = 0;
  int64_t append_rounds = 0;
  int64_t rounds_overlapped = 0;
  int64_t max_inflight = 0;
  int64_t ctrl_raised = 0;
  int64_t ctrl_widened = 0;
  int64_t ctrl_narrowed = 0;
  int64_t ctrl_lowered = 0;
};

PipelineRunResult RunPipelineStorm(int depth, const DrivenShape& shape) {
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
  config.log_shards = 1;                 // One sequencer: the round-limited regime.
  config.append_batch_pipeline = depth;  // Pinned, independent of HM_PIPELINE.
  runtime::Cluster cluster(config);

  int total_workers = shape.nodes * shape.workers_per_node;
  std::vector<TagId> worker_tags;
  worker_tags.reserve(total_workers);
  for (int w = 0; w < total_workers; ++w) {
    worker_tags.push_back(cluster.log_space().tags().Intern("w:" + std::to_string(w)));
  }
  for (int w = 0; w < total_workers; ++w) {
    TagId obj = cluster.log_space().tags().InternPrefixed("k:", std::to_string(w % 64));
    cluster.scheduler().Spawn(ShardWorker(&cluster, w % shape.nodes, worker_tags[w], obj,
                                          shape.ops_per_worker));
  }
  cluster.scheduler().Run();

  PipelineRunResult out;
  out.end_time = cluster.scheduler().Now();
  out.appends = static_cast<uint64_t>(cluster.TotalLogAppends());
  out.next_seqnum = cluster.log_space().next_seqnum();
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
  for (int w = 0; w < total_workers; ++w) {
    uint64_t h = 1469598103934665603ull;
    for (const LogRecordPtr& record :
         cluster.log_space().ReadStreamUpTo(worker_tags[w], sharedlog::kMaxSeqNum)) {
      h = (h ^ static_cast<uint64_t>(record->fields.GetInt("step"))) * 1099511628211ull;
    }
    out.checksum ^= h;
  }
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
  runtime::ClusterConfig config;
  config.function_nodes = shape.nodes;
  config.seed = 1;
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
  sharedlog::LogClient client{&scheduler, &rng, &models, &space, nullptr, nullptr};
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
  WorkloadShape shape;
  shape.rounds = std::max(2, static_cast<int>(shape.rounds * scale));
  WorkloadShape heavy = LogHeavyShape();
  heavy.rounds = std::max(2, static_cast<int>(heavy.rounds * scale));
  const uint64_t event_total = static_cast<uint64_t>(2'000'000 * scale);
  const uint64_t intern_iters = static_cast<uint64_t>(4'000'000 * scale);
  const uint64_t frontier_iters = static_cast<uint64_t>(4'000'000 * scale);
  constexpr int kEventBatch = 4096;

  std::printf("== Hot-path benchmark: seed baseline vs PR 1 (string tags) vs current ==\n");

  // Warm-up all sides once to stabilize the allocator, then measure.
  {
    WorkloadShape tiny = shape;
    tiny.rounds = 1;
    LegacyAdapter warm_legacy(tiny);
    RunLogWorkload(tiny, warm_legacy);
    Pr1Adapter warm_pr1(tiny);
    RunLogWorkload(tiny, warm_pr1);
    OptimizedAdapter warm_opt(tiny);
    RunLogWorkload(tiny, warm_opt);
  }

  // Section 1: the seed baseline comparison (the original shape, payload-heavy).
  auto [base, opt] = BestOfInterleaved<LegacyAdapter, OptimizedAdapter>(2, shape);

  // Section 2: PR 1 vs current on the log-heavy data-structure shape (tag handling).
  auto [pr1_res, opt_heavy] = BestOfInterleaved<Pr1Adapter, OptimizedAdapter>(9, heavy);

  // Section 2b: the driven log-heavy shape — a real cluster under concurrent appenders.
  // Baseline = PR 2 configuration (per-request appends, binary-heap scheduler); candidate =
  // group commit + timer wheel. Committed content is asserted identical every pass.
  DrivenShape driven_shape;
  driven_shape.ops_per_worker =
      std::max(32, static_cast<int>(driven_shape.ops_per_worker * scale));
  RunDrivenLogHeavy(/*batched=*/true, DrivenShape{2, 8, 32});  // Warm-up.
  auto [pr2_driven, cur_driven] = BestOfDriven(5, driven_shape);

  // Section 2c: shard scaling. High per-node concurrency so a single shard's one-round-in-
  // flight sequencer pipeline is the bottleneck; four shards run four rounds concurrently.
  // Simulated time is deterministic, so one run per side suffices.
  DrivenShape shard_shape;
  shard_shape.nodes = 2;
  shard_shape.workers_per_node = 256;
  shard_shape.ops_per_worker = std::max(12, static_cast<int>(48 * scale));
  ShardRunResult one_shard = RunShardScaling(1, shard_shape);
  ShardRunResult four_shard = RunShardScaling(4, shard_shape);
  HM_CHECK_MSG(one_shard.checksum == four_shard.checksum,
               "sharding changed committed log content");
  HM_CHECK(one_shard.appends == four_shard.appends);
  double one_shard_tput =
      static_cast<double>(one_shard.appends) / ToSecondsDouble(one_shard.end_time);
  double four_shard_tput =
      static_cast<double>(four_shard.appends) / ToSecondsDouble(four_shard.end_time);
  double shard_speedup = four_shard_tput / one_shard_tput;
  // Simulated time is deterministic, so this is a hard regression gate, not a flaky perf
  // assertion: four shards must scale log-heavy throughput by at least 1.8x.
  HM_CHECK_MSG(shard_speedup >= 1.8, "shard scaling fell below the 1.8x floor");

  // Section 2f: pipelined group commit. Same offered load through one sequencer at pipeline
  // depth 1 (the PR 3 serial engine) and depth 4; committed content and the final seqnum
  // must be identical, and depth 4 must commit the storm at least 1.5x faster in simulated
  // time. Deterministic, so the floor is a hard regression gate.
  DrivenShape pipe_shape;
  pipe_shape.nodes = 2;
  pipe_shape.workers_per_node = 256;
  pipe_shape.ops_per_worker = std::max(12, static_cast<int>(48 * scale));
  PipelineRunResult pipe_d1 = RunPipelineStorm(1, pipe_shape);
  PipelineRunResult pipe_d2 = RunPipelineStorm(2, pipe_shape);
  PipelineRunResult pipe_d4 = RunPipelineStorm(4, pipe_shape);
  PipelineRunResult pipe_d8 = RunPipelineStorm(8, pipe_shape);
  for (const PipelineRunResult* r : {&pipe_d2, &pipe_d4, &pipe_d8}) {
    HM_CHECK_MSG(pipe_d1.checksum == r->checksum,
                 "pipelining changed committed log content");
    HM_CHECK_MSG(pipe_d1.next_seqnum == r->next_seqnum,
                 "pipelining changed the committed record count");
    HM_CHECK(pipe_d1.appends == r->appends);
  }
  HM_CHECK_MSG(pipe_d1.rounds_overlapped == 0, "serial engine overlapped rounds");
  auto pipe_tput = [](const PipelineRunResult& r) {
    return static_cast<double>(r.appends) / ToSecondsDouble(r.end_time);
  };
  double pipe_d1_tput = pipe_tput(pipe_d1);
  double pipe_d2_tput = pipe_tput(pipe_d2);
  double pipe_d4_tput = pipe_tput(pipe_d4);
  double pipe_d8_tput = pipe_tput(pipe_d8);
  double pipe_speedup = pipe_d4_tput / pipe_d1_tput;
  HM_CHECK_MSG(pipe_d4.rounds_overlapped > 0, "depth-4 pipeline never overlapped rounds");
  HM_CHECK_MSG(pipe_speedup >= 1.5, "pipelined group commit fell below the 1.5x floor");

  // Section 2d: the node-local read cache on the Halfmoon-read log-free read mix (1 write
  // per 8 reads over shared objects). Cache-off is the reference; the cache must cut
  // simulated completion time, and the hit rate is the headline number.
  DrivenShape cache_shape;
  cache_shape.nodes = 4;
  cache_shape.workers_per_node = 16;
  cache_shape.ops_per_worker = std::max(32, static_cast<int>(128 * scale));
  CacheRunResult cache_on = RunReadCache(/*cache_enabled=*/true, cache_shape);
  CacheRunResult cache_off = RunReadCache(/*cache_enabled=*/false, cache_shape);
  HM_CHECK_MSG(cache_off.cache_hits == 0 && cache_off.cache_misses == 0,
               "read cache counters moved with the cache disabled");
  double cache_hit_rate =
      static_cast<double>(cache_on.cache_hits) /
      static_cast<double>(std::max<int64_t>(1, cache_on.cache_hits + cache_on.cache_misses));
  double cache_time_ratio =
      ToSecondsDouble(cache_off.end_time) / ToSecondsDouble(cache_on.end_time);
  // Also deterministic: the log-free read mix must hit the cache at least 60% of the time.
  HM_CHECK_MSG(cache_hit_rate >= 0.6, "read-cache hit rate fell below the 60% floor");

  // Section 3: tag interning and frontier micro-sections.
  TagInternResult intern = RunTagInternMicro(intern_iters);
  FrontierResult frontier = RunFrontierMicro(frontier_iters);

  // Section 4: index-propagation coalescing on a real cluster. The reference run must be
  // observably identical (bit-identical virtual time and final replica state).
  int appends_per_node = std::max(16, static_cast<int>(64 * scale));
  PropagationResult coalesced = RunPropagation(/*coalesce=*/true, appends_per_node);
  PropagationResult reference = RunPropagation(/*coalesce=*/false, appends_per_node);
  HM_CHECK_MSG(coalesced.end_time == reference.end_time &&
                   coalesced.indexed_upto == reference.indexed_upto,
               "coalesced propagation changed observable simulation state");
  double coalescing_ratio = static_cast<double>(coalesced.commits) /
                            static_cast<double>(std::max<int64_t>(1, coalesced.ticks));

  EventResult base_events = RunLegacyEvents(event_total, kEventBatch);
  EventResult opt_events = RunOptimizedEvents(event_total, kEventBatch);

  // Section 5: binary-heap reference vs timer wheel on the same multi-level delay storm.
  EventResult pq_events = RunSchedulerEvents(sim::QueueMode::kPriorityQueue, event_total,
                                             kEventBatch);
  EventResult wheel_events = RunSchedulerEvents(sim::QueueMode::kTimerWheel, event_total,
                                                kEventBatch);

  AuditResult audit = RunZeroCopyAudit();
  HM_CHECK_MSG(audit.copies == 0, "read path copied a record");

  // Section 6: the online advisor over a drifting million-object keyspace (gates inside).
  AdvisorDriftResult drift = RunAdvisorDrift(scale);

  double base_ops = static_cast<double>(base.ops) / base.seconds;
  double opt_ops = static_cast<double>(opt.ops) / opt.seconds;
  double pr1_ops = static_cast<double>(pr1_res.ops) / pr1_res.seconds;
  double opt_heavy_ops = static_cast<double>(opt_heavy.ops) / opt_heavy.seconds;
  double base_eps = static_cast<double>(base_events.events) / base_events.seconds;
  double opt_eps = static_cast<double>(opt_events.events) / opt_events.seconds;
  double pq_eps = static_cast<double>(pq_events.events) / pq_events.seconds;
  double wheel_eps = static_cast<double>(wheel_events.events) / wheel_events.seconds;
  double pr2_ops = static_cast<double>(pr2_driven.sim_ops) / pr2_driven.seconds;
  double cur_ops = static_cast<double>(cur_driven.sim_ops) / cur_driven.seconds;
  double pr2_epo = static_cast<double>(pr2_driven.events) /
                   static_cast<double>(std::max<uint64_t>(1, pr2_driven.sim_ops));
  double cur_epo = static_cast<double>(cur_driven.events) /
                   static_cast<double>(std::max<uint64_t>(1, cur_driven.sim_ops));
  double occupancy = static_cast<double>(cur_driven.batched_requests) /
                     static_cast<double>(std::max<int64_t>(1, cur_driven.append_rounds));

  std::printf("  log ops:     seed %.0f ops/s, current %.0f ops/s (%.2fx)\n", base_ops,
              opt_ops, opt_ops / base_ops);
  std::printf("  log-heavy (struct): pr1 %.0f ops/s, current %.0f ops/s (%.2fx)\n", pr1_ops,
              opt_heavy_ops, opt_heavy_ops / pr1_ops);
  std::printf("  log-heavy (driven): pr2 %.0f ops/s (%.2f ev/op), current %.0f ops/s"
              " (%.2f ev/op) (%.2fx)\n",
              pr2_ops, pr2_epo, cur_ops, cur_epo, cur_ops / pr2_ops);
  std::printf("  group commit: %lld requests over %lld rounds (%.2f occupancy)\n",
              static_cast<long long>(cur_driven.batched_requests),
              static_cast<long long>(cur_driven.append_rounds), occupancy);
  std::printf("  shard scaling: 1 shard %.0f appends/vsec, 4 shards %.0f appends/vsec"
              " (%.2fx)\n",
              one_shard_tput, four_shard_tput, shard_speedup);
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
  std::printf("  events:      baseline %.0f ev/s, optimized %.0f ev/s (%.2fx)\n", base_eps,
              opt_eps, opt_eps / base_eps);
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
               "  \"baseline\": {\"sim_ops_per_sec\": %.1f, \"events_per_sec\": %.1f,\n"
               "               \"log_ops\": %llu, \"events\": %llu},\n"
               "  \"optimized\": {\"sim_ops_per_sec\": %.1f, \"events_per_sec\": %.1f,\n"
               "                \"log_ops\": %llu, \"events\": %llu},\n"
               "  \"speedup_sim_ops\": %.3f,\n"
               "  \"speedup_events\": %.3f,\n"
               "  \"log_heavy_struct\": {\"pr1_sim_ops_per_sec\": %.1f,\n"
               "                \"optimized_sim_ops_per_sec\": %.1f, \"log_ops\": %llu},\n"
               "  \"speedup_vs_pr1\": %.3f,\n"
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
               base_ops, base_eps, static_cast<unsigned long long>(base.ops),
               static_cast<unsigned long long>(base_events.events), opt_ops, opt_eps,
               static_cast<unsigned long long>(opt.ops),
               static_cast<unsigned long long>(opt_events.events), opt_ops / base_ops,
               opt_eps / base_eps, pr1_ops, opt_heavy_ops,
               static_cast<unsigned long long>(opt_heavy.ops), opt_heavy_ops / pr1_ops,
               pr2_ops, cur_ops, static_cast<unsigned long long>(cur_driven.sim_ops),
               pr2_epo, cur_epo, static_cast<long long>(cur_driven.append_rounds),
               static_cast<long long>(cur_driven.batched_requests), occupancy,
               cur_ops / pr2_ops, one_shard_tput, four_shard_tput, shard_speedup,
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
