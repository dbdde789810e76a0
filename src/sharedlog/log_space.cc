#include "src/sharedlog/log_space.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

LogSpace::LogSpace(uint32_t shard_count) : shard_count_(shard_count) {
  HM_CHECK_MSG(shard_count >= 1, "LogSpace: shard_count must be >= 1");
  // The tag → shard mapping must be fixed before any tag is interned.
  tags_.SetShardCount(shard_count);
  // Pre-intern the two global streams so their ids are compile-time constants everywhere.
  HM_CHECK(tags_.Intern(InitLogTag()) == kInitTagId);
  HM_CHECK(tags_.Intern(FinishLogTag()) == kFinishTagId);
  // Same for the protocol op names (the kOp* constants of log_record.h).
  HM_CHECK(ops_.Intern("init") == kOpInit);
  HM_CHECK(ops_.Intern("read") == kOpRead);
  HM_CHECK(ops_.Intern("write-pre") == kOpWritePre);
  HM_CHECK(ops_.Intern("write") == kOpWrite);
  HM_CHECK(ops_.Intern("invoke-pre") == kOpInvokePre);
  HM_CHECK(ops_.Intern("invoke") == kOpInvoke);
  HM_CHECK(ops_.Intern("sync") == kOpSync);
  HM_CHECK(ops_.Intern("BEGIN") == kOpSwitchBegin);
  HM_CHECK(ops_.Intern("END") == kOpSwitchEnd);
}

LogSpace::TagStream& LogSpace::StreamFor(TagId tag) {
  HM_CHECK_MSG(tags_.Contains(tag), "LogSpace: tag id was never interned");
  if (tag >= streams_.size()) streams_.resize(tag + 1);
  return streams_[tag];
}

uint32_t LogSpace::RouteShard(const GroupRequest& request) const {
  HM_CHECK(!request.entries.empty());
  if (request.cond_tag != kInvalidTagId) return tags_.ShardOf(request.cond_tag);
  HM_CHECK_MSG(!request.entries[0].tags.empty(), "log records must carry at least one tag");
  return tags_.ShardOf(request.entries[0].tags[0]);
}

std::vector<LogSpace::GroupVerdict> LogSpace::AppendGroup(SimTime now,
                                                          std::vector<GroupRequest> requests) {
  std::vector<GroupVerdict> verdicts(requests.size());
  SeqNum last = kInvalidSeqNum;
  for (size_t i = 0; i < requests.size(); ++i) {
    GroupRequest& request = requests[i];
    GroupVerdict& verdict = verdicts[i];
    const uint32_t shard = RouteShard(request);
    if (request.cond_tag != kInvalidTagId) {
      // The offset check is meaningless unless the new record appears in the cond stream.
      HM_CHECK_MSG(std::find(request.entries[0].tags.begin(), request.entries[0].tags.end(),
                             request.cond_tag) != request.entries[0].tags.end(),
                   "logCondAppend: cond_tag must be one of the first entry's tags");
      if (!CondHolds(request.cond_tag, request.cond_pos, &verdict.existing_seqnum)) {
        continue;  // This request loses; later requests still get their turn.
      }
    }
    verdict.ok = true;
    for (size_t j = 0; j < request.entries.size(); ++j) {
      last = AppendLocal(now, shard, std::move(request.entries[j].tags),
                         std::move(request.entries[j].fields));
      if (j == 0) verdict.seqnum = last;
    }
  }
  // One notification carrying the round's last committed seqnum, so no index replica ever
  // observes part of an atomically committed sub-group.
  if (commit_listener_ && last != kInvalidSeqNum) commit_listener_(last);
  return verdicts;
}

LogSpace::GroupVerdict LogSpace::AppendOne(SimTime now, GroupRequest request) {
  std::vector<GroupRequest> requests;
  requests.push_back(std::move(request));
  return AppendGroup(now, std::move(requests))[0];
}

SeqNum LogSpace::Append(SimTime now, std::vector<TagId> tags, FieldMap fields) {
  std::vector<BatchEntry> batch(1);
  batch[0] = BatchEntry{std::move(tags), std::move(fields)};
  return AppendBatch(now, std::move(batch));
}

CondAppendResult LogSpace::CondAppend(SimTime now, std::vector<TagId> tags, FieldMap fields,
                                      TagId cond_tag, size_t cond_pos) {
  std::vector<BatchEntry> batch(1);
  batch[0] = BatchEntry{std::move(tags), std::move(fields)};
  return CondAppendBatch(now, std::move(batch), cond_tag, cond_pos);
}

SeqNum LogSpace::AppendBatch(SimTime now, std::vector<BatchEntry> batch) {
  return AppendOne(now, GroupRequest{std::move(batch)}).seqnum;
}

CondAppendResult LogSpace::CondAppendBatch(SimTime now, std::vector<BatchEntry> batch,
                                           TagId cond_tag, size_t cond_pos) {
  HM_CHECK(cond_tag != kInvalidTagId);
  GroupVerdict verdict = AppendOne(now, GroupRequest{std::move(batch), cond_tag, cond_pos});
  CondAppendResult result;
  result.ok = verdict.ok;
  result.seqnum = verdict.seqnum;
  result.existing_seqnum = verdict.existing_seqnum;
  if (verdict.ok) result.record = Get(verdict.seqnum);
  return result;
}

SeqNum LogSpace::AppendLocal(SimTime now, uint32_t shard, std::vector<TagId> tags,
                             FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  SeqNum seqnum = AllocSeqNum(shard);
  LogRecordPtr record = InstallRecord(now, seqnum, std::move(tags), std::move(fields));
  // Write-ahead ordering: the frame is journaled at commit, before the listener can start
  // index propagation — the cluster gates propagation (and the client gates its external
  // ack) on this frame becoming durable.
  if (durability_ != nullptr) JournalRecord(*record);
  return seqnum;
}

LogRecordPtr LogSpace::MakeRecord(SeqNum seqnum, std::vector<TagId> tags, FieldMap fields) {
  auto record = std::make_shared<LogRecord>();
  record->seqnum = seqnum;
  record->tags = std::move(tags);
  record->fields = std::move(fields);
  if (record->fields.Has("op")) {
    record->op = ops_.Intern(record->fields.GetStr("op"));
  }
  return record;
}

LogRecordPtr LogSpace::InstallRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                     FieldMap fields) {
  LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
  StoredRecord stored;
  stored.live_tag_refs = static_cast<int>(record->tags.size());
  gauge_.Add(now, static_cast<int64_t>(record->ByteSize()));
  // Encoded seqnums are allocated in global commit order, so pushing to the back keeps every
  // stream sorted whichever shard sequenced the record.
  for (TagId tag : record->tags) StreamFor(tag).seqnums.push_back(seqnum);
  stored.record = record;
  records_.emplace(seqnum, std::move(stored));
  return record;
}

const std::string& LogSpace::EncodeRecordPayload(const LogRecord& record) {
  payload_.clear();
  storage::PutU64(&payload_, record.seqnum);
  storage::PutU32(&payload_, static_cast<uint32_t>(record.tags.size()));
  for (TagId tag : record.tags) storage::PutU64(&payload_, tag);
  storage::PutU32(&payload_, static_cast<uint32_t>(record.fields.size()));
  for (const auto& [key, field] : record.fields) {
    storage::PutStr(&payload_, key);
    if (const int64_t* i = std::get_if<int64_t>(&field)) {
      storage::PutU8(&payload_, 0);
      storage::PutU64(&payload_, static_cast<uint64_t>(*i));
    } else {
      storage::PutU8(&payload_, 1);
      storage::PutStr(&payload_, std::get<std::string>(field));
    }
  }
  return payload_;
}

void LogSpace::JournalRecord(const LogRecord& record) {
  uint64_t end = durability_->AppendFrame(storage::FrameType::kRecord,
                                          EncodeRecordPayload(record));
  durability_->NoteCommit(record.seqnum, end);
}

void LogSpace::AttachDurability(storage::DurabilityService* svc) {
  durability_ = svc;
  if (svc == nullptr) {
    tags_.SetInternSink(nullptr);
    return;
  }
  tags_.SetInternSink([svc](TagId id, std::string_view name) {
    std::string payload;
    storage::PutU64(&payload, id);
    storage::PutStr(&payload, name);
    svc->AppendFrame(storage::FrameType::kTagDef, payload);
  });
}

void LogSpace::ResetVolatile(SimTime now) {
  gauge_.Add(now, -gauge_.CurrentBytes());
  watermark_ = 0;
  records_.clear();
  streams_.clear();
}

void LogSpace::RestoreRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                             FieldMap fields, bool fuzzy) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  if (!fuzzy) {
    // Frames replay in append order and seqnums are allocated in commit order, so a replay
    // observes strictly increasing seqnums; the watermark lands exactly where the original
    // run's durable prefix left it.
    HM_CHECK_MSG(seqnum > watermark_, "journal replay out of commit order");
    watermark_ = seqnum;
    InstallRecord(now, seqnum, std::move(tags), std::move(fields));
    return;
  }
  // Replay-suffix on top of a fuzzy image: the image may reflect this record in none, some,
  // or all of its streams (each stream was snapshotted at its own instant). The body installs
  // once; each stream does a sorted check-and-insert so already-absorbed frames are no-ops.
  // Seqnums need not arrive above the watermark — image streams already carried later ones.
  EnsureWatermark(seqnum);
  auto it = records_.find(seqnum);
  if (it == records_.end()) {
    LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
    gauge_.Add(now, static_cast<int64_t>(record->ByteSize()));
    it = records_.emplace(seqnum, StoredRecord{std::move(record), 0}).first;
  }
  StoredRecord& stored = it->second;
  for (TagId tag : stored.record->tags) {
    TagStream& stream = StreamFor(tag);
    auto pos = std::lower_bound(stream.seqnums.begin(), stream.seqnums.end(), seqnum);
    if (pos != stream.seqnums.end() && *pos == seqnum) continue;  // Image already has it.
    stream.seqnums.insert(pos, seqnum);
    ++stored.live_tag_refs;
  }
}

void LogSpace::RestoreTrim(SimTime now, TagId tag, SeqNum upto, size_t base_after) {
  HM_CHECK_MSG(tags_.Contains(tag), "journal replay trims an unknown tag");
  TagStream& stream = StreamFor(tag);
  while (!stream.seqnums.empty() && stream.seqnums.front() <= upto) {
    ReleaseRef(now, stream.seqnums.front());
    stream.seqnums.pop_front();
  }
  // max() rather than += pops: when the image already absorbed (part of) this trim the pops
  // above release fewer records than the original did, but the journaled base_after is the
  // exact base the original trim left behind — logical offsets stay correct either way.
  if (stream.base < base_after) stream.base = base_after;
}

void LogSpace::BeginCheckpointWalk() {
  walk_next_tag_ = 0;
  // A fresh stamp marks every record body as not yet emitted this round. 0 means "never
  // emitted", so a wrapped counter skips it.
  if (++checkpoint_round_ == 0) ++checkpoint_round_;
}

bool LogSpace::WriteCheckpointSlice(storage::CheckpointStore* store, int64_t budget,
                                    int64_t* frames) {
  int64_t consumed = 0;
  while (walk_next_tag_ < tags_.size()) {
    if (consumed >= budget) return false;
    consumed += static_cast<int64_t>(CheckpointTag(walk_next_tag_++, store, frames));
  }
  return true;
}

size_t LogSpace::CheckpointTag(TagId tag, storage::CheckpointStore* store, int64_t* frames) {
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr || stream->length() == 0) return 0;
  size_t consumed = 1;
  // Emit each referenced body once per round, before the first stream that references it.
  for (SeqNum seqnum : stream->seqnums) {
    auto it = records_.find(seqnum);
    HM_CHECK_MSG(it != records_.end(), "checkpoint walk: stream references a dead record");
    if (it->second.checkpoint_round != checkpoint_round_) {
      it->second.checkpoint_round = checkpoint_round_;
      store->AppendFrame(storage::FrameType::kCkptRecord, EncodeRecordPayload(*it->second.record));
      ++*frames;
      ++consumed;
    }
  }
  payload_.clear();
  storage::PutU64(&payload_, tag);
  storage::PutU64(&payload_, stream->base);
  storage::PutU32(&payload_, static_cast<uint32_t>(stream->seqnums.size()));
  for (SeqNum seqnum : stream->seqnums) storage::PutU64(&payload_, seqnum);
  consumed += stream->seqnums.size();
  store->AppendFrame(storage::FrameType::kCkptTagStream, payload_);
  ++*frames;
  return consumed;
}

void LogSpace::RestoreCheckpointRecord(SimTime now, SeqNum seqnum, std::vector<TagId> tags,
                                       FieldMap fields) {
  HM_CHECK_MSG(!tags.empty(), "log records must carry at least one tag");
  LogRecordPtr record = MakeRecord(seqnum, std::move(tags), std::move(fields));
  gauge_.Add(now, static_cast<int64_t>(record->ByteSize()));
  bool inserted = records_.emplace(seqnum, StoredRecord{std::move(record), 0}).second;
  HM_CHECK_MSG(inserted, "checkpoint image installs a record twice");
  EnsureWatermark(seqnum);
}

void LogSpace::RestoreCheckpointStream(SimTime now, TagId tag, size_t base,
                                       const std::vector<SeqNum>& seqnums) {
  (void)now;
  HM_CHECK_MSG(tags_.Contains(tag), "checkpoint image names an unknown tag");
  TagStream& stream = StreamFor(tag);
  HM_CHECK_MSG(stream.seqnums.empty() && stream.base == 0,
               "checkpoint image restores a stream twice");
  stream.base = base;
  for (SeqNum seqnum : seqnums) {
    HM_CHECK_MSG(stream.seqnums.empty() || stream.seqnums.back() < seqnum,
                 "checkpoint image stream is not sorted");
    stream.seqnums.push_back(seqnum);
    auto it = records_.find(seqnum);
    HM_CHECK_MSG(it != records_.end(),
                 "checkpoint image stream references a record the image does not carry");
    ++it->second.live_tag_refs;
    EnsureWatermark(seqnum);
  }
}

bool LogSpace::CondHolds(TagId cond_tag, size_t cond_pos, SeqNum* existing) {
  TagStream& stream = StreamFor(cond_tag);
  if (stream.length() == cond_pos) return true;
  // Conflict: some peer already appended at (or past) the expected offset. Report the record
  // occupying that offset so the caller can recover its peer's state. Unlike the description
  // in §5.1 we can check *before* physically appending because LogSpace is the linearization
  // point itself; the observable behaviour (append undone, existing seqnum returned) is
  // identical.
  HM_CHECK_MSG(cond_pos < stream.length(),
               "logCondAppend: expected offset beyond stream end (missed a step?)");
  // A conflict below the compacted prefix would mean the occupying record was already
  // GC-trimmed — impossible while the losing instance still runs (§4.5 keeps every record
  // a live SSF may seek), so the offset must fall in the retained suffix.
  HM_CHECK_MSG(cond_pos >= stream.base,
               "logCondAppend: conflicting offset was already trimmed");
  *existing = stream.seqnums[cond_pos - stream.base];
  return false;
}

LogRecordPtr LogSpace::FindFirstByStep(TagId tag, OpId op, int64_t step) const {
  if (op == kInvalidOpId) return nullptr;  // The op name was never appended anywhere.
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return nullptr;
  for (SeqNum seqnum : stream->seqnums) {
    LogRecordPtr record = Get(seqnum);
    if (record == nullptr) continue;
    if (record->op == op && record->fields.GetInt("step") == step) {
      return record;
    }
  }
  return nullptr;
}

std::vector<TagId> LogSpace::LiveTagsWithPrefix(std::string_view prefix) const {
  // Emptiness is checked first: it reads the contiguous table, while the name lives behind a
  // pointer.
  std::vector<TagId> out;
  for (TagId tag = 0; tag < streams_.size(); ++tag) {
    if (!streams_[tag].seqnums.empty() && tags_.Name(tag).starts_with(prefix)) {
      out.push_back(tag);
    }
  }
  std::sort(out.begin(), out.end(),
            [this](TagId a, TagId b) { return tags_.Name(a) < tags_.Name(b); });
  return out;
}

std::vector<std::string> LogSpace::StreamTagsWithPrefix(std::string_view prefix) const {
  std::vector<std::string> names;
  for (TagId tag : LiveTagsWithPrefix(prefix)) names.push_back(tags_.Name(tag));
  return names;
}

LogRecordPtr LogSpace::Get(SeqNum seqnum) const {
  auto it = records_.find(seqnum);
  if (it == records_.end()) return nullptr;
  return it->second.record;
}

LogRecordPtr LogSpace::ReadPrev(TagId tag, SeqNum max_seqnum) const {
  SeqNum seqnum = LatestSeqNoAtMost(tag, max_seqnum);
  return seqnum == kInvalidSeqNum ? nullptr : Get(seqnum);
}

SeqNum LogSpace::LatestSeqNoAtMost(TagId tag, SeqNum max_seqnum) const {
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return kInvalidSeqNum;
  // Last seqnum <= max_seqnum within the live (untrimmed) suffix.
  auto upper = std::upper_bound(stream->seqnums.begin(), stream->seqnums.end(), max_seqnum);
  if (upper == stream->seqnums.begin()) return kInvalidSeqNum;
  return *(upper - 1);
}

LogRecordPtr LogSpace::ReadNext(TagId tag, SeqNum min_seqnum) const {
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return nullptr;
  auto lower = std::lower_bound(stream->seqnums.begin(), stream->seqnums.end(), min_seqnum);
  if (lower == stream->seqnums.end()) return nullptr;
  return Get(*lower);
}

std::vector<LogRecordPtr> LogSpace::ReadStream(TagId tag) const {
  return ReadStreamUpTo(tag, kMaxSeqNum);
}

std::vector<LogRecordPtr> LogSpace::ReadStreamUpTo(TagId tag, SeqNum max_seqnum) const {
  std::vector<LogRecordPtr> out;
  const TagStream* stream = FindStream(tag);
  if (stream == nullptr) return out;
  out.reserve(stream->seqnums.size());
  for (SeqNum seqnum : stream->seqnums) {
    if (seqnum > max_seqnum) break;
    LogRecordPtr record = Get(seqnum);
    if (record != nullptr) out.push_back(std::move(record));
  }
  return out;
}

void LogSpace::ReleaseRef(SimTime now, SeqNum seqnum) {
  auto it = records_.find(seqnum);
  HM_CHECK_MSG(it != records_.end(), "ReleaseRef on missing record");
  if (--it->second.live_tag_refs == 0) {
    gauge_.Add(now, -static_cast<int64_t>(it->second.record->ByteSize()));
    records_.erase(it);
  }
}

size_t LogSpace::Trim(SimTime now, TagId tag, SeqNum upto) {
  if (tag >= streams_.size()) return 0;
  TagStream& stream = streams_[tag];
  size_t released = 0;
  while (!stream.seqnums.empty() && stream.seqnums.front() <= upto) {
    ReleaseRef(now, stream.seqnums.front());
    stream.seqnums.pop_front();
    ++stream.base;
    ++released;
  }
  // Trims are journaled fire-and-forget: nothing external depends on a trim being durable,
  // and a trim lost to a crash merely resurrects garbage the next GC pass re-collects. The
  // resulting base rides along so fuzzy replay (DESIGN.md §14) can restore logical offsets
  // without re-counting pops the image may have absorbed.
  if (released > 0 && durability_ != nullptr) {
    payload_.clear();
    storage::PutU64(&payload_, tag);
    storage::PutU64(&payload_, upto);
    storage::PutU64(&payload_, stream.base);
    durability_->AppendFrame(storage::FrameType::kTrim, payload_);
  }
  return released;
}

size_t LogSpace::StreamLength(TagId tag) const {
  const TagStream* stream = FindStream(tag);
  return stream == nullptr ? 0 : stream->length();
}

size_t LogSpace::IndexEntries() const {
  size_t total = 0;
  for (const TagStream& stream : streams_) total += stream.seqnums.size();
  return total;
}

size_t LogSpace::IndexCapacity() const {
  size_t total = 0;
  for (const TagStream& stream : streams_) total += stream.seqnums.capacity();
  return total;
}

}  // namespace halfmoon::sharedlog
