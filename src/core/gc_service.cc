#include "src/core/gc_service.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/sharedlog/log_record.h"

namespace halfmoon::core {

using sharedlog::LogRecord;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;
using sharedlog::TagId;

void GcService::Start() {
  cluster_->scheduler().Spawn(Loop());
}

sim::Task<void> GcService::Loop() {
  while (!stopped_) {
    co_await cluster_->scheduler().Delay(interval_);
    if (stopped_) break;
    RunOnce();
  }
}

void GcService::RunOnce() {
  ++stats_.scans;
  sharedlog::LogSpace& log = cluster_->log_space();
  kvstore::KvState& kv = cluster_->kv_state();
  SimTime now = cluster_->scheduler().Now();

  // Trim-to-durable-snapshot (DESIGN.md §13): never act on records a crash could still
  // un-commit. Without the clamp a GC pass could delete a KV version superseded only by a
  // volatile write — a crash would then lose the write but keep the deletion, and replay
  // would leave the object's write log pointing at a version that no longer exists.
  // CheckpointBound (DESIGN.md §14) additionally fences records an in-flight checkpoint
  // round may still walk: trimming them mid-round would tear the image under the walker.
  SeqNum frontier = std::min({cluster_->RunningFrontier(), cluster_->DurableTrimBound(),
                              cluster_->CheckpointBound()});

  // (2) Per-object write logs and their versions. The write-log tag id doubles as the
  // object's handle in the versioned store, so no key string is ever rebuilt here.
  for (TagId tag : log.LiveTagsWithPrefix(sharedlog::kWriteLogPrefix)) {
    std::vector<LogRecordPtr> records = log.ReadStream(tag);
    // Mark the latest record below the frontier; everything before it is superseded.
    const LogRecord* marked = nullptr;
    for (const LogRecordPtr& record : records) {
      if (record->seqnum < frontier) {
        marked = record.get();
      } else {
        break;
      }
    }
    if (marked == nullptr) continue;
    for (const LogRecordPtr& record : records) {
      if (record->seqnum >= marked->seqnum) break;
      if (record->fields.Has("version") &&
          kv.DeleteVersioned(now, tag, record->fields.GetStr("version"))) {
        ++stats_.versions_deleted;
      }
      ++stats_.write_records_trimmed;
    }
    if (marked->seqnum > 0) {
      log.Trim(now, tag, marked->seqnum - 1);
    }
  }

  // (3) Step logs of finished workflows. Resolve without interning: an instance that never
  // logged (e.g. unsafe protocol) has no step stream and no registry entry to create.
  for (const std::string& instance_id : cluster_->DrainStepLogTrimQueue()) {
    TagId step_tag = log.tags().Find(instance_id);
    // Instances that never logged (e.g. unsafe protocol) have no step log to trim and must
    // not inflate the counter.
    if (step_tag != sharedlog::kInvalidTagId && log.Trim(now, step_tag, sharedlog::kMaxSeqNum) > 0) {
      ++stats_.step_logs_trimmed;
    }
  }

  // (4) The global init stream: records below the frontier belong to finished SSFs. The
  // completion bookkeeping of those SSFs is pruned with it, keeping tracking memory bounded.
  // Counts trimmed *records*, not scans (a scan that trims nothing adds nothing).
  if (frontier > 0) {
    stats_.init_records_trimmed +=
        static_cast<int64_t>(log.Trim(now, sharedlog::kInitTagId, frontier - 1));
  }
  cluster_->PruneFinishedTracking();
}

}  // namespace halfmoon::core
