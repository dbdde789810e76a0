// Crash-restart recovery driver for the shared log (DESIGN.md §13, §14).
//
// One entry point serves every restart path (Cluster::KillRestart*):
//   * no checkpoint store, or no valid manifest in it → strict full replay of the journal's
//     surviving prefix (byte-for-byte the PR 9 recovery path, including the in-order
//     watermark asserts) — legal only while the journal was never truncated;
//   * a valid manifest → install its image (record bodies, then the per-tag stream
//     snapshots that reference them), then replay only the journal frames at or above the
//     manifest's cut, fuzzily: the image may already reflect any prefix of the suffix, so
//     every restore is an idempotent check-and-insert (see LogSpace::RestoreRecord).
// Either way the watermark ends at least at the journal's durable seqnum — truncation can
// erase the highest durable (trimmed) records, and their seqnums must never be re-issued.

#ifndef HALFMOON_SHAREDLOG_LOG_RECOVERY_H_
#define HALFMOON_SHAREDLOG_LOG_RECOVERY_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/sharedlog/log_space.h"

namespace halfmoon::storage {
class CheckpointStore;
class DurabilityService;
}  // namespace halfmoon::storage

namespace halfmoon::sharedlog {

// What a restart actually did — tests and the check.sh smoke assert the replay-suffix path
// is really taken (used_checkpoint) instead of silently falling back to full replay.
struct LogRecoveryStats {
  bool used_checkpoint = false;
  int64_t image_frames = 0;    // State frames installed from the checkpoint image.
  int64_t suffix_frames = 0;   // Journal frames replayed (the suffix, or the whole prefix).
  int manifests_rejected = 0;  // Torn/corrupt newer manifests skipped by validation.
};

// Resets the log's volatile state and rebuilds it from the durable medium. `ckpt` may be
// null (no checkpoint tier); when non-null but without a valid manifest, recovery falls
// back to full replay — which aborts if the journal prefix was already truncated, since the
// history below retained_offset() is gone for good.
LogRecoveryStats RestoreLogFromJournal(SimTime now, LogSpace* log,
                                       const storage::DurabilityService* journal,
                                       const storage::CheckpointStore* ckpt);

}  // namespace halfmoon::sharedlog

#endif  // HALFMOON_SHAREDLOG_LOG_RECOVERY_H_
