// Incremental checkpointing + journal compaction (DESIGN.md §14).
//
// The journal (durability.h) replays the whole history on restart, so time-to-recover and
// on-disk footprint grow with history even when live state is tiny. The checkpoint subsystem
// bounds both by live state: a background CheckpointService walks the live indices in bounded
// slices, writes a *fuzzy* image of them into a sibling CheckpointStore while foreground
// traffic keeps acking, stamps a manifest `(cut, durable watermark)` once everything the image
// could contain is durable, and then truncates the journal prefix below the cut. Recovery
// becomes load-image + replay-suffix: install the newest *valid* image, then replay only the
// journal frames at or above its cut — idempotently, because the image may already reflect a
// prefix of them (that is what "fuzzy" costs, and all restore paths are written to absorb it).
//
// Torn-tail safety is inherited from the frame codec: a manifest is one frame, so a crash
// mid-checkpoint leaves either no manifest (the partial image is unreferenced garbage, later
// truncated away) or a whole one. A manifest is only appended after the journal covers the
// image (WaitOffset on the walk-end tail), so "manifest durable" implies "image contents
// journal-covered": the newest valid manifest is always safe to install. Corrupt or torn
// images are detected by the FNV checksum + frame count and skipped — recovery falls back to
// the previous manifest, or to full replay when the journal was never truncated.

#ifndef HALFMOON_STORAGE_CHECKPOINT_H_
#define HALFMOON_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/latency_model.h"
#include "src/common/rng.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/storage/block_buffer.h"
#include "src/storage/block_device.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"

namespace halfmoon::storage {

// Manifest domains: one checkpoint store per journal, same split as the durability tier.
inline constexpr uint8_t kCkptLogDomain = 0;
inline constexpr uint8_t kCkptKvDomain = 1;

// The sibling checkpoint device: an append-only frame store holding checkpoint images. Like
// the journal it is a block buffer over its own block device — image bytes are paid for in
// whole blocks and only the flushed prefix survives a kill.
class CheckpointStore {
 public:
  CheckpointStore() : buffer_(&device_) {}
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  uint64_t AppendFrame(FrameType type, std::string_view payload) {
    return storage::AppendFrame(&buffer_, type, payload);
  }
  void Flush() { buffer_.FlushTo(buffer_.tail()); }
  // Simulated node loss: the unflushed tail dies, the durable prefix survives.
  void DropVolatile() { buffer_.DropVolatile(); }
  // Releases superseded images below the newest installed image's start.
  uint64_t TruncatePrefix(uint64_t offset) { return buffer_.TruncatePrefix(offset); }

  uint64_t tail() const { return buffer_.tail(); }
  uint64_t durable() const { return buffer_.durable(); }
  uint64_t retained() const { return buffer_.retained(); }
  const BlockBuffer& buffer() const { return buffer_; }
  const BlockDevice& device() const { return device_; }

  // Flips one durable byte in place (a simulated latent media error) so tests can prove
  // recovery detects a corrupt image and falls back.
  void CorruptDurableByteForTest(uint64_t offset) { device_.CorruptByteForTest(offset); }

 private:
  BlockDevice device_;
  BlockBuffer buffer_;
};

// The kCkptManifest frame payload. `cut` is the journal offset the image covers: recovery
// installs the image and replays journal frames in [cut, durable). `watermark_floor` is the
// journal's durable seqnum watermark at manifest time — the restored allocator must resume at
// or above it even if the suffix replays no record (e.g. the newest records were trimmed).
struct CheckpointManifest {
  uint8_t domain = 0;
  uint64_t cut = 0;
  uint64_t image_start = 0;     // Store offset of the image's first frame.
  uint64_t frame_count = 0;     // State frames between image_start and this manifest.
  uint64_t checksum = 0;        // ChecksumImage over [image_start, manifest frame).
  uint64_t watermark_floor = 0;
};

std::string EncodeManifest(const CheckpointManifest& m);
CheckpointManifest DecodeManifest(Cursor cursor);

// A validated manifest plus where its frame starts (= one past the image region).
struct InstalledManifest {
  CheckpointManifest manifest;
  uint64_t image_end = 0;
};

// The image checksum over the store's durable bytes [from, upto): FNV-1a taken over 64-bit
// little-endian words, then bytewise over the < 8-byte tail. Every step is a bijection in
// both the state and the input word, so any single corrupted word changes the result.
uint64_t ChecksumImage(const CheckpointStore& store, uint64_t from, uint64_t upto);

// Scans the store's durable frames for the NEWEST manifest of `domain` whose image region is
// intact: checksum matches, the frame count matches, and the region was not truncated away.
// Invalid newer manifests are skipped (counted in *rejected when non-null). Returns false
// when no valid manifest exists — the caller must fall back to full journal replay.
bool FindLatestValidManifest(const CheckpointStore& store, uint8_t domain,
                             InstalledManifest* out, int* rejected = nullptr);

// Invokes `fn` for every state frame of a validated image, in the order they were written
// (record bodies strictly before the streams that reference them).
void ReplayImage(const CheckpointStore& store, const InstalledManifest& m,
                 const std::function<void(FrameType, Cursor)>& fn);

// The background checkpoint daemon. One round walks every registered target: snapshot the
// journal cut, emit the live-state image in bounded slices (yielding between slices so
// foreground traffic keeps acking — the image is fuzzy), wait for the journal to cover the
// walk, stamp the manifest, truncate the journal below the cut and the store below the new
// image. Rounds are driven explicitly (TriggerRound — the fault explorer's `ckpt@<hit>`
// arming) or by journal growth (MaybeAutoTrigger from the cluster's commit path); the service
// never spawns free-running timers, so a drained scheduler stays drainable.
//
// Like the DurabilityService, the service draws its pacing samples from its OWN derived RNG
// stream (a distinct salt) so constructing it never perturbs the main simulation stream, and
// HM_CHECKPOINT=0 — which never constructs one — stays bit-identical to the PR 9 engine.
class CheckpointService {
 public:
  struct Target {
    uint8_t domain = kCkptLogDomain;
    DurabilityService* journal = nullptr;
    CheckpointStore* store = nullptr;
    // Resets the walk cursor for a fresh round.
    std::function<void()> begin_walk;
    // Appends at most ~`budget` items' worth of image frames; returns true when the walk is
    // complete. `*frames` reports how many frames the slice appended.
    std::function<bool(CheckpointStore* store, int64_t budget, int64_t* frames)> write_slice;
    // The journal's durable seqnum watermark (stamped into the manifest; log domain).
    std::function<uint64_t()> watermark_floor;
  };

  struct Stats {
    int64_t rounds_started = 0;
    int64_t rounds_completed = 0;
    int64_t rounds_abandoned = 0;  // Crash-site hits, failed waits, kills mid-round.
    int64_t slices = 0;
    int64_t image_frames = 0;
    int64_t manifests_written = 0;
    int64_t journal_bytes_truncated = 0;
    int64_t store_bytes_truncated = 0;
  };

  CheckpointService(sim::Scheduler* scheduler, const LatencyModels* models, uint64_t seed)
      : scheduler_(scheduler), models_(models), rng_(seed ^ 0xA24BAED4963EE407ull) {}
  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  void AddTarget(Target target) { targets_.push_back(std::move(target)); }

  // Faultcheck probe: consulted at ckpt.write / ckpt.install / ckpt.truncate. Returning true
  // models the daemon crashing there — the round is abandoned (its unflushed bytes die; a
  // durable manifest, if already stamped, simply stands without its truncation).
  void InstallCrashProbe(std::function<bool(const char*)> probe) { probe_ = std::move(probe); }

  // Records per slice before yielding; bounds how long the walk blocks foreground traffic.
  void SetSliceBudget(int64_t budget) { slice_budget_ = budget; }
  // Auto-trigger threshold: a round starts whenever the journals grew this many bytes since
  // the last round began (0 disables; rounds are then explicit).
  void SetAutoTriggerBytes(int64_t bytes) { auto_trigger_bytes_ = bytes; }

  // Starts one round over all targets unless one is already in flight. Returns whether a
  // round was started.
  bool TriggerRound();
  // Called from the commit path: starts a round when the journals grew past the threshold.
  void MaybeAutoTrigger();

  // Node loss: abandons the in-flight round and drops every store's volatile tail. The
  // durable images and manifests survive for recovery.
  void Kill();

  bool RoundInFlight() const { return inflight_; }
  // GC clamp (DESIGN.md §14): while a round walks the indices, GC must not trim past the
  // watermark the walk started from. Max seqnum when idle.
  uint64_t CheckpointBound() const;

  const Stats& stats() const { return stats_; }

 private:
  sim::Task<void> RunRound(uint64_t epoch);
  // Checkpoints one target; returns false when the round must abandon (crash site hit,
  // failed durability wait, or a kill bumped the epoch).
  sim::Task<bool> CheckpointTarget(Target* target, uint64_t epoch);
  bool Probe(const char* site) { return probe_ != nullptr && probe_(site); }
  int64_t TotalJournalBytes() const;

  sim::Scheduler* scheduler_;
  const LatencyModels* models_;
  Rng rng_;
  std::vector<Target> targets_;
  std::function<bool(const char*)> probe_;

  int64_t slice_budget_ = 4096;
  int64_t auto_trigger_bytes_ = 0;
  int64_t last_trigger_bytes_ = 0;

  uint64_t epoch_ = 0;  // Bumped by Kill(); a stale round sees the mismatch and dies.
  bool inflight_ = false;
  uint64_t inflight_floor_ = 0;  // Log watermark at round start, valid while inflight_.
  Stats stats_;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_CHECKPOINT_H_
