// Cluster-grain checkpoint recovery (DESIGN.md §14): after a checkpoint round, a whole-node
// crash-restart must come up through load-image + replay-suffix — bit-identical to the state
// a full replay would rebuild (compared through Cluster::Fingerprint(), like recovery_test) but
// touching only the journal suffix above the manifest's cut. Also covers the fallback chain
// (corrupt newest image -> previous manifest -> full replay), recovery idempotence, seqnum
// exactness across truncation, and checkpoint=false bit-identity with the durable-only engine.
//
// The "[checkpoint] recovery: mode=image+suffix ..." lines printed here are load-bearing:
// scripts/check.sh greps them to prove the replay-suffix path actually engaged (a silent
// full-replay regression would still pass the equivalence checks).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/value.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/task.h"
#include "src/storage/checkpoint.h"
#include "src/storage/journal.h"
#include "tests/testing/config_from_env.h"

namespace halfmoon::runtime {
namespace {

using kvstore::VersionTuple;
using sharedlog::SeqNum;

ClusterConfig CheckpointConfig() {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.function_nodes = 2;
  config.workers_per_node = 4;
  config.durable = true;
  config.checkpoint = true;
  return config;
}

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  // Pad every record past a trivial size so a dozen of them span several 4KiB device blocks
  // — block-aligned journal truncation then genuinely frees device memory, which the
  // durable_bytes_dropped assertions below depend on.
  f.SetStr("pad", std::string(300, 'p'));
  return f;
}

// Long history, small live state: appends under two tags plus KV churn, then trims each tag
// down to its last records — exactly the shape where compaction wins.
sim::Task<void> PopulateWorkload(Cluster* cluster, int rounds) {
  sharedlog::LogClient& log = cluster->node(0).log();
  kvstore::KvClient& kv = cluster->node(0).kv();
  std::string pad(300, 'q');
  std::vector<SeqNum> a_seqs;
  for (int i = 0; i < rounds; ++i) {
    a_seqs.push_back(
        co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("write", i)));
    co_await log.Append(std::vector<std::string>(1, "k:b"), Fields("write", i));
    co_await kv.Put("a", "va-" + std::to_string(i) + pad);
    co_await kv.PutVersioned(1, "v" + std::to_string(i), pad + std::to_string(i));
    if (i > 0) co_await kv.DeleteVersioned(1, "v" + std::to_string(i - 1));
  }
  co_await kv.CondPut("b", "vb", VersionTuple{3, 1});
  // Trim the history: only the last two k:a records stay live.
  if (a_seqs.size() > 2) {
    co_await log.Trim("k:a", a_seqs[a_seqs.size() - 3]);
  }
}

// Runs one checkpoint round to completion on a drained cluster.
void CheckpointOnce(Cluster& cluster) {
  ASSERT_NE(cluster.checkpoint_service(), nullptr);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  ASSERT_FALSE(cluster.checkpoint_service()->RoundInFlight());
}

void PrintRecovery(const char* what, const Cluster& cluster) {
  const sharedlog::LogRecoveryStats& log = cluster.last_log_recovery();
  const sharedlog::LogRecoveryStats& kv = cluster.last_kv_recovery();
  std::printf(
      "[checkpoint] recovery: %s log mode=%s image_frames=%lld suffix_frames=%lld "
      "rejected=%d | kv mode=%s image_frames=%lld suffix_frames=%lld\n",
      what, log.used_checkpoint ? "image+suffix" : "full-replay",
      static_cast<long long>(log.image_frames), static_cast<long long>(log.suffix_frames),
      log.manifests_rejected, kv.used_checkpoint ? "image+suffix" : "full-replay",
      static_cast<long long>(kv.image_frames), static_cast<long long>(kv.suffix_frames));
}

TEST(CheckpointRecoveryTest, ImagePlusSuffixMatchesFullReplayExactly) {
  // The default slice budget and a tiny one.
  for (int64_t slice : {int64_t{4096}, int64_t{7}}) {
    SCOPED_TRACE("checkpoint_slice=" + std::to_string(slice));
    ClusterConfig config = CheckpointConfig();
    config.checkpoint_slice = slice;
    Cluster cluster(config);
    cluster.scheduler().Spawn(PopulateWorkload(&cluster, 12));
    cluster.scheduler().Run();

    // Full-replay reference first (no checkpoint taken yet).
    StateFingerprint before = cluster.Fingerprint().CommittedState();
    cluster.KillRestartStorage();
    EXPECT_FALSE(cluster.last_log_recovery().used_checkpoint);
    int64_t full_replay_frames = cluster.last_log_recovery().suffix_frames;
    EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);

    // Checkpoint, then keep running: the post-checkpoint ops form the replay suffix.
    CheckpointOnce(cluster);
    EXPECT_GT(cluster.checkpoint_service()->stats().rounds_completed, 0);
    EXPECT_GT(cluster.checkpoint_service()->stats().journal_bytes_truncated, 0);
    EXPECT_GT(cluster.log_durability()->retained_offset(), 0u);
    // The compaction satellite's core claim: the journal's device footprint actually shrank.
    EXPECT_GT(cluster.log_durability()->stats().durable_bytes_dropped, 0);
    EXPECT_GT(cluster.kv_durability()->stats().durable_bytes_dropped, 0);

    cluster.scheduler().Spawn(PopulateWorkload(&cluster, 3));
    cluster.scheduler().Run();

    StateFingerprint acked = cluster.Fingerprint().CommittedState();
    cluster.KillRestartStorage();
    PrintRecovery("post-checkpoint", cluster);
    EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
    EXPECT_TRUE(cluster.last_kv_recovery().used_checkpoint);
    EXPECT_GT(cluster.last_log_recovery().image_frames, 0);
    EXPECT_GT(cluster.last_kv_recovery().image_frames, 0);
    // The suffix is bounded by the post-checkpoint work, not the whole history.
    EXPECT_LT(cluster.last_log_recovery().suffix_frames, full_replay_frames);
    EXPECT_EQ(cluster.Fingerprint().CommittedState(), acked);
  }
}

TEST(CheckpointRecoveryTest, RecoveryIsIdempotentAndSeqnumExact) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 10));
  cluster.scheduler().Run();
  CheckpointOnce(cluster);
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 2));
  cluster.scheduler().Run();

  SeqNum next_before = cluster.log_space().next_seqnum();
  cluster.KillRestartStorage();
  StateFingerprint first = cluster.Fingerprint().CommittedState();
  cluster.KillRestartStorage();
  StateFingerprint second = cluster.Fingerprint().CommittedState();
  EXPECT_EQ(first, second);

  // Seqnum exactness across truncation: the restored allocator never re-issues a seqnum that
  // was acknowledged before the kill, even though the journal prefix holding most of the
  // history is gone.
  EXPECT_GE(cluster.log_space().next_seqnum(), next_before);
  std::vector<SeqNum> fresh;
  cluster.scheduler().Spawn(
      [](Cluster* cluster, std::vector<SeqNum>* out) -> sim::Task<void> {
        out->push_back(co_await cluster->node(0).log().Append(
            std::vector<std::string>(1, "k:a"), FieldMap()));
      }(&cluster, &fresh));
  cluster.scheduler().Run();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_GE(fresh[0], next_before);
}

TEST(CheckpointRecoveryTest, CorruptOnlyImageFallsBackToFullReplay) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();

  // The daemon dies right after stamping the manifest: the image is durable and valid, but
  // the journal was never truncated — full replay stays possible.
  cluster.failure_injector().CrashAtSite("ckpt.install", 0);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  cluster.failure_injector().ClearCrashSchedule();
  EXPECT_EQ(cluster.checkpoint_service()->stats().rounds_abandoned, 1);
  EXPECT_EQ(cluster.log_durability()->retained_offset(), 0u);

  storage::InstalledManifest manifest;
  ASSERT_TRUE(storage::FindLatestValidManifest(*cluster.log_checkpoint_store(),
                                               storage::kCkptLogDomain, &manifest));
  cluster.log_checkpoint_store()->CorruptDurableByteForTest(manifest.manifest.image_start +
                                                            storage::kFrameHeaderBytes + 1);

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  cluster.KillRestartStorage();
  PrintRecovery("corrupt-image", cluster);
  EXPECT_FALSE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(cluster.last_log_recovery().manifests_rejected, 1);
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
}

TEST(CheckpointRecoveryTest, CorruptNewestImageFallsBackToThePreviousManifest) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();
  CheckpointOnce(cluster);  // Manifest 1: completes and truncates to cut 1.

  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 3));
  cluster.scheduler().Run();

  // Round 2 dies after its manifest: both manifests durable, journal still at cut 1.
  cluster.failure_injector().CrashAtSite("ckpt.install", 0);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.scheduler().Run();
  cluster.failure_injector().ClearCrashSchedule();

  storage::InstalledManifest newest;
  ASSERT_TRUE(storage::FindLatestValidManifest(*cluster.log_checkpoint_store(),
                                               storage::kCkptLogDomain, &newest));
  cluster.log_checkpoint_store()->CorruptDurableByteForTest(newest.manifest.image_start +
                                                            storage::kFrameHeaderBytes + 1);

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  cluster.KillRestartStorage();
  PrintRecovery("fallback-previous", cluster);
  EXPECT_TRUE(cluster.last_log_recovery().used_checkpoint);
  EXPECT_EQ(cluster.last_log_recovery().manifests_rejected, 1);
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
}

TEST(CheckpointRecoveryTest, KillMidRoundAbandonsAndRecoversFromTheJournal) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 8));
  cluster.scheduler().Run();

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  // The kill lands while the round is in flight (trigger, then restart without draining):
  // the round must die with the node, not stamp a manifest over post-recovery state.
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  cluster.KillRestartStorage();
  EXPECT_FALSE(cluster.checkpoint_service()->RoundInFlight());
  EXPECT_GT(cluster.checkpoint_service()->stats().rounds_abandoned, 0);
  cluster.scheduler().Run();  // The stale round's coroutine drains harmlessly.
  EXPECT_EQ(cluster.checkpoint_service()->stats().manifests_written, 0);
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
}

TEST(CheckpointRecoveryTest, CheckpointOffIsBitIdenticalToTheDurableEngine) {
  // checkpoint=true with no round triggered must not perturb the simulation: the service
  // draws from its own derived RNG stream and schedules nothing on its own. Same events,
  // same virtual clock, same state as the PR 9 durable-only engine.
  ClusterConfig plain = CheckpointConfig();
  plain.checkpoint = false;
  Cluster reference(plain);
  reference.scheduler().Spawn(PopulateWorkload(&reference, 10));
  reference.scheduler().Run();

  Cluster with_tier(CheckpointConfig());
  with_tier.scheduler().Spawn(PopulateWorkload(&with_tier, 10));
  with_tier.scheduler().Run();

  EXPECT_EQ(reference.checkpoint_service(), nullptr);
  EXPECT_NE(with_tier.checkpoint_service(), nullptr);
  EXPECT_EQ(with_tier.Fingerprint(), reference.Fingerprint());

  // And recovery without the tier still full-replays identically.
  StateFingerprint before = reference.Fingerprint().CommittedState();
  reference.KillRestartStorage();
  PrintRecovery("checkpoint-off", reference);
  EXPECT_FALSE(reference.last_log_recovery().used_checkpoint);
  EXPECT_EQ(reference.Fingerprint().CommittedState(), before);
}

TEST(CheckpointRecoveryTest, GcFrontierIsClampedWhileARoundIsInFlight) {
  Cluster cluster(CheckpointConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster, 6));
  cluster.scheduler().Run();

  EXPECT_EQ(cluster.CheckpointBound(), sharedlog::kMaxSeqNum);
  ASSERT_TRUE(cluster.checkpoint_service()->TriggerRound());
  // While the walk is pending, the bound fences GC at the round-start watermark.
  EXPECT_LE(cluster.CheckpointBound(), cluster.log_durability()->durable_seq() + 1);
  cluster.scheduler().Run();
  EXPECT_EQ(cluster.CheckpointBound(), sharedlog::kMaxSeqNum);
}

}  // namespace
}  // namespace halfmoon::runtime
