// Crash-restart recovery at the cluster grain (DESIGN.md §13): a node kill wipes every
// volatile structure, and journal replay must rebuild the shared log's tag indices and the
// KV store's version index to exactly the acknowledged state. Replay is also idempotent —
// replaying the same durable prefix twice yields bit-identical state. State is compared
// through Cluster::Fingerprint(): the log's content and seqnum assignment, the whole KV store
// and the seqnum supply.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/value.h"
#include "src/kvstore/kv_state.h"
#include "src/runtime/cluster.h"
#include "src/sharedlog/log_record.h"
#include "src/sharedlog/log_space.h"
#include "src/sim/task.h"
#include "tests/testing/config_from_env.h"

namespace halfmoon::runtime {
namespace {

using kvstore::VersionTuple;
using sharedlog::LogRecordPtr;
using sharedlog::SeqNum;

ClusterConfig DurableConfig() {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.function_nodes = 2;
  config.workers_per_node = 4;
  config.durable = true;
  return config;
}

FieldMap Fields(const std::string& op, int64_t step) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", step);
  return f;
}

// Appends a few records under two tags and writes the KV store through the clients — the
// acknowledged state every recovery below must reproduce.
sim::Task<void> PopulateWorkload(Cluster* cluster) {
  sharedlog::LogClient& log = cluster->node(0).log();
  kvstore::KvClient& kv = cluster->node(0).kv();
  for (int i = 0; i < 4; ++i) {
    co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("write", i));
    co_await log.Append(std::vector<std::string>(1, "k:b"), Fields("write", i));
  }
  co_await kv.Put("a", "va");
  co_await kv.CondPut("b", "vb", VersionTuple{3, 1});
  co_await kv.PutVersioned(1, "v1", "payload-1");
  co_await kv.PutVersioned(1, "v2", "payload-2");
  co_await kv.DeleteVersioned(1, "v1");
}

TEST(RecoveryTest, StorageKillRebuildsLogAndKvExactly) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  ASSERT_NE(cluster.log_durability(), nullptr);
  ASSERT_NE(cluster.kv_durability(), nullptr);
  // At quiescence everything acknowledged has been flushed.
  EXPECT_EQ(cluster.log_durability()->durable_offset(),
            cluster.log_durability()->tail_offset());

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  size_t live_before = cluster.log_space().live_records();
  cluster.KillRestartStorage();
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
  EXPECT_EQ(cluster.log_space().live_records(), live_before);
  EXPECT_EQ(cluster.kv_state().Get("a"), std::optional<Value>("va"));
  EXPECT_EQ(cluster.kv_state().VersionCount(1), 1u);  // v1 deleted, v2 live.
  EXPECT_GT(cluster.log_durability()->stats().kills, 0);
}

TEST(RecoveryTest, ReplayIsIdempotent) {
  // The recovery-idempotence satellite: killing and replaying the same durable prefix twice
  // must land on bit-identical tag indices and KV version index.
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  cluster.KillRestartStorage();
  StateFingerprint first = cluster.Fingerprint().CommittedState();
  cluster.KillRestartStorage();
  StateFingerprint second = cluster.Fingerprint().CommittedState();
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster.log_durability()->stats().kills, 2);
}

TEST(RecoveryTest, SequencerKillSparesTheKvJournal) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  cluster.KillRestartSequencer();
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
  EXPECT_EQ(cluster.log_durability()->stats().kills, 1);
  EXPECT_EQ(cluster.kv_durability()->stats().kills, 0);  // Separate devices, separate fate.
}

TEST(RecoveryTest, ClusterKeepsWorkingAcrossAMidRunKill) {
  // Appends before and after a kill that lands between acknowledged operations: nothing
  // acknowledged is lost, the allocator resumes from the durable watermark, and the final
  // stream holds every record in order.
  Cluster cluster(DurableConfig());
  std::vector<SeqNum> acked;
  cluster.scheduler().Spawn([](Cluster* cluster, std::vector<SeqNum>* acked) -> sim::Task<void> {
    sharedlog::LogClient& log = cluster->node(0).log();
    for (int i = 0; i < 3; ++i) {
      acked->push_back(co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("pre", i)));
    }
    cluster->KillRestartStorage();  // Quiescent instant: acks imply durability.
    for (int i = 0; i < 3; ++i) {
      acked->push_back(
          co_await log.Append(std::vector<std::string>(1, "k:a"), Fields("post", i)));
    }
  }(&cluster, &acked));
  cluster.scheduler().Run();

  ASSERT_EQ(acked.size(), 6u);
  std::vector<LogRecordPtr> stream =
      cluster.log_space().ReadStreamUpTo("k:a", sharedlog::kMaxSeqNum);
  ASSERT_EQ(stream.size(), 6u);
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i]->seqnum, acked[i]);
    EXPECT_EQ(stream[i]->fields.GetStr("op"), i < 3 ? "pre" : "post");
  }
}

TEST(RecoveryTest, FunctionNodeKillOnlyDropsSoftState) {
  Cluster cluster(DurableConfig());
  cluster.scheduler().Spawn(PopulateWorkload(&cluster));
  cluster.scheduler().Run();

  StateFingerprint before = cluster.Fingerprint().CommittedState();
  cluster.KillRestartFunctionNode(0);
  EXPECT_EQ(cluster.node(0).log().indexed_upto(), 0u);
  EXPECT_EQ(cluster.Fingerprint().CommittedState(), before);
  // The index replica recovers by reading (sync-on-miss), so reads still work.
  LogRecordPtr latest;
  cluster.scheduler().Spawn(
      [](Cluster* cluster, LogRecordPtr* out) -> sim::Task<void> {
        *out = co_await cluster->node(0).log().ReadPrev("k:a", sharedlog::kMaxSeqNum);
      }(&cluster, &latest));
  cluster.scheduler().Run();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->fields.GetInt("step"), 3);
}

TEST(RecoveryTest, VolatileModeHasNoDurabilityMachinery) {
  ClusterConfig config = DurableConfig();
  config.durable = false;
  config.checkpoint = false;
  Cluster cluster(config);
  EXPECT_EQ(cluster.log_durability(), nullptr);
  EXPECT_EQ(cluster.kv_durability(), nullptr);
  EXPECT_EQ(cluster.DurableTrimBound(), sharedlog::kMaxSeqNum);
}

}  // namespace
}  // namespace halfmoon::runtime
