#include "src/runtime/cluster.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/sync.h"
#include "tests/testing/config_from_env.h"

namespace halfmoon::runtime {
namespace {

// Built outside coroutine argument lists (GCC 12 miscompiles braced-init-list args there).
FieldMap OpFields(const std::string& op) {
  FieldMap f;
  f.SetStr("op", op);
  f.SetInt("step", 0);
  return f;
}

TEST(ClusterTest, BuildsConfiguredTopology) {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.function_nodes = 8;
  Cluster cluster(config);
  EXPECT_EQ(cluster.node_count(), 8);
  EXPECT_EQ(cluster.scheduler().Now(), 0);
}

TEST(ClusterTest, PickNodeRoundRobins) {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.function_nodes = 3;
  Cluster cluster(config);
  EXPECT_EQ(cluster.PickNode().id(), 0);
  EXPECT_EQ(cluster.PickNode().id(), 1);
  EXPECT_EQ(cluster.PickNode().id(), 2);
  EXPECT_EQ(cluster.PickNode().id(), 0);
}

TEST(ClusterTest, IndexPropagationReachesAllNodes) {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.function_nodes = 4;
  Cluster cluster(config);
  cluster.scheduler().Spawn([](Cluster* c) -> sim::Task<void> {
    co_await c->node(0).log().Append(sharedlog::OneTag("t"), OpFields("x"));
  }(&cluster));
  cluster.scheduler().Run();
  sharedlog::SeqNum committed = cluster.log_space().next_seqnum() - 1;
  for (int i = 0; i < cluster.node_count(); ++i) {
    EXPECT_GE(cluster.node(i).log().indexed_upto(), committed) << "node " << i;
  }
}

TEST(ClusterTest, RunningFrontierTracksInitStream) {
  Cluster cluster(testing::ClusterConfigFromEnv());
  // Empty init stream: the frontier is the next seqnum.
  EXPECT_EQ(cluster.RunningFrontier(), cluster.log_space().next_seqnum());

  FieldMap init1;
  init1.SetStr("op", "init");
  init1.SetInt("step", 0);
  init1.SetStr("instance", "A");
  sharedlog::SeqNum a = cluster.log_space().Append(
      0, sharedlog::TwoTags("A", sharedlog::InitLogTag()), std::move(init1));

  FieldMap init2;
  init2.SetStr("op", "init");
  init2.SetInt("step", 0);
  init2.SetStr("instance", "B");
  sharedlog::SeqNum b = cluster.log_space().Append(
      0, sharedlog::TwoTags("B", sharedlog::InitLogTag()), std::move(init2));

  // The frontier is maintained incrementally: the runtime registers every init record as it
  // is logged (InitSsf does this), so the cluster never rescans the init stream.
  cluster.RegisterInitRecord(a);
  cluster.RegisterInitRecord(b);

  // Both running: the frontier stops at A's init.
  EXPECT_EQ(cluster.RunningFrontier(), a);
  cluster.ReleaseInitRecord(a);
  // A finished, B still running: frontier moves to B's init.
  EXPECT_EQ(cluster.RunningFrontier(), b);
  cluster.ReleaseInitRecord(b);
  EXPECT_EQ(cluster.RunningFrontier(), cluster.log_space().next_seqnum());
}

TEST(ClusterTest, StepLogTrimQueueDrains) {
  Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.EnqueueStepLogTrim(cluster.log_space().tags().Intern("a"));
  cluster.EnqueueStepLogTrim(cluster.log_space().tags().Intern("b"));
  std::vector<sharedlog::TagId> drained = cluster.DrainStepLogTrimQueue();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(cluster.DrainStepLogTrimQueue().empty());
}

TEST(ClusterTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    ClusterConfig config = testing::ClusterConfigFromEnv();
    config.seed = seed;
    Cluster cluster(config);
    SimTime finish = 0;
    cluster.scheduler().Spawn([](Cluster* c, SimTime* out) -> sim::Task<void> {
      for (int i = 0; i < 20; ++i) {
        co_await c->node(0).log().Append(sharedlog::OneTag("t"), OpFields("x"));
      }
      *out = c->scheduler().Now();
    }(&cluster, &finish));
    cluster.scheduler().Run();
    return finish;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// One client's load: `ops` sequential appends to its own stream, recording each append's
// virtual latency. One writer per stream keeps per-stream content independent of timing.
sim::Task<void> ClientAppends(Cluster* c, int node, int client, int ops,
                              std::vector<SimDuration>* latencies) {
  std::string tag = "n" + std::to_string(node) + "/c" + std::to_string(client);
  for (int op = 0; op < ops; ++op) {
    FieldMap fields;
    fields.SetStr("op", "append");
    fields.SetInt("step", op);
    fields.SetInt("src", node * 100 + client);
    SimTime start = c->scheduler().Now();
    co_await c->node(node).log().Append(sharedlog::OneTag(tag), std::move(fields));
    latencies->push_back(c->scheduler().Now() - start);
  }
}

struct GatingRun {
  StateFingerprint fp;
  int64_t appends = 0;
  SimDuration median_latency = 0;
};

GatingRun RunAppendLoad(bool durable) {
  ClusterConfig config = testing::ClusterConfigFromEnv();
  config.seed = 5;
  config.function_nodes = 4;
  config.durable = durable;
  config.checkpoint = false;
  Cluster cluster(config);
  std::vector<SimDuration> latencies;
  for (int node = 0; node < config.function_nodes; ++node) {
    for (int client = 0; client < 2; ++client) {
      cluster.scheduler().Spawn(ClientAppends(&cluster, node, client, 40, &latencies));
    }
  }
  cluster.scheduler().Run();

  GatingRun run;
  run.fp = cluster.Fingerprint();
  run.appends = cluster.TotalLogAppends();
  std::nth_element(latencies.begin(), latencies.begin() + latencies.size() / 2,
                   latencies.end());
  run.median_latency = latencies[latencies.size() / 2];
  return run;
}

TEST(ClusterTest, DurableGatingDelaysAcksButKeepsContent) {
  // Write-ahead acks (DESIGN.md §13) cost time, because the reply waits on the journal
  // flush, but never change what commits.
  GatingRun plain = RunAppendLoad(/*durable=*/false);
  GatingRun durable = RunAppendLoad(/*durable=*/true);
  EXPECT_EQ(durable.appends, plain.appends);
  EXPECT_EQ(durable.fp.log_content, plain.fp.log_content);
  EXPECT_GT(durable.median_latency, plain.median_latency);  // The flush gate is on the ack.
}

// A config that would run a different system than asked for, or hang the simulation (a zero
// batch cap or slice budget makes every round empty, forever; a zero-permit station parks
// every request), dies at construction with a message naming the field.
TEST(ClusterDeathTest, IncoherentConfigIsRejected) {
  const std::pair<void (*)(ClusterConfig&), const char*> cases[] = {
      {[](ClusterConfig& c) { c.checkpoint = true; }, "checkpoint=true requires durable=true"},
      {[](ClusterConfig& c) { c.append_batch_max = 0; }, "append_batch_max must be >= 1"},
      {[](ClusterConfig& c) { c.checkpoint_slice = 0; }, "checkpoint_slice must be >= 1"},
      {[](ClusterConfig& c) { c.function_nodes = 0; }, "function_nodes must be >= 1"},
      {[](ClusterConfig& c) { c.workers_per_node = 0; }, "workers_per_node must be >= 1"},
      // Checked before the log is sized: -1 would otherwise ask for 2^32 - 1 shards.
      {[](ClusterConfig& c) { c.log_shards = 0; }, "log_shards must be >= 1"},
      {[](ClusterConfig& c) { c.log_shards = -1; }, "log_shards must be >= 1"},
      {[](ClusterConfig& c) { c.sequencer_servers = 0; }, "sequencer_servers must be >= 1"},
      {[](ClusterConfig& c) { c.storage_servers = 0; }, "storage_servers must be >= 1"},
      {[](ClusterConfig& c) { c.db_servers = 0; }, "db_servers must be >= 1"},
      {[](ClusterConfig& c) { c.append_batch_pipeline = 0; }, "append_batch_pipeline must be"},
  };
  for (const auto& [mutate, message] : cases) {
    ClusterConfig config;
    mutate(config);
    EXPECT_DEATH(Cluster cluster(config), message);
  }
  ClusterConfig no_queueing;  // Station sizes mean nothing without queueing: zero is fine.
  no_queueing.model_queueing = false;
  no_queueing.sequencer_servers = no_queueing.storage_servers = no_queueing.db_servers = 0;
  EXPECT_EQ(Cluster(no_queueing).node_count(), no_queueing.function_nodes);
}

TEST(FailureInjectorTest, ScheduledHitsFireExactlyOnce) {
  FailureInjector injector;
  Rng rng(1);
  injector.CrashAtSiteHits({2});
  EXPECT_FALSE(injector.ShouldCrash(rng, "s0"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s1"));
  EXPECT_TRUE(injector.ShouldCrash(rng, "s2"));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s3"));
  EXPECT_EQ(injector.site_hits(), 4);
}

TEST(FailureInjectorTest, ProbabilityZeroNeverCrashes) {
  FailureInjector injector;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
  }
}

TEST(FailureInjectorTest, ProbabilityOneAlwaysCrashes) {
  FailureInjector injector;
  injector.SetCrashProbability(1.0);
  Rng rng(1);
  EXPECT_TRUE(injector.ShouldCrash(rng, "s"));
}

TEST(FailureInjectorTest, DuplicateProbabilityIsIndependentOfCrashes) {
  FailureInjector injector;
  injector.SetDuplicateProbability(1.0);
  Rng rng(1);
  EXPECT_TRUE(injector.ShouldDuplicate(rng));
  EXPECT_FALSE(injector.ShouldCrash(rng, "s"));
}

}  // namespace
}  // namespace halfmoon::runtime
