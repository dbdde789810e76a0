// The transitional protocol and dual reads (§5.2): freshness comparison between the LATEST
// slot and the multi-version path, exercised directly over hand-built Envs.

#include <gtest/gtest.h>

#include "src/core/log_steps.h"
#include "src/core/protocols.h"
#include "src/runtime/cluster.h"
#include "tests/testing/test_world.h"

namespace halfmoon {
namespace {

namespace protocols = core::protocols;
using core::Env;
using core::InitSsf;

Env MakeEnv(runtime::Cluster& cluster, const std::string& id, int node) {
  Env env;
  env.instance_id = id;
  env.cluster = &cluster;
  env.node = &cluster.node(node);
  return env;
}

void RunScript(runtime::Cluster& cluster, sim::Task<void> script) {
  cluster.scheduler().Spawn(std::move(script));
  cluster.scheduler().Run();
}

TEST(TransitionalTest, WriteUpdatesBothVersioningSchemes) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f = MakeEnv(*c, "F", 0);
    co_await InitSsf(f, "");
    co_await protocols::TransitionalWrite(f, "k", "both");
    EXPECT_EQ(c->kv_state().Get("k").value_or(""), "both");
    EXPECT_EQ(c->kv_state().VersionCount(testing::ObjectIdFor(*c, "k")), 1u);
    EXPECT_GT(c->log_space().StreamLength(sharedlog::WriteLogTag("k")), 0u);
  }(&cluster));
}

TEST(TransitionalTest, WriteUsesDeterministicVersionIds) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f = MakeEnv(*c, "F", 0);
    co_await InitSsf(f, "");
    co_await protocols::TransitionalWrite(f, "k", "v");
    EXPECT_TRUE(c->kv_state().GetVersioned(testing::ObjectIdFor(*c, "k"), "F#1").has_value());
  }(&cluster));
}

TEST(TransitionalTest, DualReadPrefersFresherLatestSlot) {
  // A Halfmoon-write-era update (LATEST) newer than the last write-log record must win.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env writer = MakeEnv(*c, "W", 0);
    co_await InitSsf(writer, "");
    co_await protocols::HalfmoonReadWrite(writer, "k", "old-versioned");

    Env hw = MakeEnv(*c, "HW", 1);
    co_await InitSsf(hw, "");
    co_await protocols::HalfmoonWriteWrite(hw, "k", "new-latest");

    Env reader = MakeEnv(*c, "R", 2);
    co_await InitSsf(reader, "");
    Value v = co_await protocols::DualRead(reader, "k");
    EXPECT_EQ(v, "new-latest");
  }(&cluster));
}

TEST(TransitionalTest, DualReadPrefersFresherVersionedPath) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env hw = MakeEnv(*c, "HW", 0);
    co_await InitSsf(hw, "");
    co_await protocols::HalfmoonWriteWrite(hw, "k", "old-latest");

    Env writer = MakeEnv(*c, "W", 1);
    co_await InitSsf(writer, "");
    co_await protocols::HalfmoonReadWrite(writer, "k", "new-versioned");

    Env reader = MakeEnv(*c, "R", 2);
    co_await InitSsf(reader, "");
    Value v = co_await protocols::DualRead(reader, "k");
    EXPECT_EQ(v, "new-versioned");
  }(&cluster));
}

TEST(TransitionalTest, DualReadOfMissingObjectIsEmpty) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env reader = MakeEnv(*c, "R", 0);
    co_await InitSsf(reader, "");
    Value v = co_await protocols::DualRead(reader, "never-written");
    EXPECT_EQ(v, "");
  }(&cluster));
}

TEST(TransitionalTest, DualReadWithOnlyLatestSlot) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.kv_state().Put(0, "k", "latest-only");
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env reader = MakeEnv(*c, "R", 0);
    co_await InitSsf(reader, "");
    Value v = co_await protocols::DualRead(reader, "k");
    EXPECT_EQ(v, "latest-only");
  }(&cluster));
}

TEST(TransitionalTest, TransitionalReadLogsItsResult) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.kv_state().Put(0, "k", "v");
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f = MakeEnv(*c, "F", 0);
    co_await InitSsf(f, "");
    size_t before = c->log_space().StreamLength("F");
    Value v = co_await protocols::TransitionalRead(f, "k");
    EXPECT_EQ(v, "v");
    EXPECT_EQ(c->log_space().StreamLength("F"), before + 1);  // One read record.
  }(&cluster));
}

TEST(TransitionalTest, TransitionalWriteReplayIsIdempotent) {
  // Re-executing a transitional write (same instance, recovered step log) must not create a
  // second version or bump the LATEST slot again.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f = MakeEnv(*c, "F", 0);
    co_await InitSsf(f, "");
    co_await protocols::TransitionalWrite(f, "k", "v");

    // A later writer updates the object.
    Env g = MakeEnv(*c, "G", 1);
    co_await InitSsf(g, "");
    co_await protocols::TransitionalWrite(g, "k", "newer");

    // F's retry replays its write; it must not clobber G's newer value.
    Env f_retry = MakeEnv(*c, "F", 2);
    co_await InitSsf(f_retry, "");
    co_await protocols::TransitionalWrite(f_retry, "k", "v");
    EXPECT_EQ(c->kv_state().Get("k").value_or(""), "newer");
    EXPECT_EQ(c->kv_state().VersionCount(testing::ObjectIdFor(*c, "k")), 2u);  // One version per distinct write.
  }(&cluster));
}

}  // namespace
}  // namespace halfmoon
