// The §4.4 ordered-writes extension of Halfmoon-write: a sync record between consecutive
// log-free writes to different objects prevents the Figure 8 commutation.

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
using core::ProtocolKind;
using testing::TestWorld;
using testing::TestWorldOptions;

Env MakeEnv(runtime::Cluster& cluster, const std::string& id, int node, bool ordered) {
  Env env;
  env.instance_id = id;
  env.cluster = &cluster;
  env.node = &cluster.node(node);
  env.preserve_write_order = ordered;
  return env;
}

TEST(OrderedWritesTest, Figure8CommutationIsPrevented) {
  // Same interleaving as Figure 8, but with the extension on: F1's consecutive writes carry a
  // sync between them, so W(Y) is pinned after F2's R(Y) — and because W(X) lost its
  // conditional update, the dependent pair no longer commutes observably.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.scheduler().Spawn([](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0, /*ordered=*/true);
    Env f2 = MakeEnv(*c, "F2", 1, /*ordered=*/false);
    co_await InitSsf(f1, "");  // t0.
    co_await InitSsf(f2, "");  // t1 > t0.

    co_await protocols::HalfmoonWriteWrite(f2, "X", "x-f2");
    co_await protocols::HalfmoonWriteRead(f2, "Y", false);

    co_await protocols::HalfmoonWriteWrite(f1, "X", "x-f1");  // (t0,1): rejected, as before.
    // The extension logs a sync before the consecutive write to Y, so this write is ordered
    // after everything above — including F2's read of Y.
    co_await protocols::HalfmoonWriteWrite(f1, "Y", "y-f1");
    EXPECT_EQ(c->kv_state().Get("X").value_or(""), "x-f2");
    EXPECT_EQ(c->kv_state().Get("Y").value_or(""), "y-f1");
    // The sync record is the observable difference: F1 logged init + sync = 2 records.
    EXPECT_EQ(c->log_space().StreamLength("F1"), 2u);
  }(&cluster));
  cluster.scheduler().Run();
}

TEST(OrderedWritesTest, SyncOnlyBetweenWritesToDifferentObjects) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.scheduler().Spawn([](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0, /*ordered=*/true);
    co_await InitSsf(f1, "");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "v1");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "v2");  // Same object: no sync needed.
    EXPECT_EQ(c->log_space().StreamLength("F1"), 1u);       // Init only.
    co_await protocols::HalfmoonWriteWrite(f1, "L", "v3");  // Different object: sync.
    EXPECT_EQ(c->log_space().StreamLength("F1"), 2u);
    EXPECT_EQ(c->kv_state().Get("K").value_or(""), "v2");
    EXPECT_EQ(c->kv_state().Get("L").value_or(""), "v3");
  }(&cluster));
  cluster.scheduler().Run();
}

TEST(OrderedWritesTest, InterveningReadSuppressesTheSync) {
  // A logged read between the writes already pins the order; the extension must not pay for
  // a second record.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.scheduler().Spawn([](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0, /*ordered=*/true);
    co_await InitSsf(f1, "");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "v1");
    co_await protocols::HalfmoonWriteRead(f1, "K", false);  // Logged read.
    co_await protocols::HalfmoonWriteWrite(f1, "L", "v2");
    // Init + read log: 2 records, no extra sync.
    EXPECT_EQ(c->log_space().StreamLength("F1"), 2u);
  }(&cluster));
  cluster.scheduler().Run();
}

TEST(OrderedWritesTest, DisabledModeStaysLogFree) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  cluster.scheduler().Spawn([](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0, /*ordered=*/false);
    co_await InitSsf(f1, "");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "v1");
    co_await protocols::HalfmoonWriteWrite(f1, "L", "v2");
    co_await protocols::HalfmoonWriteWrite(f1, "M", "v3");
    EXPECT_EQ(c->log_space().StreamLength("F1"), 1u);  // Init only: fully log-free.
  }(&cluster));
  cluster.scheduler().Run();
}

TEST(OrderedWritesTest, ExactlyOnceUnderCrashSweepWithOrderedWrites) {
  // End-to-end: the extension's sync records replay positionally like any logged step.
  auto run = [](int64_t crash_site) -> std::pair<int64_t, Value> {
    TestWorldOptions options;
    options.protocol = ProtocolKind::kHalfmoonWrite;
    TestWorld world(options);
    // Rebuild the runtime with ordered writes enabled.
    core::RuntimeConfig config;
    config.default_protocol = ProtocolKind::kHalfmoonWrite;
    config.preserve_write_order = true;
    core::SsfRuntime runtime(&world.cluster(), config);
    runtime.PopulateObject("a", EncodeInt64(0));
    runtime.PopulateObject("b", EncodeInt64(0));
    runtime.RegisterFunction("two_writes", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value a = co_await ctx.Read("a");
      co_await ctx.Write("a", EncodeInt64(DecodeInt64(a) + 1));
      co_await ctx.Write("b", EncodeInt64(DecodeInt64(a) + 1));  // Consecutive, different key.
      co_return "";
    });
    runtime.RegisterFunction("read_ab", [](core::SsfContext& ctx) -> sim::Task<Value> {
      Value a = co_await ctx.Read("a");
      Value b = co_await ctx.Read("b");
      co_return a + "," + b;
    });
    if (crash_site >= 0) {
      world.cluster().failure_injector().CrashAtSiteHits({crash_site});
    }
    bool done = false;
    world.scheduler().Spawn([](core::SsfRuntime* rt, bool* done) -> sim::Task<void> {
      co_await rt->InvokeSsf("two_writes", Value{});
      co_await rt->InvokeSsf("two_writes", Value{});
      *done = true;
    }(&runtime, &done));
    world.scheduler().Run();
    HM_CHECK(done);
    int64_t sites = world.cluster().failure_injector().site_hits();
    world.cluster().failure_injector().CrashAtSiteHits({});
    Value state;
    bool read_done = false;
    world.scheduler().Spawn([](core::SsfRuntime* rt, Value* out, bool* done)
                                -> sim::Task<void> {
      *out = co_await rt->InvokeSsf("read_ab", Value{});
      *done = true;
    }(&runtime, &state, &read_done));
    world.scheduler().Run();
    HM_CHECK(read_done);
    return {sites, state};
  };

  auto [sites, clean] = run(-1);
  ASSERT_EQ(clean, "2,2");
  for (int64_t k = 0; k < sites; ++k) {
    auto [_, state] = run(k);
    EXPECT_EQ(state, "2,2") << "crash at site " << k;
  }
}

}  // namespace
}  // namespace halfmoon
