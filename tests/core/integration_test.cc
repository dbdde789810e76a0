// Cross-cutting integration tests: whole-system determinism, GC running concurrently with
// switching and failures, and long mixed scenarios exercising every module together.

#include <gtest/gtest.h>

#include "src/core/gc_service.h"
#include "src/core/switch_manager.h"
#include "src/workloads/loadgen.h"
#include "src/workloads/synthetic.h"
#include "tests/testing/test_world.h"

namespace halfmoon {
namespace {

using core::GcService;
using core::ProtocolKind;
using core::SwitchManager;
using testing::TestWorld;
using testing::TestWorldOptions;

// The whole simulation is deterministic per seed: identical final clocks, latency samples,
// and storage footprints across two runs.
TEST(IntegrationTest, EndToEndRunsAreBitReproducible) {
  auto run = [](uint64_t seed) {
    runtime::ClusterConfig ccfg = testing::ClusterConfigFromEnv();
    ccfg.seed = seed;
    runtime::Cluster cluster(ccfg);
    core::RuntimeConfig rcfg;
    rcfg.default_protocol = ProtocolKind::kHalfmoonRead;
    core::SsfRuntime runtime(&cluster, rcfg);
    cluster.failure_injector().SetCrashProbability(0.01);
    cluster.failure_injector().SetDuplicateProbability(0.05);

    workloads::SyntheticConfig config;
    config.num_objects = 200;
    config.ops_per_request = 6;
    workloads::SyntheticWorkload synthetic(&runtime, config);
    synthetic.Setup();

    workloads::LoadGenConfig load;
    load.requests_per_second = 100;
    load.warmup = 0;
    load.duration = Seconds(3);
    workloads::LoadGenerator generator(&runtime, load, [&synthetic]() {
      return std::make_pair(workloads::SyntheticWorkload::FunctionName(),
                            synthetic.NextInput());
    });
    generator.RunToCompletion();
    return std::make_tuple(cluster.scheduler().Now(), generator.latency().Median(),
                           cluster.log_space().CurrentBytes(),
                           cluster.kv_state().CurrentBytes(),
                           runtime.stats().crashes, runtime.stats().attempts);
  };
  EXPECT_EQ(run(99), run(99));
  // Different seeds diverge (the driver rounds the final clock to whole seconds, so compare
  // the latency distribution instead).
  EXPECT_NE(std::get<1>(run(99)), std::get<1>(run(100)));
}

TEST(IntegrationTest, GcRunsSafelyDuringSwitchingAndCrashes) {
  TestWorldOptions options;
  options.protocol = ProtocolKind::kHalfmoonWrite;
  options.enable_switching = true;
  TestWorld world(options);
  world.runtime().PopulateObject("counter", EncodeInt64(0));
  world.Register("incr", [](core::SsfContext& ctx) -> sim::Task<Value> {
    Value v = co_await ctx.Read("counter");
    co_await ctx.Write("counter", EncodeInt64(DecodeInt64(v) + 1));
    co_return "";
  });
  world.Register("read_counter", [](core::SsfContext& ctx) -> sim::Task<Value> {
    co_return co_await ctx.Read("counter");
  });

  GcService gc(&world.cluster(), Milliseconds(200));
  gc.Start();
  world.cluster().failure_injector().SetCrashProbability(0.02);

  SwitchManager manager(&world.cluster(), world.runtime().config().switch_scope);
  int done = 0;
  constexpr int kBatch = 10;
  // Phase 1 under Halfmoon-write with failures and aggressive GC.
  for (int i = 0; i < kBatch; ++i) {
    world.CallAsync("incr", "", nullptr, nullptr);
  }
  world.scheduler().RunUntil(Seconds(1));

  // Switch while more increments arrive.
  bool switched = false;
  world.scheduler().Spawn([](SwitchManager* m, bool* flag) -> sim::Task<void> {
    co_await m->SwitchTo(ProtocolKind::kHalfmoonRead);
    *flag = true;
  }(&manager, &switched));
  for (int i = 0; i < kBatch; ++i) {
    world.CallAsync("incr", "", nullptr, nullptr);
  }
  world.scheduler().RunUntil(Seconds(3));
  EXPECT_TRUE(switched);

  // Serial tail to pin the final count deterministically relative to the async phase:
  // concurrent increments may race each other (lost updates are not a fault-tolerance
  // anomaly), so only bound the async contribution and check the serial tail exactly.
  world.cluster().failure_injector().SetCrashProbability(0.0);
  world.scheduler().RunUntil(Seconds(10));
  // Stop the GC daemon before Call(), which drains the event queue to completion.
  gc.Stop();
  int64_t after_async = DecodeInt64(world.Call("read_counter"));
  EXPECT_GE(after_async, 1);
  EXPECT_LE(after_async, 2 * kBatch);
  for (int i = 0; i < 3; ++i) {
    world.Call("incr");
    ++done;
  }
  EXPECT_EQ(DecodeInt64(world.Call("read_counter")), after_async + done);
  EXPECT_GT(gc.stats().scans, 0);
}

TEST(IntegrationTest, MixedProtocolsOverDistinctClustersDoNotInterfere) {
  // Two independent worlds with different protocols progress independently — a guard against
  // accidental global state.
  TestWorldOptions read_options;
  read_options.protocol = ProtocolKind::kHalfmoonRead;
  TestWorld read_world(read_options);
  TestWorldOptions write_options;
  write_options.protocol = ProtocolKind::kHalfmoonWrite;
  TestWorld write_world(write_options);

  for (TestWorld* world : {&read_world, &write_world}) {
    world->runtime().PopulateObject("x", "init");
    world->Register("set", [](core::SsfContext& ctx) -> sim::Task<Value> {
      co_await ctx.Write("x", ctx.input());
      co_return "";
    });
    world->Register("get", [](core::SsfContext& ctx) -> sim::Task<Value> {
      co_return co_await ctx.Read("x");
    });
  }
  read_world.Call("set", "from-read-world");
  write_world.Call("set", "from-write-world");
  EXPECT_EQ(read_world.Call("get"), "from-read-world");
  EXPECT_EQ(write_world.Call("get"), "from-write-world");
}

TEST(IntegrationTest, TenThousandInvocationsStayConsistent) {
  // A volume test: sustained load with periodic GC; the serial check at the end must see
  // every prior effect (the §4.4 real-time boundary) and storage must stay bounded.
  TestWorldOptions options;
  options.protocol = ProtocolKind::kHalfmoonRead;
  TestWorld world(options);
  workloads::SyntheticConfig config;
  config.num_objects = 500;
  config.ops_per_request = 4;
  workloads::SyntheticWorkload synthetic(&world.runtime(), config);
  synthetic.Setup();

  GcService gc(&world.cluster(), Seconds(2));
  gc.Start();
  workloads::LoadGenConfig load;
  load.requests_per_second = 500;
  load.warmup = 0;
  load.duration = Seconds(20);
  workloads::LoadGenerator generator(&world.runtime(), load, [&synthetic]() {
    return std::make_pair(workloads::SyntheticWorkload::FunctionName(),
                          synthetic.NextInput());
  });
  generator.RunToCompletion();
  gc.Stop();

  EXPECT_GE(generator.completed(), 9000);
  // GC keeps the version population near one live version per object (plus in-flight).
  size_t total_versions = 0;
  for (int i = 0; i < config.num_objects; ++i) {
    total_versions += world.cluster().kv_state().VersionCount(world.ObjectIdFor(synthetic.KeyFor(i)));
  }
  EXPECT_LT(total_versions, static_cast<size_t>(config.num_objects) * 4);
}

}  // namespace
}  // namespace halfmoon
