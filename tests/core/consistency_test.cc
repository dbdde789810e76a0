// Re-enactments of the paper's consistency examples: Figure 4 (Halfmoon-read's effective
// order follows logical timestamps), Figure 6 / Figure 8 (Halfmoon-write's reordering of
// log-free writes via conditional updates), and the §4.4 real-time boundary and sync-record
// properties. These tests drive the protocol functions directly over hand-built Envs so the
// interleaving is exactly the one in the paper's figures.

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

void Seed(runtime::Cluster& cluster, const std::string& key, const Value& value) {
  SimTime now = cluster.scheduler().Now();
  cluster.kv_state().Put(now, key, value);
  std::string version = "seed:" + key;
  cluster.kv_state().PutVersioned(now, testing::ObjectIdFor(cluster, key), version, value);
  FieldMap fields;
  fields.SetStr("op", "write");
  fields.SetInt("step", 0);
  fields.SetStr("key", key);
  fields.SetStr("version", version);
  cluster.log_space().Append(now, sharedlog::OneTag(sharedlog::WriteLogTag(key)),
                             std::move(fields));
}

// Runs a scripted scenario to completion.
void RunScript(runtime::Cluster& cluster, sim::Task<void> script) {
  cluster.scheduler().Spawn(std::move(script));
  cluster.scheduler().Run();
}

TEST(Figure4Test, HalfmoonReadOrdersEventsByLogicalTimestamps) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");
  Seed(cluster, "Y", "y0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f1, "");  // F1 acquires t0.
    co_await InitSsf(f2, "");

    // F2 writes X *after* F1's init (commit seqnum t1 > t0).
    co_await protocols::HalfmoonReadWrite(f2, "X", "x2");

    // F1's log-free read of X seeks backward from t0: it must NOT see F2's write at t1.
    Value x = co_await protocols::HalfmoonReadRead(f1, "X", false);
    EXPECT_EQ(x, "x0");

    // F1 writes X, advancing its cursor to the commit timestamp t3.
    co_await protocols::HalfmoonReadWrite(f1, "X", "x1");

    // F2 writes Y at t2 < t3 (it committed before F1's write? No — commit just happened
    // after; make F2's write commit first by ordering the calls).
    co_await protocols::HalfmoonReadWrite(f2, "Y", "y2");

    // Hmm: F2's Write(Y) committed after F1's Write(X), so F1's cursor t3 < t_{W(Y)}. To
    // reproduce Figure 4 exactly, F1 must read Y *after* advancing past F2's write. Re-read
    // after another F1 write to bump the cursor.
    co_await protocols::HalfmoonReadWrite(f1, "X", "x1b");
    Value y = co_await protocols::HalfmoonReadRead(f1, "Y", false);
    EXPECT_EQ(y, "y2");  // Now visible: cursorTS exceeds the Y-write's seqnum.
  }(&cluster));
}

TEST(Figure4Test, LogFreeReadIsStableAcrossLaterWrites) {
  // The crux of idempotent log-free reads: re-evaluating the same read (same cursorTS) after
  // more writes landed must return the same result.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f1, "");
    co_await InitSsf(f2, "");

    Value first = co_await protocols::HalfmoonReadRead(f1, "X", false);
    // F2 and F3-like writers churn the object.
    co_await protocols::HalfmoonReadWrite(f2, "X", "x2");
    co_await protocols::HalfmoonReadWrite(f2, "X", "x3");
    // Re-executing F1's read (crash-replay scenario: same cursorTS) must see the old value.
    Value replay = co_await protocols::HalfmoonReadRead(f1, "X", false);
    EXPECT_EQ(first, "x0");
    EXPECT_EQ(replay, "x0");
  }(&cluster));
}

TEST(Figure6Test, HalfmoonWriteReordersStaleWritesBehindFresherOnes) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");
  Seed(cluster, "Y", "y0");
  Seed(cluster, "Z", "z0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f1, "");  // F1 acquires t0.
    co_await InitSsf(f2, "");  // F2 acquires t1 > t0.

    // F2 reads Y, advancing its cursor further (it has seen "fresher" data).
    co_await protocols::HalfmoonWriteRead(f2, "Y", false);
    // F2's Write(X) applies with version (t_f2, 1).
    co_await protocols::HalfmoonWriteWrite(f2, "X", "x-f2");

    // F1's Write(X) carries the older version (t0, 1): the conditional update is rejected and
    // the write is effectively ordered *before* F2's — it does not overwrite.
    co_await protocols::HalfmoonWriteWrite(f1, "X", "x-f1");
    EXPECT_EQ(c->kv_state().Get("X").value_or(""), "x-f2");

    // F1 now reads Y (advancing cursorTS past everything above), then writes Z: this write is
    // fresher than F2's earlier Z write and takes effect in real-time order.
    co_await protocols::HalfmoonWriteWrite(f2, "Z", "z-f2");
    co_await protocols::HalfmoonWriteRead(f1, "Y", false);
    co_await protocols::HalfmoonWriteWrite(f1, "Z", "z-f1");
    EXPECT_EQ(c->kv_state().Get("Z").value_or(""), "z-f1");
  }(&cluster));
}

TEST(Figure8Test, ConsecutiveLogFreeWritesToDifferentObjectsMayCommute) {
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");
  Seed(cluster, "Y", "y0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f1, "");  // t0.
    co_await InitSsf(f2, "");  // t1 > t0.

    co_await protocols::HalfmoonWriteWrite(f2, "X", "x-f2");  // Version (t1, 1): applied.
    co_await protocols::HalfmoonWriteRead(f2, "Y", false);    // F2 reads Y ("y0").

    // F1's consecutive writes: W(X) with (t0,1) loses to F2's (t1,1); W(Y) with (t0,2) beats
    // the seed version and applies. F1's program order W(X) -> W(Y) is permuted relative to
    // F2's R(Y) — exactly the commutation Figure 8 allows.
    co_await protocols::HalfmoonWriteWrite(f1, "X", "x-f1");
    co_await protocols::HalfmoonWriteWrite(f1, "Y", "y-f1");
    EXPECT_EQ(c->kv_state().Get("X").value_or(""), "x-f2");
    EXPECT_EQ(c->kv_state().Get("Y").value_or(""), "y-f1");
  }(&cluster));
}

TEST(Section44Test, InitEnforcesRealTimeBoundaryAcrossSsfs) {
  // §4.4: if an operation finishes at real time t, every SSF starting after t sees it.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env writer = MakeEnv(*c, "W", 0);
    co_await InitSsf(writer, "");
    co_await protocols::HalfmoonReadWrite(writer, "X", "x1");

    // A new SSF initialized after the write finished must observe it (log-free read!).
    Env reader = MakeEnv(*c, "R", 1);
    co_await InitSsf(reader, "");
    Value x = co_await protocols::HalfmoonReadRead(reader, "X", false);
    EXPECT_EQ(x, "x1");
  }(&cluster));
}

TEST(Section44Test, SyncUpgradesHalfmoonReadToLinearizableRead) {
  // Without a sync, an old SSF's cursor hides concurrent writes; after appending a sync
  // record the read observes the present.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());
  Seed(cluster, "X", "x0");

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f1, "");
    co_await InitSsf(f2, "");
    co_await protocols::HalfmoonReadWrite(f2, "X", "x2");

    Value stale = co_await protocols::HalfmoonReadRead(f1, "X", false);
    EXPECT_EQ(stale, "x0");

    // Manually append a sync record (what SsfContext::Sync does).
    f1.step += 1;
    FieldMap fields;
    fields.SetStr("op", "sync");
    fields.SetInt("step", f1.step);
    co_await core::LogStep(f1, sharedlog::NoTags(), std::move(fields));

    Value fresh = co_await protocols::HalfmoonReadRead(f1, "X", false);
    EXPECT_EQ(fresh, "x2");
  }(&cluster));
}

TEST(Section42Test, ConsecutiveWriteCounterBreaksTiesWithinOneSsf) {
  // Two consecutive log-free writes to the *same* object by one SSF share a cursorTS; the
  // counter makes the second win (program order preserved for same-object writes).
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    co_await InitSsf(f1, "");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "first");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "second");
    EXPECT_EQ(c->kv_state().Get("K").value_or(""), "second");
  }(&cluster));
}

TEST(Section42Test, RetriedWriteCannotOverwriteFresherData) {
  // A Halfmoon-write retry re-issues its conditional update with the same version tuple; data
  // written meanwhile by fresher SSFs must survive.
  runtime::Cluster cluster(testing::ClusterConfigFromEnv());

  RunScript(cluster, [](runtime::Cluster* c) -> sim::Task<void> {
    Env f1 = MakeEnv(*c, "F1", 0);
    co_await InitSsf(f1, "");
    co_await protocols::HalfmoonWriteWrite(f1, "K", "v1");

    Env f2 = MakeEnv(*c, "F2", 1);
    co_await InitSsf(f2, "");
    co_await protocols::HalfmoonWriteWrite(f2, "K", "v2");

    // F1 crashes and re-executes its write (same Env state as the original attempt).
    Env f1_retry = MakeEnv(*c, "F1", 2);
    co_await InitSsf(f1_retry, "");  // Recovers t0 from the init record.
    EXPECT_EQ(f1_retry.init_cursor_ts, f1.init_cursor_ts);
    co_await protocols::HalfmoonWriteWrite(f1_retry, "K", "v1");
    EXPECT_EQ(c->kv_state().Get("K").value_or(""), "v2");
  }(&cluster));
}

}  // namespace
}  // namespace halfmoon
