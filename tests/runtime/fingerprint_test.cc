// Cluster::Fingerprint() (DESIGN.md §16): each mutation moves the field it names and no
// other, and taking fingerprints never perturbs the run being read.

#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon::runtime {
namespace {

std::set<std::string> ChangedFields(const StateFingerprint& a, const StateFingerprint& b) {
  std::set<std::string> changed;
  if (a.log_content != b.log_content) changed.insert("log_content");
  if (a.log_seqnums != b.log_seqnums) changed.insert("log_seqnums");
  if (a.kv != b.kv) changed.insert("kv");
  if (a.next_seqnum != b.next_seqnum) changed.insert("next_seqnum");
  if (a.events_processed != b.events_processed) changed.insert("events_processed");
  if (a.now != b.now) changed.insert("now");
  if (a.logged_bytes != b.logged_bytes) changed.insert("logged_bytes");
  return changed;
}

sim::Task<void> AppendOne(Cluster* cluster, std::string tag) {
  FieldMap fields;
  fields.SetStr("op", "write");
  co_await cluster->node(0).log().Append(sharedlog::OneTag(tag), std::move(fields));
}

// Two same-time appenders to different tags, spawned in the given order, plus KV writes.
Cluster& RunAppends(Cluster& cluster, const std::string& first, const std::string& second) {
  cluster.scheduler().Spawn(AppendOne(&cluster, first));
  cluster.scheduler().Spawn(AppendOne(&cluster, second));
  cluster.scheduler().Spawn([](Cluster* c) -> sim::Task<void> {
    co_await c->node(1).kv().Put("x", "value");
    co_await c->node(1).kv().PutVersioned(7, "v1", "payload");
  }(&cluster));
  cluster.scheduler().Run();
  return cluster;
}

TEST(FingerprintTest, TrimmingOneRecordChangesTheLogFields) {
  Cluster cluster(ClusterConfig{});
  StateFingerprint before = RunAppends(cluster, "t:a", "t:b").Fingerprint();
  sharedlog::SeqNum only = cluster.log_space().ReadStream("t:a").front()->seqnum;
  ASSERT_EQ(cluster.log_space().Trim(cluster.scheduler().Now(), "t:a", only), 1u);
  // The trimmed record's seqnum leaves the walk along with its content.
  EXPECT_EQ(ChangedFields(before, cluster.Fingerprint()),
            (std::set<std::string>{"log_content", "log_seqnums"}));
}

TEST(FingerprintTest, OneKvByteChangesOnlyKv) {
  // Each write differs from the stored value in one byte: a latest slot, then a version.
  Cluster cluster(ClusterConfig{});
  StateFingerprint before = RunAppends(cluster, "t:a", "t:b").Fingerprint();
  cluster.kv_state().Put(cluster.scheduler().Now(), "x", "valuf");
  EXPECT_EQ(ChangedFields(before, cluster.Fingerprint()), std::set<std::string>{"kv"});
  before = cluster.Fingerprint();
  cluster.kv_state().PutVersioned(cluster.scheduler().Now(), 7, "v1", "paylobd");
  EXPECT_EQ(ChangedFields(before, cluster.Fingerprint()), std::set<std::string>{"kv"});
}

TEST(FingerprintTest, SwappedSameTimeAppendersChangeOnlyTheSeqnums) {
  Cluster ab(ClusterConfig{}), ba(ClusterConfig{});
  EXPECT_EQ(ChangedFields(RunAppends(ab, "t:a", "t:b").Fingerprint(),
                          RunAppends(ba, "t:b", "t:a").Fingerprint()),
            std::set<std::string>{"log_seqnums"});
}

// Runs `workload` one invocation at a time, stopping the clock every millisecond (at most
// 1000 stops each, so a probe that schedules events fails the comparison instead of hanging
// it). With `probed`, every stop takes a fingerprint. Returns the final one.
StateFingerprint RunStopping(core::ProtocolKind protocol, const faultcheck::Workload& workload,
                             std::set<uint64_t>* probed) {
  Cluster cluster(ClusterConfig{});
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = protocol;
  core::SsfRuntime runtime(&cluster, rcfg);
  workload.Install(runtime);
  for (const auto& [function, input] : workload.invocations) {
    cluster.scheduler().Spawn(
        [](core::SsfRuntime* rt, std::string fn, Value in) -> sim::Task<void> {
          co_await rt->InvokeSsf(std::move(fn), std::move(in));
        }(&runtime, function, input));
    for (int stop = 0; stop < 1000 && !cluster.scheduler().empty(); ++stop) {
      cluster.scheduler().RunUntil(cluster.scheduler().Now() + Milliseconds(1));
      if (probed != nullptr) probed->insert(cluster.Fingerprint().log_content);
    }
  }
  return cluster.Fingerprint();
}

TEST(FingerprintTest, TakingFingerprintsMidRunLeavesTheRunUnchanged) {
  for (auto protocol : {core::ProtocolKind::kBoki, core::ProtocolKind::kHalfmoonRead,
                        core::ProtocolKind::kHalfmoonWrite, core::ProtocolKind::kTransitional}) {
    for (const faultcheck::Workload& workload : faultcheck::AllWorkloads()) {
      SCOPED_TRACE(std::string(core::ProtocolName(protocol)) + "/" + workload.name);
      std::set<uint64_t> probed;
      StateFingerprint final_probed = RunStopping(protocol, workload, &probed);
      EXPECT_EQ(final_probed, RunStopping(protocol, workload, nullptr));
      EXPECT_GT(probed.size(), 3u);  // The probes really watched the log grow.
    }
  }
}

}  // namespace
}  // namespace halfmoon::runtime
