// Shard-equivalence suite for the tag-partitioned shared log.
//
// Two contracts, checked over every protocol x workload pair:
//   1. Bit-identity at one shard: with log_shards = 1 the encoded seqnums, event counts,
//      virtual end times, and full log content are *identical* to the pre-sharding
//      implementation (golden tuples captured at the previous head). Sharding must be
//      invisible when disabled.
//   2. Equivalence at N shards: with log_shards in {2, 4} the same seed must produce the
//      same committed record content, the same event count and end time (per-shard
//      sequencer rounds draw the same latency samples in the same order), and a passing
//      consistency oracle. Only the seqnum *encoding* may differ.
//
// Every comparison reads Cluster::Fingerprint() (DESIGN.md §16). Its log_content field is
// seqnum-free, so it is invariant under re-encoding — which is exactly the property that
// makes it a cross-shard witness.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"
#include "src/faultcheck/oracle.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;

sim::Task<void> Drive(core::SsfRuntime* runtime, std::string function, Value input, Value* out,
                      bool* done) {
  *out = co_await runtime->InvokeSsf(std::move(function), std::move(input));
  *done = true;
}

struct RunResult {
  runtime::StateFingerprint fp;
  bool oracle_ok = false;
  std::string oracle_failure;
};

RunResult RunWorkload(ProtocolKind protocol, const faultcheck::Workload& workload,
                      int log_shards, bool read_cache = false, int pipeline_depth = 1) {
  runtime::ClusterConfig ccfg;  // Defaults: seed 1, 8 nodes — matches the golden capture.
  ccfg.log_shards = log_shards;
  ccfg.log_read_cache = read_cache;
  ccfg.append_batch_pipeline = pipeline_depth;
  runtime::Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = protocol;
  core::SsfRuntime runtime(&cluster, rcfg);
  workload.Install(runtime);

  std::vector<Value> results;
  for (const auto& [function, input] : workload.invocations) {
    Value out;
    bool done = false;
    cluster.scheduler().Spawn(Drive(&runtime, function, input, &out, &done));
    cluster.scheduler().Run();
    EXPECT_TRUE(done) << workload.name << ": invocation did not complete";
    results.push_back(out);
  }

  faultcheck::OracleVerdict verdict =
      faultcheck::CheckConsistency(cluster, workload, protocol, /*switching=*/false, results);
  return RunResult{cluster.Fingerprint(), verdict.ok, verdict.failure};
}

// Prints "<head>=<base content> <label>=<other content> match|MISMATCH"; scripts/check.sh
// greps the '[shards]'/'[pipeline]' head and the ' match' token.
void Report(const std::string& head, const RunResult& base, const std::string& label,
            const RunResult& other) {
  bool match = other.fp.log_content == base.fp.log_content && other.oracle_ok;
  std::printf("%s=0x%llx %s=0x%llx %s\n", head.c_str(),
              static_cast<unsigned long long>(base.fp.log_content), label.c_str(),
              static_cast<unsigned long long>(other.fp.log_content), match ? "match" : "MISMATCH");
}

const ProtocolKind kProtocols[] = {
    ProtocolKind::kBoki,
    ProtocolKind::kHalfmoonRead,
    ProtocolKind::kHalfmoonWrite,
    ProtocolKind::kTransitional,
};

struct Golden {
  const char* protocol;
  const char* workload;
  uint64_t events;
  uint64_t end_now;
  uint64_t next_seqnum;
  uint64_t content_fnv;
};

// Captured at the pre-sharding head (PR 4): ClusterConfig defaults, log_shards pinned to 1.
// Any drift here means the one-shard code path is no longer the historic implementation.
const Golden kGoldens[] = {
    {"Boki", "counter", 102ull, 29114551ull, 13ull, 0x27997faa902eac63ull},
    {"Boki", "transfer", 114ull, 36286555ull, 15ull, 0xa57b016e099fa5c1ull},
    {"Boki", "workflow", 194ull, 39466378ull, 29ull, 0x955a1dd8169c2e24ull},
    {"Halfmoon-read", "counter", 88ull, 23700364ull, 11ull, 0xa75e9b1f8b1c59c9ull},
    {"Halfmoon-read", "transfer", 96ull, 32440175ull, 13ull, 0x9ed8397a27dd7343ull},
    {"Halfmoon-read", "workflow", 184ull, 41429721ull, 30ull, 0xedcdd2bd6734820eull},
    {"Halfmoon-write", "counter", 66ull, 21705196ull, 7ull, 0x95bc7e3a09d74505ull},
    {"Halfmoon-write", "transfer", 66ull, 25505280ull, 7ull, 0xcb39d8f4aa892f0dull},
    {"Halfmoon-write", "workflow", 120ull, 33777847ull, 17ull, 0x85b5ad84320a842bull},
    {"Transitional", "counter", 125ull, 36566345ull, 13ull, 0x6844aae78d48ed8aull},
    {"Transitional", "transfer", 144ull, 48864106ull, 15ull, 0xff547c414e3a5502ull},
    {"Transitional", "workflow", 220ull, 53231692ull, 29ull, 0x6c9d9f159cec029ull},
};

const faultcheck::Workload* FindWorkload(const std::vector<faultcheck::Workload>& all,
                                         std::string_view name) {
  for (const faultcheck::Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ProtocolKind FindProtocol(std::string_view name) {
  for (ProtocolKind p : kProtocols) {
    if (core::ProtocolName(p) == name) return p;
  }
  ADD_FAILURE() << "unknown protocol in golden table: " << name;
  return ProtocolKind::kBoki;
}

TEST(ShardedEquivalenceTest, OneShardIsBitIdenticalToPreShardingGoldens) {
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (const Golden& golden : kGoldens) {
    const faultcheck::Workload* workload = FindWorkload(all, golden.workload);
    ASSERT_NE(workload, nullptr) << golden.workload;
    RunResult r = RunWorkload(FindProtocol(golden.protocol), *workload, /*log_shards=*/1);
    SCOPED_TRACE(std::string(golden.protocol) + "/" + golden.workload);
    EXPECT_TRUE(r.oracle_ok) << r.oracle_failure;
    EXPECT_EQ(r.fp.events_processed, golden.events);
    EXPECT_EQ(static_cast<uint64_t>(r.fp.now), golden.end_now);
    EXPECT_EQ(r.fp.next_seqnum, golden.next_seqnum);
    EXPECT_EQ(r.fp.log_content, golden.content_fnv);
  }
}

TEST(ShardedEquivalenceTest, ShardCountsProduceEquivalentExecutions) {
  // Only log_content, events and the clock are compared. The seqnum encoding depends on the
  // shard count, and it reaches log_seqnums, next_seqnum and the KV version tuples (whose
  // cursor_ts is a seqnum), so those fields legitimately differ across shard counts.
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      std::string pair = std::string(core::ProtocolName(protocol)) + "/" + workload.name;
      SCOPED_TRACE(pair);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      ASSERT_TRUE(base.oracle_ok) << base.oracle_failure;
      for (int shards : {2, 4}) {
        RunResult sharded = RunWorkload(protocol, workload, shards);
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_TRUE(sharded.oracle_ok) << sharded.oracle_failure;
        // Same serial driving, same latency draws: the execution shape is shard-invariant.
        EXPECT_EQ(sharded.fp.events_processed, base.fp.events_processed);
        EXPECT_EQ(sharded.fp.now, base.fp.now);
        EXPECT_EQ(sharded.fp.log_content, base.fp.log_content);
        Report("[shards] " + pair + " n1", base, "n" + std::to_string(shards), sharded);
      }
    }
  }
}

TEST(ShardedEquivalenceTest, PipelineDepthsCommitIdenticalContent) {
  // The append engine (DESIGN.md §12) commits rounds strictly in departure order, so at ANY
  // depth the committed content, the seqnum assignment and supply, the KV state and the
  // oracle verdict must match depth 1 exactly. Event counts and end times legitimately
  // differ — deeper, the dispatcher spawns rounds as separate tasks — which is precisely why
  // depth 1 awaits each round inline instead (pinned by
  // OneShardIsBitIdenticalToPreShardingGoldens above).
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      std::string pair = std::string(core::ProtocolName(protocol)) + "/" + workload.name;
      SCOPED_TRACE(pair);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      ASSERT_TRUE(base.oracle_ok) << base.oracle_failure;
      for (int depth : {2, 4, 8}) {
        RunResult piped = RunWorkload(protocol, workload, /*log_shards=*/1,
                                      /*read_cache=*/false, depth);
        SCOPED_TRACE("pipeline=" + std::to_string(depth));
        EXPECT_TRUE(piped.oracle_ok) << piped.oracle_failure;
        EXPECT_EQ(piped.fp.next_seqnum, base.fp.next_seqnum);
        EXPECT_EQ(piped.fp.log_content, base.fp.log_content);
        EXPECT_EQ(piped.fp.log_seqnums, base.fp.log_seqnums);
        EXPECT_EQ(piped.fp.kv, base.fp.kv);
        if (depth == 4) Report("[pipeline] " + pair + " d1", base, "d4", piped);
      }
    }
  }
}

TEST(ShardedEquivalenceTest, PipelinedShardsCommitIdenticalContent) {
  // Depth and shard count compose: four shards × four in-flight rounds per shard must still
  // commit the same content as the serial one-shard log.
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    const faultcheck::Workload* counter = FindWorkload(all, "counter");
    ASSERT_NE(counter, nullptr);
    RunResult base = RunWorkload(protocol, *counter, /*log_shards=*/1);
    RunResult piped = RunWorkload(protocol, *counter, /*log_shards=*/4,
                                  /*read_cache=*/false, /*pipeline_depth=*/4);
    SCOPED_TRACE(core::ProtocolName(protocol));
    EXPECT_TRUE(piped.oracle_ok) << piped.oracle_failure;
    EXPECT_EQ(piped.fp.log_content, base.fp.log_content);
  }
}

TEST(ShardedEquivalenceTest, ReadCachePreservesCommittedContent) {
  // The node-local read cache changes read latencies, never the committed log: with the
  // cache on, the committed content, seqnum assignment and KV state must match the cache-off
  // run and the oracle must pass. (Event counts and end times legitimately differ — cache
  // hits skip the storage visit.) At four shards only the seqnum-free content is comparable.
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      SCOPED_TRACE(std::string(core::ProtocolName(protocol)) + "/" + workload.name);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      RunResult cached =
          RunWorkload(protocol, workload, /*log_shards=*/1, /*read_cache=*/true);
      EXPECT_TRUE(cached.oracle_ok) << cached.oracle_failure;
      EXPECT_EQ(cached.fp.log_content, base.fp.log_content);
      EXPECT_EQ(cached.fp.log_seqnums, base.fp.log_seqnums);
      EXPECT_EQ(cached.fp.kv, base.fp.kv);

      RunResult cached_sharded =
          RunWorkload(protocol, workload, /*log_shards=*/4, /*read_cache=*/true);
      EXPECT_TRUE(cached_sharded.oracle_ok) << cached_sharded.oracle_failure;
      EXPECT_EQ(cached_sharded.fp.log_content, base.fp.log_content);
    }
  }
}

}  // namespace
}  // namespace halfmoon
