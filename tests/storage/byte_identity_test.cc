// Byte-identity pin of the storage tier (DESIGN.md §13/§14): a seeded durable+checkpoint
// cluster runs a paper application with GC and auto-triggered checkpoint rounds, and every
// byte the tier writes is pinned — the state frames of every checkpoint image, every manifest
// field but the checksum, the retained journal bytes of both domains, the block accounting of
// all four devices and the checkpoint service's counters.
//
// The expected values were captured on the storage tier that mirrored every durable byte in
// the block buffer and walked checkpoints through a copied key list and a round-wide seqnum
// set. Any host-side rewrite of the buffer, the frame codec or the checkpoint walk must write
// exactly the same bytes and pay for exactly the same blocks. The manifest checksum is left
// out because its function is free to change; the image bytes it covers are not.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fnv.h"
#include "src/core/gc_service.h"
#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"
#include "src/storage/block_device.h"
#include "src/storage/checkpoint.h"
#include "src/storage/durability.h"
#include "src/storage/journal.h"
#include "src/workloads/applications.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;

struct PinCase {
  const char* name;
  ProtocolKind protocol;
  bool movie;  // Movie (HM-write latest slots) or travel (HM-read versions).
  int log_shards;
};

struct PinResult {
  int64_t images = 0;
  uint64_t image_digest = kFnvBasis;  // Manifest fields (but checksum) + image-byte FNVs.
  uint64_t log_journal_fnv = 0;
  uint64_t kv_journal_fnv = 0;
  // log journal, kv journal, log store, kv store: {block_writes, bytes_written, bytes_dropped}.
  std::vector<int64_t> devices;
  storage::CheckpointService::Stats service;
};

// Folds every manifest in `store` past *scanned into the digest: the manifest's fields except
// its checksum, then the FNV of the image bytes it covers (state frames only — the region
// ends at the manifest's own frame).
void ScanManifests(const storage::CheckpointStore& store, uint64_t* scanned, PinResult* out) {
  uint64_t off = std::max(*scanned, store.retained());
  const storage::BlockBuffer& buffer = store.buffer();
  while (off + storage::kFrameHeaderBytes <= store.durable()) {
    storage::Cursor header(buffer.ReadDurable(off, storage::kFrameHeaderBytes));
    uint64_t len = header.U32();
    auto type = static_cast<storage::FrameType>(header.U8());
    uint64_t end = off + storage::kFrameHeaderBytes + len;
    if (end > store.durable()) break;
    if (type == storage::FrameType::kCkptManifest) {
      storage::CheckpointManifest m = storage::DecodeManifest(
          storage::Cursor(buffer.ReadDurable(off + storage::kFrameHeaderBytes, len)));
      uint64_t h = out->image_digest;
      h = FnvU64(h, m.domain);
      h = FnvU64(h, m.cut);
      h = FnvU64(h, m.image_start);
      h = FnvU64(h, m.frame_count);
      h = FnvU64(h, m.watermark_floor);
      h = FnvU64(h, FnvBytes(kFnvBasis, buffer.ReadDurable(m.image_start, off - m.image_start)));
      out->image_digest = h;
      ++out->images;
    }
    off = end;
  }
  *scanned = off;
}

uint64_t JournalFnv(const storage::DurabilityService& journal) {
  const storage::BlockDevice& device = journal.device();
  return FnvBytes(kFnvBasis, device.Read(device.base(), device.size() - device.base()));
}

void AppendDeviceStats(const storage::BlockDevice& device, std::vector<int64_t>* out) {
  out->push_back(device.stats().block_writes);
  out->push_back(device.stats().bytes_written);
  out->push_back(device.stats().bytes_dropped);
}

PinResult RunPinned(const PinCase& pin) {
  runtime::ClusterConfig config;
  config.seed = 7;
  config.function_nodes = 2;
  config.workers_per_node = 8;
  config.log_shards = pin.log_shards;
  config.db_servers = 4;
  config.append_batch_window = 0;
  config.append_batch_max = 64;
  config.append_batch_pipeline = 1;
  config.durable = true;
  config.checkpoint = true;
  config.checkpoint_slice = 48;
  config.checkpoint_trigger_bytes = 48 * 1024;
  runtime::Cluster cluster(config);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = pin.protocol;
  core::SsfRuntime runtime(&cluster, rcfg);
  core::GcService gc(&cluster, Milliseconds(20));
  gc.Start();

  workloads::AppDataset data;
  data.hotels = 40;
  data.users = 60;
  data.movies = 40;
  if (pin.movie) {
    workloads::RegisterMovieApp(runtime, data);
  } else {
    workloads::RegisterTravelApp(runtime, data);
  }
  workloads::RequestFactory factory = pin.movie ? workloads::MovieRequestFactory(runtime, data)
                                                : workloads::TravelRequestFactory(runtime, data);

  PinResult result;
  uint64_t log_scanned = 0;
  uint64_t kv_scanned = 0;
  // Capture each image right after its manifest lands: a later round truncates it away. The
  // probe forwards to the injector so the run is the one the cluster's own probe would drive.
  cluster.checkpoint_service()->InstallCrashProbe([&](const char* site) {
    bool crash = cluster.failure_injector().ShouldCrash(cluster.rng(), site);
    if (std::string_view(site) == "ckpt.install") {
      ScanManifests(*cluster.log_checkpoint_store(), &log_scanned, &result);
      ScanManifests(*cluster.kv_checkpoint_store(), &kv_scanned, &result);
    }
    return crash;
  });

  constexpr int kRoots = 600;
  int completed = 0;
  auto fire = [&](std::string fn, Value input) -> sim::Task<void> {
    co_await runtime.InvokeSsf(std::move(fn), std::move(input));
    ++completed;
  };
  sim::Scheduler& scheduler = cluster.scheduler();
  auto generate = [&]() -> sim::Task<void> {
    for (int i = 0; i < kRoots; ++i) {
      co_await scheduler.Delay(Microseconds(400));
      auto [fn, input] = factory();
      scheduler.Spawn(fire(std::move(fn), std::move(input)));
    }
  };
  scheduler.Spawn(generate());
  while (completed < kRoots && scheduler.Now() < Seconds(30)) {
    scheduler.RunUntil(scheduler.Now() + Milliseconds(10));
  }
  EXPECT_EQ(completed, kRoots);
  gc.Stop();
  scheduler.Run();
  ScanManifests(*cluster.log_checkpoint_store(), &log_scanned, &result);
  ScanManifests(*cluster.kv_checkpoint_store(), &kv_scanned, &result);

  result.log_journal_fnv = JournalFnv(*cluster.log_durability());
  result.kv_journal_fnv = JournalFnv(*cluster.kv_durability());
  AppendDeviceStats(cluster.log_durability()->device(), &result.devices);
  AppendDeviceStats(cluster.kv_durability()->device(), &result.devices);
  AppendDeviceStats(cluster.log_checkpoint_store()->device(), &result.devices);
  AppendDeviceStats(cluster.kv_checkpoint_store()->device(), &result.devices);
  result.service = cluster.checkpoint_service()->stats();
  return result;
}

std::vector<int64_t> ServiceStats(const storage::CheckpointService::Stats& s) {
  return {s.rounds_started,        s.rounds_completed,         s.rounds_abandoned,
          s.slices,                s.image_frames,             s.manifests_written,
          s.journal_bytes_truncated, s.store_bytes_truncated};
}

void Print(const PinCase& pin, const PinResult& r) {
  std::printf("[storage-pin] %s images=%lld image_digest=0x%016llxull log_journal=0x%016llxull "
              "kv_journal=0x%016llxull\n",
              pin.name, static_cast<long long>(r.images),
              static_cast<unsigned long long>(r.image_digest),
              static_cast<unsigned long long>(r.log_journal_fnv),
              static_cast<unsigned long long>(r.kv_journal_fnv));
  std::printf("[storage-pin] %s devices={", pin.name);
  for (int64_t v : r.devices) std::printf("%lld, ", static_cast<long long>(v));
  std::printf("} service={");
  for (int64_t v : ServiceStats(r.service)) std::printf("%lld, ", static_cast<long long>(v));
  std::printf("}\n");
}

struct Expected {
  int64_t images;
  uint64_t image_digest;
  uint64_t log_journal_fnv;
  uint64_t kv_journal_fnv;
  std::vector<int64_t> devices;
  std::vector<int64_t> service;
};

void ExpectPinned(const PinCase& pin, const Expected& want) {
  PinResult got = RunPinned(pin);
  Print(pin, got);
  EXPECT_GT(got.images, 4) << "the run must complete several checkpoint rounds";
  EXPECT_GT(got.service.journal_bytes_truncated, 0);
  EXPECT_EQ(got.images, want.images);
  EXPECT_EQ(got.image_digest, want.image_digest);
  EXPECT_EQ(got.log_journal_fnv, want.log_journal_fnv);
  EXPECT_EQ(got.kv_journal_fnv, want.kv_journal_fnv);
  EXPECT_EQ(got.devices, want.devices);
  EXPECT_EQ(ServiceStats(got.service), want.service);
}

TEST(StorageBytePinTest, MovieHalfmoonWriteSingleShard) {
  ExpectPinned({"movie/hm-write/shards=1", ProtocolKind::kHalfmoonWrite, true, 1},
               {96,
                0xf0c223b8f0531e69ull,
                0xb41d38dcba7610bdull,
                0x9c29eb919888fe55ull,
                {7427, 30420992, 1871872, 4313, 17666048, 516096, 18554, 75997184, 36823040,
                 4896, 20054016, 11075584},
                {48, 48, 0, 11477, 405171, 96, 2389908, 47905025}});
}

// Re-pinned when KvState::WriteCheckpointSlice stopped dropping one live version at every
// pause inside an object's version index (it recorded the version it had *not* emitted as
// the resume point, then resumed past it): the images now carry 55 more version frames, and
// only the image digest, the KV store's device counters and the service's image-frame and
// store-truncation counters moved. The journals are byte-identical.
TEST(StorageBytePinTest, TravelHalfmoonReadFourShards) {
  ExpectPinned({"travel/hm-read/shards=4", ProtocolKind::kHalfmoonRead, false, 4},
               {22,
                0xab3bfa6146dae3a6ull,
                0xa23abd91cdc960d9ull,
                0x522b2d0b8be9f6d5ull,
                {4038, 16539648, 471040, 38, 155648, 65536, 985, 4034560, 1478656, 254, 1040384,
                 659456},
                {11, 11, 0, 634, 22554, 22, 541513, 2142567}});
}

}  // namespace
}  // namespace halfmoon
