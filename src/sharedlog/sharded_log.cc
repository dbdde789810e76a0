#include "src/sharedlog/sharded_log.h"

#include <string>

#include "src/storage/durability.h"

namespace halfmoon::sharedlog {

ShardedLog::ShardedLog(uint32_t shard_count) {
  HM_CHECK_MSG(shard_count >= 1, "ShardedLog: shard_count must be >= 1");
  // The tag → shard mapping must be fixed before any tag is interned (the LogSpace
  // constructors pre-intern the well-known tags and ops).
  shared_.tags.SetShardCount(shard_count);
  shards_.reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<LogSpace>(&shared_, i, shard_count));
  }
  std::vector<LogSpace*> peers;
  peers.reserve(shard_count);
  for (auto& shard : shards_) peers.push_back(shard.get());
  for (auto& shard : shards_) shard->SetPeers(peers);
}

size_t ShardedLog::live_records() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->live_records();
  return total;
}

size_t ShardedLog::IndexEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->IndexEntries();
  return total;
}

size_t ShardedLog::IndexCapacity() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->IndexCapacity();
  return total;
}

void ShardedLog::AttachDurability(storage::DurabilityService* svc) {
  shared_.durability = svc;
  if (svc == nullptr) {
    shared_.tags.SetInternSink(nullptr);
    return;
  }
  shared_.tags.SetInternSink([svc](TagId id, std::string_view name) {
    std::string payload;
    storage::PutU64(&payload, id);
    storage::PutStr(&payload, name);
    svc->AppendFrame(storage::FrameType::kTagDef, payload);
  });
}

void ShardedLog::ResetVolatile(SimTime now) {
  shared_.gauge.Add(now, -shared_.gauge.CurrentBytes());
  shared_.watermark = 0;
  for (auto& shard : shards_) shard->ResetShardVolatile();
}

}  // namespace halfmoon::sharedlog
