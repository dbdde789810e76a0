// Write-back buffer cache over the block device.
//
// Appends land in a volatile in-memory tail; FlushTo moves a prefix of that tail onto the
// device, which pays for it in whole blocks and re-writes the partial block straddling the
// durable frontier (the classic small-write amplification of an append-only journal on a
// block medium). The buffer holds ONLY the volatile tail: the durable prefix lives once, on
// the device, and every read is served from there. A node kill drops the volatile tail —
// DropVolatile — leaving exactly the device-backed durable prefix. Compaction may release a
// durable prefix — TruncatePrefix — freeing its blocks while keeping every surviving offset
// logical (nothing renumbers).

#ifndef HALFMOON_STORAGE_BLOCK_BUFFER_H_
#define HALFMOON_STORAGE_BLOCK_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/storage/block_device.h"

namespace halfmoon::storage {

class BlockBuffer {
 public:
  explicit BlockBuffer(BlockDevice* device) : device_(device) {}
  BlockBuffer(const BlockBuffer&) = delete;
  BlockBuffer& operator=(const BlockBuffer&) = delete;

  // Appends bytes to the volatile tail; returns the logical offset of the first byte.
  uint64_t Append(std::string_view bytes) {
    uint64_t offset = tail();
    volatile_.append(bytes);
    return offset;
  }

  // Logical end of the buffer (durable prefix + volatile tail).
  uint64_t tail() const { return durable() + volatile_.size(); }
  // End of the durable prefix: everything below this offset survives a kill.
  uint64_t durable() const { return device_->size(); }
  // First retained logical offset: the caller's truncation point (a frame boundary for
  // journals); bytes below it have been released. 0 until the first truncation.
  uint64_t retained() const { return retained_; }

  // Flushes [durable(), min(upto, tail())) to the device. The device charges whole blocks,
  // re-writing the block containing the old frontier — that rewrite is the amplification the
  // group-flush in durability.cc amortizes.
  void FlushTo(uint64_t upto);

  // Simulated power loss: discards the volatile tail. The durable prefix is untouched.
  void DropVolatile() { volatile_.clear(); }

  // Releases the durable prefix below `offset` (≤ durable()): whole blocks below it are freed
  // on the device, and retained() advances to exactly `offset`. Returns the device bytes
  // freed.
  uint64_t TruncatePrefix(uint64_t offset);

  // Reads back durable bytes from the device (never the volatile tail — replay must only see
  // what genuinely survived). The range must lie at or above retained()'s block base.
  std::string_view ReadDurable(uint64_t offset, uint64_t n) const {
    return device_->Read(offset, n);
  }

 private:
  BlockDevice* device_;
  std::string volatile_;  // Contents of [durable(), tail()).
  uint64_t retained_ = 0;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_BLOCK_BUFFER_H_
