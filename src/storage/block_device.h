// The simulated durable medium: a byte-addressed device written in aligned 4 KiB blocks.
//
// The device is the ONLY state in the simulation that survives a node kill. Everything above
// it (the block buffer's volatile tail, LogSpace indices, KvState maps) is reconstructed by
// replaying the journal frames recorded here (see durability.h). Writes are paid for in whole
// blocks — flushing a 100-byte journal frame rewrites its 4 KiB tail block — which is what
// makes group-flush worth modeling and gives bench_recovery_cost a real write-amplification
// number to report. Compaction (DESIGN.md §14) may release a block-aligned prefix: offsets
// stay logical (they never renumber), but the freed blocks stop occupying device memory.

#ifndef HALFMOON_STORAGE_BLOCK_DEVICE_H_
#define HALFMOON_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace halfmoon::storage {

// Flush granularity of the simulated medium (an NVMe-class logical block).
inline constexpr uint64_t kBlockSize = 4096;

class BlockDevice {
 public:
  struct Stats {
    int64_t block_writes = 0;   // Blocks written; rewriting a partial tail block counts again.
    int64_t bytes_written = 0;  // Device bytes moved = block_writes * kBlockSize.
    int64_t bytes_dropped = 0;  // Device bytes released by prefix truncation.
  };

  // Appends `data` at the device end. Every block the write touches is paid for in full,
  // including the partial tail block it extends (rewritten from its start).
  void Append(std::string_view data);

  // Reads back durable bytes; the range must lie within the retained part of the device.
  std::string_view Read(uint64_t offset, uint64_t n) const;

  // Releases every whole block strictly below `offset` (rounded down to a block boundary).
  // Logical offsets above the new base are unaffected; reads below it become errors. Returns
  // the number of device bytes actually freed.
  uint64_t TruncatePrefix(uint64_t offset);

  // Flips one retained byte in place — a latent media error, not a write (nothing is paid).
  void CorruptByteForTest(uint64_t offset);

  uint64_t size() const { return base_ + data_.size(); }
  // First retained logical offset (block-aligned; 0 until the first truncation).
  uint64_t base() const { return base_; }
  // Bytes the device currently occupies — shrinks when TruncatePrefix frees blocks.
  uint64_t resident_bytes() const { return data_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  std::string data_;  // Contents of [base_, size()).
  uint64_t base_ = 0;
  Stats stats_;
};

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_BLOCK_DEVICE_H_
