#include "src/storage/block_device.h"

#include "src/common/check.h"

namespace halfmoon::storage {

void BlockDevice::Append(std::string_view data) {
  if (data.empty()) return;
  uint64_t start = (size() / kBlockSize) * kBlockSize;
  data_.append(data);
  int64_t blocks = static_cast<int64_t>((size() - start + kBlockSize - 1) / kBlockSize);
  stats_.block_writes += blocks;
  stats_.bytes_written += blocks * static_cast<int64_t>(kBlockSize);
}

std::string_view BlockDevice::Read(uint64_t offset, uint64_t n) const {
  HM_CHECK_MSG(offset >= base_, "device read below the truncated base");
  HM_CHECK_MSG(offset + n <= size(), "device read past the durable end");
  return std::string_view(data_).substr(offset - base_, n);
}

uint64_t BlockDevice::TruncatePrefix(uint64_t offset) {
  uint64_t aligned = (offset / kBlockSize) * kBlockSize;
  if (aligned <= base_) return 0;
  HM_CHECK_MSG(aligned <= size(), "prefix truncation past the device end");
  uint64_t freed = aligned - base_;
  data_.erase(0, freed);
  data_.shrink_to_fit();
  base_ = aligned;
  stats_.bytes_dropped += static_cast<int64_t>(freed);
  return freed;
}

void BlockDevice::CorruptByteForTest(uint64_t offset) {
  HM_CHECK(offset >= base_ && offset < size());
  data_[offset - base_] = static_cast<char>(data_[offset - base_] ^ 0xff);
}

}  // namespace halfmoon::storage
