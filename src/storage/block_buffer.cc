#include "src/storage/block_buffer.h"

#include <algorithm>

#include "src/common/check.h"

namespace halfmoon::storage {

void BlockBuffer::FlushTo(uint64_t upto) {
  upto = std::min<uint64_t>(upto, tail());
  if (upto <= durable()) return;
  uint64_t n = upto - durable();
  device_->Append(std::string_view(volatile_).substr(0, n));
  volatile_.erase(0, n);
}

uint64_t BlockBuffer::TruncatePrefix(uint64_t offset) {
  HM_CHECK_MSG(offset <= durable(), "prefix truncation into the volatile tail");
  if (offset <= retained_) return 0;
  retained_ = offset;
  return device_->TruncatePrefix(offset);
}

}  // namespace halfmoon::storage
