// 64-bit FNV-1a: the one definition of the basis, the prime and the two mixers that every
// checksum, content fold and golden pin in the repo is built from.

#ifndef HALFMOON_COMMON_FNV_H_
#define HALFMOON_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace halfmoon {

inline constexpr uint64_t kFnvBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

constexpr uint64_t FnvBytes(uint64_t h, std::string_view bytes) {
  for (char c : bytes) h = (h ^ static_cast<uint8_t>(c)) * kFnvPrime;
  return h;
}

// The eight bytes of `v`, least significant first.
constexpr uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  return h;
}

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_FNV_H_
