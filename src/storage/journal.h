// Journal frame codec: the write-ahead record format shared by the log and KV stores.
//
// Every durable mutation is one frame appended to a block buffer:
//
//   [u32 payload_len | u8 type | payload]
//
// Payloads are flat little-endian primitives written with the Put* helpers and decoded with a
// bounds-checked Cursor. Replay iterates whole frames within the durable prefix; a frame torn
// by the kill (its bytes straddle the durable frontier) is ignored — write-ahead ordering
// guarantees nothing external ever depended on it.

#ifndef HALFMOON_STORAGE_JOURNAL_H_
#define HALFMOON_STORAGE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/storage/block_buffer.h"

namespace halfmoon::storage {

enum class FrameType : uint8_t {
  kTagDef = 1,             // u64 tag id, str name — registry cross-check on replay.
  kRecord = 2,             // Log record: seqnum, tags, fields.
  kTrim = 3,               // u64 tag, u64 upto, u64 base_after — a Trim that released records.
  kKvPut = 4,              // str key, str value.
  kKvCondPut = 5,          // str key, str value, u64 cursor_ts, u64 counter (applied only).
  kKvPutVersioned = 6,     // u64 object, str version_id, str value.
  kKvDeleteVersioned = 7,  // u64 object, str version_id (the ones that deleted something).

  // Checkpoint image frames (DESIGN.md §14); these live in the sibling checkpoint store, not
  // the journal. An image is a run of state frames closed by exactly one manifest.
  kCkptRecord = 8,      // Same payload as kRecord: one live record body, emitted once.
  kCkptTagStream = 9,   // u64 tag, u64 base, u32 n, n×u64 seqnums — one tag's live stream.
  kCkptKvLatest = 10,   // str key, str value, u64 cursor_ts, u64 counter — one latest slot.
  kCkptKvVersion = 11,  // u64 object, str version_id, str value — one stored version.
  kCkptManifest = 12,   // See CheckpointManifest in checkpoint.h.
};

inline constexpr uint64_t kFrameHeaderBytes = 5;  // u32 len + u8 type.

// Little-endian primitive writers. Each word is assembled in registers and appended whole
// (the byte loop compiles to one store).
inline void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }
template <typename Word>
inline void PutWord(std::string* out, Word v) {
  char bytes[sizeof(Word)];
  for (size_t i = 0; i < sizeof(Word); ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, sizeof(Word));
}
inline void PutU32(std::string* out, uint32_t v) { PutWord(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutWord(out, v); }
inline void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked payload reader. Underflow is a corrupt frame — a simulation bug, not a
// recoverable condition — so it aborts.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : p_(bytes) {}

  uint8_t U8() {
    HM_CHECK_MSG(p_.size() >= 1, "journal cursor underflow");
    uint8_t v = static_cast<uint8_t>(p_[0]);
    p_.remove_prefix(1);
    return v;
  }
  uint32_t U32() {
    HM_CHECK_MSG(p_.size() >= 4, "journal cursor underflow");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(static_cast<uint8_t>(p_[i])) << (8 * i);
    p_.remove_prefix(4);
    return v;
  }
  uint64_t U64() {
    HM_CHECK_MSG(p_.size() >= 8, "journal cursor underflow");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(static_cast<uint8_t>(p_[i])) << (8 * i);
    p_.remove_prefix(8);
    return v;
  }
  std::string_view Str() {
    uint32_t n = U32();
    HM_CHECK_MSG(p_.size() >= n, "journal cursor underflow");
    std::string_view s = p_.substr(0, n);
    p_.remove_prefix(n);
    return s;
  }

  bool empty() const { return p_.empty(); }

 private:
  std::string_view p_;
};

// Appends one framed payload to `buffer`; returns the offset one past the frame (the
// durability threshold its writer waits on).
uint64_t AppendFrame(BlockBuffer* buffer, FrameType type, std::string_view payload);

// Invokes `fn` for every whole frame within [from, upto) of the buffer's durable prefix, in
// append order. `from` must be a frame boundary (0, a previous frame's end, or a manifest's
// cut). A frame whose bytes cross `upto` is a torn tail and is skipped.
void ReplayFrames(const BlockBuffer& buffer, uint64_t from, uint64_t upto,
                  const std::function<void(FrameType, Cursor)>& fn);

// Replays [retained(), upto): the whole surviving prefix of a possibly-compacted buffer.
inline void ReplayFrames(const BlockBuffer& buffer, uint64_t upto,
                         const std::function<void(FrameType, Cursor)>& fn) {
  ReplayFrames(buffer, buffer.retained(), upto, fn);
}

}  // namespace halfmoon::storage

#endif  // HALFMOON_STORAGE_JOURNAL_H_
