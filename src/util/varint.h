#ifndef CSC_UTIL_VARINT_H_
#define CSC_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csc {

/// LEB128 variable-length unsigned integers, the varint arena encoding
/// (ArenaEncoding::kVarint in core/label_arena.h). Small values — hub-rank
/// deltas, distances and counts are almost all small — take one byte
/// instead of the packed entry's fixed fields.

/// Appends `value` to `out` (1-10 bytes).
inline void AppendVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

/// Writes `value` at `out` and returns its size in bytes (1-10).
inline size_t PutVarint(uint8_t* out, uint64_t value) {
  size_t size = 0;
  while (value >= 0x80) {
    out[size++] = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  out[size++] = static_cast<uint8_t>(value);
  return size;
}

/// Decodes one varint from `data` starting at `pos`, advancing `pos`.
/// The caller guarantees the buffer holds a complete, well-formed varint
/// (a varint LabelArena only decodes streams it encoded or walked on load).
inline uint64_t DecodeVarint(const uint8_t* data, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  for (;;) {
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

/// Encoded size of `value` in bytes (1-10).
inline size_t VarintSize(uint64_t value) {
  size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

}  // namespace csc

#endif  // CSC_UTIL_VARINT_H_
