#include "util/varint.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace csc {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             0x7f,
                             0x80,
                             0x3fff,
                             0x4000,
                             0xffffffffull,
                             0x123456789abcdefull,
                             ~uint64_t{0}};
  std::vector<uint8_t> buffer;
  for (uint64_t v : values) AppendVarint(buffer, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    EXPECT_EQ(DecodeVarint(buffer.data(), pos), v);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(VarintTest, SizeMatchesEncoding) {
  std::vector<uint8_t> buffer;
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 21, ~uint64_t{0}}) {
    buffer.clear();
    AppendVarint(buffer, v);
    EXPECT_EQ(buffer.size(), VarintSize(v)) << "value " << v;
  }
}

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint64_t v = 0; v < 128; ++v) EXPECT_EQ(VarintSize(v), 1u);
  EXPECT_EQ(VarintSize(128), 2u);
}

}  // namespace
}  // namespace csc
