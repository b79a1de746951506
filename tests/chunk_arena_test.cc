#include "util/chunk_arena.h"

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace webdb {
namespace {

TEST(ChunkArenaTest, CopiesStayPutAndHoldTheirValues) {
  ChunkArena<int32_t, 8> arena;
  std::vector<std::span<const int32_t>> runs;
  std::vector<std::vector<int32_t>> want;
  for (int32_t n = 1; n <= 5; ++n) {
    std::vector<int32_t> values(static_cast<size_t>(n));
    std::iota(values.begin(), values.end(), 10 * n);
    runs.push_back(arena.Copy(values));
    want.push_back(values);
  }
  // Later copies opened new chunks; earlier runs neither moved nor changed.
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(std::vector<int32_t>(runs[i].begin(), runs[i].end()), want[i]);
  }
}

TEST(ChunkArenaTest, ARunNeverStraddlesTwoChunks) {
  ChunkArena<int32_t, 8> arena;
  const std::vector<int32_t> five = {1, 2, 3, 4, 5};
  const std::span<const int32_t> first = arena.Copy(five);
  // Only 3 slots are left in the first chunk: the next run of 5 starts a
  // new one instead of splitting.
  const std::span<const int32_t> second = arena.Copy(five);
  EXPECT_NE(second.data(), first.data() + 5);
  // A run that fits the tail is carved right after the previous one.
  const std::span<const int32_t> third = arena.Copy(std::span(five).first(3));
  EXPECT_EQ(third.data(), second.data() + 5);
}

TEST(ChunkArenaTest, OversizedRunGetsItsOwnChunk) {
  ChunkArena<double, 4> arena;
  const std::span<double> big = arena.Allocate(10);
  ASSERT_EQ(big.size(), 10u);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const std::span<double> small = arena.Allocate(2);
  small[0] = -1.0;
  EXPECT_EQ(big[9], 9.0);
  EXPECT_TRUE(arena.Allocate(0).empty());
}

}  // namespace
}  // namespace webdb
