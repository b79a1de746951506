#include "db/update_register.h"

#include <gtest/gtest.h>

namespace webdb {
namespace {

constexpr int32_t kNumItems = 8;

TEST(UpdateRegisterTest, FirstRegistrationHasNoVictim) {
  UpdateRegister reg(kNumItems);
  EXPECT_EQ(reg.Register(5, 101), 0u);
  EXPECT_EQ(reg.PendingFor(5), 101u);
  EXPECT_EQ(reg.Size(), 1u);
  EXPECT_EQ(reg.TotalInvalidated(), 0u);
}

TEST(UpdateRegisterTest, NewArrivalInvalidatesPending) {
  UpdateRegister reg(kNumItems);
  reg.Register(5, 101);
  EXPECT_EQ(reg.Register(5, 103), 101u);
  EXPECT_EQ(reg.PendingFor(5), 103u);
  EXPECT_EQ(reg.Size(), 1u);
  EXPECT_EQ(reg.TotalInvalidated(), 1u);
}

TEST(UpdateRegisterTest, DistinctItemsIndependent) {
  UpdateRegister reg(kNumItems);
  reg.Register(1, 11);
  reg.Register(2, 13);
  EXPECT_EQ(reg.PendingFor(1), 11u);
  EXPECT_EQ(reg.PendingFor(2), 13u);
  EXPECT_EQ(reg.Size(), 2u);
}

TEST(UpdateRegisterTest, RemoveOnlyMatching) {
  UpdateRegister reg(kNumItems);
  reg.Register(1, 11);
  EXPECT_FALSE(reg.Remove(1, 99));  // superseded caller
  EXPECT_EQ(reg.PendingFor(1), 11u);
  EXPECT_TRUE(reg.Remove(1, 11));
  EXPECT_EQ(reg.PendingFor(1), 0u);
  EXPECT_EQ(reg.Size(), 0u);
  EXPECT_FALSE(reg.Remove(1, 11));  // already gone
  EXPECT_EQ(reg.Size(), 0u);
}

TEST(UpdateRegisterTest, PendingForUnknownItemIsZero) {
  UpdateRegister reg(kNumItems);
  EXPECT_EQ(reg.PendingFor(kNumItems - 1), 0u);
  EXPECT_FALSE(reg.Remove(kNumItems - 1, 5));
}

TEST(UpdateRegisterTest, HighestItemIdIsUsable) {
  UpdateRegister reg(kNumItems);
  const ItemId last = kNumItems - 1;
  EXPECT_EQ(reg.Register(last, 21), 0u);
  EXPECT_EQ(reg.Register(last, 23), 21u);
  EXPECT_EQ(reg.PendingFor(last), 23u);
  EXPECT_TRUE(reg.Remove(last, 23));
  EXPECT_EQ(reg.Size(), 0u);
}

TEST(UpdateRegisterTest, PendingEntriesAreInItemOrder) {
  UpdateRegister reg(kNumItems);
  reg.Register(6, 61);
  reg.Register(0, 1);
  reg.Register(3, 31);
  reg.Register(3, 33);
  const std::vector<std::pair<ItemId, uint64_t>> expected = {
      {0, 1}, {3, 33}, {6, 61}};
  EXPECT_EQ(reg.PendingEntries(), expected);
}

TEST(UpdateRegisterTest, ChainOfInvalidations) {
  UpdateRegister reg(kNumItems);
  reg.Register(7, 1);
  EXPECT_EQ(reg.Register(7, 3), 1u);
  EXPECT_EQ(reg.Register(7, 5), 3u);
  EXPECT_EQ(reg.Register(7, 7), 5u);
  EXPECT_EQ(reg.TotalInvalidated(), 3u);
  EXPECT_EQ(reg.PendingFor(7), 7u);
  EXPECT_EQ(reg.Size(), 1u);
}

}  // namespace
}  // namespace webdb
