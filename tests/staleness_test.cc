#include "db/staleness.h"

#include <vector>

#include <gtest/gtest.h>

namespace webdb {
namespace {

class StalenessTest : public ::testing::Test {
 protected:
  StalenessTest() : db_(4) {
    // Item 0: 2 unapplied (arrived at t=1000 and t=2000).
    db_.RecordUpdateArrival(0, 5.0, 1000);
    db_.RecordUpdateArrival(0, 9.0, 2000);
    // Item 1: 1 unapplied.
    db_.RecordUpdateArrival(1, 3.0, 1500);
    // Items 2, 3: fresh.
  }
  Database db_;
  // Stale (items 0 and 1) and fresh (item 2), and fresh only.
  const std::vector<ItemId> mixed_ = {0, 1, 2};
  const std::vector<ItemId> fresh_ = {2, 3};
};

TEST_F(StalenessTest, UnappliedMetricCountsLiveUpdatesOnly) {
  // Item 0 saw two arrivals, but invalidation leaves at most one live
  // unapplied update: #uu is 1, not 2.
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 0, StalenessMetric::kUnappliedUpdates, 5000), 1.0);
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 2, StalenessMetric::kUnappliedUpdates, 5000), 0.0);
}

TEST_F(StalenessTest, UnappliedArrivalsMetricCountsAllMissedChanges) {
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 0, StalenessMetric::kUnappliedArrivals, 5000), 2.0);
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 1, StalenessMetric::kUnappliedArrivals, 5000), 1.0);
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 2, StalenessMetric::kUnappliedArrivals, 5000), 0.0);
}

TEST_F(StalenessTest, TimeDifferentialInMillis) {
  // Oldest unapplied of item 0 arrived at 1000us; at t=5000us td = 4000us =
  // 4ms... but ToMillis(4000) = 4.0? 4000us = 4ms.
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 0, StalenessMetric::kTimeDifferential, 5000), 4.0);
}

TEST_F(StalenessTest, ValueDistance) {
  // Item 0 current value 0 (never applied), newest arrival 9.0.
  EXPECT_DOUBLE_EQ(
      ItemStaleness(db_, 0, StalenessMetric::kValueDistance, 5000), 9.0);
}

TEST_F(StalenessTest, CombinerMax) {
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, mixed_, StalenessMetric::kUnappliedArrivals,
                     StalenessCombiner::kMax, 5000),
      2.0);
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, mixed_, StalenessMetric::kUnappliedUpdates,
                     StalenessCombiner::kMax, 5000),
      1.0);
}

TEST_F(StalenessTest, CombinerSum) {
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, mixed_, StalenessMetric::kUnappliedArrivals,
                     StalenessCombiner::kSum, 5000),
      3.0);
  // Under the live-update metric each stale item contributes 1.
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, mixed_, StalenessMetric::kUnappliedUpdates,
                     StalenessCombiner::kSum, 5000),
      2.0);
}

TEST_F(StalenessTest, CombinerAvg) {
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, mixed_, StalenessMetric::kUnappliedArrivals,
                     StalenessCombiner::kAvg, 5000),
      1.0);
}

TEST_F(StalenessTest, EmptyItemSetIsFresh) {
  EXPECT_DOUBLE_EQ(
      QueryStaleness(db_, {}, StalenessMetric::kUnappliedUpdates,
                     StalenessCombiner::kMax, 5000),
      0.0);
}

TEST_F(StalenessTest, FreshItemsGiveZeroUnderEveryCombiner) {
  for (StalenessCombiner combiner :
       {StalenessCombiner::kMax, StalenessCombiner::kSum,
        StalenessCombiner::kAvg}) {
    EXPECT_DOUBLE_EQ(QueryStaleness(db_, fresh_,
                                    StalenessMetric::kUnappliedUpdates,
                                    combiner, 5000),
                     0.0);
  }
}

TEST(StalenessToStringTest, Names) {
  EXPECT_EQ(ToString(StalenessMetric::kUnappliedUpdates), "uu");
  EXPECT_EQ(ToString(StalenessMetric::kUnappliedArrivals), "uu-raw");
  EXPECT_EQ(ToString(StalenessMetric::kTimeDifferential), "td");
  EXPECT_EQ(ToString(StalenessMetric::kValueDistance), "vd");
  EXPECT_EQ(ToString(StalenessCombiner::kMax), "max");
  EXPECT_EQ(ToString(StalenessCombiner::kSum), "sum");
  EXPECT_EQ(ToString(StalenessCombiner::kAvg), "avg");
}

}  // namespace
}  // namespace webdb
