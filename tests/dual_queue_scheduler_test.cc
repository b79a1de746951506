#include "sched/dual_queue_scheduler.h"

#include <gtest/gtest.h>

#include "test_txns.h"

namespace webdb {
namespace {

TEST(DualQueueTest, FactoryNames) {
  EXPECT_EQ(MakeUpdateHigh()->Name(), "UH");
  EXPECT_EQ(MakeQueryHigh()->Name(), "QH");
  EXPECT_EQ(MakeFifoUpdateHigh()->Name(), "FIFO-UH");
  EXPECT_EQ(MakeFifoQueryHigh()->Name(), "FIFO-QH");
}

TEST(DualQueueTest, DerivedNameMentionsPolicies) {
  DualQueueScheduler::Options options;
  options.high_side = TxnKind::kQuery;
  DualQueueScheduler sched(options);
  EXPECT_EQ(sched.Name(), "QH(vrd/fifo)");
}

TEST(DualQueueTest, UhServesUpdatesBeforeQueries) {
  TxnPool pool;
  auto sched = MakeUpdateHigh();
  Query* q = pool.NewQuery(0);
  Update* u = pool.NewUpdate(5);
  sched->OnQueryArrival(q, 0);
  sched->OnUpdateArrival(u, 5);
  EXPECT_EQ(sched->PopNext(0, 5), u);
  EXPECT_EQ(sched->PopNext(0, 5), q);
}

TEST(DualQueueTest, QhServesQueriesBeforeUpdates) {
  TxnPool pool;
  auto sched = MakeQueryHigh();
  Update* u = pool.NewUpdate(0);
  Query* q = pool.NewQuery(5);
  sched->OnUpdateArrival(u, 0);
  sched->OnQueryArrival(q, 5);
  EXPECT_EQ(sched->PopNext(0, 5), q);
  EXPECT_EQ(sched->PopNext(0, 5), u);
}

TEST(DualQueueTest, UhPreemptsRunningQuery) {
  TxnPool pool;
  auto sched = MakeUpdateHigh();
  Query* running = pool.NewQuery(0);
  Update* u = pool.NewUpdate(3);
  sched->OnUpdateArrival(u, 3);
  EXPECT_TRUE(sched->ShouldPreempt(0, *running, 3));
  // But a running update is never preempted by another update.
  Update* running_update = pool.NewUpdate(1);
  EXPECT_FALSE(sched->ShouldPreempt(0, *running_update, 3));
}

TEST(DualQueueTest, QhPreemptsRunningUpdate) {
  TxnPool pool;
  auto sched = MakeQueryHigh();
  Update* running = pool.NewUpdate(0);
  Query* q = pool.NewQuery(3);
  sched->OnQueryArrival(q, 3);
  EXPECT_TRUE(sched->ShouldPreempt(0, *running, 3));
  Query* running_query = pool.NewQuery(1);
  EXPECT_FALSE(sched->ShouldPreempt(0, *running_query, 3));
}

TEST(DualQueueTest, NoPreemptWithEmptyHighQueue) {
  TxnPool pool;
  auto sched = MakeUpdateHigh();
  Query* running = pool.NewQuery(0);
  Query* waiting = pool.NewQuery(1);
  sched->OnQueryArrival(waiting, 1);
  EXPECT_FALSE(sched->ShouldPreempt(0, *running, 1));
}

TEST(DualQueueTest, QueriesOrderedByVrdWithinQueue) {
  TxnPool pool;
  auto sched = MakeQueryHigh();
  Query* low = pool.NewQuery(0, Millis(5), 5.0, 5.0, Millis(100));
  Query* high = pool.NewQuery(1, Millis(5), 50.0, 50.0, Millis(50));
  sched->OnQueryArrival(low, 0);
  sched->OnQueryArrival(high, 1);
  EXPECT_EQ(sched->PopNext(0, 1), high);
  EXPECT_EQ(sched->PopNext(0, 1), low);
}

TEST(DualQueueTest, FifoVariantOrdersQueriesByArrival) {
  TxnPool pool;
  auto sched = MakeFifoQueryHigh();
  Query* early_low_value = pool.NewQuery(0, Millis(5), 1.0, 1.0, Millis(100));
  Query* late_high_value = pool.NewQuery(1, Millis(5), 99.0, 99.0, Millis(50));
  sched->OnQueryArrival(early_low_value, 0);
  sched->OnQueryArrival(late_high_value, 1);
  EXPECT_EQ(sched->PopNext(0, 1), early_low_value);
}

TEST(DualQueueTest, UpdatesFifoWithinQueue) {
  TxnPool pool;
  auto sched = MakeUpdateHigh();
  Update* second = pool.NewUpdate(10);
  Update* first = pool.NewUpdate(5);
  sched->OnUpdateArrival(second, 10);
  sched->OnUpdateArrival(first, 10);
  EXPECT_EQ(sched->PopNext(0, 10), first);
  EXPECT_EQ(sched->PopNext(0, 10), second);
}

TEST(DualQueueTest, RequeuePutsBackInOwnQueue) {
  TxnPool pool;
  auto sched = MakeUpdateHigh();
  Update* u = pool.NewUpdate(0);
  sched->OnUpdateArrival(u, 0);
  Transaction* popped = sched->PopNext(0, 0);
  EXPECT_EQ(popped, u);
  sched->Requeue(popped, 1);
  EXPECT_EQ(sched->UpdateQueueSize(), 1u);
  EXPECT_EQ(sched->PopNext(0, 1), u);
}

TEST(DualQueueTest, RemoveQueuedAndSizes) {
  TxnPool pool;
  auto sched = MakeQueryHigh();
  Query* q = pool.NewQuery(0);
  Update* u = pool.NewUpdate(0);
  sched->OnQueryArrival(q, 0);
  sched->OnUpdateArrival(u, 0);
  EXPECT_EQ(sched->QueryQueueSize(), 1u);
  EXPECT_EQ(sched->UpdateQueueSize(), 1u);
  sched->RemoveQueued(q, 1);
  EXPECT_EQ(sched->QueryQueueSize(), 0u);
  EXPECT_TRUE(sched->HasWork());
  sched->RemoveQueued(u, 1);
  EXPECT_FALSE(sched->HasWork());
}

}  // namespace
}  // namespace webdb
