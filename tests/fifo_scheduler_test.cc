#include "sched/fifo_scheduler.h"

#include <gtest/gtest.h>

#include "test_txns.h"

namespace webdb {
namespace {

TEST(FifoSchedulerTest, NameAndEmptyState) {
  FifoScheduler sched;
  EXPECT_EQ(sched.Name(), "FIFO");
  EXPECT_FALSE(sched.HasWork());
  EXPECT_EQ(sched.PopNext(0, 0), nullptr);
}

TEST(FifoSchedulerTest, InterleavesByArrivalOrder) {
  TxnPool pool;
  FifoScheduler sched;
  Query* q1 = pool.NewQuery(10);
  Update* u1 = pool.NewUpdate(5);
  Update* u2 = pool.NewUpdate(20);
  sched.OnQueryArrival(q1, 10);
  sched.OnUpdateArrival(u1, 5);
  sched.OnUpdateArrival(u2, 20);
  EXPECT_TRUE(sched.HasWork());
  EXPECT_EQ(sched.PopNext(0, 20), u1);
  EXPECT_EQ(sched.PopNext(0, 20), q1);
  EXPECT_EQ(sched.PopNext(0, 20), u2);
  EXPECT_FALSE(sched.HasWork());
}

TEST(FifoSchedulerTest, NeverPreempts) {
  TxnPool pool;
  FifoScheduler sched;
  Query* running = pool.NewQuery(0);
  Update* waiting = pool.NewUpdate(1);
  sched.OnUpdateArrival(waiting, 1);
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, 1));
}

TEST(FifoSchedulerTest, RequeuedTransactionKeepsArrivalOrder) {
  TxnPool pool;
  FifoScheduler sched;
  Query* old = pool.NewQuery(1);
  Query* newer = pool.NewQuery(2);
  sched.OnQueryArrival(old, 1);
  sched.OnQueryArrival(newer, 2);
  Transaction* popped = sched.PopNext(0, 3);
  EXPECT_EQ(popped, old);
  sched.Requeue(popped, 3);  // restarted: goes back before `newer`
  EXPECT_EQ(sched.PopNext(0, 3), old);
  EXPECT_EQ(sched.PopNext(0, 3), newer);
}

TEST(FifoSchedulerTest, RemoveQueuedDropsTransaction) {
  TxnPool pool;
  FifoScheduler sched;
  Query* q = pool.NewQuery(0);
  sched.OnQueryArrival(q, 0);
  sched.RemoveQueued(q, 1);
  EXPECT_FALSE(sched.HasWork());
  EXPECT_EQ(sched.PopNext(0, 1), nullptr);
}

TEST(FifoSchedulerTest, NextDecisionTimeIsNever) {
  FifoScheduler sched;
  EXPECT_EQ(sched.NextDecisionTime(0, 123), kSimTimeMax);
}

}  // namespace
}  // namespace webdb
