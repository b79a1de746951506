#include "server/web_database_server.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"

namespace webdb {
namespace {

QualityContract StepQc(double qos = 10.0, double qod = 20.0,
                       SimDuration rt_max = Millis(50), double uu_max = 1.0) {
  return QualityContract::Make(QcShape::kStep, qos, rt_max, qod, uu_max);
}

TEST(ServerTest, SingleQueryCommitsWithFullProfit) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Query* query = server.SubmitQuery(QueryType::kLookup, {0}, StepQc(),
                                    Millis(5));
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(query->ResponseTime(), Millis(5));
  EXPECT_DOUBLE_EQ(query->staleness, 0.0);
  EXPECT_DOUBLE_EQ(query->profit.qos, 10.0);
  EXPECT_DOUBLE_EQ(query->profit.qod, 20.0);
  EXPECT_DOUBLE_EQ(server.ledger().TotalPct(), 1.0);
  EXPECT_EQ(server.metrics().queries_committed, 1);
}

TEST(ServerTest, SingleUpdateApplies) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Update* update = server.SubmitUpdate(1, 42.5, Millis(2));
  server.Run();
  EXPECT_EQ(update->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(db.Item(1).value, 42.5);
  EXPECT_TRUE(db.Item(1).IsFresh());
  EXPECT_EQ(server.metrics().updates_applied, 1);
  EXPECT_EQ(server.Now(), Millis(2));
}

TEST(ServerTest, QueryHighSeesStaleData) {
  Database db(2);
  auto sched = MakeQueryHigh();
  WebDatabaseServer server(&db, sched.get());
  server.SubmitUpdate(0, 1.0, Millis(2));
  // Update begins executing immediately (CPU idle). A query arriving right
  // after preempts it under QH and reads the item with 1 unapplied update.
  Query* query = nullptr;
  server.sim().ScheduleAt(Micros(100), [&] {
    query = server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(query->staleness, 1.0);
  EXPECT_DOUBLE_EQ(query->profit.qos, 10.0);
  EXPECT_DOUBLE_EQ(query->profit.qod, 0.0);  // uu_max = 1: no staleness paid
}

TEST(ServerTest, UpdateHighGivesFreshReads) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  server.sim().ScheduleAt(Micros(100), [&] {
    server.SubmitUpdate(0, 1.0, Millis(2));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  // The update preempted and (conflicting) restarted the query; at commit
  // the data is fresh.
  EXPECT_DOUBLE_EQ(query->staleness, 0.0);
  EXPECT_DOUBLE_EQ(query->profit.qod, 20.0);
  EXPECT_EQ(server.metrics().query_restarts, 1);
  EXPECT_GE(server.metrics().preemptions, 1);
}

TEST(ServerTest, PreemptResumeWithoutConflictKeepsProgress) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  // Query reads item 0; update writes item 1: no data conflict.
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  server.sim().ScheduleAt(Millis(2), [&] {
    server.SubmitUpdate(1, 1.0, Millis(3));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().query_restarts, 0);
  EXPECT_EQ(server.metrics().preemptions, 1);
  // 2ms run + 3ms update + 3ms remaining = commits at 8ms.
  EXPECT_EQ(query->commit_time, Millis(8));
}

TEST(ServerTest, ConflictingUpdateRestartsPreemptedQuery) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  server.sim().ScheduleAt(Millis(2), [&] {
    server.SubmitUpdate(0, 1.0, Millis(3));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().query_restarts, 1);
  // 2ms wasted + 3ms update + full 5ms re-execution = commits at 10ms.
  EXPECT_EQ(query->commit_time, Millis(10));
}

TEST(ServerTest, NewerUpdateAbortsRunningOlderOne) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Update* first = server.SubmitUpdate(0, 1.0, Millis(5));  // starts running
  Update* second = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    second = server.SubmitUpdate(0, 2.0, Millis(2));
  });
  server.Run();
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_TRUE(db.Item(0).IsFresh());
  EXPECT_EQ(server.metrics().updates_invalidated, 1);
  EXPECT_EQ(server.metrics().updates_applied, 1);
}

TEST(ServerTest, NewerUpdateInvalidatesQueuedOlderOne) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // A long query keeps the CPU busy (FIFO never preempts), so both updates
  // queue up and the register drops the older one.
  server.SubmitQuery(QueryType::kMovingAverage, {1}, StepQc(), Millis(20));
  Update* first = nullptr;
  Update* second = nullptr;
  server.sim().ScheduleAt(Millis(1),
                          [&] { first = server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(2),
                          [&] { second = server.SubmitUpdate(0, 2.0, Millis(2)); });
  server.Run();
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  // The invalidated update never ran: only one update's work was spent.
  EXPECT_EQ(server.metrics().updates_applied, 1);
}

TEST(ServerTest, QueuedQueryDroppedAtLifetimeDeadline) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.lifetime_factor = 0.2;       // 0.2 * 50ms = 10ms
  config.min_lifetime = Millis(10);
  WebDatabaseServer server(&db, &sched, config);
  // Block the CPU for 30ms, past the query's 10ms lifetime.
  server.SubmitUpdate(0, 1.0, Millis(30));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    query = server.SubmitQuery(QueryType::kLookup, {1}, StepQc(), Millis(5));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kDropped);
  EXPECT_EQ(server.metrics().queries_dropped, 1);
  EXPECT_EQ(server.metrics().queries_committed, 0);
  EXPECT_DOUBLE_EQ(server.ledger().total_gained(), 0.0);
  // The dropped query still counts in the submitted maximum.
  EXPECT_DOUBLE_EQ(server.ledger().total_max(), 30.0);
}

TEST(ServerTest, RunningQueryPastDeadlineCommitsWithZeroProfit) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.lifetime_factor = 0.2;
  config.min_lifetime = Millis(10);
  WebDatabaseServer server(&db, &sched, config);
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(30));
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().queries_expired, 1);
  EXPECT_DOUBLE_EQ(query->profit.Total(), 0.0);
}

TEST(ServerTest, LifetimeDisabledNeverDrops) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.lifetime_factor = 0.0;
  WebDatabaseServer server(&db, &sched, config);
  server.SubmitUpdate(0, 1.0, Seconds(2));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    query = server.SubmitQuery(QueryType::kLookup, {1}, StepQc(), Millis(5));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().queries_dropped, 0);
}

TEST(ServerTest, MultiItemQueryStalenessUsesMaxCombiner) {
  Database db(3);
  auto sched = MakeQueryHigh();
  // The raw-arrivals metric exposes the full combiner math (the default
  // live-update metric saturates at 1 per item).
  ServerConfig config;
  config.staleness_metric = StalenessMetric::kUnappliedArrivals;
  WebDatabaseServer server(&db, sched.get(), config);
  server.SubmitUpdate(0, 1.0, Millis(2));
  server.sim().ScheduleAt(Micros(10), [&] {
    server.SubmitUpdate(0, 2.0, Millis(2));  // item 0 now 2 unapplied
  });
  Query* query = nullptr;
  server.sim().ScheduleAt(Micros(50), [&] {
    query = server.SubmitQuery(QueryType::kComparison, {0, 1, 2}, StepQc(),
                               Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_DOUBLE_EQ(query->staleness, 2.0);
}

TEST(ServerTest, CpuUtilizationReflectsBusyTime) {
  Database db(1);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  EXPECT_DOUBLE_EQ(server.CpuUtilization(), 0.0);  // nothing completed yet
  // Busy [0, 4ms) and [6ms, 8ms): 6 ms of work over an 8 ms active period.
  server.SubmitUpdate(0, 1.0, Millis(4));
  server.sim().ScheduleAt(Millis(6),
                          [&] { server.SubmitUpdate(0, 2.0, Millis(2)); });
  server.Run();
  EXPECT_NEAR(server.CpuUtilization(), 0.75, 1e-9);
  // Idle clock after the last apply does not dilute it.
  server.sim().RunUntil(Millis(20));
  EXPECT_NEAR(server.CpuUtilization(), 0.75, 1e-9);
}

TEST(ServerTest, QutsEndToEndSmallMix) {
  Database db(4);
  QutsScheduler::Options options;
  options.atom_time = Millis(1);
  options.adaptation_period = Millis(10);
  QutsScheduler sched(options);
  WebDatabaseServer server(&db, &sched);
  for (int i = 0; i < 20; ++i) {
    server.sim().ScheduleAt(Millis(i), [&server, i] {
      server.SubmitQuery(QueryType::kLookup, {i % 4}, StepQc(), Millis(3));
      server.SubmitUpdate((i + 1) % 4, i, Millis(1));
    });
  }
  server.Run();
  EXPECT_EQ(server.metrics().queries_committed +
                server.metrics().queries_dropped,
            20);
  EXPECT_EQ(server.metrics().updates_applied +
                server.metrics().updates_invalidated,
            20);
  EXPECT_GT(server.ledger().total_gained(), 0.0);
  EXPECT_LE(server.ledger().total_gained(), server.ledger().total_max());
}

TEST(ServerDeathTest, InvalidSubmissionsAbort) {
  Database db(1);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  EXPECT_DEATH(server.SubmitQuery(QueryType::kLookup, {5}, StepQc(),
                                  Millis(5)),
               "");
  EXPECT_DEATH(server.SubmitUpdate(0, 1.0, 0), "");
}

}  // namespace
}  // namespace webdb
