#include "exp/trace_feeder.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "qc/qc_generator.h"
#include "sched/fifo_scheduler.h"
#include "trace/stock_trace_generator.h"
#include "util/rng.h"

namespace webdb {
namespace {

Trace TinyTrace() {
  Trace trace;
  trace.num_items = 2;
  trace.queries = {
      {Millis(10), QueryType::kLookup, {0}, Millis(5)},
      {Millis(30), QueryType::kLookup, {1}, Millis(5)},
  };
  trace.updates = {
      {Millis(10), 0, 1.0, Millis(2)},
      {Millis(20), 1, 2.0, Millis(2)},
  };
  return trace;
}

TEST(TraceFeederTest, SubmitsEveryRecordAtItsArrivalTime) {
  const Trace trace = TinyTrace();
  Database db(trace.num_items);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  TraceFeeder feeder(&server, &trace,
                     [](const QueryRecord&) { return QualityContract(); });
  feeder.Start();
  server.Run();
  EXPECT_TRUE(feeder.Done());
  ASSERT_EQ(server.queries().size(), 2u);
  ASSERT_EQ(server.updates().size(), 2u);
  EXPECT_EQ(server.queries()[0].arrival, Millis(10));
  EXPECT_EQ(server.queries()[1].arrival, Millis(30));
  EXPECT_EQ(server.updates()[0].arrival, Millis(10));
  EXPECT_EQ(server.updates()[1].arrival, Millis(20));
}

TEST(TraceFeederTest, UpdateSubmittedBeforeQueryOnTie) {
  const Trace trace = TinyTrace();
  Database db(trace.num_items);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  TraceFeeder feeder(&server, &trace,
                     [](const QueryRecord&) { return QualityContract(); });
  feeder.Start();
  server.Run();
  // Both arrive at 10ms; the update is registered first, so the FIFO queue
  // runs it first and the query reads fresh data.
  EXPECT_DOUBLE_EQ(server.queries()[0].staleness, 0.0);
}

TEST(TraceFeederTest, AssignerReceivesRecords) {
  const Trace trace = TinyTrace();
  Database db(trace.num_items);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  int calls = 0;
  TraceFeeder feeder(&server, &trace, [&](const QueryRecord& record) {
    ++calls;
    EXPECT_FALSE(record.items.empty());
    return QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 1.0, 1.0);
  });
  feeder.Start();
  server.Run();
  EXPECT_EQ(calls, 2);
  EXPECT_DOUBLE_EQ(server.ledger().qos_max(), 2.0);
}

TEST(TraceFeederTest, EmptyTraceIsDoneImmediately) {
  Trace trace;
  trace.num_items = 1;
  Database db(1);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  TraceFeeder feeder(&server, &trace,
                     [](const QueryRecord&) { return QualityContract(); });
  feeder.Start();
  EXPECT_TRUE(feeder.Done());
  server.Run();
  EXPECT_EQ(server.Now(), 0);
}

TEST(TraceFeederTest, ArrivalsTakeNoHeapEntry) {
  // A drained run's exact event accounting: every heap entry either fired
  // or was cancelled, and each distinct arrival instant of the trace fired
  // once without ever being scheduled.
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(45));
  std::vector<SimTime> instants;
  for (const QueryRecord& q : trace.queries) instants.push_back(q.arrival);
  for (const UpdateRecord& u : trace.updates) instants.push_back(u.arrival);
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());

  Database db(trace.num_items);
  QutsScheduler sched(QutsScheduler::Options{});
  WebDatabaseServer server(&db, &sched);
  const QcGenerator generator(BalancedProfile(QcShape::kStep));
  Rng qc_rng(3);
  TraceFeeder feeder(&server, &trace, [&](const QueryRecord&) {
    return generator.Next(qc_rng);
  });
  feeder.Start();
  server.Run();
  ASSERT_TRUE(feeder.Done());
  ASSERT_TRUE(server.IsQuiescent());

  const Simulator::Stats& stats = server.sim().stats();
  EXPECT_GT(stats.cancelled, 0u);
  EXPECT_EQ(server.sim().NumPending(), 0u);
  EXPECT_EQ(stats.scheduled + instants.size(),
            server.sim().NumExecuted() + stats.cancelled);
}

TEST(TraceFeederTest, FeederDestroyedMidStreamDetachesItself) {
  const Trace trace = TinyTrace();  // arrivals at 10, 10, 20 and 30 ms
  Database db(trace.num_items);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  {
    TraceFeeder feeder(&server, &trace,
                       [](const QueryRecord&) { return QualityContract(); });
    feeder.Start();
    server.RunUntil(Millis(15));
    EXPECT_FALSE(feeder.Done());
  }
  server.Run();  // must not reach the destroyed feeder
  EXPECT_EQ(server.queries().size(), 1u);
  EXPECT_EQ(server.updates().size(), 1u);

  // The attach point is free for the next feeder.
  Trace later = TinyTrace();
  for (QueryRecord& q : later.queries) q.arrival += Seconds(1);
  for (UpdateRecord& u : later.updates) u.arrival += Seconds(1);
  TraceFeeder next(&server, &later,
                   [](const QueryRecord&) { return QualityContract(); });
  next.Start();
  server.Run();
  EXPECT_TRUE(next.Done());
  EXPECT_EQ(server.queries().size(), 3u);
  EXPECT_EQ(server.updates().size(), 3u);
}

TEST(TraceFeederDeathTest, StartingTwiceAborts) {
  const Trace trace = TinyTrace();
  Database db(trace.num_items);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  TraceFeeder feeder(&server, &trace,
                     [](const QueryRecord&) { return QualityContract(); });
  feeder.Start();
  EXPECT_DEATH(feeder.Start(), "started twice");
}

}  // namespace
}  // namespace webdb
