// Edge-case server tests: lock release on drop of a preempted holder,
// multi-holder conflict resolution, FIFO-rank inheritance, alternative
// staleness metrics end-to-end, dispatch-overhead accounting, the
// lifetime-deadline event of every way a query can finish, and submission
// input checks.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "db/database.h"
#include "sched/admission.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"

namespace webdb {
namespace {

QualityContract StepQc(double qos = 10.0, double qod = 20.0,
                       SimDuration rt_max = Millis(50), double uu_max = 1.0) {
  return QualityContract::Make(QcShape::kStep, qos, rt_max, qod, uu_max);
}

TEST(ServerEdgeTest, DroppedPreemptedQueryReleasesItsLocks) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  ServerConfig config;
  config.lifetime_factor = 0.1;
  config.min_lifetime = Millis(5);  // the query will be dropped mid-flight
  WebDatabaseServer server(&db, sched.get(), config);
  // Query starts, gets preempted (holding its read lock) by an update on
  // the other item, and its 5 ms lifetime expires during that update.
  Query* query =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  server.sim().ScheduleAt(Millis(2), [&] {
    server.SubmitUpdate(1, 1.0, Millis(10));
  });
  server.Run();
  EXPECT_EQ(query->state, TxnState::kDropped);
  EXPECT_TRUE(server.IsQuiescent());  // in particular: no leaked lock
}

TEST(ServerEdgeTest, QueryRestartsMultiplePreemptedUpdates) {
  Database db(3);
  auto sched = MakeQueryHigh();
  WebDatabaseServer server(&db, sched.get());
  // Two updates on different items start (one runs, is preempted by the
  // arriving query; the other never gets the CPU). The comparison query
  // read-locks both items; the preempted update holding a write lock is
  // restarted under 2PL-HP.
  server.SubmitUpdate(0, 1.0, Millis(4));
  server.SubmitUpdate(1, 2.0, Millis(4));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    query = server.SubmitQuery(QueryType::kComparison, {0, 1}, StepQc(),
                               Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().update_restarts, 1);
  // Both updates still applied afterwards.
  EXPECT_EQ(server.metrics().updates_applied, 2);
  EXPECT_TRUE(db.Item(0).IsFresh());
  EXPECT_TRUE(db.Item(1).IsFresh());
}

TEST(ServerEdgeTest, SupersedingUpdateInheritsQueuePosition) {
  Database db(3);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // CPU is blocked; three updates queue: A(item 0), B(item 1), then A2
  // (item 0) superseding A. A2 inherits A's FIFO rank, so it must be
  // applied BEFORE B despite arriving later.
  server.SubmitQuery(QueryType::kLookup, {2}, StepQc(), Millis(20));
  Update* b = nullptr;
  Update* a2 = nullptr;
  server.sim().ScheduleAt(Millis(1),
                          [&] { server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(2),
                          [&] { b = server.SubmitUpdate(1, 2.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(3),
                          [&] { a2 = server.SubmitUpdate(0, 3.0, Millis(2)); });
  server.Run();
  ASSERT_NE(b, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->state, TxnState::kCommitted);
  EXPECT_LT(a2->commit_time, b->commit_time);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 3.0);
}

TEST(ServerEdgeTest, ThreeDeepSupersedeChainLeavesTheOtherItemAlone) {
  Database db(3);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // The CPU is blocked while A1, B (item 1), A2 and A3 queue: A2
  // supersedes A1 and A3 supersedes A2, each inheriting A1's FIFO rank, so
  // A3 is applied before B. B, on its own item, is never touched.
  server.SubmitQuery(QueryType::kLookup, {2}, StepQc(), Millis(20));
  Update* a1 = nullptr;
  Update* b = nullptr;
  Update* a2 = nullptr;
  Update* a3 = nullptr;
  server.sim().ScheduleAt(Millis(1),
                          [&] { a1 = server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(2),
                          [&] { b = server.SubmitUpdate(1, 2.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(3),
                          [&] { a2 = server.SubmitUpdate(0, 3.0, Millis(2)); });
  server.sim().ScheduleAt(Millis(4),
                          [&] { a3 = server.SubmitUpdate(0, 4.0, Millis(2)); });
  server.Run();
  ASSERT_NE(a3, nullptr);
  EXPECT_EQ(a1->state, TxnState::kInvalidated);
  EXPECT_EQ(a2->state, TxnState::kInvalidated);
  EXPECT_EQ(a3->state, TxnState::kCommitted);
  EXPECT_EQ(a3->fifo_rank, a1->arrival);
  EXPECT_EQ(b->state, TxnState::kCommitted);
  EXPECT_EQ(b->fifo_rank, b->arrival);
  EXPECT_LT(a3->commit_time, b->commit_time);
  EXPECT_EQ(server.metrics().updates_invalidated, 2);
  EXPECT_EQ(db.Item(0).invalidated_count, 2u);
  EXPECT_EQ(db.Item(1).invalidated_count, 0u);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 4.0);
  EXPECT_DOUBLE_EQ(db.Item(1).value, 2.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerEdgeTest, ValueDistanceMetricEndToEnd) {
  Database db(2);
  auto sched = MakeQueryHigh();
  ServerConfig config;
  config.staleness_metric = StalenessMetric::kValueDistance;
  WebDatabaseServer server(&db, sched.get(), config);
  // Apply 100.0 first so the item has a committed value, then leave 107.5
  // pending while the query reads: vd = 7.5.
  server.SubmitUpdate(0, 100.0, Millis(2));
  Query* query = nullptr;
  server.sim().ScheduleAt(Millis(5), [&] {
    server.SubmitUpdate(0, 107.5, Millis(2));
    query = server.SubmitQuery(QueryType::kLookup, {0},
                               StepQc(10.0, 20.0, Millis(50), /*uu_max=*/5.0),
                               Millis(5));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_DOUBLE_EQ(query->staleness, 7.5);
  // vd 7.5 >= cutoff 5.0: no QoD profit.
  EXPECT_DOUBLE_EQ(query->profit.qod, 0.0);
  EXPECT_DOUBLE_EQ(query->profit.qos, 10.0);
}

TEST(ServerEdgeTest, TimeDifferentialMetricEndToEnd) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.staleness_metric = StalenessMetric::kTimeDifferential;
  WebDatabaseServer server(&db, &sched, config);
  // The reading query is queued BEFORE the update under non-preemptive
  // FIFO, so it reads item 0 at ~35ms with the update pending since t=1ms:
  // td ≈ 34ms > 20ms cutoff -> no QoD.
  server.SubmitQuery(QueryType::kLookup, {1}, StepQc(), Millis(30));
  Query* query = server.SubmitQuery(
      QueryType::kLookup, {0},
      StepQc(10.0, 20.0, Millis(100), /*uu_max(td ms)=*/20.0), Millis(5));
  server.sim().ScheduleAt(Millis(1),
                          [&] { server.SubmitUpdate(0, 1.0, Millis(2)); });
  server.Run();
  ASSERT_NE(query, nullptr);
  EXPECT_GT(query->staleness, 20.0);
  EXPECT_DOUBLE_EQ(query->profit.qod, 0.0);
}

TEST(ServerEdgeTest, DispatchOverheadExtendsExecution) {
  Database db(1);
  FifoScheduler sched;
  ServerConfig config;
  config.dispatch_overhead = Millis(1);
  WebDatabaseServer server(&db, &sched, config);
  Update* update = server.SubmitUpdate(0, 1.0, Millis(4));
  server.Run();
  EXPECT_EQ(update->commit_time, Millis(5));  // 4ms work + 1ms overhead
}

TEST(ServerEdgeTest, ZeroQcQueryCommitsWithZeroProfit) {
  Database db(1);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Query* query = server.SubmitQuery(QueryType::kLookup, {0},
                                    QualityContract(), Millis(5));
  server.Run();
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_DOUBLE_EQ(query->profit.Total(), 0.0);
  EXPECT_DOUBLE_EQ(server.ledger().total_max(), 0.0);
}

TEST(ServerEdgeTest, BackToBackSubmissionsAtSameInstant) {
  Database db(4);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  // Everything at t=0, including two updates on the same item.
  server.SubmitUpdate(0, 1.0, Millis(2));
  server.SubmitUpdate(0, 2.0, Millis(2));
  server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  server.SubmitUpdate(1, 3.0, Millis(2));
  server.SubmitQuery(QueryType::kAggregation, {0, 1}, StepQc(), Millis(5));
  server.Run();
  EXPECT_EQ(server.metrics().queries_committed, 2);
  EXPECT_EQ(server.metrics().updates_applied +
                server.metrics().updates_invalidated,
            3);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_TRUE(server.IsQuiescent());
}

// --- lifetime-deadline events ------------------------------------------------
// Every admitted query schedules a drop at its lifetime deadline (30 s out
// by default). Commit and shed cancel it, so a drained run ends at its last
// completion instead of idling through the deadline tail.

TEST(ServerLifetimeTest, AllCommitRunEndsAtItsLastCommit) {
  Database db(4);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  for (int i = 0; i < 20; ++i) {
    server.sim().ScheduleAt(Millis(2 * i), [&server, i] {
      server.SubmitQuery(QueryType::kLookup, {i % 4}, StepQc(), Millis(3));
      server.SubmitUpdate((i + 1) % 4, i, Millis(1));
    });
  }
  server.Run();
  ASSERT_EQ(server.metrics().queries_committed, 20);
  SimTime last_completion = 0;
  for (const Query& query : server.queries()) {
    last_completion = std::max(last_completion, query.commit_time);
    EXPECT_EQ(query.lifetime_event, 0u);
  }
  for (const Update& update : server.updates()) {
    if (update.state == TxnState::kCommitted) {
      last_completion = std::max(last_completion, update.commit_time);
    }
  }
  EXPECT_EQ(server.Now(), last_completion);
  EXPECT_LT(server.Now(), Seconds(1));
  EXPECT_EQ(server.sim().NumPending(), 0u);
  EXPECT_GE(server.sim().stats().cancelled, 20u);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerLifetimeTest, ShedQueryLifetimeEventIsCancelled) {
  Database db(2);
  FifoScheduler sched;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission admission(std::move(options));
  ServerConfig config;
  config.admission = &admission;
  WebDatabaseServer server(&db, &sched, config);
  // An update holds the CPU, so every query below stays queued.
  server.SubmitUpdate(1, 1.0, Millis(40));
  // Three $2 queries fill the lane: 30 ms of demand by their 30 ms deadline.
  const QualityContract cheap_qc = StepQc(2.0, 0.0, Millis(30));
  std::vector<Query*> cheap;
  for (int i = 0; i < 3; ++i) {
    cheap.push_back(
        server.SubmitQuery(QueryType::kLookup, {0}, cheap_qc, Millis(10)));
  }
  const EventId victim_event = cheap[0]->lifetime_event;
  ASSERT_TRUE(server.sim().IsPending(victim_event));
  // A $40 query sheds the cheapest (lowest id) one to fit.
  Query* vip = server.SubmitQuery(QueryType::kLookup, {0},
                                  StepQc(40.0, 0.0, Millis(30)), Millis(10));
  ASSERT_EQ(cheap[0]->state, TxnState::kShed);
  EXPECT_EQ(cheap[0]->lifetime_event, 0u);
  EXPECT_FALSE(server.sim().IsPending(victim_event));
  EXPECT_TRUE(server.sim().IsPending(cheap[1]->lifetime_event));
  EXPECT_TRUE(server.sim().IsPending(vip->lifetime_event));
  server.Run();
  EXPECT_EQ(server.metrics().queries_shed, 1);
  EXPECT_EQ(server.metrics().queries_committed, 3);
  EXPECT_EQ(server.sim().NumPending(), 0u);
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();
}

TEST(ServerLifetimeTest, FusedMemberLifetimeEventIsCancelledAtSettle) {
  Database db(2);
  FifoScheduler sched;
  ServerConfig config;
  config.fusion.enabled = true;
  WebDatabaseServer server(&db, &sched, config);
  // An update holds the CPU for 5 ms so two look-alike lookups queue; the
  // first leads at dispatch and the second rides on its scan.
  server.SubmitUpdate(1, 1.0, Millis(5));
  Query* leader =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  Query* member =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  const EventId member_event = member->lifetime_event;
  server.RunUntil(Millis(6));
  ASSERT_EQ(member->state, TxnState::kFused);
  ASSERT_EQ(member->fused_into, leader->id);
  EXPECT_TRUE(server.sim().IsPending(member_event));
  server.Run();
  EXPECT_EQ(member->state, TxnState::kCommitted);
  EXPECT_EQ(member->commit_time, Millis(15));
  EXPECT_EQ(member->lifetime_event, 0u);
  EXPECT_FALSE(server.sim().IsPending(member_event));
  // Neither 30 s deadline is left to fire: the run ends with the scan.
  EXPECT_EQ(server.Now(), leader->commit_time);
  EXPECT_EQ(server.sim().NumPending(), 0u);
  EXPECT_EQ(server.metrics().queries_fused, 1);
}

TEST(ServerLifetimeTest, FusedMemberPastItsDeadlineDropsAtDissolution) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  ServerConfig config;
  config.fusion.enabled = true;
  config.lifetime_factor = 0.1;
  config.min_lifetime = Millis(8);  // both queries' deadlines: 8 ms
  WebDatabaseServer server(&db, sched.get(), config);
  // CPU busy until 5 ms; then the leader's scan runs [5, 15ms) carrying
  // the member.
  server.SubmitUpdate(1, 1.0, Millis(5));
  Query* leader =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  Query* member =
      server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(10));
  // At 10 ms — after both deadlines fired as no-ops (running leader, fused
  // member) — a write to the scanned item preempts the leader and restarts
  // it under 2PL-HP, dissolving the group.
  server.sim().ScheduleAt(Millis(10),
                          [&] { server.SubmitUpdate(0, 2.0, Millis(2)); });
  server.RunUntil(Millis(6));
  ASSERT_EQ(member->state, TxnState::kFused);
  server.Run();
  EXPECT_EQ(member->state, TxnState::kDropped);
  EXPECT_EQ(member->lifetime_event, 0u);
  EXPECT_EQ(leader->state, TxnState::kCommitted);
  EXPECT_EQ(leader->restarts, 1);
  EXPECT_EQ(server.metrics().queries_dropped, 1);
  EXPECT_EQ(server.metrics().queries_expired, 1);  // the leader, late
  EXPECT_EQ(server.sim().NumPending(), 0u);
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();
}

// --- submission input checks ---------------------------------------------

TEST(ServerEdgeDeathTest, EmptyItemSetIsRejectedAtSubmission) {
  // A query must read at least one item, whatever the CPU count: QUTS homes
  // a query on the shard of its first item.
  for (int cpus : {1, 4}) {
    SCOPED_TRACE(cpus);
    Database db(4);
    QutsScheduler scheduler(QutsScheduler::Options(), cpus);
    WebDatabaseServer server(&db, &scheduler);
    EXPECT_DEATH(
        server.SubmitQuery(QueryType::kLookup, {}, StepQc(), Millis(5)),
        "items.empty");
  }
}

}  // namespace
}  // namespace webdb
