// The server's register table (Section 2.1): each item holds one live
// update, queued or running, and a newer arrival on the item supersedes it
// and takes over its slot and its FIFO rank. These cases drive the slot
// through every transition the lifecycle makes (first arrival, supersede of
// a queued, running or restarted update, apply) and check the result both
// through the transactions' outcomes and through AuditInvariants, whose
// newest-wins block walks the table while updates are live.
//
// A last case holds ReserveCapacity to being a performance hint only.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "db/database.h"
#include "exp/scheduler_factory.h"
#include "exp/trace_feeder.h"
#include "qc/qc_generator.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "trace/stock_trace_generator.h"
#include "util/rng.h"

namespace webdb {
namespace {

QualityContract StepQc(double qos = 10.0, double qod = 20.0,
                       SimDuration rt_max = Millis(50), double uu_max = 1.0) {
  return QualityContract::Make(QcShape::kStep, qos, rt_max, qod, uu_max);
}

TEST(ServerRegisterTest, FirstUpdateOnAnItemSupersedesNothing) {
  Database db(4);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // A long query holds the CPU, so the update waits in its queue.
  server.SubmitQuery(QueryType::kLookup, {3}, StepQc(), Millis(20));
  Update* update = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    update = server.SubmitUpdate(1, 5.0, Millis(2));
  });
  server.RunUntil(Millis(2));
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->state, TxnState::kQueued);
  EXPECT_EQ(update->fifo_rank, update->arrival);
  EXPECT_FALSE(server.IsQuiescent());  // the slot is live
  server.AuditInvariants();
  server.Run();
  EXPECT_EQ(update->state, TxnState::kCommitted);
  EXPECT_EQ(server.metrics().updates_invalidated, 0);
  EXPECT_EQ(db.Item(1).invalidated_count, 0u);
  EXPECT_DOUBLE_EQ(db.Item(1).value, 5.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, UpdatesOnDistinctItemsKeepTheirOwnSlots) {
  Database db(4);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  server.SubmitQuery(QueryType::kLookup, {3}, StepQc(), Millis(20));
  std::vector<Update*> updates(3, nullptr);
  for (int i = 0; i < 3; ++i) {
    server.sim().ScheduleAt(Millis(1 + i), [&, i] {
      updates[static_cast<size_t>(i)] =
          server.SubmitUpdate(i, 10.0 + i, Millis(2));
    });
  }
  server.RunUntil(Millis(5));
  for (const Update* update : updates) {
    ASSERT_NE(update, nullptr);
    EXPECT_EQ(update->state, TxnState::kQueued);
  }
  server.AuditInvariants();
  server.Run();
  for (int i = 0; i < 3; ++i) {
    const Update& update = *updates[static_cast<size_t>(i)];
    EXPECT_EQ(update.state, TxnState::kCommitted);
    EXPECT_EQ(update.fifo_rank, update.arrival);
    EXPECT_DOUBLE_EQ(db.Item(i).value, 10.0 + i);
  }
  // FIFO applies them in arrival order.
  EXPECT_LT(updates[0]->commit_time, updates[1]->commit_time);
  EXPECT_LT(updates[1]->commit_time, updates[2]->commit_time);
  EXPECT_EQ(server.metrics().updates_invalidated, 0);
  EXPECT_EQ(server.metrics().updates_applied, 3);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, AppliedUpdateFreesItsSlot) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  Update* first = server.SubmitUpdate(0, 1.0, Millis(2));  // applies at 2 ms
  Update* second = nullptr;
  server.sim().ScheduleAt(Millis(5), [&] {
    EXPECT_EQ(first->state, TxnState::kCommitted);
    server.AuditInvariants();
    second = server.SubmitUpdate(0, 2.0, Millis(2));
  });
  server.Run();
  ASSERT_NE(second, nullptr);
  // The later arrival found an empty slot: nothing superseded, and it
  // keeps its own queue position instead of the applied update's.
  EXPECT_EQ(first->state, TxnState::kCommitted);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  EXPECT_EQ(second->fifo_rank, second->arrival);
  EXPECT_EQ(server.metrics().updates_invalidated, 0);
  EXPECT_EQ(server.metrics().updates_applied, 2);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, AbortedUpdateDoesNotClearItsSuccessorsSlot) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // Each arrival finds its predecessor running and aborts it; the newest
  // runs past the instant the first would have finished, which must not
  // touch the slot the newest holds.
  Update* first = server.SubmitUpdate(0, 1.0, Millis(5));
  Update* second = nullptr;
  Update* third = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    EXPECT_EQ(first->state, TxnState::kRunning);
    second = server.SubmitUpdate(0, 2.0, Millis(5));
  });
  server.sim().ScheduleAt(Millis(2), [&] {
    EXPECT_EQ(second->state, TxnState::kRunning);
    third = server.SubmitUpdate(0, 3.0, Millis(10));
  });
  server.RunUntil(Millis(6));
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->state, TxnState::kRunning);
  server.AuditInvariants();
  server.Run();
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kInvalidated);
  EXPECT_EQ(third->state, TxnState::kCommitted);
  EXPECT_EQ(third->commit_time, Millis(12));
  EXPECT_EQ(third->fifo_rank, first->arrival);
  EXPECT_EQ(server.metrics().updates_invalidated, 2);
  EXPECT_EQ(server.metrics().updates_applied, 1);
  EXPECT_EQ(db.Item(0).invalidated_count, 2u);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 3.0);
  EXPECT_TRUE(db.Item(0).IsFresh());
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, RestartedUpdateKeepsItsSlotUntilSuperseded) {
  Database db(2);
  auto sched = MakeQueryHigh();
  WebDatabaseServer server(&db, sched.get());
  // The update starts, a query on its item preempts it and restarts it
  // under 2PL-HP; the restarted update is still the item's live one, so
  // the next arrival supersedes it and inherits its queue position.
  Update* first = server.SubmitUpdate(0, 1.0, Millis(4));
  Query* query = nullptr;
  Update* second = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    query = server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(5));
  });
  server.sim().ScheduleAt(Millis(2), [&] {
    EXPECT_EQ(first->state, TxnState::kQueued);
    EXPECT_EQ(first->restarts, 1);
    server.AuditInvariants();
    second = server.SubmitUpdate(0, 2.0, Millis(3));
  });
  server.Run();
  ASSERT_NE(query, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  EXPECT_EQ(second->fifo_rank, first->arrival);
  EXPECT_EQ(server.metrics().update_restarts, 1);
  EXPECT_EQ(server.metrics().updates_invalidated, 1);
  EXPECT_EQ(server.metrics().updates_applied, 1);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, HighestItemIdIsUsable) {
  constexpr ItemId kNumItems = 5;
  constexpr ItemId kLast = kNumItems - 1;
  Database db(kNumItems);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  server.SubmitQuery(QueryType::kLookup, {0}, StepQc(), Millis(20));
  Update* first = nullptr;
  Update* second = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    first = server.SubmitUpdate(kLast, 1.0, Millis(2));
  });
  server.sim().ScheduleAt(Millis(2), [&] {
    second = server.SubmitUpdate(kLast, 2.0, Millis(2));
  });
  server.RunUntil(Millis(3));
  server.AuditInvariants();
  server.Run();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  EXPECT_EQ(db.Item(kLast).invalidated_count, 1u);
  EXPECT_DOUBLE_EQ(db.Item(kLast).value, 2.0);
  EXPECT_TRUE(db.Item(kLast).IsFresh());
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, NewerArrivalAbortsAnUpdateRunningOnAnotherCpu) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 2;
  std::unique_ptr<CpuSetScheduler> sched = MakeScheduler(spec);
  Database db(2);
  WebDatabaseServer server(&db, sched.get());
  // Both CPUs run an update; the arrival on item 0 aborts the one running
  // on item 0 and leaves the other CPU's update alone.
  Update* first = server.SubmitUpdate(0, 1.0, Millis(10));
  Update* other = server.SubmitUpdate(1, 5.0, Millis(10));
  Update* newer = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    EXPECT_EQ(first->state, TxnState::kRunning);
    EXPECT_EQ(other->state, TxnState::kRunning);
    newer = server.SubmitUpdate(0, 2.0, Millis(3));
  });
  server.RunUntil(Millis(2));
  server.AuditInvariants();
  server.Run();
  ASSERT_NE(newer, nullptr);
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(other->state, TxnState::kCommitted);
  EXPECT_EQ(other->commit_time, Millis(10));
  EXPECT_EQ(newer->state, TxnState::kCommitted);
  EXPECT_EQ(newer->fifo_rank, first->arrival);
  EXPECT_EQ(server.metrics().updates_invalidated, 1);
  EXPECT_EQ(server.metrics().updates_applied, 2);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_DOUBLE_EQ(db.Item(1).value, 5.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerRegisterTest, NewestWinsHoldsThroughAnUpdateStorm) {
  // Updates pour onto a few hot items faster than one CPU applies them,
  // while queries read them; the audit walks the register table after
  // every millisecond of the run.
  constexpr int kItems = 4;
  Database db(kItems);
  QutsScheduler sched{QutsScheduler::Options()};
  WebDatabaseServer server(&db, &sched);
  Rng rng(2007);
  std::vector<Update*> updates;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += rng.UniformInt(Micros(50), Micros(400));
    const ItemId item = static_cast<ItemId>(rng.UniformInt(0, kItems - 1));
    if (rng.Bernoulli(0.7)) {
      const SimDuration exec = rng.UniformInt(Micros(200), Millis(1));
      server.sim().ScheduleAt(t, [&server, &updates, item, exec, i] {
        updates.push_back(server.SubmitUpdate(item, i, exec));
      });
    } else {
      const SimDuration exec = rng.UniformInt(Micros(200), Millis(2));
      server.sim().ScheduleAt(t, [&server, item, exec] {
        server.SubmitQuery(QueryType::kLookup, {item}, StepQc(), exec);
      });
    }
  }
  for (SimTime now = Millis(1); now <= t + Millis(1); now += Millis(1)) {
    server.RunUntil(now);
    server.AuditInvariants();
  }
  server.Run();
  server.AuditInvariants();
  EXPECT_TRUE(server.IsQuiescent());
  // Every update was applied or superseded, and each item ends on its
  // newest arrival's value.
  std::vector<const Update*> newest(kItems, nullptr);
  int64_t applied = 0;
  int64_t invalidated = 0;
  for (const Update* update : updates) {
    if (update->state == TxnState::kCommitted) ++applied;
    if (update->state == TxnState::kInvalidated) ++invalidated;
    newest[static_cast<size_t>(update->item)] = update;
  }
  EXPECT_EQ(applied + invalidated, static_cast<int64_t>(updates.size()));
  EXPECT_EQ(applied, server.metrics().updates_applied);
  EXPECT_EQ(invalidated, server.metrics().updates_invalidated);
  EXPECT_GT(invalidated, 0);
  for (ItemId item = 0; item < kItems; ++item) {
    const Update* last = newest[static_cast<size_t>(item)];
    if (last == nullptr) continue;
    EXPECT_EQ(last->state, TxnState::kCommitted);
    EXPECT_DOUBLE_EQ(db.Item(item).value, last->value);
    EXPECT_TRUE(db.Item(item).IsFresh());
  }
}

TEST(ServerReserveTest, ReserveCapacityDoesNotChangeTheSchedule) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(7));
  ASSERT_FALSE(trace.queries.empty());
  ASSERT_FALSE(trace.updates.empty());
  uint64_t hashes[2] = {0, 0};
  double profit[2] = {0.0, 0.0};
  for (int reserve = 0; reserve < 2; ++reserve) {
    Database db(trace.num_items);
    QutsScheduler sched{QutsScheduler::Options()};
    WebDatabaseServer server(&db, &sched);
    if (reserve == 1) {
      server.ReserveCapacity(trace.queries.size(), trace.updates.size());
    }
    QcGenerator generator(BalancedProfile(QcShape::kStep));
    Rng qc_rng(7);
    TraceFeeder feeder(&server, &trace, [&](const QueryRecord&) {
      return generator.Next(qc_rng);
    });
    feeder.Start();
    server.Run();
    EXPECT_TRUE(server.IsQuiescent());
    EXPECT_GT(server.metrics().queries_committed, 0);
    hashes[reserve] = server.EndStateHash();
    profit[reserve] =
        server.ledger().qos_gained() + server.ledger().qod_gained();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(profit[0], profit[1]);
}

}  // namespace
}  // namespace webdb
