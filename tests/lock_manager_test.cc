#include "txn/lock_manager.h"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "test_txns.h"
#include "util/logging.h"

namespace webdb {
namespace {

constexpr int32_t kNumItems = 8;

// A lock set for the span API (std::span has no initializer-list
// constructor before C++26).
std::vector<ItemId> Items(std::initializer_list<ItemId> ids) { return ids; }

// LockManager::Conflicts into a fresh buffer.
std::vector<TxnId> ConflictsOf(const LockManager& lm, TxnId txn, LockMode mode,
                               std::span<const ItemId> items) {
  std::vector<TxnId> out;
  lm.Conflicts(txn, mode, items, &out);
  return out;
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm(kNumItems);
  EXPECT_TRUE(ConflictsOf(lm, 2, LockMode::kShared, Items({1, 2})).empty());
  lm.Acquire(2, LockMode::kShared, Items({1, 2}));
  EXPECT_TRUE(ConflictsOf(lm, 4, LockMode::kShared, Items({1, 2})).empty());
  lm.Acquire(4, LockMode::kShared, Items({2, 3}));
  EXPECT_TRUE(lm.Holds(2, Items({1, 2})));
  EXPECT_TRUE(lm.Holds(4, Items({2, 3})));
  EXPECT_EQ(lm.SharedHolders(2).size(), 2u);
  EXPECT_EQ(lm.NumLockedItems(), 3u);
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({5}));
  const auto conflicts = ConflictsOf(lm, 3, LockMode::kExclusive, Items({5}));
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 2u);
}

TEST(LockManagerTest, SharedConflictsWithExclusive) {
  LockManager lm(kNumItems);
  lm.Acquire(3, LockMode::kExclusive, Items({5}));
  EXPECT_EQ(lm.ExclusiveHolder(5), 3u);
  const auto conflicts = ConflictsOf(lm, 2, LockMode::kShared, Items({4, 5}));
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], 3u);
}

TEST(LockManagerTest, NoSelfConflict) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1}));
  EXPECT_TRUE(ConflictsOf(lm, 2, LockMode::kShared, Items({1})).empty());
}

TEST(LockManagerTest, ConflictsDeduplicated) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1, 2, 3}));
  const auto conflicts = ConflictsOf(lm, 5, LockMode::kExclusive, Items({1}));
  EXPECT_EQ(conflicts.size(), 1u);
  // A query over several items held by the same exclusive holder reports it
  // once.
  LockManager lm2(kNumItems);
  lm2.Acquire(3, LockMode::kExclusive, Items({1}));
  lm2.Acquire(5, LockMode::kExclusive, Items({2}));
  auto multi = ConflictsOf(lm2, 2, LockMode::kShared, Items({1, 2}));
  std::sort(multi.begin(), multi.end());
  EXPECT_EQ(multi, (std::vector<TxnId>{3, 5}));
}

TEST(LockManagerTest, ConflictsAreSortedAcrossSharedHolders) {
  // Resolution order is the restart order, so it must not depend on the
  // order holders were listed in (Release swaps them around).
  LockManager lm(kNumItems);
  for (TxnId holder : {8, 2, 6, 4}) {
    lm.Acquire(holder, LockMode::kShared, Items({1}));
  }
  lm.Release(2, Items({1}));
  EXPECT_EQ(ConflictsOf(lm, 3, LockMode::kExclusive, Items({1})),
            (std::vector<TxnId>{4, 6, 8}));
}

TEST(LockManagerTest, ConflictsOverwriteTheCallersBuffer) {
  // The server reuses one buffer for every dispatch: each call replaces
  // its contents and keeps its capacity.
  LockManager lm(kNumItems);
  lm.Acquire(4, LockMode::kShared, Items({1}));
  lm.Acquire(2, LockMode::kShared, Items({1}));
  std::vector<TxnId> buffer = {99, 98, 97, 96, 95};
  const size_t capacity = buffer.capacity();
  lm.Conflicts(3, LockMode::kExclusive, Items({1}), &buffer);
  EXPECT_EQ(buffer, (std::vector<TxnId>{2, 4}));
  lm.Conflicts(3, LockMode::kShared, Items({1}), &buffer);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.capacity(), capacity);
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1, 2, 3}));
  lm.Release(2, Items({1, 2, 3}));
  EXPECT_FALSE(lm.Holds(2, Items({1, 2, 3})));
  EXPECT_EQ(lm.NumLockedItems(), 0u);
  EXPECT_TRUE(
      ConflictsOf(lm, 3, LockMode::kExclusive, Items({1, 2, 3})).empty());
}

TEST(LockManagerTest, ReleaseUnknownIsNoop) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1}));
  lm.Release(99, Items({1, 2}));  // holds nothing: must not crash
  EXPECT_FALSE(lm.Holds(99, Items({1, 2})));
  EXPECT_TRUE(lm.Holds(2, Items({1})));
  EXPECT_EQ(lm.NumLockedItems(), 1u);
}

TEST(LockManagerTest, ReentrantAcquireIsIdempotent) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1}));
  lm.Acquire(2, LockMode::kShared, Items({1, 2}));  // re-acquire 1, add 2
  lm.Release(2, Items({1, 2}));
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerTest, ReentrantSharedAcquireListsHolderOnce) {
  LockManager lm(kNumItems);
  lm.Acquire(2, LockMode::kShared, Items({1}));
  lm.Acquire(4, LockMode::kShared, Items({1}));
  lm.Acquire(2, LockMode::kShared, Items({1, 1}));  // again, twice over
  ASSERT_EQ(lm.SharedHolders(1).size(), 2u);
  EXPECT_EQ(std::count(lm.SharedHolders(1).begin(),
                       lm.SharedHolders(1).end(), TxnId{2}),
            1);
  EXPECT_EQ(lm.NumLockedItems(), 1u);
  // One release drops the single listing; the other holder keeps the item.
  lm.Release(2, Items({1}));
  EXPECT_FALSE(lm.Holds(2, Items({1})));
  EXPECT_TRUE(lm.Holds(4, Items({1})));
  EXPECT_EQ(lm.NumLockedItems(), 1u);
  lm.Release(4, Items({1}));
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerTest, HighestItemIdIsUsable) {
  LockManager lm(kNumItems);
  const ItemId last = kNumItems - 1;
  lm.Acquire(3, LockMode::kExclusive, Items({last}));
  EXPECT_EQ(lm.ExclusiveHolder(last), 3u);
  EXPECT_EQ(ConflictsOf(lm, 2, LockMode::kShared, Items({0, last})),
            (std::vector<TxnId>{3}));
  lm.Release(3, Items({last}));
  EXPECT_EQ(lm.ExclusiveHolder(last), 0u);
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerTest, ExclusiveThenReleaseAllowsNewExclusive) {
  LockManager lm(kNumItems);
  lm.Acquire(3, LockMode::kExclusive, Items({7}));
  lm.Release(3, Items({7}));
  EXPECT_TRUE(ConflictsOf(lm, 5, LockMode::kExclusive, Items({7})).empty());
  lm.Acquire(5, LockMode::kExclusive, Items({7}));
  EXPECT_EQ(lm.ExclusiveHolder(7), 5u);
}

// Transactions the audit resolves grants against, as the server's pools do.
struct AuditBook {
  TxnPool pool;
  std::map<TxnId, const Transaction*> by_id;

  Query* NewQuery(std::vector<ItemId> items) {
    Query* query = pool.NewQuery(0);
    pool.SetItems(query, std::move(items));
    by_id[query->id] = query;
    return query;
  }
  Update* NewUpdate(ItemId item) {
    Update* update = pool.NewUpdate(0, Millis(2), item);
    by_id[update->id] = update;
    return update;
  }
  LockManager::TxnLookup Lookup() const {
    return [this](TxnId id) -> const Transaction* {
      const auto it = by_id.find(id);
      return it == by_id.end() ? nullptr : it->second;
    };
  }
};

TEST(LockManagerTest, AuditConsistencyPassesOnHealthyTable) {
  AuditBook book;
  LockManager lm(kNumItems);
  lm.AuditConsistency(book.Lookup());  // empty table is consistent
  Query* a = book.NewQuery({1, 2});
  Query* b = book.NewQuery({2, 3});
  Update* u = book.NewUpdate(7);
  lm.Acquire(a->id, LockMode::kShared, LockSet(*a));
  lm.Acquire(b->id, LockMode::kShared, LockSet(*b));
  lm.Acquire(u->id, LockMode::kExclusive, LockSet(*u));
  u->state = TxnState::kRunning;
  lm.AuditConsistency(book.Lookup());
  lm.Release(b->id, LockSet(*b));
  lm.AuditConsistency(book.Lookup());
  lm.Release(a->id, LockSet(*a));
  lm.Release(u->id, LockSet(*u));
  lm.AuditConsistency(book.Lookup());
  EXPECT_EQ(lm.NumLockedItems(), 0u);
}

TEST(LockManagerDeathTest, AuditCatchesALeakedGrant) {
  // A transaction that finished without releasing: its grant is a leak.
  AuditBook book;
  LockManager lm(kNumItems);
  Query* query = book.NewQuery({1, 4});
  lm.Acquire(query->id, LockMode::kShared, LockSet(*query));
  lm.AuditConsistency(book.Lookup());
  query->state = TxnState::kCommitted;
  EXPECT_DEATH(lm.AuditConsistency(book.Lookup()),
               "lock-table-consistent.*leaked");
}

TEST(LockManagerDeathTest, AuditCatchesAGrantOutsideTheLockSet) {
  AuditBook book;
  LockManager lm(kNumItems);
  Query* query = book.NewQuery({1});
  lm.Acquire(query->id, LockMode::kShared, Items({1, 5}));
  EXPECT_DEATH(lm.AuditConsistency(book.Lookup()),
               "lock-table-consistent.*outside its lock set");
  // Right item, wrong mode: an update's lock is exclusive.
  LockManager lm2(kNumItems);
  Update* update = book.NewUpdate(3);
  lm2.Acquire(update->id, LockMode::kShared, LockSet(*update));
  EXPECT_DEATH(lm2.AuditConsistency(book.Lookup()),
               "lock-table-consistent.*outside its lock set");
}

// Section 2.1 write-write handling when two updates on the same item carry
// the same arrival timestamp (same simulator tick): arrival order still
// decides — the later submission supersedes the earlier one, which is
// invalidated without ever running.
TEST(LockManagerServerTest, WriteWriteDropOnTimestampTie) {
  Database db(2);
  FifoScheduler sched;
  WebDatabaseServer server(&db, &sched);
  // A long-running query keeps the CPU busy so neither update dispatches
  // before both have arrived at the same instant t=0.
  server.SubmitQuery(QueryType::kLookup, {1},
                     QualityContract::Make(QcShape::kStep, 1.0, Millis(50),
                                           1.0, 1.0),
                     Millis(5));
  Update* first = server.SubmitUpdate(0, 1.0, Millis(2));
  Update* second = server.SubmitUpdate(0, 2.0, Millis(2));
  ASSERT_EQ(first->arrival, second->arrival);  // genuine timestamp tie
  EXPECT_GT(second->item_arrival_seq, first->item_arrival_seq);
  server.Run();
  EXPECT_EQ(first->state, TxnState::kInvalidated);
  EXPECT_EQ(second->state, TxnState::kCommitted);
  // The survivor inherited the dropped update's queue position.
  EXPECT_EQ(second->fifo_rank, first->fifo_rank);
  EXPECT_DOUBLE_EQ(db.Item(0).value, 2.0);
  EXPECT_EQ(server.metrics().updates_invalidated, 1);
  server.AuditInvariants();
}

// 2PL-HP priority inversion: a low-priority query is preempted while
// holding shared locks; the high-priority update that wants the item
// restarts it (the query loses its locks and its progress) and runs; the
// query then reacquires the lock from scratch and still commits.
TEST(LockManagerServerTest, RestartThenReacquireUnderPriorityInversion) {
  Database db(2);
  auto sched = MakeUpdateHigh();
  WebDatabaseServer server(&db, sched.get());
  Query* query = server.SubmitQuery(
      QueryType::kLookup, {0},
      QualityContract::Make(QcShape::kStep, 1.0, Millis(100), 1.0, 1.0),
      Millis(10));
  Update* update = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    update = server.SubmitUpdate(0, 3.5, Millis(2));
  });
  server.Run();
  ASSERT_NE(update, nullptr);
  // The conflicting update preempted and restarted the query (2PL-HP: the
  // running query is always the loser), then the query reacquired.
  EXPECT_EQ(update->state, TxnState::kCommitted);
  EXPECT_EQ(query->state, TxnState::kCommitted);
  EXPECT_EQ(query->restarts, 1);
  EXPECT_GT(query->commit_time, update->commit_time);
  EXPECT_DOUBLE_EQ(query->staleness, 0.0);  // reread after the write
  // No leaked locks on either side of the inversion.
  EXPECT_FALSE(server.IsCpuBusy());
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();
}

// The conflict-freedom precondition of Acquire is debug-tier
// (WEBDB_DCHECK / audit invariant [conflict-free]): absent in plain
// release builds, active in Debug and -DWEBDB_AUDIT=ON builds.
#if WEBDB_DCHECK_ENABLED
TEST(LockManagerDeathTest, AcquireWithConflictAborts) {
  LockManager lm(kNumItems);
  lm.Acquire(3, LockMode::kExclusive, Items({1}));
  EXPECT_DEATH(lm.Acquire(5, LockMode::kExclusive, Items({1})), "conflict");
}
#endif

}  // namespace
}  // namespace webdb
