// Hot-path guards (DESIGN.md §9): the event core and TxnQueue, held to exact
// counts instead of timings. Each workload runs on one instance, first to
// warm it (grow the heap, the slot arena and the queue buffers to their
// high-water marks), then over a measured window in which it must:
//   * allocate nothing (counted by the operator new in alloc_counter.h);
//   * keep the event heap at the live population, so a cancelled event
//     leaves no dead entry behind, and the slot arena at that size too;
//   * spill no closure out of EventCallback's inline buffer;
//   * fire every completion and no cancelled event.
// Bounds are recorded in plain integers inside the window and asserted after
// it, so the assertions themselves cannot allocate mid-window.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "sched/txn_queue.h"
#include "sim/simulator.h"
#include "txn/transaction.h"
#include "util/time.h"

namespace webdb {
namespace {

// --- transaction-shaped event churn ------------------------------------------
// The server's per-query pattern: each transaction schedules a completion and
// a far-future lifetime deadline; the completion fires, cancels the deadline
// and starts the next transaction. kTxnWidth transactions are in flight, so
// at most 2 * kTxnWidth events are ever pending.

constexpr int kTxnWidth = 64;
constexpr SimDuration kServiceTicks = 10;
constexpr SimDuration kDeadlineTicks = 1000;

struct TxnChurn {
  Simulator sim;
  int64_t target = 0;
  int64_t started = 0;
  int64_t completed = 0;
  int64_t deadlines_fired = 0;
  size_t max_pending = 0;

  // Runs `txns` more transactions to completion, kTxnWidth in flight.
  void Run(int64_t txns) {
    target = started + txns;
    for (int i = 0; i < kTxnWidth && started < target; ++i) Start();
    sim.Run();
  }

  void Start() {
    ++started;
    const SimTime now = sim.Now();
    const EventId deadline =
        sim.ScheduleAt(now + kDeadlineTicks, [this] { ++deadlines_fired; });
    sim.ScheduleAt(now + kServiceTicks, [this, deadline] {
      sim.Cancel(deadline);
      ++completed;
      if (started < target) Start();
      max_pending = std::max(max_pending, sim.NumPending());
    });
  }
};

TEST(HotPathTest, TxnChurnAllocatesNothingAndKeepsTheHeapLive) {
  constexpr int64_t kWarmup = 10'000;
  constexpr int64_t kTxns = 200'000;
  TxnChurn churn;
  churn.Run(kWarmup);
  churn.max_pending = 0;
  const int64_t before = AllocationCount();
  churn.Run(kTxns);
  const int64_t allocations = AllocationCount() - before;

  EXPECT_EQ(allocations, 0);
  const Simulator::Stats& stats = churn.sim.stats();
  EXPECT_EQ(stats.callback_heap_spills, 0u);
  EXPECT_LE(churn.max_pending, size_t{2 * kTxnWidth});
  EXPECT_LE(stats.slots_allocated, size_t{2 * kTxnWidth});
  EXPECT_EQ(churn.completed, kWarmup + kTxns);
  EXPECT_EQ(stats.cancelled, static_cast<uint64_t>(kWarmup + kTxns));
  EXPECT_EQ(churn.deadlines_fired, 0);
  EXPECT_EQ(churn.sim.NumPending(), 0u);
}

// --- schedule-and-cancel churn ------------------------------------------------
// The wake-up re-arm pattern of WebDatabaseServer::ScheduleWake: arm an
// event, then cancel it before it fires. One event is live at a time.

TEST(HotPathTest, CancelChurnAllocatesNothingAndLeavesNoDeadEntries) {
  constexpr int64_t kWarmup = 1'000;
  constexpr int64_t kPairs = 100'000;
  Simulator sim;
  int64_t fired = 0;
  size_t max_pending = 0;
  auto churn = [&](int64_t pairs) {
    for (int64_t i = 0; i < pairs; ++i) {
      const EventId id = sim.ScheduleAt(sim.Now() + kDeadlineTicks + i,
                                        [&fired] { ++fired; });
      sim.Cancel(id);
      max_pending = std::max(max_pending, sim.NumPending());
    }
    sim.Run();
  };
  churn(kWarmup);
  max_pending = 0;
  const int64_t before = AllocationCount();
  churn(kPairs);
  const int64_t allocations = AllocationCount() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(sim.stats().callback_heap_spills, 0u);
  EXPECT_LE(max_pending, size_t{2});
  EXPECT_LE(sim.stats().slots_allocated, size_t{2});
  EXPECT_EQ(sim.stats().cancelled, static_cast<uint64_t>(kWarmup + kPairs));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.NumPending(), 0u);
}

// --- TxnQueue restart-storm churn ----------------------------------------------
// The 2PL-HP restart storm seen by a scheduler queue: a fixed live population
// where every operation removes a transaction and re-pushes it (a tombstone
// for compaction to collect), then pops the head and pushes it back.

TEST(HotPathTest, TxnQueueRestartStormAllocatesNothingAndStaysCompact) {
  constexpr size_t kLive = 256;
  constexpr int64_t kWarmup = 10'000;
  constexpr int64_t kOps = 200'000;
  std::vector<Query> queries(kLive);
  TxnQueue queue;
  for (size_t i = 0; i < kLive; ++i) {
    queries[i].id = QueryTxnId(i);
    queries[i].arrival = static_cast<SimTime>(i);
    queue.Push(&queries[i], static_cast<double>(i % 17));
  }
  int64_t op = 0;
  size_t max_entries = 0;
  auto churn = [&](int64_t ops) {
    for (const int64_t end = op + ops; op < end; ++op) {
      Query& victim = queries[static_cast<size_t>(op) % kLive];
      queue.Remove(&victim);
      queue.Push(&victim, static_cast<double>(op % 17));
      Transaction* top = queue.Pop();
      queue.Push(top, static_cast<double>((op * 7) % 17));
      max_entries = std::max(max_entries, queue.HeapEntries());
    }
  };
  churn(kWarmup);
  max_entries = 0;
  const int64_t before = AllocationCount();
  churn(kOps);
  const int64_t allocations = AllocationCount() - before;

  EXPECT_EQ(allocations, 0);
  // TxnQueue's documented compaction bound (src/sched/txn_queue.h).
  EXPECT_LE(max_entries, 2 * kLive + TxnQueue::kCompactMinStale);
  EXPECT_EQ(queue.Size(), kLive);
  size_t popped = 0;
  while (queue.Pop() != nullptr) ++popped;
  EXPECT_EQ(popped, kLive);
}

}  // namespace
}  // namespace webdb
