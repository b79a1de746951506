// Hot-path guards (DESIGN.md §9), held to exact counts instead of timings.
// The event core and TxnQueue each run on one instance, first to warm it
// (grow the heap, the slot arena and the queue buffers to their high-water
// marks), then over a measured window in which it must:
//   * allocate nothing (counted by the operator new in alloc_counter.h);
//   * keep the event heap at the live population, so a cancelled event
//     leaves no dead entry behind, and the slot arena at that size too;
//   * spill no closure out of EventCallback's inline buffer;
//   * fire every completion and no cancelled event.
// Bounds are recorded in plain integers inside the window and asserted after
// it, so the assertions themselves cannot allocate mid-window. The churn
// also runs fed by a sorted arrival source, whose instants never touch the
// heap. A whole server fed from a generated trace is held to the same zero
// on its submission path (contracts, item sets, conflict scans).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "audit/invariant_auditor.h"
#include "db/database.h"
#include "exp/scheduler_factory.h"
#include "exp/trace_feeder.h"
#include "qc/qc_generator.h"
#include "sched/txn_queue.h"
#include "server/web_database_server.h"
#include "sim/simulator.h"
#include "trace/stock_trace_generator.h"
#include "trace/trace.h"
#include "txn/transaction.h"
#include "util/rng.h"
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

// --- arrival-fed transaction churn -----------------------------------------------
// The same transactions, each started by a sorted arrival source instead of
// by the previous completion, as the server's transactions are started by
// its trace feeder: transaction k arrives at tick k * kServiceTicks /
// kTxnWidth, so six or seven share each instant and exactly kTxnWidth have
// arrived in any kServiceTicks-tick window. The arrival instants fire off
// the heap; only the completions and deadlines take slots.

struct ArrivalChurn final : ArrivalSource {
  Simulator sim;
  int64_t next = 0;  // the next transaction to arrive
  int64_t end = 0;
  int64_t instants = 0;
  int64_t completed = 0;
  int64_t deadlines_fired = 0;
  size_t max_pending = 0;

  static SimTime ArrivalOf(int64_t txn) {
    return txn * kServiceTicks / kTxnWidth;
  }

  SimTime NextArrivalTime() const override {
    return next < end ? ArrivalOf(next) : kSimTimeMax;
  }

  void FireArrivals() override {
    ++instants;
    const SimTime now = sim.Now();
    for (; next < end && ArrivalOf(next) <= now; ++next) {
      const EventId deadline =
          sim.ScheduleAt(now + kDeadlineTicks, [this] { ++deadlines_fired; });
      sim.ScheduleAt(now + kServiceTicks, [this, deadline] {
        sim.Cancel(deadline);
        ++completed;
      });
    }
    max_pending = std::max(max_pending, sim.NumPending());
  }
};

TEST(HotPathTest, ArrivalFedTxnChurnAllocatesNothingAndKeepsTheHeapLive) {
  constexpr int64_t kWarmup = 10'000;
  constexpr int64_t kTxns = 200'000;
  ArrivalChurn churn;
  churn.end = kWarmup + kTxns;
  churn.sim.AttachArrivals(&churn);
  churn.sim.RunUntil(ArrivalChurn::ArrivalOf(kWarmup) - 1);
  churn.max_pending = 0;
  const int64_t before = AllocationCount();
  churn.sim.Run();
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
  // Two heap events per transaction and none per arrival instant; every
  // instant still counts as executed.
  EXPECT_EQ(stats.scheduled, static_cast<uint64_t>(2 * (kWarmup + kTxns)));
  EXPECT_EQ(churn.sim.NumExecuted(),
            static_cast<uint64_t>(kWarmup + kTxns + churn.instants));
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

// --- server submission path ---------------------------------------------------
// A server replays a generated trace through TraceFeeder, so every query
// takes the real path: a drawn contract, an item set copied into the
// server's arena, admission, the conflict scans at dispatch. The window
// then submits at least 10,000 transactions and must allocate nothing.
//
// Buffers that keep their capacity still grow whenever a run sets a new
// high-water mark: a queue depth, a conflict list, or the shared holders
// of one item (the lock table's holder rows, which also grow the first
// time an item is locked). That growth is warm-up, not a per-transaction
// cost, so the warm-up offers twice the window's query rate at the same
// update rate: more queued and preempted readers, and fewer updates
// restarting them, than the window ever sees. The warm-up must also lock
// every item. The window sits inside the first item-arena chunk and the
// reserved transaction pools, and between two growth steps of the profit
// ledger's one-second series (buckets 65 to 127 fill a capacity-128
// vector).

constexpr SimTime kWarmupEnd = Seconds(65);
constexpr SimTime kWindowEnd = Seconds(127);

struct ServerWindow {
  int64_t allocations = 0;
  // Transactions submitted inside the window.
  size_t transactions = 0;
  // Items a committed query or an applied update had locked by the
  // window's start, and the database size.
  size_t items_locked = 0;
  size_t num_items = 0;
};

// A paper-shaped trace without flash crowds over `num_stocks` items, its
// arrival rates scaled by `load`, the query rate by `query_gain` on top.
Trace SteadyTrace(uint64_t seed, int32_t num_stocks, double load,
                  double query_gain, SimDuration duration) {
  StockTraceConfig config;
  config.seed = seed;
  config.num_stocks = num_stocks;
  config.duration = duration;
  config.query_spike_count = 0;
  config.query_rate *= load * query_gain;
  config.update_rate_start *= load;
  config.update_rate_end *= load;
  return GenerateStockTrace(config);
}

// The warm-up segment at twice the query rate, then the window's segment.
Trace WarmupThenWindow(int32_t num_stocks, double load) {
  Trace trace = SteadyTrace(2007, num_stocks, load, 2.0, kWarmupEnd);
  const Trace window = SteadyTrace(2008, num_stocks, load, 1.0,
                                   kWindowEnd - kWarmupEnd + Seconds(3));
  for (QueryRecord record : window.queries) {
    record.arrival += kWarmupEnd;
    trace.queries.push_back(std::move(record));
  }
  for (UpdateRecord record : window.updates) {
    record.arrival += kWarmupEnd;
    trace.updates.push_back(record);
  }
  trace.CheckValid();
  return trace;
}

ServerWindow RunServerWindow(const Trace& trace, const SchedulerSpec& spec,
                             const QcProfile& profile) {
  Database db(trace.num_items);
  const std::unique_ptr<CpuSetScheduler> scheduler = MakeScheduler(spec);
  const std::unique_ptr<AdmissionController> admission =
      MakeAdmission(spec.admission, spec.topology.num_cpus);
  ServerConfig config;
  config.admission = admission.get();
  WebDatabaseServer server(&db, scheduler.get(), config);
  server.ReserveCapacity(trace.queries.size(), trace.updates.size());
  const QcGenerator generator(profile);
  Rng qc_rng(11);
  TraceFeeder feeder(&server, &trace, [&](const QueryRecord&) {
    return generator.Next(qc_rng);
  });
  feeder.Start();
  server.RunUntil(kWarmupEnd);

  ServerWindow window;
  window.num_items = static_cast<size_t>(trace.num_items);
  std::vector<bool> locked(window.num_items, false);
  for (const Query& query : server.queries()) {
    if (query.state != TxnState::kCommitted) continue;
    for (ItemId item : query.items) locked[static_cast<size_t>(item)] = true;
  }
  for (const Update& update : server.updates()) {
    if (update.state == TxnState::kCommitted) {
      locked[static_cast<size_t>(update.item)] = true;
    }
  }
  window.items_locked =
      static_cast<size_t>(std::count(locked.begin(), locked.end(), true));

  const size_t submitted_before =
      server.queries().size() + server.updates().size();
  const int64_t before = AllocationCount();
  server.RunUntil(kWindowEnd);
  window.allocations = AllocationCount() - before;
  window.transactions =
      server.queries().size() + server.updates().size() - submitted_before;
  return window;
}

TEST(HotPathTest, OneCpuServerSubmissionAllocatesNothing) {
  if constexpr (audit::kEnabled) {
    GTEST_SKIP() << "the strided audit pass allocates by design";
  }
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  const ServerWindow window = RunServerWindow(
      WarmupThenWindow(64, 1.0), spec, Table4Profile(0.5, QcShape::kStep));
  ASSERT_EQ(window.items_locked, window.num_items);
  ASSERT_GE(window.transactions, size_t{10'000});
  EXPECT_EQ(window.allocations, 0);
}

TEST(HotPathTest, ShardedDbfServerSubmissionAllocatesNothing) {
  if constexpr (audit::kEnabled) {
    GTEST_SKIP() << "the strided audit pass allocates by design";
  }
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 4;
  spec.admission.kind = AdmissionKind::kDbf;
  const ServerWindow window = RunServerWindow(
      WarmupThenWindow(64, 4.0), spec, Table4Profile(0.2, QcShape::kStep));
  ASSERT_EQ(window.items_locked, window.num_items);
  ASSERT_GE(window.transactions, size_t{10'000});
  EXPECT_EQ(window.allocations, 0);
}

}  // namespace
}  // namespace webdb
