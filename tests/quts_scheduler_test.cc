#include "core/quts_scheduler.h"

#include <gtest/gtest.h>

#include "test_txns.h"

namespace webdb {
namespace {

QutsScheduler::Options FastOptions() {
  QutsScheduler::Options options;
  options.atom_time = Millis(10);
  options.adaptation_period = Millis(100);
  options.alpha = 1.0;  // adapt instantly: simpler expectations
  options.seed = 1;
  return options;
}

TEST(QutsTest, StartsAtInitialRho) {
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.6;
  QutsScheduler sched(options);
  EXPECT_DOUBLE_EQ(sched.rho(), 0.6);
  EXPECT_EQ(sched.Name(), "QUTS");
  EXPECT_FALSE(sched.HasWork());
}

TEST(QutsTest, AdaptsTowardOneWhenQosDominates) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  // Window 0: heavy QoS preference.
  Query* q = pool.NewQuery(0, Millis(5), /*qos=*/100.0, /*qod=*/1.0);
  sched.OnQueryArrival(q, 0);
  // Cross the adaptation boundary.
  sched.PopNext(0, Millis(150));
  EXPECT_DOUBLE_EQ(sched.rho(), 1.0);  // min(100/2 + 0.5, 1)
}

TEST(QutsTest, AdaptsTowardHalfWhenQodDominates) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Query* q = pool.NewQuery(0, Millis(5), /*qos=*/0.0, /*qod=*/100.0);
  sched.OnQueryArrival(q, 0);
  sched.PopNext(0, Millis(150));
  EXPECT_DOUBLE_EQ(sched.rho(), 0.5);
}

TEST(QutsTest, EmptyWindowLeavesRhoUnchanged) {
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.77;
  QutsScheduler sched(options);
  sched.PopNext(0, Millis(1000));  // many empty windows elapse
  EXPECT_DOUBLE_EQ(sched.rho(), 0.77);
}

TEST(QutsTest, AgingSmoothsRho) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.alpha = 0.5;
  options.initial_rho = 0.5;
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), 100.0, 1.0);  // ρ_new = 1
  sched.OnQueryArrival(q, 0);
  sched.PopNext(0, Millis(150));
  EXPECT_DOUBLE_EQ(sched.rho(), 0.75);  // 0.5*0.5 + 0.5*1.0
}

TEST(QutsTest, RhoSeriesRecordsAdaptations) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Query* q = pool.NewQuery(0, Millis(5), 100.0, 100.0);
  sched.OnQueryArrival(q, 0);
  sched.PopNext(0, Millis(350));  // 3 full windows elapsed
  // Initial point + one per window boundary.
  ASSERT_GE(sched.rho_series().size(), 4u);
  EXPECT_EQ(sched.rho_series()[0].first, 0);
  EXPECT_EQ(sched.rho_series()[1].first, Millis(100));
}

TEST(QutsTest, PopsFromNonEmptyQueueWhenPickedIsEmpty) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Update* u = pool.NewUpdate(0);
  sched.OnUpdateArrival(u, 0);
  // Whatever side the coin picks, the update must come out.
  EXPECT_EQ(sched.PopNext(0, 0), u);
  EXPECT_FALSE(sched.HasWork());
}

TEST(QutsTest, WithRhoOneQueriesAlwaysWinTheDraw) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 1.0;
  QutsScheduler sched(options);
  for (int round = 0; round < 50; ++round) {
    Query* q = pool.NewQuery(round, Millis(5), 1.0, 1.0);
    Update* u = pool.NewUpdate(round);
    sched.OnQueryArrival(q, round);
    sched.OnUpdateArrival(u, round);
    // Fresh atom each pop (time advances far beyond τ).
    EXPECT_EQ(sched.PopNext(0, Millis(20) * (round + 1)), q);
    EXPECT_EQ(sched.PopNext(0, Millis(20) * (round + 1)), u);
  }
}

TEST(QutsTest, DrawFrequencyTracksRho) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.7;
  options.adaptation_period = Seconds(10000);  // never adapt
  QutsScheduler sched(options);
  int query_first = 0;
  const int rounds = 2000;
  for (int round = 0; round < rounds; ++round) {
    Query* q = pool.NewQuery(round, Millis(5), 1.0, 1.0);
    Update* u = pool.NewUpdate(round);
    const SimTime now = Millis(100) * (round + 1);
    sched.OnQueryArrival(q, now);
    sched.OnUpdateArrival(u, now);
    Transaction* first = sched.PopNext(0, now);
    if (first->kind == TxnKind::kQuery) ++query_first;
    sched.PopNext(0, now + 1);
    sched.PopNext(0, now + 2);  // drain (nullptr ok)
  }
  EXPECT_NEAR(static_cast<double>(query_first) / rounds, 0.7, 0.05);
}

TEST(QutsTest, NoPreemptionMidAtom) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  Transaction* running = sched.PopNext(0, 0);
  ASSERT_EQ(running, q);
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, 1);
  // Atom started at t=0 with τ=10ms: no preemption inside it.
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, Millis(5)));
}

TEST(QutsTest, AtomExpiryAllowsSwitch) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.5;
  options.adaptation_period = Seconds(10000);
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  Transaction* running = sched.PopNext(0, 0);
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, 1);
  // With ρ = 0.5 the draw eventually lands on the update side; keep probing
  // successive atom boundaries.
  bool preempted = false;
  for (int k = 1; k <= 100 && !preempted; ++k) {
    preempted = sched.ShouldPreempt(0, *running, Millis(10) * k);
  }
  EXPECT_TRUE(preempted);
}

TEST(QutsTest, NextDecisionTimeIsAtomExpiryWhenBusy) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  Query* q2 = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  sched.OnQueryArrival(q2, 0);
  sched.PopNext(0, 0);  // starts an atom at t=0
  EXPECT_EQ(sched.NextDecisionTime(0, 1), Millis(10));
}

TEST(QutsTest, NextDecisionTimeNeverWhenIdle) {
  QutsScheduler sched(FastOptions());
  EXPECT_EQ(sched.NextDecisionTime(0, 0), kSimTimeMax);
}

TEST(QutsTest, NextDecisionTimeMakesProgressOnExpiredAtom) {
  TxnPool pool;
  QutsScheduler sched(FastOptions());
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  sched.PopNext(0, 0);  // atom starts at t=0, expires at t=10ms
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, Millis(25));
  // The atom expired 15ms ago. The old code answered `now`, which let the
  // server schedule a zero-delay wake-up every step; the decision time
  // must always be strictly in the future.
  const SimTime t = sched.NextDecisionTime(0, Millis(25));
  EXPECT_GT(t, Millis(25));
  EXPECT_EQ(t, Millis(25) + sched.options().atom_time);
}

// ShouldPreempt boundary behavior, random slicing pinned via degenerate ρ
// (ξ ∈ [0,1): ρ=1 always draws the query side, ρ=0 always the update side).

TEST(QutsTest, BoundaryDrawForRunningSideDoesNotPreempt) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 1.0;  // every draw picks the query side
  options.freeze_rho = true;
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  Transaction* running = sched.PopNext(0, 0);
  ASSERT_EQ(running, q);
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, 1);
  // Atom boundary at t=10ms: the draw picks the query side — the side of
  // the running transaction. Its queue is empty, but the running query IS
  // the query side's work: the old fallover flipped to the update side and
  // preempted anyway, switching sides against the draw.
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, Millis(10)));
  EXPECT_EQ(sched.current_side(), TxnKind::kQuery);
  // Mid-atom after the boundary decision: still no preemption.
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, Millis(15)));
}

TEST(QutsTest, BoundaryDrawForEmptyOppositeSideKeepsRunningSide) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.0;  // every draw picks the update side
  options.freeze_rho = true;
  QutsScheduler sched(options);
  Query* q1 = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  Query* q2 = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q1, 0);
  sched.OnQueryArrival(q2, 0);
  Transaction* running = sched.PopNext(0, 0);
  // Boundary: the draw picks the update side, but no update is queued —
  // immediate state change back to the only side with work (the running
  // query's). The scheduler must not park on an empty side while a query
  // runs.
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, Millis(10)));
  EXPECT_EQ(sched.current_side(), TxnKind::kQuery);
  EXPECT_EQ(sched.PopNext(0, Millis(11)), q2);
}

TEST(QutsTest, BoundaryDrawForOppositeSideWithWorkPreempts) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.0;  // every draw picks the update side
  options.freeze_rho = true;
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  Transaction* running = sched.PopNext(0, 0);
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, 1);
  EXPECT_TRUE(sched.ShouldPreempt(0, *running, Millis(10)));
  EXPECT_EQ(sched.current_side(), TxnKind::kUpdate);
}

TEST(QutsTest, DeterministicSlicingBoundarySequencePinned) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.slicing = QutsSlicing::kDeterministic;
  options.initial_rho = 0.5;
  options.freeze_rho = true;
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), 1.0, 1.0);
  sched.OnQueryArrival(q, 0);
  // PopNext's draw: credit 0.0 + 0.5 < 1 → update side, falls over to the
  // query side (idle CPU, only a query queued).
  Transaction* running = sched.PopNext(0, 0);
  ASSERT_EQ(running, q);
  Update* u = pool.NewUpdate(1);
  sched.OnUpdateArrival(u, 1);
  // With ρ=0.5 the credit accumulator alternates exactly: 0.5+0.5=1.0 →
  // query (credit wraps to 0), then 0.5 → update, ... Each probe below is
  // one atom boundary; the query keeps running through query draws and is
  // preempted on the first update draw.
  EXPECT_FALSE(sched.ShouldPreempt(0, *running, Millis(10)));  // draw: query
  EXPECT_EQ(sched.current_side(), TxnKind::kQuery);
  EXPECT_TRUE(sched.ShouldPreempt(0, *running, Millis(20)));   // draw: update
  EXPECT_EQ(sched.current_side(), TxnKind::kUpdate);
}

TEST(QutsTest, DeterministicAcrossInstancesWithSameSeed) {
  // Draw-side sequences must match between two identically seeded schedulers.
  QutsScheduler a(FastOptions()), b(FastOptions());
  TxnPool pool_a, pool_b;
  for (int round = 0; round < 200; ++round) {
    const SimTime now = Millis(20) * (round + 1);
    Query* qa = pool_a.NewQuery(now, Millis(5), 1.0, 1.0);
    Update* ua = pool_a.NewUpdate(now);
    Query* qb = pool_b.NewQuery(now, Millis(5), 1.0, 1.0);
    Update* ub = pool_b.NewUpdate(now);
    a.OnQueryArrival(qa, now);
    a.OnUpdateArrival(ua, now);
    b.OnQueryArrival(qb, now);
    b.OnUpdateArrival(ub, now);
    EXPECT_EQ(a.PopNext(0, now)->kind, b.PopNext(0, now)->kind);
    a.PopNext(0, now + 1);
    b.PopNext(0, now + 1);
  }
}

TEST(QutsTest, DeterministicSlicingMatchesRhoShare) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.6;
  options.adaptation_period = Seconds(10000);  // freeze rho
  options.slicing = QutsSlicing::kDeterministic;
  QutsScheduler sched(options);
  int query_first = 0;
  const int rounds = 1000;
  for (int round = 0; round < rounds; ++round) {
    Query* q = pool.NewQuery(round, Millis(5), 1.0, 1.0);
    Update* u = pool.NewUpdate(round);
    const SimTime now = Millis(100) * (round + 1);
    sched.OnQueryArrival(q, now);
    sched.OnUpdateArrival(u, now);
    if (sched.PopNext(0, now)->kind == TxnKind::kQuery) ++query_first;
    sched.PopNext(0, now + 1);
  }
  // Bresenham slicing hits the share exactly up to floating-point drift in
  // the credit accumulator (no sampling noise).
  EXPECT_NEAR(query_first, 600, 1);
}

TEST(QutsTest, DeterministicSlicingIsPeriodic) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.initial_rho = 0.5;
  options.adaptation_period = Seconds(10000);
  options.slicing = QutsSlicing::kDeterministic;
  QutsScheduler sched(options);
  std::vector<TxnKind> sides;
  for (int round = 0; round < 8; ++round) {
    Query* q = pool.NewQuery(round, Millis(5), 1.0, 1.0);
    Update* u = pool.NewUpdate(round);
    const SimTime now = Millis(100) * (round + 1);
    sched.OnQueryArrival(q, now);
    sched.OnUpdateArrival(u, now);
    sides.push_back(sched.PopNext(0, now)->kind);
    sched.PopNext(0, now + 1);
  }
  // rho = 0.5 alternates strictly: U, Q, U, Q, ...
  for (size_t i = 0; i < sides.size(); ++i) {
    EXPECT_EQ(sides[i],
              i % 2 == 0 ? TxnKind::kUpdate : TxnKind::kQuery);
  }
}

TEST(QutsTest, FreezeRhoDisablesAdaptation) {
  TxnPool pool;
  QutsScheduler::Options options = FastOptions();
  options.freeze_rho = true;
  options.initial_rho = 0.3;  // below the Eq. 4 floor: only legal frozen
  QutsScheduler sched(options);
  Query* q = pool.NewQuery(0, Millis(5), /*qos=*/100.0, /*qod=*/1.0);
  sched.OnQueryArrival(q, 0);
  sched.PopNext(0, Seconds(10));  // many windows elapse
  EXPECT_DOUBLE_EQ(sched.rho(), 0.3);
  // Frozen runs still record only the initial point.
  EXPECT_EQ(sched.rho_series().size(), 1u);
}

TEST(QutsDeathTest, InvalidOptionsAbort) {
  QutsScheduler::Options options;
  options.atom_time = 0;
  EXPECT_DEATH(QutsScheduler{options}, "");
  QutsScheduler::Options options2;
  options2.alpha = 0.0;
  EXPECT_DEATH(QutsScheduler{options2}, "");
}

}  // namespace
}  // namespace webdb
