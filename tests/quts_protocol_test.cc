// Exhaustive QUTS Table-2 protocol check (core/quts_protocol.h).
//
// One driver arranges the real scheduler — QutsScheduler at one and two
// CPUs — into every abstract (state, event) pair of the declarative
// transition table and compares the observed action against
// RequiredAction. The regression fixtures reintroduce the two historical
// hand-fixed bugs into a reference model of the table and prove the
// checker rejects exactly them, i.e. it would have flagged both defects
// before merge.

#include "core/quts_protocol.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "test_txns.h"
#include "util/rng.h"
#include "util/time.h"

namespace webdb {
namespace {

constexpr SimDuration kTau = Millis(10);

TxnKind Other(TxnKind kind) {
  return kind == TxnKind::kQuery ? TxnKind::kUpdate : TxnKind::kQuery;
}

TxnKind RunningKindOf(QutsRunning running) {
  return running == QutsRunning::kQuery ? TxnKind::kQuery : TxnKind::kUpdate;
}

bool HasQueued(QutsQueues queues, TxnKind kind) {
  if (queues == QutsQueues::kBoth) return true;
  if (queues == QutsQueues::kQueryOnly) return kind == TxnKind::kQuery;
  if (queues == QutsQueues::kUpdateOnly) return kind == TxnKind::kUpdate;
  return false;
}

// The ξ draw QutsScheduler makes at ρ = 1/2 from a given stream.
TxnKind DrawFrom(Rng& rng) {
  return rng.NextDouble() < 0.5 ? TxnKind::kQuery : TxnKind::kUpdate;
}

// Smallest base seed whose shard-0 ξ stream on `num_cpus` CPUs (seeded by
// the scheduler's own rule) opens with exactly {first, second}. The driver
// uses it to make "the next draw picks side X" a constructible arrangement
// instead of a probabilistic one.
uint64_t SeedForDraws(TxnKind first, TxnKind second, int num_cpus) {
  for (uint64_t candidate = 1;; ++candidate) {
    Rng probe(QutsScheduler::ShardSeed(candidate, 0, num_cpus));
    if (DrawFrom(probe) == first && DrawFrom(probe) == second) {
      return candidate;
    }
  }
}

QutsAction PopActionOf(const Transaction* txn) {
  if (txn == nullptr) return QutsAction::kPopNone;
  return txn->kind == TxnKind::kQuery ? QutsAction::kPopQuery
                                      : QutsAction::kPopUpdate;
}

// Arranges QutsScheduler on `num_cpus` CPUs with all work homed on shard 0
// and driven from CPU 0: ρ frozen at 1/2 so the seeded ξ stream alone
// decides draws; a primer transaction of the state's side is popped at t=0
// to commit the side and start the atom clock (consuming draw #1, which the
// seed pins to the side); the queue occupancy arrives mid-atom; the event
// fires either mid-atom (τ/2) or at the boundary (τ), where it consumes
// draw #2 — pinned to the state's `draw`. With more than one CPU the other
// shards stay empty, so shard 0's Table 2 machine must behave exactly like
// the one-CPU one (the steal scan finds no victims).
class RealQutsDriver final : public QutsProtocolDriver {
 public:
  explicit RealQutsDriver(int num_cpus) : num_cpus_(num_cpus) {}

  // Events fired so far: one per checked (state, event) pair.
  int fired() const { return fired_; }

  void Arrange(const QutsProtoState& state) override {
    pool_ = std::make_unique<TxnPool>();
    QutsScheduler::Options options;
    options.atom_time = kTau;
    options.adaptation_period = Seconds(1000);
    options.initial_rho = 0.5;
    options.freeze_rho = true;
    options.slicing = QutsSlicing::kRandom;
    options.seed = SeedForDraws(state.side, state.draw, num_cpus_);
    scheduler_ = std::make_unique<QutsScheduler>(options, num_cpus_);

    // An item that homes on shard 0 under this scheduler's salt.
    item_ = 0;
    while (scheduler_->ShardOfItem(item_) != 0) ++item_;

    Transaction* primer = Submit(state.side, 0);
    runner_ = scheduler_->PopNext(0, 0);
    EXPECT_EQ(runner_, primer);
    EXPECT_EQ(scheduler_->current_side(0), state.side);

    if (HasQueued(state.queues, TxnKind::kQuery)) {
      Submit(TxnKind::kQuery, Millis(2));
    }
    if (HasQueued(state.queues, TxnKind::kUpdate)) {
      Submit(TxnKind::kUpdate, Millis(2));
    }
    // Arrivals are pure enqueues: they must not move the atom or the side.
    EXPECT_EQ(scheduler_->current_side(0), state.side);
    now_ = state.atom == QutsAtom::kExpired ? kTau : kTau / 2;
  }

  QutsAction Fire(QutsProtoEvent event) override {
    ++fired_;
    switch (event) {
      case QutsProtoEvent::kPopNext:
        return PopActionOf(scheduler_->PopNext(0, now_));
      case QutsProtoEvent::kShouldPreempt:
        return scheduler_->ShouldPreempt(0, *runner_, now_)
                   ? QutsAction::kPreempt
                   : QutsAction::kKeepRunning;
      case QutsProtoEvent::kNextDecisionTime:
        return ClassifyWake(scheduler_->NextDecisionTime(0, now_), now_,
                            kTau);
    }
    return QutsAction::kPopNone;
  }

 private:
  Transaction* Submit(TxnKind kind, SimTime at) {
    if (kind == TxnKind::kQuery) {
      Query* query = pool_->NewQuery(at);
      pool_->SetItems(query, {item_});
      scheduler_->OnQueryArrival(query, at);
      return query;
    }
    Update* update = pool_->NewUpdate(at, Millis(2), item_);
    scheduler_->OnUpdateArrival(update, at);
    return update;
  }

  int num_cpus_;
  int fired_ = 0;
  ItemId item_ = 0;
  std::unique_ptr<TxnPool> pool_;
  std::unique_ptr<QutsScheduler> scheduler_;
  Transaction* runner_ = nullptr;
  SimTime now_ = 0;
};

// --- reference model + historical-bug injection ----------------------------

enum class QutsBug {
  kNone,
  // Pre-hotfix defect 1: the atom-boundary draw preempted the running
  // transaction even when the drawn side's queue was empty, over-serving
  // that side beyond its ρ share (fixed in ShouldPreempt).
  kPreemptOntoEmptySide,
  // Pre-hotfix defect 2: NextDecisionTime returned the stale atom expiry
  // (<= now) instead of clamping a full atom ahead, scheduling zero-delay
  // wake-ups that spin without progress (fixed in NextDecisionTime).
  kZeroDelayWakeup,
};

// Minimal reference implementation of the Table 2 loop (two counters for
// the queues, one side, one atom clock, a scripted draw) with injectable
// historical bugs. With QutsBug::kNone it passes CheckQutsProtocol by
// construction; with a bug injected the checker must reject it — that
// round trip is what proves the checker would have caught the real
// defects.
class ModelQutsDriver final : public QutsProtocolDriver {
 public:
  explicit ModelQutsDriver(QutsBug bug) : bug_(bug) {}

  void Arrange(const QutsProtoState& state) override { state_ = state; }

  QutsAction Fire(QutsProtoEvent event) override {
    // A concrete miniature of the Table 2 machine: the atom started at 0
    // with length τ; the event fires either mid-atom or exactly at the
    // boundary.
    const SimTime expiry = kTau;
    const SimTime now = state_.atom == QutsAtom::kExpired ? expiry : kTau / 2;
    TxnKind side = state_.side;
    switch (event) {
      case QutsProtoEvent::kPopNext: {
        if (now >= expiry) side = state_.draw;  // boundary redraw
        if (!HasQueued(state_.queues, side)) {
          if (!HasQueued(state_.queues, Other(side))) {
            return QutsAction::kPopNone;
          }
          side = Other(side);  // immediate state change on an empty queue
        }
        return side == TxnKind::kQuery ? QutsAction::kPopQuery
                                       : QutsAction::kPopUpdate;
      }
      case QutsProtoEvent::kShouldPreempt: {
        if (now < expiry) return QutsAction::kKeepRunning;
        const TxnKind drawn = state_.draw;
        const TxnKind running = RunningKindOf(state_.running);
        if (bug_ == QutsBug::kPreemptOntoEmptySide) {
          // Defect 1 verbatim: the draw alone decides — an empty drawn
          // queue still evicts the running transaction.
          return drawn != running ? QutsAction::kPreempt
                                  : QutsAction::kKeepRunning;
        }
        if (drawn != running && HasQueued(state_.queues, drawn)) {
          return QutsAction::kPreempt;
        }
        return QutsAction::kKeepRunning;
      }
      case QutsProtoEvent::kNextDecisionTime: {
        if (state_.queues == QutsQueues::kBothEmpty) {
          return QutsAction::kNoWake;
        }
        if (bug_ == QutsBug::kZeroDelayWakeup) {
          // Defect 2 verbatim: hand back the raw expiry even when it is
          // already due, i.e. a zero-delay wake-up.
          return ClassifyWake(expiry, now, kTau);
        }
        const SimTime wake = expiry <= now ? now + kTau : expiry;
        return ClassifyWake(wake, now, kTau);
      }
    }
    return QutsAction::kPopNone;
  }

 private:
  QutsBug bug_;
  QutsProtoState state_;
};

std::string Report(const std::vector<QutsProtoViolation>& violations) {
  std::string out;
  for (const QutsProtoViolation& v : violations) out += v.Describe() + "\n";
  return out;
}

// --- the state space itself -------------------------------------------------

TEST(QutsProtocolTable, EnumerationIsExhaustive) {
  // 2 sides × 2 atom phases × 4 occupancies × 2 draws × 3 CPU states.
  EXPECT_EQ(AllQutsProtoStates().size(), 96u);
  // Valid pairs: PopNext and ShouldPreempt each see 32 states (idle CPU /
  // matching running side), NextDecisionTime sees both sets. The checker
  // walks every one of them.
  size_t valid = 0;
  for (const QutsProtoState& state : AllQutsProtoStates()) {
    for (QutsProtoEvent event : kAllQutsProtoEvents) {
      if (StateValidFor(state, event)) ++valid;
    }
  }
  EXPECT_EQ(valid, 128u);
}

TEST(QutsProtocolTable, RequiredActionWitnesses) {
  // The two historical defects, as direct table lookups.
  // Defect 1 witness: atom expired while a query runs, draw picks the
  // update side but no update is queued — Table 2 keeps the CPU.
  QutsProtoState witness1;
  witness1.side = TxnKind::kQuery;
  witness1.atom = QutsAtom::kExpired;
  witness1.queues = QutsQueues::kQueryOnly;
  witness1.draw = TxnKind::kUpdate;
  witness1.running = QutsRunning::kQuery;
  EXPECT_EQ(RequiredAction(witness1, QutsProtoEvent::kShouldPreempt),
            QutsAction::kKeepRunning);
  // Defect 2 witness: expired atom with queued work — the wake-up must be
  // a full atom out, never at/before now.
  QutsProtoState witness2 = witness1;
  EXPECT_EQ(RequiredAction(witness2, QutsProtoEvent::kNextDecisionTime),
            QutsAction::kWakeAfterFullAtom);
}

// --- real schedulers vs the table -------------------------------------------

TEST(QutsProtocolCheck, ReferenceModelMatchesTable) {
  ModelQutsDriver driver(QutsBug::kNone);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
}

TEST(QutsProtocolCheck, QutsSchedulerOneCpuMatchesTable) {
  RealQutsDriver driver(1);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
  EXPECT_EQ(driver.fired(), 128);
}

TEST(QutsProtocolCheck, QutsSchedulerTwoCpusMatchesTable) {
  RealQutsDriver driver(2);
  const auto violations = CheckQutsProtocol(driver);
  EXPECT_TRUE(violations.empty()) << Report(violations);
  EXPECT_EQ(driver.fired(), 128);
}

// --- regression fixtures: the checker rejects the historical bugs -----------

TEST(QutsProtocolRegression, RejectsPreemptOntoEmptySide) {
  ModelQutsDriver driver(QutsBug::kPreemptOntoEmptySide);
  const auto violations = CheckQutsProtocol(driver);
  // Exactly the states the hotfix was about: boundary draw for the other,
  // empty side. Per running kind there are two occupancies that leave the
  // drawn side empty.
  EXPECT_EQ(violations.size(), 4u) << Report(violations);
  for (const QutsProtoViolation& v : violations) {
    EXPECT_EQ(v.event, QutsProtoEvent::kShouldPreempt);
    EXPECT_EQ(v.state.atom, QutsAtom::kExpired);
    EXPECT_NE(v.state.draw, RunningKindOf(v.state.running));
    EXPECT_FALSE(HasQueued(v.state.queues, v.state.draw));
    EXPECT_EQ(v.required, QutsAction::kKeepRunning);
    EXPECT_EQ(v.observed, QutsAction::kPreempt);
  }
}

TEST(QutsProtocolRegression, RejectsZeroDelayWakeup) {
  ModelQutsDriver driver(QutsBug::kZeroDelayWakeup);
  const auto violations = CheckQutsProtocol(driver);
  // Every expired-atom state with queued work answers "wake now" instead
  // of "wake a full atom out": 2 sides × 3 non-empty occupancies × 2 draws
  // × 2 valid CPU states.
  EXPECT_EQ(violations.size(), 24u) << Report(violations);
  for (const QutsProtoViolation& v : violations) {
    EXPECT_EQ(v.event, QutsProtoEvent::kNextDecisionTime);
    EXPECT_EQ(v.state.atom, QutsAtom::kExpired);
    EXPECT_NE(v.state.queues, QutsQueues::kBothEmpty);
    EXPECT_EQ(v.required, QutsAction::kWakeAfterFullAtom);
    EXPECT_EQ(v.observed, QutsAction::kWakeImmediate);
  }
}

// A deliberately wrong side-kept variant would also be caught: flipping any
// single required action makes the clean model fail. Spot-check by diffing
// the model against a table probe on one PopNext pair.
TEST(QutsProtocolCheck, TableAndModelAgreePointwise) {
  ModelQutsDriver driver(QutsBug::kNone);
  QutsProtoState state;
  state.side = TxnKind::kUpdate;
  state.atom = QutsAtom::kExpired;
  state.queues = QutsQueues::kUpdateOnly;
  state.draw = TxnKind::kQuery;  // drawn queue empty -> fall over to update
  state.running = QutsRunning::kIdle;
  driver.Arrange(state);
  EXPECT_EQ(driver.Fire(QutsProtoEvent::kPopNext), QutsAction::kPopUpdate);
  EXPECT_EQ(RequiredAction(state, QutsProtoEvent::kPopNext),
            QutsAction::kPopUpdate);
}

}  // namespace
}  // namespace webdb
