#include "sim/simulator.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/rng.h"

namespace webdb {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime inner_fire_time = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAfter(50, [&] { inner_fire_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire_time, 150);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(sim.IsPending(id));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.IsPending(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelFromInsideEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.ScheduleAt(20, [&] { fired = true; });
  sim.ScheduleAt(10, [&] { sim.Cancel(victim); });
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(10, [&] { fired.push_back(10); });
  sim.ScheduleAt(20, [&] { fired.push_back(20); });
  sim.RunUntil(15);
  EXPECT_EQ(fired, (std::vector<SimTime>{10}));
  EXPECT_EQ(sim.Now(), 15);
  sim.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.Now(), 25);
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(15, [&] { fired = true; });
  sim.RunUntil(15);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.NumExecuted(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.Now(), 99);
}

// --- slot-arena specifics ---------------------------------------------------

TEST(SimulatorTest, StaleIdCannotTouchRecycledSlot) {
  Simulator sim;
  int first = 0, second = 0;
  const EventId a = sim.ScheduleAt(10, [&] { ++first; });
  ASSERT_TRUE(sim.Step());  // fires `a`; its slot returns to the free list
  const EventId b = sim.ScheduleAt(20, [&] { ++second; });
  // The recycled slot has a new generation: the old handle is dead.
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.IsPending(a));
  EXPECT_FALSE(sim.Cancel(a));
  EXPECT_TRUE(sim.IsPending(b));
  sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, EventIdsAreNeverZero) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    const EventId id = sim.ScheduleAt(i, [] {});
    EXPECT_NE(id, 0u);
    if (i % 2 == 0) sim.Cancel(id);
  }
  sim.Run();
}

TEST(SimulatorTest, ArenaReusesSlotsInsteadOfGrowing) {
  Simulator sim;
  // A ping-pong chain keeps at most two events pending; a run of thousands
  // of events must not grow the arena past that.
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5000) sim.ScheduleAfter(1, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.Run();
  EXPECT_EQ(count, 5000);
  EXPECT_LE(sim.stats().slots_allocated, 2u);
  EXPECT_EQ(sim.stats().scheduled, 5000u);
}

TEST(SimulatorTest, SmallCallbacksStayOffTheHeap) {
  Simulator sim;
  int fired = 0;
  int* counter = &fired;
  for (int i = 0; i < 50; ++i) {
    sim.ScheduleAt(i, [counter] { ++*counter; });
  }
  sim.Run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.stats().callback_heap_spills, 0u);
}

TEST(SimulatorTest, OversizedCallbacksSpillToHeapAndStillFire) {
  Simulator sim;
  std::array<uint64_t, 16> big{};  // 128 bytes of capture: exceeds the SBO
  big[15] = 7;
  uint64_t seen = 0;
  sim.ScheduleAt(1, [big, &seen] { seen = big[15]; });
  sim.Run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(sim.stats().callback_heap_spills, 1u);
}

TEST(SimulatorTest, CancelDuringStormKeepsCountsExact) {
  Simulator sim;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.ScheduleAt(i / 4, [&] { ++fired; }));
  }
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); i += 3) {
    if (sim.Cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(sim.NumPending(), 1000u - cancelled);
  sim.Run();
  EXPECT_EQ(static_cast<size_t>(fired), 1000u - cancelled);
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.stats().cancelled, cancelled);
}

// --- arrival source: merge order ---------------------------------------------

// A source over a list of arrival instants, one instant per fire (equal
// entries are separate instants). Each fire appends 100 + the instant's
// index to `order`, then runs `on_fire`.
struct ListSource final : ArrivalSource {
  std::vector<SimTime> times;
  size_t next = 0;
  std::vector<int>* order = nullptr;
  std::function<void()> on_fire;

  SimTime NextArrivalTime() const override {
    return next < times.size() ? times[next] : kSimTimeMax;
  }
  void FireArrivals() override {
    if (order != nullptr) order->push_back(100 + static_cast<int>(next));
    ++next;
    if (on_fire) on_fire();
  }
};

TEST(SimulatorArrivalTest, HeapEventScheduledBeforeTheSeqDrawFiresFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  ListSource source;
  source.times = {10};
  source.order = &order;
  sim.AttachArrivals(&source);  // draws the arrival's seq now
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 100, 2}));
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulatorArrivalTest, NextSeqIsDrawnAfterTheFireReturns) {
  // Two instants at the same time. Event 2 is scheduled after the attach
  // drew the first instant's seq; event 3 is scheduled by the first fire,
  // at `now`. Both take their seqs before the second instant's is drawn,
  // so both fire between the two instants.
  Simulator sim;
  std::vector<int> order;
  ListSource source;
  source.times = {10, 10};
  source.order = &order;
  source.on_fire = [&] {
    if (source.next == 1) sim.ScheduleAt(10, [&] { order.push_back(3); });
  };
  sim.AttachArrivals(&source);
  sim.ScheduleAt(10, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{100, 2, 3, 101}));
}

TEST(SimulatorArrivalTest, FutureHeapEventAtTheNextInstantKeepsSeqOrder) {
  // The first instant schedules an event at the second instant's time;
  // that event's seq is older than the second instant's, so it goes first.
  Simulator sim;
  std::vector<int> order;
  ListSource source;
  source.times = {10, 20};
  source.order = &order;
  source.on_fire = [&] {
    if (source.next == 1) sim.ScheduleAt(20, [&] { order.push_back(1); });
  };
  sim.AttachArrivals(&source);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{100, 1, 101}));
  EXPECT_EQ(sim.Now(), 20);
}

TEST(SimulatorArrivalTest, RunUntilRunsAnArrivalAtExactlyTheBoundary) {
  Simulator sim;
  std::vector<int> order;
  ListSource source;
  source.times = {5, 15, 16};
  source.order = &order;
  sim.AttachArrivals(&source);
  sim.RunUntil(15);
  EXPECT_EQ(order, (std::vector<int>{100, 101}));
  EXPECT_EQ(sim.Now(), 15);
  sim.RunUntil(15);  // nothing left at or before 15
  EXPECT_EQ(order.size(), 2u);
  sim.RunUntil(40);
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102}));
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorArrivalTest, EmptySourceLeavesRunANoOp) {
  Simulator sim;
  ListSource empty;
  sim.AttachArrivals(&empty);  // exhausted at once: released, no seq drawn
  sim.Run();
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.NumExecuted(), 0u);
  EXPECT_FALSE(sim.Step());
  // The attach point is free again.
  ListSource other;
  other.times = {3};
  sim.AttachArrivals(&other);
  sim.Run();
  EXPECT_EQ(other.next, 1u);
}

TEST(SimulatorArrivalTest, ArrivalInstantsCountAsExecutedButNotScheduled) {
  Simulator sim;
  ListSource source;
  source.times = {1, 2, 2, 7};
  source.on_fire = [&] { sim.ScheduleAfter(3, [] {}); };
  sim.AttachArrivals(&source);
  EXPECT_EQ(sim.NumPending(), 0u);  // the pending arrival is not on the heap
  sim.Run();
  EXPECT_EQ(sim.NumExecuted(), 8u);  // 4 instants + 4 heap events
  EXPECT_EQ(sim.stats().scheduled, 4u);
  EXPECT_EQ(sim.stats().slots_allocated, 3u);  // events at 4, 5 and 5
  EXPECT_EQ(sim.Now(), 10);
}

TEST(SimulatorArrivalTest, DetachDropsThePendingArrival) {
  Simulator sim;
  ListSource source;
  source.times = {5, 10};
  sim.AttachArrivals(&source);
  sim.RunUntil(7);
  sim.DetachArrivals(&source);
  sim.DetachArrivals(&source);  // no longer attached: a no-op
  sim.Run();
  EXPECT_EQ(source.next, 1u);
  EXPECT_EQ(sim.Now(), 7);
  EXPECT_EQ(sim.NumExecuted(), 1u);

  // A source may also detach itself from inside its own fire.
  ListSource self;
  self.times = {8, 9};
  self.on_fire = [&] { sim.DetachArrivals(&self); };
  sim.AttachArrivals(&self);
  sim.Run();
  EXPECT_EQ(self.next, 1u);
  EXPECT_EQ(sim.Now(), 8);
}

TEST(SimulatorArrivalDeathTest, SecondSourceAborts) {
  Simulator sim;
  ListSource first, second;
  first.times = {1};
  second.times = {2};
  sim.AttachArrivals(&first);
  EXPECT_DEATH(sim.AttachArrivals(&second), "already attached");
}

// --- differential order test against the chained pump ---------------------------
// Before the arrival source, a feeder fired an arrival instant from a heap
// event and scheduled the next instant with ScheduleAt as the event's last
// act. That idiom is kept here as the reference. Seeded scripts replay the
// same sorted arrival stream both ways; arrivals and the events they start
// schedule events at the same instant and at later grid points (which
// collide with later arrival instants) and cancel live ones. The firing
// sequence, the clock after each RunUntil, and the executed count must be
// the reference's exactly.

constexpr SimDuration kGrid = 5;

class ScriptRun final : public ArrivalSource {
 public:
  ScriptRun(const std::vector<SimTime>* arrivals, uint64_t seed, bool chained)
      : arrivals_(arrivals), rng_(seed), chained_(chained) {}

  void Start() {
    if (!chained_) {
      sim.AttachArrivals(this);
    } else if (NextArrivalTime() != kSimTimeMax) {
      sim.ScheduleAt(NextArrivalTime(), [this] { Pump(); });
    }
  }

  SimTime NextArrivalTime() const override {
    return next_ < arrivals_->size() ? (*arrivals_)[next_] : kSimTimeMax;
  }

  void FireArrivals() override {
    while (next_ < arrivals_->size() && (*arrivals_)[next_] <= sim.Now()) {
      log.emplace_back(sim.Now(), static_cast<int64_t>(next_++));
      Act(2);
    }
  }

  Simulator sim;
  // (time, label): arrival i logs i, the event labelled k logs -k.
  std::vector<std::pair<SimTime, int64_t>> log;

 private:
  void Pump() {
    FireArrivals();
    if (NextArrivalTime() != kSimTimeMax) {
      sim.ScheduleAt(NextArrivalTime(), [this] { Pump(); });
    }
  }

  void Fire(int64_t label) {
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].first == label) {
        live_[i] = live_.back();
        live_.pop_back();
        break;
      }
    }
    log.emplace_back(sim.Now(), -label);
    Act(1);
  }

  // Schedules up to `max_new` events at Now() or a few grid points out,
  // then maybe cancels a live one. Events are named by label, not by
  // EventId: the chained pump occupies slots, so ids differ between runs.
  void Act(int64_t max_new) {
    for (int64_t n = rng_.UniformInt(0, max_new); n > 0; --n) {
      const SimDuration delay =
          rng_.Bernoulli(0.3) ? 0 : kGrid * rng_.UniformInt(0, 6);
      const int64_t label = ++last_label_;
      live_.emplace_back(
          label, sim.ScheduleAfter(delay, [this, label] { Fire(label); }));
    }
    if (!live_.empty() && rng_.Bernoulli(0.35)) {
      const size_t k = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
      EXPECT_TRUE(sim.Cancel(live_[k].second));
      live_[k] = live_.back();
      live_.pop_back();
    }
  }

  const std::vector<SimTime>* arrivals_;
  Rng rng_;
  bool chained_;
  size_t next_ = 0;
  int64_t last_label_ = 0;
  std::vector<std::pair<int64_t, EventId>> live_;
};

TEST(SimulatorArrivalTest, MergedOrderMatchesTheChainedPump) {
  constexpr size_t kArrivals = 6000;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng script(seed * 7919);
    // A sorted stream on the event grid: a third of the arrivals share the
    // previous arrival's instant.
    std::vector<SimTime> arrivals(kArrivals);
    SimTime t = kGrid * script.UniformInt(0, 3);
    for (SimTime& a : arrivals) {
      t += kGrid * script.UniformInt(0, 2);
      a = t;
    }
    // RunUntil stops, on and off the grid.
    std::vector<SimTime> stops;
    for (SimTime s = 0; s < t; s += script.UniformInt(1, 400)) {
      stops.push_back(s);
    }

    ScriptRun reference(&arrivals, seed, /*chained=*/true);
    ScriptRun merged(&arrivals, seed, /*chained=*/false);
    std::vector<SimTime> reference_clock, merged_clock;
    for (ScriptRun* run : {&reference, &merged}) {
      std::vector<SimTime>& clock =
          run == &reference ? reference_clock : merged_clock;
      run->Start();
      for (SimTime stop : stops) {
        run->sim.RunUntil(stop);
        clock.push_back(run->sim.Now());
      }
      run->sim.Run();
      clock.push_back(run->sim.Now());
    }
    ASSERT_GT(reference.log.size(), kArrivals);
    EXPECT_EQ(merged.log, reference.log);
    EXPECT_EQ(merged_clock, reference_clock);
    // The chained pump's events are the merged run's arrival instants.
    EXPECT_EQ(merged.sim.NumExecuted(), reference.sim.NumExecuted());
    EXPECT_EQ(merged.sim.stats().cancelled, reference.sim.stats().cancelled);
    EXPECT_LT(merged.sim.stats().scheduled, reference.sim.stats().scheduled);
  }
}

// The schedule-into-the-past check is debug-tier (WEBDB_DCHECK): absent in
// plain release builds, active in Debug and -DWEBDB_AUDIT=ON builds. An
// arrival source whose stream runs behind the clock trips the same tier
// (and, under -DWEBDB_AUDIT=ON, the kSimTimeMonotonic audit behind it).
#if WEBDB_DCHECK_ENABLED
TEST(SimulatorDeathTest, SchedulingInPastAborts) {
  Simulator sim;
  sim.ScheduleAt(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(5, [] {}), "past");
}

TEST(SimulatorArrivalDeathTest, SourceBehindTheClockAborts) {
  Simulator sim;
  ListSource unsorted;
  unsorted.times = {10, 5};
  sim.AttachArrivals(&unsorted);
  EXPECT_DEATH(sim.Run(), "behind the clock");
}
#endif

}  // namespace
}  // namespace webdb
