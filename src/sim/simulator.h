// Discrete-event simulation core.
//
// The simulator owns a priority queue of timestamped callbacks. Events with
// equal timestamps fire in scheduling order (stable (time, seq) ordering), so
// runs are fully deterministic.
//
// Hot-path layout (DESIGN.md §9): callbacks live in a slot arena — a pooled
// vector of fixed slots recycled through a free list — instead of a
// node-allocating map, and each slot stores its closure in an EventCallback
// small buffer. Scheduling, firing and cancelling an event therefore touch
// no allocator once the pool and the heap vector have reached their
// high-water marks; the common server closures (processor completion,
// arrival pump, decision wake-up) never touch the heap at all. EventIds
// carry a per-slot generation so a recycled slot can never be cancelled or
// queried through a stale handle.
//
// Each slot also records its event's position in the heap (the sift
// primitives keep it current), so Cancel removes the heap entry eagerly in
// O(log n) instead of leaving a tombstone. The heap always holds exactly
// the pending events: a workload that schedules far-future deadlines and
// cancels nearly all of them keeps a heap of live size, not live size plus
// a long tail of dead entries. The server's lifetime deadlines are that
// pattern: each query schedules one at submission, and commit (solo or as
// a fused member) and admission shedding cancel it, so only the deadlines
// of queries still in flight are pending.

#ifndef WEBDB_SIM_SIMULATOR_H_
#define WEBDB_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_callback.h"
#include "util/time.h"

namespace webdb {

// Handle for cancelling a scheduled event: (generation << 32) | slot index.
// Generations start at 1, so 0 is never a valid id.
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: event callbacks capture `this`-adjacent state.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `t` (must be >= Now()).
  EventId ScheduleAt(SimTime t, EventCallback fn);

  // Schedules `fn` to run `delay` (>= 0) after Now().
  EventId ScheduleAfter(SimDuration delay, EventCallback fn);

  // Cancels a pending event. Returns false if it already fired or was
  // cancelled before.
  bool Cancel(EventId id);

  // True if `id` is still pending.
  bool IsPending(EventId id) const;

  // Runs the next pending event, advancing the clock. Returns false when the
  // queue is empty.
  bool Step();

  // Runs events until the queue drains.
  void Run();

  // Runs events with timestamp <= `t`, then advances the clock to `t` (if it
  // is not already past).
  void RunUntil(SimTime t);

  // Pre-sizes the heap and the slot arena for `pending_events` concurrently
  // pending events, so a run of known shape never grows them mid-flight.
  void Reserve(size_t pending_events);

  size_t NumPending() const { return heap_.size(); }
  uint64_t NumExecuted() const { return executed_; }

  // Allocation / pool instrumentation, asserted exactly by the hot-path
  // guards (tests/hot_path_test.cc) and reported by perfbench.
  struct Stats {
    uint64_t scheduled = 0;       // ScheduleAt calls
    uint64_t cancelled = 0;       // successful Cancels
    // Closures too large for the EventCallback inline buffer (each one is a
    // heap allocation; 0 on the server hot path).
    uint64_t callback_heap_spills = 0;
    size_t slots_allocated = 0;   // slot-arena high-water mark
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;

  struct Slot {
    EventCallback fn;
    uint32_t gen = 1;                 // bumped when the slot is released
    uint32_t next_free = kNoFreeSlot; // free-list link while unarmed
    uint32_t heap_pos = 0;            // index of this slot's heap entry
  };

  struct HeapEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;

    // Strict total order on (time, seq): seq is unique, so the pop sequence
    // is independent of the heap's internal layout — any correct heap
    // yields the same deterministic schedule.
    bool Before(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }

  // Removes heap_[pos], restoring the heap property. Used by both Step
  // (pos 0) and Cancel (arbitrary pos via the slot's heap_pos).
  void RemoveAt(size_t pos);
  // Sift primitives of the binary min-heap. Both keep every touched slot's
  // heap_pos current, which is what makes eager O(log n) cancellation
  // possible. Pop order is identical to any other correct heap because
  // Before() is a total order.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  // Returns `slot` to the free list and invalidates outstanding ids.
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_; // binary min-heap on (time, seq); all live
  std::vector<Slot> slots_;     // arena; index = low 32 bits of EventId
  uint32_t free_head_ = kNoFreeSlot;
  Stats stats_;
};

}  // namespace webdb

#endif  // WEBDB_SIM_SIMULATOR_H_
