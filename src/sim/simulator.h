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
// lifetime deadline, decision wake-up) never touch the heap at all. EventIds
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
//
// Arrivals stay off the heap (DESIGN.md §9, "Arrivals off the heap"). One
// ArrivalSource — a stream already sorted by time, such as a trace feeder —
// may be attached; Step and RunUntil run whichever comes first in
// (time, seq), its next arrival instant or the heap top, so an arrival takes
// no slot, closure or sift. The source's seq comes from the same counter as
// ScheduleAt's, drawn when it is attached and again right after each fire
// returns: the exact slot a chained "schedule my next arrival" event would
// have held, so the merged order equals the chained one.

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

// A time-sorted stream of arrivals that the simulator merges with its event
// heap. The simulator calls NextArrivalTime() when the source is attached
// and after each FireArrivals(), and never otherwise, so the stream may only
// advance inside FireArrivals().
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  // Time of the next arrival instant, or kSimTimeMax once the stream is
  // exhausted. Never behind the simulator's clock.
  virtual SimTime NextArrivalTime() const = 0;
  // Delivers every arrival due at the simulator's Now(). Counts as one
  // executed event.
  virtual void FireArrivals() = 0;
};

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

  // Merges `source`'s stream into the event order from its next arrival on.
  // At most one source is attached at a time; an exhausted source is
  // released as soon as its NextArrivalTime() reads kSimTimeMax (at once if
  // it is empty).
  void AttachArrivals(ArrivalSource* source);

  // Releases `source` if it is the attached one; otherwise a no-op. Its
  // pending arrival is dropped.
  void DetachArrivals(const ArrivalSource* source);

  // Runs the next pending event or arrival instant, advancing the clock.
  // Returns false when both the queue and the arrival stream are drained.
  bool Step();

  // Runs events and arrivals until both drain.
  void Run();

  // Runs events and arrivals with timestamp <= `t`, then advances the clock
  // to `t` (if it is not already past).
  void RunUntil(SimTime t);

  // Events on the heap; a pending arrival instant is not one of them.
  size_t NumPending() const { return heap_.size(); }
  // Fired heap events plus fired arrival instants.
  uint64_t NumExecuted() const { return executed_; }

  // Allocation / pool instrumentation, asserted exactly by the hot-path
  // guards (tests/hot_path_test.cc) and reported by perfbench.
  struct Stats {
    uint64_t scheduled = 0;       // ScheduleAt calls (arrivals take none)
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
  // Reads the attached source's next arrival instant and draws its seq, or
  // releases the source once it is exhausted.
  void DrawArrival();
  // Fires the pending arrival instant; requires source_ != nullptr.
  void FireArrival();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_; // binary min-heap on (time, seq); all live
  std::vector<Slot> slots_;     // arena; index = low 32 bits of EventId
  uint32_t free_head_ = kNoFreeSlot;
  // The attached source and the (time, seq) of its next arrival instant
  // (`slot` unused); valid while source_ is set.
  ArrivalSource* source_ = nullptr;
  HeapEntry arrival_{};
  Stats stats_;
};

}  // namespace webdb

#endif  // WEBDB_SIM_SIMULATOR_H_
