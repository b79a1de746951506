#include "sim/simulator.h"

#include <string>
#include <utility>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

EventId Simulator::ScheduleAt(SimTime t, EventCallback fn) {
  // Hot path (every completion, deadline and wake-up): debug tier.
  WEBDB_DCHECK_MSG(t >= now_, "cannot schedule into the past");
  WEBDB_DCHECK_MSG(static_cast<bool>(fn), "cannot schedule an empty callback");
  const uint64_t seq = next_seq_++;

  uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoFreeSlot;
  } else {
    WEBDB_CHECK_MSG(slots_.size() < kNoFreeSlot, "event arena exhausted");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    stats_.slots_allocated = slots_.size();
  }

  Slot& s = slots_[slot];
  if (fn.on_heap()) ++stats_.callback_heap_spills;
  s.fn = std::move(fn);
  const uint32_t gen = s.gen;

  heap_.push_back(HeapEntry{t, seq, slot});
  SiftUp(heap_.size() - 1);
  ++stats_.scheduled;
  return MakeId(slot, gen);
}

EventId Simulator::ScheduleAfter(SimDuration delay, EventCallback fn) {
  WEBDB_DCHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= slots_.size() || slots_[slot].gen != GenOf(id)) return false;
  // Eager removal: the slot knows where its heap entry sits, so the entry
  // comes out now instead of lingering as a tombstone until its (possibly
  // far-future) timestamp is reached.
  RemoveAt(slots_[slot].heap_pos);
  ReleaseSlot(slot);
  ++stats_.cancelled;
  return true;
}

bool Simulator::IsPending(EventId id) const {
  const uint32_t slot = SlotOf(id);
  return slot < slots_.size() && slots_[slot].gen == GenOf(id);
}

void Simulator::AttachArrivals(ArrivalSource* source) {
  WEBDB_CHECK(source != nullptr);
  WEBDB_CHECK_MSG(source_ == nullptr, "an arrival source is already attached");
  source_ = source;
  DrawArrival();
}

void Simulator::DetachArrivals(const ArrivalSource* source) {
  if (source_ == source) source_ = nullptr;
}

void Simulator::DrawArrival() {
  const SimTime t = source_->NextArrivalTime();
  if (t == kSimTimeMax) {
    source_ = nullptr;  // exhausted: no seq is drawn for it
    return;
  }
  WEBDB_DCHECK_MSG(t >= now_, "arrival source is behind the clock");
  arrival_.time = t;
  arrival_.seq = next_seq_++;
}

void Simulator::FireArrival() {
  if constexpr (audit::kEnabled) {
    WEBDB_AUDIT_THAT(audit::Invariant::kSimTimeMonotonic,
                     arrival_.time >= now_,
                     "arrival at t=" + std::to_string(arrival_.time) +
                         " fired behind clock t=" + std::to_string(now_));
  }
  now_ = arrival_.time;
  ++executed_;
  source_->FireArrivals();
  // Drawn only now, after every event the fire scheduled: where a chained
  // pump's closing ScheduleAt drew its seq. The fire may have detached the
  // source.
  if (source_ != nullptr) DrawArrival();
}

bool Simulator::Step() {
  if (source_ != nullptr &&
      (heap_.empty() || arrival_.Before(heap_.front()))) {
    FireArrival();
    return true;
  }
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  if constexpr (audit::kEnabled) {
    // Event-queue time monotonicity: the heap order (time, seq) must
    // never hand us an event behind the clock — if it does, every
    // response time and staleness sample afterwards is garbage.
    WEBDB_AUDIT_THAT(audit::Invariant::kSimTimeMonotonic, top.time >= now_,
                     "event at t=" + std::to_string(top.time) +
                         " popped behind clock t=" + std::to_string(now_));
    // Arena bookkeeping: every heap entry's slot must point back at it, and
    // the heap can never hold more events than the arena has slots.
    WEBDB_AUDIT_THAT(audit::Invariant::kEventArenaConsistent,
                     top.slot < slots_.size() &&
                         slots_[top.slot].heap_pos == 0,
                     "heap root's slot does not point back at the root");
    WEBDB_AUDIT_THAT(audit::Invariant::kEventArenaConsistent,
                     heap_.size() <= slots_.size(),
                     "more pending events than arena slots");
  }
  RemoveAt(0);
  // Move the callback out and release the slot BEFORE invoking: the
  // callback may schedule new events, growing slots_ and invalidating
  // references — and its own slot must already be reusable.
  EventCallback fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  now_ = top.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  while ((source_ != nullptr && arrival_.time <= t) ||
         (!heap_.empty() && heap_.front().time <= t)) {
    Step();
  }
  if (now_ < t) now_ = t;
}

void Simulator::RemoveAt(size_t pos) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  heap_[pos] = moved;
  slots_[moved.slot].heap_pos = static_cast<uint32_t>(pos);
  if (pos > 0 && moved.Before(heap_[(pos - 1) / 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Simulator::SiftUp(size_t i) {
  const HeapEntry item = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!item.Before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    slots_[heap_[i].slot].heap_pos = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = item;
  slots_[item.slot].heap_pos = static_cast<uint32_t>(i);
}

void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry item = heap_[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].Before(heap_[child])) ++child;
    if (!heap_[child].Before(item)) break;
    heap_[i] = heap_[child];
    slots_[heap_[i].slot].heap_pos = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = item;
  slots_[item.slot].heap_pos = static_cast<uint32_t>(i);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventCallback();
  // Bumping the generation invalidates every outstanding id for this slot.
  // On the (astronomically unlikely) wrap, skip 0 so ids are never 0.
  if (++s.gen == 0) s.gen = 1;
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace webdb
