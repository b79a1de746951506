// Open-addressing table from 64-bit keys (fusion signatures, transaction
// ids) to non-negative int32 values (bucket or slot indices), for the flat
// shared-execution layer (DESIGN.md §9, "Flat shared-execution tables").
//
// Linear probing over a power-of-two array kept at most half full, with
// backward-shift deletion: an erase pulls the rest of its probe run back
// into the hole, so there are no tombstones and a miss stops at the first
// empty slot. It allocates only when it grows, never shrinks, and has no
// iteration API, so nothing downstream can depend on its internal order.

#ifndef WEBDB_SERVER_SIGNATURE_TABLE_H_
#define WEBDB_SERVER_SIGNATURE_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace webdb {

class SignatureTable {
 public:
  static constexpr int32_t kAbsent = -1;

  // The value stored under `key`, or kAbsent.
  int32_t Find(uint64_t key) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = HomeSlot(key, slots_.size());; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.value == kAbsent) return kAbsent;
      if (slot.key == key) return slot.value;
    }
  }

  // Stores `value` (>= 0) under `key`, which must be absent.
  void Insert(uint64_t key, int32_t value) {
    WEBDB_CHECK(value >= 0);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(key, value);
    ++size_;
  }

  // Erases `key`; returns whether it was present.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t hole = HomeSlot(key, slots_.size());
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].value == kAbsent) return false;
      if (slots_[hole].key == key) break;
    }
    // Backward shift: an entry later in the run moves into the hole unless
    // the hole lies before its home slot on the (cyclic) probe path, i.e.
    // unless it is already closer to home than the hole would put it.
    for (size_t j = (hole + 1) & mask_; slots_[j].value != kAbsent;
         j = (j + 1) & mask_) {
      const size_t home = HomeSlot(slots_[j].key, slots_.size());
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kAbsent;
    --size_;
    return true;
  }

  // Erases every key; keeps the capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot());
    size_ = 0;
  }

  size_t Size() const { return size_; }
  size_t Capacity() const { return slots_.size(); }

  // Where `key`'s probe starts in a table of `capacity` slots (a power of
  // two). Public so tests can build keys that share a home slot.
  static size_t HomeSlot(uint64_t key, size_t capacity) {
    uint64_t h = key * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<size_t>(h) & (capacity - 1);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t key = 0;
    int32_t value = kAbsent;
  };

  void Place(uint64_t key, int32_t value) {
    size_t i = HomeSlot(key, slots_.size());
    for (; slots_[i].value != kAbsent; i = (i + 1) & mask_) {
      WEBDB_CHECK(slots_[i].key != key);
    }
    slots_[i] = Slot{key, value};
  }

  void Grow() {
    std::vector<Slot> old(std::max(kMinCapacity, 2 * slots_.size()));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.value != kAbsent) Place(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;  // slots_.size() - 1 once allocated
  size_t size_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_SIGNATURE_TABLE_H_
