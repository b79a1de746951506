// Update register table (Section 2.1 of the paper).
//
// One pending-update slot per data item: the arrival of a new update
// automatically invalidates any pending update on the same item, which is
// simply dropped from the system. Item ids are dense, so the table is a flat
// per-item array of the pending (newest, not yet executing/committed)
// update's transaction id, 0 for an empty slot, plus a live-entry count.

#ifndef WEBDB_DB_UPDATE_REGISTER_H_
#define WEBDB_DB_UPDATE_REGISTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "db/data_item.h"

namespace webdb {

class UpdateRegister {
 public:
  // An empty register over items 0..num_items-1.
  explicit UpdateRegister(int32_t num_items);

  // Registers `txn_id` as the pending update for `item`. Returns the
  // transaction id of the previously pending update that this arrival
  // invalidates, or 0 if there was none.
  uint64_t Register(ItemId item, uint64_t txn_id);

  // Removes the pending entry for `item` if it is `txn_id` (called when the
  // update is dispatched to the CPU). Returns false when `txn_id` is not the
  // registered pending update (it was superseded in the meantime).
  bool Remove(ItemId item, uint64_t txn_id);

  // Transaction id pending for `item`, or 0 if none.
  uint64_t PendingFor(ItemId item) const { return pending_[Index(item)]; }

  size_t Size() const { return live_; }
  uint64_t TotalInvalidated() const { return total_invalidated_; }

  // Every (item, pending txn) entry in ascending item order. For the
  // invariant auditor and tests; O(items).
  std::vector<std::pair<ItemId, uint64_t>> PendingEntries() const;

 private:
  size_t Index(ItemId item) const;

  std::vector<uint64_t> pending_;  // index = item id; 0 = no pending update
  size_t live_ = 0;
  uint64_t total_invalidated_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_DB_UPDATE_REGISTER_H_
