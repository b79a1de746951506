#include "db/update_register.h"

#include "util/logging.h"

namespace webdb {

UpdateRegister::UpdateRegister(int32_t num_items) {
  WEBDB_CHECK(num_items >= 0);
  pending_.resize(static_cast<size_t>(num_items), 0);
}

size_t UpdateRegister::Index(ItemId item) const {
  WEBDB_DCHECK(item >= 0 && static_cast<size_t>(item) < pending_.size());
  return static_cast<size_t>(item);
}

uint64_t UpdateRegister::Register(ItemId item, uint64_t txn_id) {
  WEBDB_CHECK(txn_id != 0);
  uint64_t& slot = pending_[Index(item)];
  const uint64_t invalidated = slot;
  slot = txn_id;
  if (invalidated == 0) {
    ++live_;
  } else {
    ++total_invalidated_;
  }
  return invalidated;
}

bool UpdateRegister::Remove(ItemId item, uint64_t txn_id) {
  WEBDB_DCHECK(txn_id != 0);
  uint64_t& slot = pending_[Index(item)];
  if (slot != txn_id) return false;
  slot = 0;
  --live_;
  return true;
}

std::vector<std::pair<ItemId, uint64_t>> UpdateRegister::PendingEntries()
    const {
  std::vector<std::pair<ItemId, uint64_t>> entries;
  entries.reserve(live_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i] != 0) {
      entries.emplace_back(static_cast<ItemId>(i), pending_[i]);
    }
  }
  return entries;
}

}  // namespace webdb
