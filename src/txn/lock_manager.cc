#include "txn/lock_manager.h"

#include <algorithm>
#include <string>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

namespace {

bool Contains(std::span<const TxnId> holders, TxnId txn) {
  return std::find(holders.begin(), holders.end(), txn) != holders.end();
}

// One grant of the lock-table walk: `holder` locks `item` in `mode`.
void AuditGrant(ItemId item, TxnId holder, LockMode mode,
                const LockManager::TxnLookup& lookup) {
  using audit::Invariant;
  const Transaction* txn = lookup(holder);
  WEBDB_AUDIT_THAT(
      Invariant::kLockTableConsistent,
      txn != nullptr && (txn->state == TxnState::kQueued ||
                         txn->state == TxnState::kRunning),
      "lock on item " + std::to_string(item) + " leaked by txn " +
          std::to_string(holder) + ", which is not queued or running");
  const std::span<const ItemId> lock_set = LockSet(*txn);
  WEBDB_AUDIT_THAT(
      Invariant::kLockTableConsistent,
      mode == LockModeOf(*txn) &&
          std::find(lock_set.begin(), lock_set.end(), item) != lock_set.end(),
      "txn " + std::to_string(holder) + " holds item " + std::to_string(item) +
          " outside its lock set");
}

}  // namespace

LockManager::LockManager(int32_t num_items) {
  WEBDB_CHECK(num_items >= 0);
  table_.resize(static_cast<size_t>(num_items));
}

const LockManager::ItemLocks& LockManager::Entry(ItemId item) const {
  WEBDB_DCHECK(item >= 0 && static_cast<size_t>(item) < table_.size());
  return table_[static_cast<size_t>(item)];
}

LockManager::ItemLocks& LockManager::Entry(ItemId item) {
  WEBDB_DCHECK(item >= 0 && static_cast<size_t>(item) < table_.size());
  return table_[static_cast<size_t>(item)];
}

void LockManager::Conflicts(TxnId txn, LockMode mode,
                            std::span<const ItemId> items,
                            std::vector<TxnId>* out) const {
  WEBDB_DCHECK(out != nullptr);
  out->clear();
  for (ItemId item : items) {
    const ItemLocks& entry = Entry(item);
    if (entry.exclusive != 0 && entry.exclusive != txn) {
      out->push_back(entry.exclusive);
    }
    if (mode == LockMode::kExclusive) {
      for (TxnId holder : entry.shared) {
        if (holder != txn) out->push_back(holder);
      }
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void LockManager::Acquire(TxnId txn, LockMode mode,
                          std::span<const ItemId> items) {
  // Lock-table probe on every dispatch: the conflict re-scan is O(items)
  // and the server has just resolved conflicts itself, so this whole
  // precondition block is debug-tier (2PL-HP conflict-freedom).
  WEBDB_DCHECK(txn != 0);
  // Only the checks below call it, so a local buffer costs nothing where
  // they are compiled out.
  const auto unresolved = [&] {
    std::vector<TxnId> conflicts;
    Conflicts(txn, mode, items, &conflicts);
    return !conflicts.empty();
  };
  if constexpr (audit::kEnabled) {
    WEBDB_AUDIT_THAT(audit::Invariant::kConflictFree, !unresolved(),
                     "Acquire with unresolved conflicts by txn " +
                         std::to_string(txn));
  } else {
    WEBDB_DCHECK_MSG(!unresolved(), "Acquire with unresolved conflicts");
  }
  for (ItemId item : items) {
    ItemLocks& entry = Entry(item);
    const bool was_free = entry.Empty();
    if (mode == LockMode::kExclusive) {
      if (entry.exclusive == txn) continue;  // re-entrant
      entry.exclusive = txn;
    } else {
      if (Contains(entry.shared, txn)) continue;  // re-entrant
      entry.shared.push_back(txn);
    }
    if (was_free) ++locked_items_;
  }
}

void LockManager::Release(TxnId txn, std::span<const ItemId> items) {
  WEBDB_DCHECK(txn != 0);
  for (ItemId item : items) {
    ItemLocks& entry = Entry(item);
    if (entry.Empty()) continue;
    bool released = false;
    if (entry.exclusive == txn) {
      entry.exclusive = 0;
      released = true;
    }
    const auto it = std::find(entry.shared.begin(), entry.shared.end(), txn);
    if (it != entry.shared.end()) {
      // Holder order is unspecified (Conflicts sorts), so swap-and-pop.
      *it = entry.shared.back();
      entry.shared.pop_back();
      released = true;
    }
    if (released && entry.Empty()) --locked_items_;
  }
}

bool LockManager::Holds(TxnId txn, std::span<const ItemId> items) const {
  WEBDB_DCHECK(txn != 0);
  for (ItemId item : items) {
    const ItemLocks& entry = Entry(item);
    if (entry.exclusive == txn || Contains(entry.shared, txn)) return true;
  }
  return false;
}

void LockManager::AuditConsistency(const TxnLookup& lookup) const {
  using audit::Invariant;
  size_t locked = 0;
  for (size_t i = 0; i < table_.size(); ++i) {
    const ItemLocks& entry = table_[i];
    if (entry.Empty()) continue;
    ++locked;
    const auto item = static_cast<ItemId>(i);
    WEBDB_AUDIT_THAT(
        Invariant::kLockTableConsistent,
        entry.exclusive == 0 || entry.shared.empty(),
        "item " + std::to_string(item) + " has shared and exclusive holders");
    if (entry.exclusive != 0) {
      AuditGrant(item, entry.exclusive, LockMode::kExclusive, lookup);
    }
    for (size_t k = 0; k < entry.shared.size(); ++k) {
      const TxnId holder = entry.shared[k];
      WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent,
                       !Contains(std::span(entry.shared).first(k), holder),
                       "txn " + std::to_string(holder) +
                           " is listed twice as a shared holder of item " +
                           std::to_string(item));
      AuditGrant(item, holder, LockMode::kShared, lookup);
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kLockTableConsistent, locked == locked_items_,
                   "lock table has " + std::to_string(locked) +
                       " locked items but counts " +
                       std::to_string(locked_items_));
}

}  // namespace webdb
