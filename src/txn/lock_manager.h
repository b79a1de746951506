// 2PL-HP lock manager (Two Phase Locking - High Priority, Abbott &
// Garcia-Molina), specialized for the paper's workload: read-only queries
// acquire shared locks on their whole item set at dispatch; blind updates
// acquire one exclusive lock.
//
// Conflict *detection* lives here; conflict *resolution* (restarting the
// lower-priority holder, dropping the older update) is driven by the server,
// which knows the schedulers' current priorities. With a single CPU, a
// conflict can only involve the transaction being dispatched and
// transactions that were preempted while holding locks.
//
// Item ids are dense (0..num_items-1), so the table is a flat per-item
// array: an exclusive holder plus a shared-holder vector that keeps its
// capacity across releases, so steady-state locking never allocates. There
// is no per-transaction index: callers pass a transaction's lock set
// (LockSet below) to Release and Holds.

#ifndef WEBDB_TXN_LOCK_MANAGER_H_
#define WEBDB_TXN_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "db/data_item.h"
#include "txn/transaction.h"

namespace webdb {

enum class LockMode { kShared, kExclusive };

// The items `txn` locks under 2PL-HP, and in which mode: a query read-locks
// its whole item set, an update write-locks its single item.
inline std::span<const ItemId> LockSet(const Transaction& txn) {
  if (txn.kind == TxnKind::kQuery) return static_cast<const Query&>(txn).items;
  return {&static_cast<const Update&>(txn).item, 1};
}
inline LockMode LockModeOf(const Transaction& txn) {
  return txn.kind == TxnKind::kQuery ? LockMode::kShared : LockMode::kExclusive;
}

class LockManager {
 public:
  // An empty table over items 0..num_items-1.
  explicit LockManager(int32_t num_items);

  // Fills `out` with the transactions (other than `txn`) whose current
  // locks conflict with `txn` locking `items` in `mode`: sorted ascending,
  // duplicates removed, previous contents discarded. `out` is the caller's
  // and keeps its capacity, so a warm buffer makes the call allocate
  // nothing.
  void Conflicts(TxnId txn, LockMode mode, std::span<const ItemId> items,
                 std::vector<TxnId>* out) const;

  // Acquires locks on `items` in `mode`. All conflicts must have been
  // resolved (checked). Re-entrant acquisition by the same holder is a no-op
  // per item.
  void Acquire(TxnId txn, LockMode mode, std::span<const ItemId> items);

  // Releases `txn`'s locks on `items` — its lock set, on commit, restart or
  // abort. Items it does not hold are skipped.
  void Release(TxnId txn, std::span<const ItemId> items);

  // True when `txn` holds a lock on any of `items`.
  bool Holds(TxnId txn, std::span<const ItemId> items) const;

  // Exclusive holder of `item`, or 0.
  TxnId ExclusiveHolder(ItemId item) const { return Entry(item).exclusive; }
  // Shared holders of `item` (order unspecified); valid until the next
  // Acquire or Release.
  std::span<const TxnId> SharedHolders(ItemId item) const {
    return Entry(item).shared;
  }

  // Items with at least one holder.
  size_t NumLockedItems() const { return locked_items_; }

  // Resolves a holder id to its transaction (nullptr when unknown).
  using TxnLookup = std::function<const Transaction*(TxnId)>;

  // Deep consistency audit (invariant [lock-table-consistent], DESIGN.md
  // §8), a walk of the whole table: no item carries shared and exclusive
  // holders at once (2PL-HP resolves every conflict before Acquire), no
  // shared holder is listed twice, the locked-item count is exact, and
  // every grant belongs to a queued (preempted) or running transaction
  // whose lock set contains the item in that mode — so a finished
  // transaction's leftover lock fails. Aborts on violation. O(items +
  // grants); compiled in every build, run by
  // WebDatabaseServer::AuditInvariants and directly by tests.
  void AuditConsistency(const TxnLookup& lookup) const;

 private:
  struct ItemLocks {
    TxnId exclusive = 0;
    std::vector<TxnId> shared;
    bool Empty() const { return exclusive == 0 && shared.empty(); }
  };

  const ItemLocks& Entry(ItemId item) const;
  ItemLocks& Entry(ItemId item);

  std::vector<ItemLocks> table_;  // index = item id
  size_t locked_items_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_TXN_LOCK_MANAGER_H_
