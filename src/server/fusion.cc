#include "server/fusion.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "audit/invariant_auditor.h"
#include "db/database.h"
#include "util/logging.h"

namespace webdb {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

// A query's items, sorted, in a fixed stack buffer: every query that
// reaches the fusion layer is within the item bound.
struct SortedItems {
  explicit SortedItems(std::span<const ItemId> items) : size(items.size()) {
    WEBDB_CHECK(size <= static_cast<size_t>(kMaxFusionItems));
    std::copy(items.begin(), items.end(), buffer);
    std::sort(buffer, buffer + size);
  }
  const ItemId* begin() const { return buffer; }
  const ItemId* end() const { return buffer + size; }

  ItemId buffer[kMaxFusionItems];
  size_t size;
};

bool SameMultiset(std::span<const ItemId> a, std::span<const ItemId> b) {
  if (a.size() != b.size()) return false;
  if (std::equal(a.begin(), a.end(), b.begin())) return true;
  const SortedItems sorted_a(a);
  const SortedItems sorted_b(b);
  return std::equal(sorted_a.begin(), sorted_a.end(), sorted_b.begin());
}

// Exact-match compatibility behind the signature: same service class and
// same item multiset. The signature is a fast filter; this is the truth.
bool ExactCompatible(const Query& a, const Query& b) {
  return ServiceClassOf(a.type) == ServiceClassOf(b.type) &&
         SameMultiset(a.items, b.items);
}

bool IsSubsetJoiner(const Query& query) {
  return query.items.size() == 1 &&
         ServiceClassOf(query.type) == ServiceClass::kInteractive;
}

// The row for `item`, grown on first use.
template <typename T>
std::vector<T>& GrowRow(std::vector<std::vector<T>>& rows, ItemId item) {
  const auto index = static_cast<size_t>(item);
  if (index >= rows.size()) rows.resize(index + 1);
  return rows[index];
}

// The row for `item`, or nullptr when it never grew that far.
template <typename T>
const std::vector<T>* FindRow(const std::vector<std::vector<T>>& rows,
                              ItemId item) {
  const auto index = static_cast<size_t>(item);
  return index < rows.size() ? &rows[index] : nullptr;
}

}  // namespace

// --- FusionIndex -------------------------------------------------------------

uint64_t FusionIndex::Signature(const Query& query) {
  uint64_t hash = kFnvOffset;
  hash = MixU64(hash, static_cast<uint64_t>(ServiceClassOf(query.type)));
  for (ItemId item : SortedItems(query.items)) {
    hash = MixU64(hash, static_cast<uint64_t>(item) + 1);
  }
  return hash;
}

void FusionIndex::Insert(Query* query) {
  WEBDB_CHECK(query != nullptr && !query->items.empty());
  WEBDB_CHECK(query->items.size() <= static_cast<size_t>(kMaxFusionItems));
  // Double-indexing would double-count size_ and leave a dangling id in
  // whichever bucket Remove cleans second; refuse loudly instead.
  WEBDB_CHECK(!Contains(*query));
  const uint64_t sig = query->fusion_signature;
  int32_t bucket = bucket_of_.Find(sig);
  if (bucket == SignatureTable::kAbsent) {
    if (free_buckets_.empty()) {
      bucket = static_cast<int32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      bucket = free_buckets_.back();
      free_buckets_.pop_back();
    }
    buckets_[static_cast<size_t>(bucket)].signature = sig;
    bucket_of_.Insert(sig, bucket);
  }
  buckets_[static_cast<size_t>(bucket)].members.push_back({query->id, query});
  if (IsSubsetJoiner(*query)) {
    GrowRow(single_, query->items[0]).push_back(query->id);
  }
  ++size_;
}

void FusionIndex::Remove(const Query& query) {
  // Symmetrically idempotent: each side erases its entry iff present, so
  // every dequeue path may call this untracked and a repeated Remove is a
  // no-op on both tables. size_ follows the bucket side, which holds one
  // member per indexed query.
  const int32_t bucket_index = bucket_of_.Find(query.fusion_signature);
  if (bucket_index != SignatureTable::kAbsent) {
    Bucket& bucket = buckets_[static_cast<size_t>(bucket_index)];
    const auto member = std::find_if(
        bucket.members.begin(), bucket.members.end(),
        [&](const Member& m) { return m.id == query.id; });
    if (member != bucket.members.end()) {
      bucket.members.erase(member);
      --size_;
      if (bucket.members.empty()) {
        bucket_of_.Erase(bucket.signature);
        free_buckets_.push_back(bucket_index);
      }
    }
  }
  if (IsSubsetJoiner(query)) {
    const auto index = static_cast<size_t>(query.items[0]);
    if (index >= single_.size()) return;
    // Order-preserving: row order is subset-candidate order.
    std::vector<TxnId>& row = single_[index];
    const auto it = std::find(row.begin(), row.end(), query.id);
    if (it != row.end()) row.erase(it);
  }
}

bool FusionIndex::Contains(const Query& query) const {
  const int32_t bucket = bucket_of_.Find(query.fusion_signature);
  if (bucket == SignatureTable::kAbsent) return false;
  for (const Member& member : buckets_[static_cast<size_t>(bucket)].members) {
    if (member.id == query.id) return true;
  }
  return false;
}

void FusionIndex::CollectCandidates(const Query& leader, int max_members,
                                    std::vector<TxnId>* out) {
  if (max_members <= 0) return;
  // "Already collected" membership: linear scan of `out` while it is small
  // (the common case — groups of a handful), the flat taken_ set once it
  // grows past kLinearTakenScan. The set is membership-only — never
  // iterated — so determinism is untouched.
  constexpr size_t kLinearTakenScan = 16;
  taken_.Clear();
  bool use_set = out->size() > kLinearTakenScan;
  if (use_set) {
    for (TxnId id : *out) {
      if (taken_.Find(id) == SignatureTable::kAbsent) taken_.Insert(id, 0);
    }
  }
  const auto taken = [&](TxnId id) {
    if (id == leader.id) return true;
    if (use_set) return taken_.Find(id) != SignatureTable::kAbsent;
    return std::find(out->begin(), out->end(), id) != out->end();
  };
  const auto take = [&](TxnId id) {
    out->push_back(id);
    if (!use_set && out->size() > kLinearTakenScan) {
      use_set = true;
      for (TxnId collected : *out) {
        if (taken_.Find(collected) == SignatureTable::kAbsent) {
          taken_.Insert(collected, 0);
        }
      }
    } else if (use_set) {
      taken_.Insert(id, 0);
    }
  };

  const int32_t bucket = bucket_of_.Find(leader.fusion_signature);
  if (bucket != SignatureTable::kAbsent) {
    for (const Member& member :
         buckets_[static_cast<size_t>(bucket)].members) {
      if (static_cast<int>(out->size()) >= max_members) return;
      if (taken(member.id) || !ExactCompatible(leader, *member.query)) {
        continue;
      }
      take(member.id);
    }
  }
  // Subset pass in the leader's own item order: a lookup on item X joins
  // because the covering scan reads X anyway. A repeated leader item scans
  // its row once (first occurrence wins; a rescan could only find
  // candidates already taken).
  for (size_t i = 0; i < leader.items.size(); ++i) {
    const ItemId item = leader.items[i];
    if (std::find(leader.items.begin(), leader.items.begin() + i, item) !=
        leader.items.begin() + i) {
      continue;
    }
    const std::vector<TxnId>* row = FindRow(single_, item);
    if (row == nullptr) continue;
    for (TxnId id : *row) {
      if (static_cast<int>(out->size()) >= max_members) return;
      if (taken(id)) continue;
      take(id);
    }
  }
}

void FusionIndex::AuditConsistency() const {
  using audit::Invariant;
  int64_t members = 0;
  size_t live_buckets = 0;
  size_t joiners = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    if (bucket.members.empty()) continue;
    ++live_buckets;
    const std::string which =
        "fusion bucket " + std::to_string(bucket.signature);
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                     bucket_of_.Find(bucket.signature) ==
                         static_cast<int32_t>(b),
                     which + " is not where the signature table points");
    for (const Member& member : bucket.members) {
      ++members;
      const Query& query = *member.query;
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                       query.id == member.id &&
                           query.fusion_signature == bucket.signature,
                       which + " holds query " + std::to_string(member.id) +
                           " of another signature");
      if (!IsSubsetJoiner(query)) continue;
      ++joiners;
      const std::vector<TxnId>* row = FindRow(single_, query.items[0]);
      WEBDB_AUDIT_THAT(
          Invariant::kFusionGroup,
          row != nullptr &&
              std::count(row->begin(), row->end(), member.id) == 1,
          "subset joiner " + std::to_string(member.id) +
              " is not listed once in its item row");
    }
  }
  size_t row_entries = 0;
  for (const std::vector<TxnId>& row : single_) row_entries += row.size();
  WEBDB_AUDIT_THAT(Invariant::kFusionGroup, row_entries == joiners,
                   "item rows hold " + std::to_string(row_entries) +
                       " lookups but the buckets " + std::to_string(joiners));
  WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                   live_buckets == bucket_of_.Size() &&
                       live_buckets + free_buckets_.size() == buckets_.size(),
                   "signature table, live and free buckets disagree");
  WEBDB_AUDIT_THAT(Invariant::kFusionGroup, members == size_,
                   "fusion index holds " + std::to_string(members) +
                       " queries but counts " + std::to_string(size_));
}

// --- FusionResultCache -------------------------------------------------------

void FusionResultCache::Fill(const Query& query, const FusionResult* result,
                             SimTime now, SimDuration ttl, const Database& db) {
  WEBDB_CHECK(result != nullptr && !query.items.empty());
  const uint64_t sig = query.fusion_signature;
  const int32_t existing = slot_of_.Find(sig);
  if (existing != SignatureTable::kAbsent) EraseSlot(existing);

  int32_t slot_index;
  if (free_slots_.empty()) {
    slot_index = static_cast<int32_t>(slots_.size());
    // Sized once for any shape within the item bound, so a recycled slot
    // never grows.
    Entry& fresh = slots_.emplace_back().entry;
    fresh.sorted_items.reserve(kMaxFusionItems);
    fresh.arrival_seqs.reserve(kMaxFusionItems);
    fresh.applied_seqs.reserve(kMaxFusionItems);
  } else {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  slot.live = true;
  Entry& entry = slot.entry;
  entry.source = query.id;
  entry.signature = sig;
  entry.result = result;
  entry.service_class = ServiceClassOf(query.type);
  const SortedItems sorted(query.items);
  entry.sorted_items.assign(sorted.begin(), sorted.end());
  entry.commit_time = now;
  entry.expiry = now + ttl;
  entry.arrival_seqs.clear();
  entry.applied_seqs.clear();
  for (ItemId item : entry.sorted_items) {
    const DataItem& data = db.Item(item);
    entry.arrival_seqs.push_back(data.arrival_seq);
    entry.applied_seqs.push_back(data.applied_seq);
  }
  // Reverse-index rows, one per distinct item (sorted_items may carry
  // duplicates; EraseSlot skips them the same way).
  ItemId prev = kInvalidItem;
  for (ItemId item : entry.sorted_items) {
    if (item == prev) continue;
    prev = item;
    GrowRow(by_item_, item).push_back(slot_index);
  }
  slot_of_.Insert(sig, slot_index);
}

const FusionResultCache::Entry* FusionResultCache::Lookup(const Query& query,
                                                          SimTime now) {
  // Exact shape first: same signature, verified by class + item multiset
  // (the signature is a fast filter, the compare is the truth).
  const int32_t exact = slot_of_.Find(query.fusion_signature);
  if (exact != SignatureTable::kAbsent) {
    const Entry& entry = slots_[static_cast<size_t>(exact)].entry;
    if (entry.service_class == ServiceClassOf(query.type) &&
        entry.sorted_items.size() == query.items.size()) {
      const SortedItems sorted(query.items);
      if (std::equal(sorted.begin(), sorted.end(),
                     entry.sorted_items.begin())) {
        // TTL is inclusive: a lookup exactly at expiry still hits.
        if (now <= entry.expiry) return &entry;
        EraseSlot(exact);
      }
    }
  }
  if (!IsSubsetJoiner(query)) return nullptr;
  const std::vector<int32_t>* row = FindRow(by_item_, query.items[0]);
  if (row == nullptr || row->empty()) return nullptr;
  // Reap expired covering entries and pick the freshest survivor (ties
  // broken by lowest signature — a total, host-independent order, so the
  // row's order never reaches the answer). Reaping edits the row, so walk
  // a copy.
  row_scratch_.assign(row->begin(), row->end());
  const Entry* best = nullptr;
  for (int32_t s : row_scratch_) {
    const Entry& entry = slots_[static_cast<size_t>(s)].entry;
    if (now > entry.expiry) {
      EraseSlot(s);
      continue;
    }
    if (best == nullptr || entry.commit_time > best->commit_time ||
        (entry.commit_time == best->commit_time &&
         entry.signature < best->signature)) {
      best = &entry;
    }
  }
  return best;
}

void FusionResultCache::InvalidateItem(ItemId item) {
  const auto index = static_cast<size_t>(item);
  if (index >= by_item_.size()) return;
  // The whole row goes; EraseSlot takes each entry out of this row too.
  std::vector<int32_t>& row = by_item_[index];
  while (!row.empty()) EraseSlot(row.back());
}

void FusionResultCache::EraseSlot(int32_t slot_index) {
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  WEBDB_CHECK(slot.live);
  ItemId prev = kInvalidItem;
  for (ItemId item : slot.entry.sorted_items) {
    if (item == prev) continue;
    prev = item;
    std::vector<int32_t>& row = by_item_[static_cast<size_t>(item)];
    const auto it = std::find(row.begin(), row.end(), slot_index);
    WEBDB_CHECK(it != row.end());
    // Row order carries no meaning: swap-remove.
    *it = row.back();
    row.pop_back();
  }
  WEBDB_CHECK(slot_of_.Erase(slot.entry.signature));
  slot.live = false;
  slot.entry.result = nullptr;
  free_slots_.push_back(slot_index);
}

void FusionResultCache::AuditConsistency() const {
  using audit::Invariant;
  size_t live = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    if (!slot.live) continue;
    ++live;
    const Entry& entry = slot.entry;
    const std::string which =
        "cache entry " + std::to_string(entry.signature);
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     slot_of_.Find(entry.signature) == static_cast<int32_t>(s),
                     which + " is not where the signature table points");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     std::is_sorted(entry.sorted_items.begin(),
                                    entry.sorted_items.end()),
                     which + " item set is not sorted");
    ItemId prev = kInvalidItem;
    for (ItemId item : entry.sorted_items) {
      if (item == prev) continue;
      prev = item;
      const std::vector<int32_t>* row = FindRow(by_item_, item);
      WEBDB_AUDIT_THAT(
          Invariant::kFusionCache,
          row != nullptr && std::count(row->begin(), row->end(),
                                       static_cast<int32_t>(s)) == 1,
          which + " is not listed once in the row of item " +
              std::to_string(item));
    }
  }
  for (size_t i = 0; i < by_item_.size(); ++i) {
    for (int32_t s : by_item_[i]) {
      const bool covers =
          s >= 0 && static_cast<size_t>(s) < slots_.size() &&
          slots_[static_cast<size_t>(s)].live &&
          std::binary_search(
              slots_[static_cast<size_t>(s)].entry.sorted_items.begin(),
              slots_[static_cast<size_t>(s)].entry.sorted_items.end(),
              static_cast<ItemId>(i));
      WEBDB_AUDIT_THAT(Invariant::kFusionCache, covers,
                       "row of item " + std::to_string(i) +
                           " lists a slot that does not cover it");
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                   live == slot_of_.Size() &&
                       live + free_slots_.size() == slots_.size(),
                   "signature table, live and free slots disagree");
}

}  // namespace webdb
