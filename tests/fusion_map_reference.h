// Reference shared-execution tables for differential tests: FusionIndex and
// FusionResultCache written the direct way, on std::map. Every lookup
// recomputes the query's FNV-1a signature from a freshly sorted copy of its
// items, buckets and reverse indexes are map nodes, and the cache walks its
// rows through copies. It is slow but easy to read, which is what makes it
// an oracle: server/fusion.cc must make exactly the decisions these classes
// make — same candidates in the same order, same cache hits, same entries
// filled, reaped and invalidated.

#ifndef WEBDB_TESTS_FUSION_MAP_REFERENCE_H_
#define WEBDB_TESTS_FUSION_MAP_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "db/database.h"
#include "txn/transaction.h"
#include "util/logging.h"
#include "util/time.h"

namespace webdb {

namespace map_reference {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t MixU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

inline std::vector<ItemId> SortedItems(const Query& query) {
  std::vector<ItemId> items(query.items.begin(), query.items.end());
  std::sort(items.begin(), items.end());
  return items;
}

inline bool ExactCompatible(const Query& a, const Query& b) {
  if (ServiceClassOf(a.type) != ServiceClassOf(b.type)) return false;
  if (a.items.size() != b.items.size()) return false;
  return SortedItems(a) == SortedItems(b);
}

inline bool IsSubsetJoiner(const Query& query) {
  return query.items.size() == 1 &&
         ServiceClassOf(query.type) == ServiceClass::kInteractive;
}

inline uint64_t Signature(const Query& query) {
  uint64_t hash = kFnvOffset;
  hash = MixU64(hash, static_cast<uint64_t>(ServiceClassOf(query.type)));
  for (ItemId item : SortedItems(query)) {
    hash = MixU64(hash, static_cast<uint64_t>(item) + 1);
  }
  return hash;
}

}  // namespace map_reference

class MapFusionIndex {
 public:
  void Insert(const Query* query) {
    WEBDB_CHECK(query != nullptr && !query->items.empty());
    WEBDB_CHECK(!Contains(*query));
    exact_[map_reference::Signature(*query)].emplace_back(query->id, query);
    if (map_reference::IsSubsetJoiner(*query)) {
      single_[query->items[0]].push_back(query->id);
    }
    ++size_;
  }

  void Remove(const Query& query) {
    bool was_indexed = false;
    const auto it = exact_.find(map_reference::Signature(query));
    if (it != exact_.end()) {
      auto& entries = it->second;
      const auto entry = std::find_if(
          entries.begin(), entries.end(),
          [&](const std::pair<TxnId, const Query*>& e) {
            return e.first == query.id;
          });
      if (entry != entries.end()) {
        was_indexed = true;
        entries.erase(entry);
        if (entries.empty()) exact_.erase(it);
      }
    }
    if (map_reference::IsSubsetJoiner(query)) {
      const auto single_it = single_.find(query.items[0]);
      if (single_it != single_.end()) {
        auto& ids = single_it->second;
        const auto id_it = std::find(ids.begin(), ids.end(), query.id);
        if (id_it != ids.end()) {
          ids.erase(id_it);
          if (ids.empty()) single_.erase(single_it);
        }
      }
    }
    if (was_indexed) --size_;
  }

  bool Contains(const Query& query) const {
    const auto it = exact_.find(map_reference::Signature(query));
    if (it == exact_.end()) return false;
    for (const auto& [id, entry] : it->second) {
      if (id == query.id) return true;
    }
    return false;
  }

  void CollectCandidates(const Query& leader, int max_members,
                         std::vector<TxnId>* out) const {
    if (max_members <= 0) return;
    constexpr size_t kLinearTakenScan = 16;
    std::unordered_set<TxnId> taken_set;
    bool use_set = out->size() > kLinearTakenScan;
    if (use_set) taken_set.insert(out->begin(), out->end());
    const auto taken = [&](TxnId id) {
      if (id == leader.id) return true;
      if (use_set) return taken_set.contains(id);
      return std::find(out->begin(), out->end(), id) != out->end();
    };
    const auto take = [&](TxnId id) {
      out->push_back(id);
      if (!use_set && out->size() > kLinearTakenScan) {
        use_set = true;
        taken_set.insert(out->begin(), out->end());
      } else if (use_set) {
        taken_set.insert(id);
      }
    };

    const auto exact_it = exact_.find(map_reference::Signature(leader));
    if (exact_it != exact_.end()) {
      for (const auto& [id, candidate] : exact_it->second) {
        if (static_cast<int>(out->size()) >= max_members) return;
        if (taken(id) ||
            !map_reference::ExactCompatible(leader, *candidate)) {
          continue;
        }
        take(id);
      }
    }
    for (size_t i = 0; i < leader.items.size(); ++i) {
      const ItemId item = leader.items[i];
      bool duplicate = false;
      for (size_t j = 0; j < i; ++j) {
        if (leader.items[j] == item) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      const auto single_it = single_.find(item);
      if (single_it == single_.end()) continue;
      for (TxnId id : single_it->second) {
        if (static_cast<int>(out->size()) >= max_members) return;
        if (taken(id)) continue;
        take(id);
      }
    }
  }

  int64_t Size() const { return size_; }

 private:
  std::map<uint64_t, std::vector<std::pair<TxnId, const Query*>>> exact_;
  std::map<ItemId, std::vector<TxnId>> single_;
  int64_t size_ = 0;
};

class MapFusionResultCache {
 public:
  struct Entry {
    TxnId source = 0;
    uint64_t signature = 0;
    const FusionResult* result = nullptr;
    ServiceClass service_class = ServiceClass::kInteractive;
    std::vector<ItemId> sorted_items;
    SimTime commit_time = 0;
    SimTime expiry = 0;
    std::vector<uint64_t> arrival_seqs;
    std::vector<uint64_t> applied_seqs;
  };

  void Fill(const Query& query, const FusionResult* result, SimTime now,
            SimDuration ttl, const Database& db) {
    WEBDB_CHECK(result != nullptr && !query.items.empty());
    const uint64_t sig = map_reference::Signature(query);
    const auto existing = entries_.find(sig);
    if (existing != entries_.end()) EraseEntry(existing);

    Entry entry;
    entry.source = query.id;
    entry.signature = sig;
    entry.result = result;
    entry.service_class = ServiceClassOf(query.type);
    entry.sorted_items = map_reference::SortedItems(query);
    entry.commit_time = now;
    entry.expiry = now + ttl;
    for (ItemId item : entry.sorted_items) {
      const DataItem& data = db.Item(item);
      entry.arrival_seqs.push_back(data.arrival_seq);
      entry.applied_seqs.push_back(data.applied_seq);
    }
    ItemId prev = kInvalidItem;
    for (ItemId item : entry.sorted_items) {
      if (item == prev) continue;
      prev = item;
      by_item_[item].push_back(sig);
    }
    entries_[sig] = std::move(entry);
  }

  const Entry* Lookup(const Query& query, SimTime now) {
    const uint64_t sig = map_reference::Signature(query);
    const auto it = entries_.find(sig);
    if (it != entries_.end() &&
        it->second.service_class == ServiceClassOf(query.type) &&
        it->second.sorted_items == map_reference::SortedItems(query)) {
      if (now <= it->second.expiry) return &it->second;
      EraseEntry(it);
    }
    if (!map_reference::IsSubsetJoiner(query)) return nullptr;
    const auto row = by_item_.find(query.items[0]);
    if (row == by_item_.end()) return nullptr;
    const std::vector<uint64_t> sigs = row->second;  // copy: EraseEntry edits
    for (uint64_t s : sigs) {
      const auto e = entries_.find(s);
      if (e != entries_.end() && now > e->second.expiry) EraseEntry(e);
    }
    const auto live_row = by_item_.find(query.items[0]);
    if (live_row == by_item_.end()) return nullptr;
    const Entry* best = nullptr;
    uint64_t best_sig = 0;
    for (uint64_t s : live_row->second) {
      const auto e = entries_.find(s);
      WEBDB_CHECK(e != entries_.end());
      const Entry& entry = e->second;
      if (best == nullptr || entry.commit_time > best->commit_time ||
          (entry.commit_time == best->commit_time && s < best_sig)) {
        best = &entry;
        best_sig = s;
      }
    }
    return best;
  }

  void InvalidateItem(ItemId item) {
    const auto row = by_item_.find(item);
    if (row == by_item_.end()) return;
    const std::vector<uint64_t> sigs = row->second;  // copy: EraseEntry edits
    for (uint64_t sig : sigs) {
      const auto it = entries_.find(sig);
      WEBDB_CHECK(it != entries_.end());
      EraseEntry(it);
    }
  }

  int64_t Size() const { return static_cast<int64_t>(entries_.size()); }

  template <typename Visitor>
  void ForEachEntry(Visitor&& visit) const {
    for (const auto& [sig, entry] : entries_) visit(entry);
  }

 private:
  void EraseEntry(std::map<uint64_t, Entry>::iterator it) {
    const uint64_t sig = it->first;
    ItemId prev = kInvalidItem;
    for (ItemId item : it->second.sorted_items) {
      if (item == prev) continue;
      prev = item;
      const auto row = by_item_.find(item);
      WEBDB_CHECK(row != by_item_.end());
      auto& sigs = row->second;
      const auto sig_it = std::find(sigs.begin(), sigs.end(), sig);
      WEBDB_CHECK(sig_it != sigs.end());
      sigs.erase(sig_it);
      if (sigs.empty()) by_item_.erase(row);
    }
    entries_.erase(it);
  }

  std::map<uint64_t, Entry> entries_;
  std::map<ItemId, std::vector<uint64_t>> by_item_;
};

}  // namespace webdb

#endif  // WEBDB_TESTS_FUSION_MAP_REFERENCE_H_
