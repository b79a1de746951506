// The flat shared-execution layer against its oracles (DESIGN.md §9, "Flat
// shared-execution tables").
//
// SignatureTable half: the open-addressing table must answer exactly as a
// std::map under random insert, erase and find — including keys forced onto
// one home slot and probe runs that wrap past the end of the array, where
// backward-shift deletion is easiest to get wrong.
//
// Differential half: FusionIndex and FusionResultCache are driven side by
// side with the std::map reference in tests/fusion_map_reference.h over
// random operation streams, and must agree after every step on candidate
// lists, cache answers, sizes, membership and the full set of live cache
// entries.
//
// Allocation half: once a repeated workload has grown every pooled buffer,
// indexing, collecting, filling, looking up and invalidating allocate
// nothing (counted by the process-wide operator new in alloc_counter.h, as
// the event-core guards in hot_path_test.cc are).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "db/database.h"
#include "fusion_map_reference.h"
#include "server/fusion.h"
#include "server/signature_table.h"
#include "test_txns.h"
#include "util/rng.h"

namespace webdb {
namespace {

// --- SignatureTable ----------------------------------------------------------

// Keys whose probe starts at `home` in a table of `capacity` slots.
std::vector<uint64_t> KeysHomedAt(size_t home, size_t capacity, int count,
                                  uint64_t seed) {
  std::vector<uint64_t> keys;
  Rng rng(seed);
  while (static_cast<int>(keys.size()) < count) {
    const uint64_t key = rng.NextU64();
    if (SignatureTable::HomeSlot(key, capacity) == home) keys.push_back(key);
  }
  return keys;
}

void ExpectSameAs(const SignatureTable& table,
                  const std::map<uint64_t, int32_t>& oracle,
                  const std::vector<uint64_t>& universe) {
  ASSERT_EQ(table.Size(), oracle.size());
  for (uint64_t key : universe) {
    const auto it = oracle.find(key);
    EXPECT_EQ(table.Find(key),
              it == oracle.end() ? SignatureTable::kAbsent : it->second)
        << "key " << key;
  }
}

TEST(SignatureTableTest, EmptyTableFindsAndErasesNothing) {
  SignatureTable table;
  EXPECT_EQ(table.Find(7), SignatureTable::kAbsent);
  EXPECT_FALSE(table.Erase(7));
  EXPECT_EQ(table.Size(), 0u);
  table.Clear();
  EXPECT_EQ(table.Capacity(), 0u);
}

TEST(SignatureTableTest, ProbeRunWrappingPastTheEndSurvivesErases) {
  // Capacity stays at 16 while at most 8 keys live. Three keys homed at the
  // last slot fill 15, 0 and 1; a key homed at 0 is pushed to 2. Erasing
  // the middle of the wrapped run must pull the later keys back across the
  // array's end, and must leave a key already at its home slot alone.
  SignatureTable table;
  const std::vector<uint64_t> last = KeysHomedAt(15, 16, 3, 1);
  const std::vector<uint64_t> first = KeysHomedAt(0, 16, 1, 2);
  const std::vector<uint64_t> universe = {last[0], last[1], last[2],
                                          first[0]};
  for (int erased = 0; erased < 4; ++erased) {
    SignatureTable t;
    std::map<uint64_t, int32_t> oracle;
    for (size_t i = 0; i < universe.size(); ++i) {
      t.Insert(universe[i], static_cast<int32_t>(i));
      oracle[universe[i]] = static_cast<int32_t>(i);
    }
    ASSERT_EQ(t.Capacity(), 16u);
    EXPECT_TRUE(t.Erase(universe[static_cast<size_t>(erased)]));
    oracle.erase(universe[static_cast<size_t>(erased)]);
    ExpectSameAs(t, oracle, universe);
  }
  // A hole at the end with a home-0 key just after the wrap: the home-0 key
  // stays put (moving it before its home would hide it).
  const std::vector<uint64_t> lone_last = KeysHomedAt(15, 16, 1, 3);
  const std::vector<uint64_t> at_zero = KeysHomedAt(0, 16, 2, 4);
  table.Insert(lone_last[0], 1);
  table.Insert(at_zero[0], 2);
  table.Insert(at_zero[1], 3);
  EXPECT_TRUE(table.Erase(lone_last[0]));
  EXPECT_EQ(table.Find(at_zero[0]), 2);
  EXPECT_EQ(table.Find(at_zero[1]), 3);
  EXPECT_EQ(table.Find(lone_last[0]), SignatureTable::kAbsent);
}

TEST(SignatureTableTest, MatchesStdMapUnderRandomInsertEraseFind) {
  Rng rng(2007);
  for (int round = 0; round < 40; ++round) {
    // Universes of every flavour: keys all homed at one slot, keys clustered
    // around the end of a 16-slot array, and plain random keys (which drive
    // growth through several capacities).
    std::vector<uint64_t> universe;
    switch (round % 3) {
      case 0:
        universe = KeysHomedAt(static_cast<size_t>(rng.UniformInt(0, 15)), 16,
                               8, rng.NextU64());
        break;
      case 1:
        for (size_t home : {13u, 14u, 15u, 0u, 1u}) {
          const std::vector<uint64_t> keys =
              KeysHomedAt(home, 16, 2, rng.NextU64());
          universe.insert(universe.end(), keys.begin(), keys.end());
        }
        break;
      default:
        universe.reserve(300);
        for (int i = 0; i < 300; ++i) universe.push_back(rng.NextU64());
        break;
    }
    SignatureTable table;
    std::map<uint64_t, int32_t> oracle;
    for (int step = 0; step < 2000; ++step) {
      const uint64_t key = universe[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
      const int64_t op = rng.UniformInt(0, 9);
      // Small universes stay within one 16-slot array: at most 8 live keys.
      const bool may_grow = universe.size() > 16 || oracle.size() < 8;
      if (op < 5 && !oracle.contains(key) && may_grow) {
        const auto value = static_cast<int32_t>(rng.UniformInt(0, 1000));
        table.Insert(key, value);
        oracle[key] = value;
      } else if (op < 8) {
        EXPECT_EQ(table.Erase(key), oracle.erase(key) == 1);
      } else if (op == 8) {
        const auto it = oracle.find(key);
        EXPECT_EQ(table.Find(key),
                  it == oracle.end() ? SignatureTable::kAbsent : it->second);
      } else if (rng.Bernoulli(0.02)) {
        const size_t capacity = table.Capacity();
        table.Clear();
        oracle.clear();
        EXPECT_EQ(table.Capacity(), capacity);
      }
      if (step % 50 == 0 || universe.size() <= 16) {
        ExpectSameAs(table, oracle, universe);
      }
    }
    ExpectSameAs(table, oracle, universe);
  }
}

// --- flat layer vs the std::map reference -----------------------------------

constexpr ItemId kMaxItem = 4095;

// A query as the server would build it: the signature is set once, at
// "submission". `item_sets` keeps its items.
Query MakeQuery(ItemSets& item_sets, uint64_t index, QueryType type,
                std::vector<ItemId> items) {
  Query query;
  query.id = QueryTxnId(index);
  query.kind = TxnKind::kQuery;
  query.state = TxnState::kQueued;
  query.type = type;
  query.items = item_sets.Keep(std::move(items));
  query.fusion_signature = FusionIndex::Signature(query);
  return query;
}

// Random query shapes biased toward collisions: a few hot items and hot
// multi-item shapes (drawn in shuffled orders, sometimes with repeats), a
// sparse cold tail up to item 4095, and every query type.
class ShapeSource {
 public:
  explicit ShapeSource(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 6; ++i) {
      hot_items_.push_back(static_cast<ItemId>(rng_.UniformInt(0, kMaxItem)));
    }
    for (int s = 0; s < 5; ++s) {
      std::vector<ItemId> shape;
      const int64_t size = rng_.UniformInt(2, 6);
      for (int64_t k = 0; k < size; ++k) shape.push_back(HotItem());
      hot_shapes_.push_back(shape);
    }
  }

  Rng& rng() { return rng_; }

  ItemId HotItem() {
    return hot_items_[static_cast<size_t>(rng_.UniformInt(0, 5))];
  }
  ItemId AnyItem() {
    return rng_.Bernoulli(0.6)
               ? HotItem()
               : static_cast<ItemId>(rng_.UniformInt(0, kMaxItem));
  }

  QueryType Type() {
    return static_cast<QueryType>(rng_.UniformInt(0, 3));
  }

  std::vector<ItemId> Items() {
    std::vector<ItemId> items;
    const int64_t pick = rng_.UniformInt(0, 9);
    if (pick < 4) {
      items = {AnyItem()};
    } else if (pick < 8) {
      items = hot_shapes_[static_cast<size_t>(rng_.UniformInt(0, 4))];
    } else {
      const int64_t size = rng_.UniformInt(2, kMaxFusionItems);
      for (int64_t k = 0; k < size; ++k) items.push_back(AnyItem());
    }
    // The same multiset in a different order.
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<size_t>(rng_.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    return items;
  }

  // Mostly interactive single-item lookups (the subset joiners), else any
  // type over any shape.
  std::pair<QueryType, std::vector<ItemId>> Shape() {
    if (rng_.Bernoulli(0.35)) {
      return {rng_.Bernoulli(0.5) ? QueryType::kLookup : QueryType::kComparison,
              {AnyItem()}};
    }
    return {Type(), Items()};
  }

 private:
  Rng rng_;
  std::vector<ItemId> hot_items_;
  std::vector<std::vector<ItemId>> hot_shapes_;
};

using EntryKey = std::tuple<uint64_t, TxnId, SimTime, SimTime,
                            std::vector<ItemId>, std::vector<uint64_t>,
                            std::vector<uint64_t>>;

template <typename Cache>
std::vector<EntryKey> LiveEntries(const Cache& cache) {
  std::vector<EntryKey> entries;
  cache.ForEachEntry([&](const auto& e) {
    entries.emplace_back(e.signature, e.source, e.commit_time, e.expiry,
                         e.sorted_items, e.arrival_seqs, e.applied_seqs);
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

// Drives one random operation stream through both implementations.
void RunDifferential(uint64_t seed, int steps) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  ShapeSource source(seed);
  Rng& rng = source.rng();
  Database db(kMaxItem + 1);

  ItemSets item_sets;
  std::deque<Query> queries;  // stable addresses for the index
  std::vector<bool> indexed;
  FusionIndex flat_index;
  MapFusionIndex map_index;
  FusionResultCache flat_cache;
  MapFusionResultCache map_cache;
  SimTime clock = 0;
  std::vector<SimTime> expiries;
  int64_t collected_past_switch = 0;
  int64_t subset_hits = 0;
  const FusionResult result;

  const auto new_query = [&]() -> Query& {
    auto [type, items] = source.Shape();
    queries.push_back(
        MakeQuery(item_sets, queries.size(), type, std::move(items)));
    indexed.push_back(false);
    return queries.back();
  };
  const auto any_query = [&]() -> size_t {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1));
  };
  for (int i = 0; i < 8; ++i) new_query();

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Mostly zero steps, so fills share commit times and ties are common.
    if (rng.Bernoulli(0.3)) clock += rng.UniformInt(1, Millis(5));
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 30) {
      // Insert a fresh query, or re-insert a removed one.
      size_t q = queries.size();
      if (rng.Bernoulli(0.3)) {
        q = any_query();
        if (indexed[q]) q = queries.size();
      }
      if (q == queries.size()) {
        new_query();
        q = queries.size() - 1;
      }
      flat_index.Insert(&queries[q]);
      map_index.Insert(&queries[q]);
      indexed[q] = true;
    } else if (op < 45) {
      // Remove: indexed, already removed, or never indexed.
      const size_t q = rng.Bernoulli(0.2) ? (new_query(), queries.size() - 1)
                                          : any_query();
      flat_index.Remove(queries[q]);
      map_index.Remove(queries[q]);
      indexed[q] = false;
    } else if (op < 60) {
      // Dispatch a leader: unindex it, then collect its group.
      const size_t q = rng.Bernoulli(0.3) ? (new_query(), queries.size() - 1)
                                          : any_query();
      flat_index.Remove(queries[q]);
      map_index.Remove(queries[q]);
      indexed[q] = false;
      const int max_members = rng.Bernoulli(0.5)
                                  ? kMaxFusionGroupSize
                                  : static_cast<int>(rng.UniformInt(1, 24));
      std::vector<TxnId> flat_out;
      std::vector<TxnId> map_out;
      flat_index.CollectCandidates(queries[q], max_members, &flat_out);
      map_index.CollectCandidates(queries[q], max_members, &map_out);
      ASSERT_EQ(flat_out, map_out);
      if (flat_out.size() > 16) ++collected_past_switch;
    } else if (op < 75) {
      // Fill: a committed scan's shape, maybe overwriting a live signature.
      const size_t q = rng.Bernoulli(0.5) ? (new_query(), queries.size() - 1)
                                          : any_query();
      const SimDuration ttl = rng.UniformInt(1, Millis(50));
      flat_cache.Fill(queries[q], &result, clock, ttl, db);
      map_cache.Fill(queries[q], &result, clock, ttl, db);
      expiries.push_back(clock + ttl);
    } else if (op < 90) {
      // Lookup now, or exactly at / one tick past a fill's expiry.
      if (!expiries.empty() && rng.Bernoulli(0.5)) {
        const SimTime expiry = expiries[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(expiries.size()) - 1))];
        clock = std::max(clock, expiry + (rng.Bernoulli(0.5) ? 0 : 1));
      }
      const Query& query = rng.Bernoulli(0.5) ? new_query()
                                              : queries[any_query()];
      const FusionResultCache::Entry* flat = flat_cache.Lookup(query, clock);
      const MapFusionResultCache::Entry* ref = map_cache.Lookup(query, clock);
      ASSERT_EQ(flat == nullptr, ref == nullptr);
      if (flat != nullptr) {
        EXPECT_EQ(flat->source, ref->source);
        EXPECT_EQ(flat->commit_time, ref->commit_time);
        EXPECT_EQ(flat->signature, ref->signature);
        if (flat->signature != query.fusion_signature) ++subset_hits;
      }
    } else {
      // Invalidate a hot item, a cold one, or one with no entry at all.
      const ItemId item = rng.Bernoulli(0.7)
                              ? source.AnyItem()
                              : static_cast<ItemId>(
                                    rng.UniformInt(0, kMaxItem));
      if (rng.Bernoulli(0.5)) db.RecordUpdateArrival(item, 1.0, clock);
      flat_cache.InvalidateItem(item);
      map_cache.InvalidateItem(item);
    }

    ASSERT_EQ(flat_index.Size(), map_index.Size());
    ASSERT_EQ(flat_cache.Size(), map_cache.Size());
    for (int probe = 0; probe < 4; ++probe) {
      const Query& query = queries[any_query()];
      ASSERT_EQ(flat_index.Contains(query), map_index.Contains(query));
    }
    ASSERT_EQ(LiveEntries(flat_cache), LiveEntries(map_cache));
    flat_index.AuditConsistency();
    flat_cache.AuditConsistency();
  }
  // The stream must have reached the paths it is meant to cover.
  EXPECT_GT(collected_past_switch, 0) << "no group outgrew the linear scan";
  EXPECT_GT(subset_hits, 0) << "no lookup was served by a covering entry";
}

TEST(FusionFlatDifferentialTest, MatchesMapReferenceOnRandomStreams) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RunDifferential(seed, 4000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FusionFlatDifferentialTest, EqualCommitTimesBreakTiesByLowestSignature) {
  // Three scans covering item 9 commit at the same instant; a lookup on 9
  // must get the lowest-signature one, on both sides.
  Database db(kMaxItem + 1);
  FusionResultCache flat;
  MapFusionResultCache ref;
  ItemSets item_sets;
  const std::vector<Query> scans = {
      MakeQuery(item_sets, 1, QueryType::kAggregation, {9, 4000}),
      MakeQuery(item_sets, 2, QueryType::kComparison, {9, 17, 3}),
      MakeQuery(item_sets, 3, QueryType::kMovingAverage, {2048, 9}),
  };
  const FusionResult result;
  for (const Query& scan : scans) {
    flat.Fill(scan, &result, Millis(10), Millis(50), db);
    ref.Fill(scan, &result, Millis(10), Millis(50), db);
  }
  const Query* lowest = &scans[0];
  for (const Query& scan : scans) {
    if (scan.fusion_signature < lowest->fusion_signature) lowest = &scan;
  }
  const Query lookup = MakeQuery(item_sets, 4, QueryType::kLookup, {9});
  const FusionResultCache::Entry* flat_hit = flat.Lookup(lookup, Millis(20));
  const MapFusionResultCache::Entry* ref_hit = ref.Lookup(lookup, Millis(20));
  ASSERT_NE(flat_hit, nullptr);
  ASSERT_NE(ref_hit, nullptr);
  EXPECT_EQ(flat_hit->source, lowest->id);
  EXPECT_EQ(ref_hit->source, lowest->id);

  // A later commit beats every lower signature.
  const Query newer =
      MakeQuery(item_sets, 5, QueryType::kAggregation, {9, 1});
  flat.Fill(newer, &result, Millis(11), Millis(50), db);
  EXPECT_EQ(flat.Lookup(lookup, Millis(20))->source, newer.id);
  flat.AuditConsistency();
}

// --- steady-state allocations ----------------------------------------------

TEST(FusionFlatAllocationTest, SteadyStateCallsAllocateNothing) {
  // One cycle: index a fixed query set, dispatch every seventh query as a
  // leader (its members leave the index), drain the index, fill the cache
  // with every third shape, look every query up, invalidate some items,
  // and let the rest expire and be reaped. Warm-up cycles grow the pooled
  // buckets, slots, rows and tables (free lists hand recycled buffers to
  // new shapes in a shifting order, so this takes a few dozen cycles);
  // after that a cycle allocates nothing.
  ShapeSource source(7);
  Database db(kMaxItem + 1);
  ItemSets item_sets;
  std::vector<Query> queries;
  for (uint64_t i = 0; i < 300; ++i) {
    auto [type, items] = source.Shape();
    queries.push_back(MakeQuery(item_sets, i, type, std::move(items)));
  }
  FusionIndex index;
  FusionResultCache cache;
  const FusionResult result;
  std::vector<TxnId> members;
  members.reserve(kMaxFusionGroupSize);
  SimTime clock = 0;
  int64_t large_groups = 0;
  int64_t hits = 0;
  const auto cycle = [&] {
    for (Query& query : queries) index.Insert(&query);
    for (size_t i = 0; i < queries.size(); i += 7) {
      index.Remove(queries[i]);
      members.clear();
      index.CollectCandidates(queries[i], kMaxFusionGroupSize, &members);
      if (members.size() > 16) ++large_groups;
      for (TxnId id : members) index.Remove(queries[TxnIndex(id)]);
    }
    for (const Query& query : queries) index.Remove(query);
    for (size_t i = 0; i < queries.size(); i += 3) {
      cache.Fill(queries[i], &result, clock, Millis(50), db);
      clock += Micros(100);
    }
    for (const Query& query : queries) {
      if (cache.Lookup(query, clock) != nullptr) ++hits;
    }
    for (size_t i = 0; i < queries.size(); i += 5) {
      cache.InvalidateItem(queries[i].items[0]);
    }
    clock += Millis(60);
    for (const Query& query : queries) cache.Lookup(query, clock);
  };

  for (int i = 0; i < 100; ++i) cycle();
  ASSERT_EQ(index.Size(), 0);
  ASSERT_GT(large_groups, 0) << "no group outgrew the linear scan";
  ASSERT_GT(hits, 0) << "no lookup hit the cache";
  const int64_t before = AllocationCount();
  for (int i = 0; i < 3; ++i) cycle();
  EXPECT_EQ(AllocationCount() - before, 0);
}

}  // namespace
}  // namespace webdb
