// Shared execution over hot symbols (DESIGN.md §13).
//
// Flash-crowd traces queue many queries over the same Zipf-popular items at
// once. Instead of scanning the same symbols once per query, the server
// fuses queued look-alikes onto the query being dispatched (the *leader*):
// the leader's scan runs once and its cost is charged once, and when it
// commits every attached *member* settles its own quality contract at that
// same instant — own response time, own staleness over its own item set,
// own tenant/admission accounting — so the profit ledger and every
// conservation audit stay exact.
//
// Two fusion shapes, both decided at dispatch time (no late joiners):
//   * exact match  — identical sorted item set and identical service class;
//   * subset       — a single-item interactive lookup rides on any leader
//                    whose item set covers its item (the covering scan
//                    already reads that symbol).
// Eligibility is conservative: only queued queries with no partial progress
// and no locks ever enter the index, and only queries that may share
// (SharedExecution::MayShare: a non-negative scheduler domain). Under the
// sharded scheduler that is a query whose whole item set lives on one
// shard, or, with cross-shard rendezvous on, any query.
//
// FusionIndex is the deterministic candidate store: buckets are keyed by an
// FNV-1a signature over (service class, sorted items) plus a per-item table
// of single-item lookups, each bucket in insertion order, so the member set
// of every group is a pure function of the event sequence.
//
// FusionResultCache (DESIGN.md §14) extends sharing past the commit
// instant: a committed scan's result is retained for a short sim-time TTL
// so a look-alike arriving one event later still shares it. The cache is
// honest by construction — a hit settles its QoD contract against the
// *cached* commit time, never against "now", and any update touching a
// cached symbol (at arrival and again at apply) evicts every covering
// entry, so a served answer is never staler than its recorded age.
//
// Both are flat (DESIGN.md §9, "Flat shared-execution tables"): a query's
// signature is computed once, at submission (Query::fusion_signature), one
// open-addressing SignatureTable per structure maps signatures to recycled
// buckets or entry slots that keep their capacity, and the per-item reverse
// indexes are dense rows. Once those buffers have grown to the standing
// load, no call allocates.

#ifndef WEBDB_SERVER_FUSION_H_
#define WEBDB_SERVER_FUSION_H_

#include <cstdint>
#include <vector>

#include "server/signature_table.h"
#include "txn/transaction.h"

namespace webdb {

class Database;

// Queries with more items than this never lead, join or hit the cache; the
// bound keeps every signature and compare buffer a fixed stack array.
inline constexpr int kMaxFusionItems = 16;
// Most members one leader may carry (leader excluded).
inline constexpr int kMaxFusionGroupSize = 64;

struct FusionConfig {
  // Master switch; default off keeps every schedule bit-identical to the
  // pre-fusion server.
  bool enabled = false;
  // Retain committed scan results for `cache_ttl` of sim time and answer
  // exact/subset-compatible arrivals from the cache at zero scan cost.
  // Requires `enabled`; off by default for bit-identity with PR 9.
  bool result_cache = false;
  SimDuration cache_ttl = Millis(50);
  // Let queries whose item sets span shards share too: the scheduler's
  // RendezvousDomain is non-negative for them where FusionDomain is not.
  // They still fuse only with an exact look-alike (same shard set) or as a
  // lookup covered by the scan. No effect on single-shard topologies. Off
  // by default for bit-identity.
  bool cross_shard_rendezvous = false;
};

class FusionIndex {
 public:
  // FNV-1a over the service class and the sorted item set; equal signatures
  // (plus the verifying compare in CollectCandidates) define exact-match
  // fusion compatibility. The query must have at most kMaxFusionItems
  // items. SharedExecution::OnSubmit stores the result in
  // Query::fusion_signature for every query that may share; the index and
  // the cache read that field.
  static uint64_t Signature(const Query& query);

  // Indexes a queued, fusion-eligible query (caller checks eligibility; the
  // query must not already be indexed, and its fusion_signature is set).
  void Insert(Query* query);

  // Removes `query` from every bucket it occupies. Idempotent: unindexed
  // queries are a no-op, so every dequeue path may call it untracked.
  void Remove(const Query& query);

  // Collects up to `max_members` fusion candidates for `leader`, in
  // deterministic order: exact matches first (insertion order), then
  // single-item lookups covered by the leader's item set, scanned in the
  // leader's item order. The leader itself must already be unindexed.
  // Candidates are not removed; only the scratch membership set changes.
  void CollectCandidates(const Query& leader, int max_members,
                         std::vector<TxnId>* out);

  bool Contains(const Query& query) const;
  // Total number of indexed queries. O(1).
  int64_t Size() const { return size_; }

  // Deep self-check (invariant fusion-group): the signature table maps
  // exactly the live buckets, every indexed query sits in the bucket of
  // its own signature once, subset joiners and the per-item rows list each
  // other, and Size() is exact. Aborts on violation.
  void AuditConsistency() const;

 private:
  struct Member {
    TxnId id = 0;
    const Query* query = nullptr;
  };
  // Exact-match bucket: indexed queries of one signature, in insertion
  // order. An emptied bucket goes back on the free list with its capacity.
  struct Bucket {
    uint64_t signature = 0;
    std::vector<Member> members;
  };

  // Signature -> index into buckets_.
  SignatureTable bucket_of_;
  std::vector<Bucket> buckets_;
  std::vector<int32_t> free_buckets_;
  // Item -> queued single-item interactive lookups on it (subset joiners),
  // in insertion order. Index = item id; grows on first use.
  std::vector<std::vector<TxnId>> single_;
  // CollectCandidates' "already collected" set once a group outgrows the
  // linear scan; membership only, never iterated.
  SignatureTable taken_;
  int64_t size_ = 0;
};

// Short-TTL cache of committed scan results, keyed by the same FNV-1a
// signature the FusionIndex uses. One entry per (service class, sorted
// items) shape; a later fill over the same shape overwrites the older
// entry. Entries die at `commit_time + ttl` (inclusive: a lookup exactly
// at expiry still hits) and are evicted eagerly whenever an update touches
// any cached symbol. Deterministic throughout: expired entries are reaped
// lazily on the lookups that find them, and no answer depends on slot or
// row order (the subset winner is an explicit total order), so the
// cache's decisions are a pure function of the event sequence.
class FusionResultCache {
 public:
  struct Entry {
    // The committed scan that produced this result (group leader or a
    // cacheable solo query). Exactly one committed scan per entry — the
    // auditor's cache-conservation invariant leans on this.
    TxnId source = 0;
    // The producing scan's fusion signature: this entry's key.
    uint64_t signature = 0;
    // The scan's answer, owned by SharedExecution's pool for its lifetime.
    const FusionResult* result = nullptr;
    ServiceClass service_class = ServiceClass::kInteractive;
    std::vector<ItemId> sorted_items;
    SimTime commit_time = 0;
    SimTime expiry = 0;
    // Per-item (arrival_seq, applied_seq) snapshot at fill time, in
    // sorted_items order. Invalidation at update arrival *and* apply makes
    // these provably unchanged while the entry lives; the auditor checks.
    std::vector<uint64_t> arrival_seqs;
    std::vector<uint64_t> applied_seqs;
  };

  // Retains `result` for `query`'s shape until `now + ttl`, snapshotting
  // per-item update sequence numbers from `db`. Overwrites any entry with
  // the same signature (the newer commit is at least as fresh).
  void Fill(const Query& query, const FusionResult* result, SimTime now,
            SimDuration ttl, const Database& db);

  // Finds a live entry answering `query` at `now`: an exact shape match
  // first, else — when `query` is a single-item interactive lookup — the
  // freshest covering entry (ties broken by lowest signature). Expired
  // entries encountered on the way are erased. Returns nullptr on miss;
  // the pointer is valid until the next mutating call.
  const Entry* Lookup(const Query& query, SimTime now);

  // Evicts every entry whose item set contains `item`.
  void InvalidateItem(ItemId item);

  int64_t Size() const { return static_cast<int64_t>(slot_of_.Size()); }

  // Audit-only walk over the live entries: calls `visit(entry)` for each,
  // in slot order (which no decision depends on).
  template <typename Visitor>
  void ForEachEntry(Visitor&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.live) visit(slot.entry);
    }
  }

  // Deep self-check (invariant fusion-cache): the signature table maps
  // exactly the live slots, each live entry sits once in the row of every
  // distinct item it covers and in no other row, and free and live slots
  // partition the slot array. Aborts on violation.
  void AuditConsistency() const;

 private:
  // An entry slot, recycled through free_slots_ so the entry's vectors
  // keep their capacity.
  struct Slot {
    bool live = false;
    Entry entry;
  };

  void EraseSlot(int32_t slot);

  // Signature -> index into slots_.
  SignatureTable slot_of_;
  std::vector<Slot> slots_;
  std::vector<int32_t> free_slots_;
  // Item -> slots of the entries covering it (eviction reverse index), in
  // no particular order. Index = item id; grows on first use.
  std::vector<std::vector<int32_t>> by_item_;
  // Lookup's copy of a row, so reaping may edit the row it walks.
  std::vector<int32_t> row_scratch_;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_FUSION_H_
