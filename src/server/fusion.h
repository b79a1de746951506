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
// and no locks ever enter the index, and under the sharded scheduler a
// query is only indexed when its whole item set lives on one shard
// (FusionDomain >= 0) — cross-shard queries never fuse.
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

#ifndef WEBDB_SERVER_FUSION_H_
#define WEBDB_SERVER_FUSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "txn/transaction.h"

namespace webdb {

class Database;

struct FusionConfig {
  // Master switch; default off keeps every schedule bit-identical to the
  // pre-fusion server.
  bool enabled = false;
  // Allow single-item interactive lookups to join a covering scan.
  bool subset_fusion = true;
  // Most members one leader may carry (leader excluded).
  int max_group_size = 64;
  // Queries with more items than this never lead nor join exact-match.
  int max_leader_items = 16;
  // Retain committed scan results for `cache_ttl` of sim time and answer
  // exact/subset-compatible arrivals from the cache at zero scan cost.
  // Requires `enabled`; off by default for bit-identity with PR 9.
  bool result_cache = false;
  SimDuration cache_ttl = Millis(50);
  // Let queries whose item sets span shards fuse when their shard-set
  // signatures match (QutsScheduler rendezvous domains). No effect
  // on single-shard topologies. Off by default for bit-identity.
  bool cross_shard_rendezvous = false;
};

class FusionIndex {
 public:
  // FNV-1a over the service class and the sorted item set; equal signatures
  // (plus the verifying compare in CollectCandidates) define exact-match
  // fusion compatibility.
  static uint64_t Signature(const Query& query);

  // Indexes a queued, fusion-eligible query (caller checks eligibility; the
  // query must not already be indexed).
  void Insert(Query* query);

  // Removes `query` from every bucket it occupies. Idempotent: unindexed
  // queries are a no-op, so every dequeue path may call it untracked.
  void Remove(const Query& query);

  // Collects up to `max_members` fusion candidates for `leader`, in
  // deterministic order: exact matches first (insertion order), then —
  // when `subset` is set — single-item lookups covered by the leader's
  // item set, scanned in the leader's item order. The leader itself must
  // already be unindexed. Candidates are not removed.
  void CollectCandidates(const Query& leader, bool subset, int max_members,
                         std::vector<TxnId>* out) const;

  bool Contains(const Query& query) const;
  // Total number of indexed queries. O(1).
  int64_t Size() const { return size_; }

 private:
  struct ExactBucket {
    std::vector<std::pair<TxnId, const Query*>> entries;
  };

  // Signature -> exact-match bucket. std::map for deterministic audits.
  std::map<uint64_t, ExactBucket> exact_;
  // Item -> queued single-item interactive lookups on it (subset joiners).
  std::map<ItemId, std::vector<TxnId>> single_;
  int64_t size_ = 0;
};

// Short-TTL cache of committed scan results, keyed by the same FNV-1a
// signature the FusionIndex uses. One entry per (service class, sorted
// items) shape; a later fill over the same shape overwrites the older
// entry. Entries die at `commit_time + ttl` (inclusive: a lookup exactly
// at expiry still hits) and are evicted eagerly whenever an update touches
// any cached symbol. Deterministic throughout: std::map storage, and
// expired entries are reaped lazily on the lookups that find them, so the
// cache's state is a pure function of the event sequence.
class FusionResultCache {
 public:
  struct Entry {
    // The committed scan that produced this result (group leader or a
    // cacheable solo query). Exactly one committed scan per entry — the
    // auditor's cache-conservation invariant leans on this.
    TxnId source = 0;
    std::shared_ptr<const FusionResult> result;
    ServiceClass service_class = ServiceClass::kInteractive;
    std::vector<ItemId> sorted_items;
    // Fusion (or rendezvous) domain the producing scan belonged to.
    int domain = -1;
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
  void Fill(const Query& query, std::shared_ptr<const FusionResult> result,
            int domain, SimTime now, SimDuration ttl, const Database& db);

  // Finds a live entry answering `query` at `now`: an exact shape match
  // first, else — when `subset` is set and `query` is a single-item
  // interactive lookup — the freshest covering entry (ties broken by
  // lowest signature). Expired entries encountered on the way are erased.
  // Returns nullptr on miss; the pointer is valid until the next mutating
  // call.
  const Entry* Lookup(const Query& query, bool subset, SimTime now);

  // Evicts every entry whose item set contains `item`.
  void InvalidateItem(ItemId item);

  int64_t Size() const { return static_cast<int64_t>(entries_.size()); }

  // Audit-only view of the live entries (deterministic order).
  const std::map<uint64_t, Entry>& EntriesForAudit() const {
    return entries_;
  }

 private:
  void EraseEntry(std::map<uint64_t, Entry>::iterator it);

  // Signature -> cached result. std::map for deterministic audits.
  std::map<uint64_t, Entry> entries_;
  // Item -> signatures of entries covering it (eviction reverse index).
  std::map<ItemId, std::vector<uint64_t>> by_item_;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_FUSION_H_
