// Transaction model (Section 2.1 of the paper): read-only user queries and
// blind write-only updates.

#ifndef WEBDB_TXN_TRANSACTION_H_
#define WEBDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <span>
#include <string>

#include "db/data_item.h"
#include "qc/quality_contract.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace webdb {

class TxnQueue;

// Globally unique transaction id; 0 is reserved as "no transaction".
using TxnId = uint64_t;

// Tenant (QC class) a transaction belongs to; an index into the run's
// TenantSet. 0 is the default tier when no tenants are configured.
using TenantId = int32_t;

enum class TxnKind { kQuery, kUpdate };

enum class TxnState {
  kPending,      // in the trace, not yet arrived
  kQueued,       // waiting in a scheduler queue
  kRunning,      // occupying the CPU
  kPreempted,    // paused mid-execution, progress retained, still holds locks
  kCommitted,    // finished successfully
  kDropped,      // query: lifetime deadline expired before commit
  kInvalidated,  // update: superseded by a newer update on the same item
  kRejected,     // query: refused by admission control at submission
  kShed,         // query: admitted, then evicted from the queue by admission
                 // control to make room for higher-worth work
  kFused,        // query: attached to a running fused scan; settles (commits)
                 // when the scan completes, or re-queues if the scan aborts
};

std::string ToString(TxnKind kind);
std::string ToString(TxnState state);

// Read-only query types (Section 5, "Query Traces").
enum class QueryType {
  kLookup,         // single-item point read
  kMovingAverage,  // single item, heavier computation
  kComparison,     // multi-item comparison
  kAggregation,    // multi-item aggregate
};

std::string ToString(QueryType type);

// Coarse service classes over the query types (Qserv-style scan vs
// interactive split): interactive point work vs computation-heavy scans.
// Shared execution fuses within a class (and lets interactive lookups ride
// on a covering scan); class-aware atom sizing keys off it too.
enum class ServiceClass {
  kInteractive,  // lookup, comparison: cheap point reads
  kScan,         // moving-average, aggregation: computation over a range
};

inline ServiceClass ServiceClassOf(QueryType type) {
  return (type == QueryType::kMovingAverage ||
          type == QueryType::kAggregation)
             ? ServiceClass::kScan
             : ServiceClass::kInteractive;
}

std::string ToString(ServiceClass service_class);

// The answer of a fused scan, produced once by the group leader at commit
// and fanned out to every waiter. The server's shared execution owns it (a
// pooled slot) and hands out `const FusionResult*`: waiters share it and
// must never mutate it (enforced by the fused-result-mutation lint rule).
struct FusionResult {
  TxnId leader = 0;
  // The leader's (covering) item set: a view of the leader's own
  // Query::items, which never change once submitted.
  std::span<const ItemId> items;
  // Item values at scan completion, in `items` order (server-owned).
  std::span<const double> values;
  SimTime scan_complete = 0;
};

struct Transaction {
  TxnId id = 0;
  TxnKind kind = TxnKind::kQuery;
  TxnState state = TxnState::kPending;
  SimTime arrival = 0;
  // Full CPU demand of one uninterrupted execution.
  SimDuration service_time = 0;
  // Remaining CPU demand of the current attempt (== service_time after a
  // restart, less after a preempt-resume).
  SimDuration remaining = 0;
  // Bumped on every scheduler enqueue; lets queues with lazy deletion tell
  // live entries from stale ones (see TxnQueue).
  uint64_t enqueue_epoch = 0;
  // The queue currently holding this transaction's live entry, or nullptr.
  // Maintained by TxnQueue; a transaction is live in at most one queue.
  TxnQueue* live_queue = nullptr;
  // The 4-byte fields below sit together, last: 12 bytes instead of three
  // padded 8-byte slots, and Query/Update start in the tail padding.
  // Number of 2PL-HP restarts suffered.
  int restarts = 0;
  // CPU currently executing this transaction (valid iff state == kRunning;
  // -1 otherwise). Maintained by the server's dispatch/complete paths so
  // cross-CPU aborts (update invalidation, 2PL-HP restarts) find their
  // processor in O(1).
  int32_t cpu = -1;
  // Tenant tier this transaction was submitted under.
  TenantId tenant = 0;
};

struct Query : Transaction {
  QueryType type = QueryType::kLookup;
  // The item set, a view: a server-submitted query's items live in the
  // server's item arena for the server's lifetime (SubmitQuery); a
  // hand-built query's owner keeps them alive.
  std::span<const ItemId> items;
  QualityContract qc;
  // Absolute drop deadline (arrival + lifetime), set by the server.
  SimTime lifetime_deadline = kSimTimeMax;
  // The pending lifetime-deadline event, or 0: cancelled at commit and
  // shed, cleared when it fires.
  EventId lifetime_event = 0;
  // Commit-time outcome (valid once state == kCommitted).
  SimTime commit_time = 0;
  double staleness = 0.0;
  QualityContract::Evaluation profit;

  // Shared execution (DESIGN.md §13). While state == kFused this query is a
  // member of the fusion group led by `fused_into`; after settlement both
  // leader and members point at the immutable scan answer, which the
  // server owns for its lifetime. 0 / nullptr for queries that never fused.
  TxnId fused_into = 0;
  const FusionResult* fused_result = nullptr;
  // FNV-1a fusion signature over (service class, sorted items), computed
  // once at submission when the query may share (FusionIndex::Signature,
  // SharedExecution::MayShare); 0 otherwise. The fusion index and the
  // result cache key on it.
  uint64_t fusion_signature = 0;

  // Fused-result cache (DESIGN.md §14). Non-zero iff this query was
  // answered from the cache at submit time: `cache_source` is the committed
  // scan that produced the cached result and `cached_commit_time` its
  // commit instant — the anchor the QoD contract is settled against
  // (staleness is charged from the cached data's age, never from "now").
  TxnId cache_source = 0;
  SimTime cached_commit_time = 0;

  SimDuration ResponseTime() const { return commit_time - arrival; }
};

struct Update : Transaction {
  ItemId item = kInvalidItem;
  double value = 0.0;
  // The item's arrival sequence number assigned when this update arrived;
  // presented to Database::ApplyUpdate at commit.
  uint64_t item_arrival_seq = 0;
  // FIFO rank used by update queues. The register table has one slot per
  // data item, so an update that supersedes the item's live one (pending or
  // dispatched) inherits its queue position (set by the server); otherwise
  // equals `arrival`.
  SimTime fifo_rank = 0;
  // When the update was applied (valid once state == kCommitted).
  SimTime commit_time = 0;

  // Freshness lag this update experienced (arrival -> applied).
  SimDuration ApplyLatency() const { return commit_time - arrival; }
};

// Queries and updates draw ids from disjoint spaces so an id alone reveals
// the transaction kind (bit 0: 0 = query, 1 = update).
inline TxnId QueryTxnId(uint64_t index) { return (index + 1) << 1; }
inline TxnId UpdateTxnId(uint64_t index) { return ((index + 1) << 1) | 1; }
inline bool IsUpdateTxnId(TxnId id) { return (id & 1) != 0; }
inline uint64_t TxnIndex(TxnId id) { return (id >> 1) - 1; }

}  // namespace webdb

#endif  // WEBDB_TXN_TRANSACTION_H_
