// SharedExecution: the server's shared-execution layer (DESIGN.md §13, §14)
// behind one owner. It holds the fusion index, the live fusion groups, the
// fused-result cache and the pool of scan answers, and it decides in one
// place whether a query may share at all (MayShare).
//
// The server's lifecycle calls a handful of hooks: submit, enqueue,
// dequeue, dispatch, commit and item changed. It takes a group's members
// back through TakeGroup when the leader's scan commits (they settle) or
// aborts (they go back to their queues, or drop past their deadline). The
// lifecycle moves every query between states itself: nothing here touches
// a scheduler queue, a lock, the profit ledger or admission.
//
// With fusion off every hook is a no-op, so the schedule is the pre-fusion
// server's.

#ifndef WEBDB_SERVER_SHARED_EXECUTION_H_
#define WEBDB_SERVER_SHARED_EXECUTION_H_

#include <map>
#include <span>
#include <vector>

#include "server/fusion.h"
#include "txn/transaction.h"
#include "util/chunk_arena.h"
#include "util/stable_vector.h"

namespace webdb {

class CpuSetScheduler;
class Database;
class LockManager;
class ServerMetrics;

class SharedExecution {
 public:
  // None of the pointers is owned; each must outlive this object.
  // `scheduler` names each query's domain, `database` supplies the values
  // an answer snapshots, `locks` keeps lock holders out of the index, and
  // `metrics` counts the groups formed and the cache fills.
  SharedExecution(const FusionConfig& config, CpuSetScheduler* scheduler,
                  const Database* database, const LockManager* locks,
                  ServerMetrics* metrics);

  SharedExecution(const SharedExecution&) = delete;
  SharedExecution& operator=(const SharedExecution&) = delete;

  // The one shareability test: fusion is on, `query` has at most
  // kMaxFusionItems items, and its scheduler domain is non-negative
  // (FusionDomain, or RendezvousDomain when cross_shard_rendezvous is on).
  bool MayShare(const Query& query) const;

  // A query arrived: signs it (Query::fusion_signature) when it may share,
  // then answers it from the cache when a live compatible entry exists,
  // setting its cache_source, cached_commit_time and fused_result and
  // zeroing its remaining demand. Returns whether it was answered.
  bool OnSubmit(Query& query, SimTime now);

  // `query` entered its queue (arrival, restart, dissolution): indexes it
  // as a fusion candidate when it may share and is clean (no partial
  // progress, no locks). Preempt-resumed queries are never candidates.
  void OnEnqueue(Query& query);
  // `query` left its queue (dispatch, fusion, drop, shed, restart): no
  // longer a candidate. Idempotent.
  void OnDequeue(const Query& query);

  // `leader` is being dispatched, holding its locks: attaches queued
  // look-alikes to its group (exact item-set matches first, then covered
  // single-item lookups) and returns the ids that joined, in order, valid
  // until the next call. The caller dequeues each into kFused.
  std::span<const TxnId> OnDispatch(const Query& leader);

  // Removes `leader`'s group from the live set and returns its members
  // (empty when it leads none): the one path by which members leave a
  // group, whether the scan committed or aborted.
  std::vector<TxnId> TakeGroup(TxnId leader);

  // The answer of `scan`, committing at `now`: its item set (a view, not a
  // copy) and the items' current values, in a pooled slot that lives as
  // long as this object. The one FusionResult producer.
  const FusionResult* Snapshot(const Query& scan, SimTime now);

  // `scan` committed at `now` after its group settled: retains its answer
  // in the cache when it may share (the group's answer as is, a solo
  // scan's snapshotted without marking the query as fused).
  void OnCommit(const Query& scan, SimTime now);

  // An update arrived on, or was applied to, `item`: every cache entry
  // covering it is evicted, so no served answer is staler than its age.
  void OnItemChanged(ItemId item);

  // No live group and no indexed candidate.
  bool Idle() const { return groups_.empty() && index_.Size() == 0; }

  // Live groups keyed by leader id (std::map: the auditor walks it).
  const std::map<TxnId, std::vector<TxnId>>& groups() const {
    return groups_;
  }
  const FusionResultCache& cache() const { return cache_; }

  // Audits the state owned here against the server's queries (DESIGN.md
  // §8): fusion groups and signatures, cache conservation and rendezvous
  // groups. Aborts on violation.
  void AuditInvariants(const StableVector<Query>& queries) const;

 private:
  const FusionConfig config_;
  CpuSetScheduler* sched_;
  const Database* db_;
  const LockManager* locks_;
  ServerMetrics* metrics_;

  FusionIndex index_;
  std::map<TxnId, std::vector<TxnId>> groups_;
  // OnDispatch's candidate buffer; keeps its capacity.
  std::vector<TxnId> joined_;
  // Short-TTL cache of committed scan answers. Entries hold no resources,
  // so a non-empty cache never blocks quiescence.
  FusionResultCache cache_;
  // Every answer handed to fused members and cache hits, with its values
  // (DESIGN.md §9, "Allocation-free submission").
  StableVector<FusionResult> results_;
  ChunkArena<double> values_;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_SHARED_EXECUTION_H_
