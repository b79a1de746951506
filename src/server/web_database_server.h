// WebDatabaseServer: the simulated main-memory web-database of Section 2,
// generalized from the paper's single preemptible CPU to a CPU set.
//
// Owns the event loop glue between the discrete-event simulator, a pool of
// preemptible CPUs, the database (+ update register), the 2PL-HP lock
// manager, a pluggable CPU-set scheduler, and the profit ledger. Clients
// submit read-only queries (with Quality Contracts) and blind updates; the
// server plays out the schedule and accounts response time, staleness, and
// profit. The pool is sized from the scheduler's num_cpus(); with one CPU
// the server is the paper's single-CPU server.
//
// Lifecycle of a query:
//   Submit -> scheduler queue -> dispatch (read-lock item set) -> [preempt /
//   2PL-HP restart]* -> commit (measure response time + staleness, evaluate
//   QC) | drop at lifetime deadline.
// Lifecycle of an update:
//   Submit (register; invalidate older pending/active update on the item)
//   -> dispatch (write-lock item) -> [preempt / restart]* -> apply | be
//   invalidated by a newer arrival.

#ifndef WEBDB_SERVER_WEB_DATABASE_SERVER_H_
#define WEBDB_SERVER_WEB_DATABASE_SERVER_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/staleness.h"
#include "db/update_register.h"
#include "qc/profit_ledger.h"
#include "qc/quality_contract.h"
#include "server/fusion.h"
#include "sched/cpu_set_scheduler.h"
#include "server/metrics.h"
#include "server/server_config.h"
#include "sim/processor_pool.h"
#include "sim/simulator.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "util/chunk_arena.h"
#include "util/stable_vector.h"

namespace webdb {

class WebDatabaseServer : private ShedSink {
 public:
  // `database` and `scheduler` must outlive the server; not owned. The
  // server owns its simulator and sizes its CPU pool from
  // scheduler->num_cpus().
  WebDatabaseServer(Database* database, CpuSetScheduler* scheduler,
                    ServerConfig config = ServerConfig());

  // Shares an external simulator (several servers on one clock — the
  // replicated-cluster substrate). `simulator` must outlive the server.
  WebDatabaseServer(Simulator* simulator, Database* database,
                    CpuSetScheduler* scheduler,
                    ServerConfig config = ServerConfig());

  WebDatabaseServer(const WebDatabaseServer&) = delete;
  WebDatabaseServer& operator=(const WebDatabaseServer&) = delete;

  // --- submission (at the simulator's current time) ------------------------
  // Returns the created query; the pointer stays valid for the server's
  // lifetime. `items` must be non-empty and valid ids of the database; the
  // server copies them into its item arena, so Query::items stays valid as
  // long as the query does and the caller's buffer may go away after the
  // call. `tenant` selects the tenant tier (only meaningful when
  // ServerConfig::tenants is set).
  Query* SubmitQuery(QueryType type, std::span<const ItemId> items,
                     QualityContract qc, SimDuration exec_time,
                     TenantId tenant = 0);
  // Braced item lists, as in SubmitQuery(QueryType::kLookup, {0}, ...).
  Query* SubmitQuery(QueryType type, std::initializer_list<ItemId> items,
                     QualityContract qc, SimDuration exec_time,
                     TenantId tenant = 0) {
    return SubmitQuery(type, std::span<const ItemId>(items), std::move(qc),
                       exec_time, tenant);
  }

  Update* SubmitUpdate(ItemId item, double value, SimDuration exec_time);

  // Pre-sizes the transaction pools and the event arena for a run of known
  // shape (e.g. a generated trace), so the submission/commit hot path never
  // grows storage mid-flight. Purely a performance hint.
  void ReserveCapacity(size_t num_queries, size_t num_updates);

  // --- simulation control ---------------------------------------------------
  Simulator& sim() { return *sim_; }
  SimTime Now() const { return sim_->Now(); }
  // Runs until every pending event (arrivals already submitted, executions,
  // deadlines) has fired.
  void Run() { sim_->Run(); }
  void RunUntil(SimTime t) { sim_->RunUntil(t); }

  // --- results ---------------------------------------------------------------
  const ProfitLedger& ledger() const { return ledger_; }
  const ServerMetrics& metrics() const { return metrics_; }
  // The registry backing the metrics, mutable so callers can pull a final
  // CpuSetScheduler::ExportStats into it and snapshot (see
  // exp/experiment.cc).
  MetricRegistry& metric_registry() { return metrics_.registry(); }
  const Database& database() const { return *db_; }
  const CpuSetScheduler& scheduler() const { return *sched_; }
  const ServerConfig& config() const { return config_; }
  const StableVector<Query>& queries() const { return queries_; }
  const StableVector<Update>& updates() const { return updates_; }
  int NumCpus() const { return cpus_.num_cpus(); }
  // Mean utilization across the CPU set over the active period: total busy
  // time / ((last commit or apply - first arrival) * CPUs). Idle time on
  // the clock after the last completion does not dilute it. 0 until
  // something completes after the first arrival.
  double CpuUtilization() const;
  // Total CPU busy time accumulated across the pool — the denominator of
  // profit-per-CPU-second (the fusion headline metric).
  SimDuration TotalBusyTime() const { return cpus_.TotalBusyTime(); }
  // Live fusion groups, keyed by leader id (empty once drained; the
  // fusion tests and the auditor death-tests inspect it).
  const std::map<TxnId, std::vector<TxnId>>& fusion_groups() const {
    return fusion_groups_;
  }
  // Fused-result cache (DESIGN.md §14); empty unless
  // FusionConfig::result_cache is on. The cache tests inspect it.
  const FusionResultCache& result_cache() const { return result_cache_; }

  // True when no transaction is in flight and no resource is held: every
  // CPU idle, scheduler queues empty, no locks, no pending register
  // entries, no active updates. Holds after Run() drains; the stress tests
  // assert it.
  bool IsQuiescent() const;

  // True while a transaction occupies any CPU.
  bool IsCpuBusy() const { return cpus_.AnyBusy(); }

  // --- invariant auditing (DESIGN.md §8) -----------------------------------
  // Deep whole-server audit, O(submitted transactions + locks). Checks, and
  // aborts on violation of:
  //   * dual-queue conservation — every admitted transaction is in exactly
  //     one lifecycle state, the per-state populations match the scheduler
  //     queue depths / CPU occupancy, and the lifecycle counters add up to
  //     the submissions;
  //   * update-register newest-wins — each pending register entry points at
  //     a queued update carrying its item's newest arrival sequence;
  //   * lock-table consistency — a walk of the dense lock table
  //     (LockManager::AuditConsistency): every grant belongs to a queued
  //     (preempted) or running transaction whose lock set holds the item;
  //   * profit-ledger conservation — the ledger's per-query counters and
  //     series totals agree with the obs::MetricRegistry lifecycle counters.
  // Compiled in every build and callable from tests; runs automatically
  // (strided on scheduling events, and at every submission boundary) when
  // configured with -DWEBDB_AUDIT=ON.
  void AuditInvariants() const;

  // FNV-1a hash over the server's end state: every transaction outcome
  // (state, commit time, restarts), every data item's sequence numbers and
  // value, the lifecycle counters and the simulation clock. Two runs agree
  // on this hash iff they took the same schedule — the regression suite
  // pins it (tests/regression_test.cc) and the benches expose it through
  // --audit-hash. Only integer state and moved (never computed) doubles are
  // mixed, so the hash is stable across compilers and libm versions.
  uint64_t EndStateHash() const;

 private:
  // Both public constructors land here: `owned_sim` (or the shared
  // `simulator` when null) drives the server.
  WebDatabaseServer(std::unique_ptr<Simulator> owned_sim, Simulator* simulator,
                    Database* database, CpuSetScheduler* scheduler,
                    ServerConfig config);

  Transaction* Lookup(TxnId id);
  Query& QueryFor(TxnId id);
  Update& UpdateFor(TxnId id);

  // Re-evaluates preemption / dispatch after any state change: per-CPU
  // preemption checks, then idle-CPU fill, both in ascending CPU order.
  void OnSchedulingEvent();
  // Dispatches `txn` onto CPU `cpu`, resolving 2PL-HP conflicts first.
  void Dispatch(CpuId cpu, Transaction* txn);
  // Restarts every holder whose locks conflict with `txn`'s lock set.
  void ResolveConflicts(Transaction* txn);
  // True when dispatching `txn` would conflict with a transaction running
  // on another CPU right now (multi-core only; an idle single-CPU server
  // has no running holders).
  bool HasRunningConflict(Transaction* txn);
  // 2PL-HP loser path: releases locks, resets progress, re-queues. The
  // loser may be preempted (queued) or running on another CPU (aborted).
  void Restart(Transaction* txn);
  void PreemptRunning(CpuId cpu);
  void OnTxnComplete(CpuId cpu, TxnId id);
  void CommitQuery(Query& query);
  void ApplyUpdate(Update& update);
  // `update` stopped being the item's dispatched update (applied,
  // invalidated, or restarted back to pending): empty its active slot.
  void ClearActiveUpdate(const Update& update);
  // --- shared execution (DESIGN.md §13); all no-ops when fusion is off ----
  // Indexes `query` as a fusion candidate if eligible: queued, no partial
  // progress, no locks, item set within bounds and on one fusion domain.
  void MaybeIndexForFusion(Query& query);
  void UnindexForFusion(Query& query);
  // Attaches queued look-alikes to `leader` at dispatch: exact item-set
  // matches first, then covered single-item lookups. Members leave their
  // scheduler queues (state -> kFused) and settle when the leader commits.
  void AttachFusionMembers(Query& leader);
  // Leader committed: fan the scan result out and commit every member at
  // the same instant, each settling its own QC / tenant / admission books.
  void SettleFusionGroup(Query& leader);
  // Leader left the running/queued path without committing (2PL-HP
  // restart, lifetime drop, shed): members go back to their queues — or
  // straight to kDropped when their own lifetime already expired.
  void DissolveFusionGroup(Query& leader);
  // Fusion (or, when cross_shard_rendezvous is on and the per-shard domain
  // rejects the query, rendezvous) domain — the single gate every fusion
  // and cache path uses. Negative means "never share". Const but able to
  // intern rendezvous domains through sched_; the auditor only ever asks
  // about queries whose domains were interned at index/attach time.
  int EffectiveFusionDomain(const Query& query) const;
  // Answers `query` from the fused-result cache when a live compatible
  // entry exists: commits it immediately at zero scan cost, with staleness
  // charged from the cached commit time. Returns true on a hit (the query
  // never reaches admission or a scheduler queue).
  bool TryServeFromCache(Query& query);
  // Retains `query`'s committed scan result in the cache when cacheable
  // (fusion + cache on, in-bounds item set, shareable domain).
  void MaybeFillResultCache(Query& query);
  // The answer of `query`'s scan, committing now: its item set (a view,
  // not a copy) and the items' current values, in a pooled slot that lives
  // as long as the server. The one FusionResult producer.
  const FusionResult* SnapshotResult(const Query& query);
  // Drops a superseded update (pending or preempted/running-active).
  void InvalidateUpdate(Update& update);
  void OnLifetimeDeadline(TxnId id);
  // Commit and shed end a query's lifetime: its deadline event could only
  // fire as a no-op, so it leaves the event list now.
  void CancelLifetimeEvent(Query& query);
  // ShedSink: evicts the queued query `id` on behalf of the admission
  // controller (state -> kShed); returns false when no longer queued.
  bool Shed(TxnId id) override;
  // Keeps one wake-up event per CPU armed for that CPU's next decision
  // time (QUTS atom boundaries are per-shard, hence per-CPU).
  void ScheduleWake();

  Database* db_;
  CpuSetScheduler* sched_;
  ServerConfig config_;

  std::unique_ptr<Simulator> owned_sim_;  // null when sharing
  Simulator* sim_;
  ProcessorPool cpus_;
  // Per-item state, sized from the database (item ids are dense).
  LockManager locks_;
  UpdateRegister register_;
  // Updates that were dispatched at least once and are still alive (running
  // or preempted), indexed by item: at most one per item, nullptr for none.
  // Needed for write-write drops of already-dispatched updates.
  std::vector<Update*> active_updates_;
  size_t num_active_updates_ = 0;
  ProfitLedger ledger_;
  ServerMetrics metrics_;

  // Owned transaction storage; chunked pool with stable addresses
  // (util/stable_vector.h), reservable via ReserveCapacity.
  StableVector<Query> queries_;
  StableVector<Update> updates_;
  // Storage the queries view, living exactly as long as they do (DESIGN.md
  // §9, "Allocation-free submission"): every submitted item set, and every
  // scan answer handed to fused members and cache hits, with its values.
  ChunkArena<ItemId> item_arena_;
  StableVector<FusionResult> fusion_results_;
  ChunkArena<double> value_arena_;

  // The active period CpuUtilization divides by: the first submission and
  // the latest commit or apply.
  SimTime first_arrival_ = kSimTimeMax;
  SimTime last_completion_ = 0;

  // Shared execution: candidate index over queued fusible queries, and the
  // live groups keyed by leader id (std::map: the auditor walks it).
  FusionIndex fusion_index_;
  std::map<TxnId, std::vector<TxnId>> fusion_groups_;
  // AttachFusionMembers' candidate buffer; keeps its capacity.
  std::vector<TxnId> fusion_joined_;
  // ResolveConflicts' and HasRunningConflict's holder buffer
  // (LockManager::Conflicts); keeps its capacity. Restart never asks for
  // conflicts, so the restart loop may walk it.
  std::vector<TxnId> conflicts_;
  // Short-TTL cache of committed scan results (DESIGN.md §14). Entries do
  // not hold resources, so a non-empty cache never blocks quiescence.
  FusionResultCache result_cache_;

  // One armed wake-up event per CPU (index == CpuId), rearmed after every
  // scheduling event from the scheduler's per-CPU NextDecisionTime.
  std::vector<EventId> wake_events_;
  std::vector<SimTime> wake_times_;
  bool in_scheduling_event_ = false;
  bool snapshots_active_ = false;
  // Strides the O(n) AuditInvariants pass across scheduling events so audit
  // builds stay usable on full traces. Mutated only under WEBDB_AUDIT.
  mutable uint64_t audit_tick_ = 0;

  void MaybeStartSnapshots();
  void SnapshotMetrics();

  // Lifecycle tracing hook; a single branch when tracing is off.
  void Trace(const Transaction& txn, TraceEventType type,
             double detail = 0.0) {
    if (config_.tracer != nullptr) {
      config_.tracer->Record(sim_->Now(), txn.id,
                             txn.kind == TxnKind::kUpdate, type, detail);
    }
  }
};

}  // namespace webdb

#endif  // WEBDB_SERVER_WEB_DATABASE_SERVER_H_
