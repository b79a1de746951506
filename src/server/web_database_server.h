// WebDatabaseServer: the simulated main-memory web-database of Section 2,
// generalized from the paper's single preemptible CPU to a CPU set.
//
// The server is the transaction lifecycle: it drives the discrete-event
// simulator, a pool of preemptible CPUs, the database with its register
// table, the 2PL-HP lock manager, a pluggable CPU-set scheduler, and the
// profit ledger. Clients submit read-only queries (with Quality Contracts)
// and blind updates; the server plays out the schedule and accounts
// response time, staleness, and profit. The pool is sized from the
// scheduler's num_cpus(); with one CPU the server is the paper's
// single-CPU server. Shared execution (fusion and the result cache) is a
// member behind a few hooks (server/shared_execution.h).
//
// Lifecycle of a query:
//   Submit -> [cache hit] | admission (reject) -> scheduler queue ->
//   dispatch (read-lock item set) -> [preempt / 2PL-HP restart]* -> commit
//   (measure response time + staleness, evaluate QC) | drop at lifetime
//   deadline | shed. Every exit goes through Retire.
// Lifecycle of an update:
//   Submit (take the item's register slot, invalidating the update that
//   held it, queued or dispatched) -> dispatch (write-lock item) ->
//   [preempt / restart]* -> apply | be invalidated by a newer arrival.

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
#include "qc/profit_ledger.h"
#include "qc/quality_contract.h"
#include "sched/cpu_set_scheduler.h"
#include "server/metrics.h"
#include "server/server_config.h"
#include "server/shared_execution.h"
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

  // Pre-sizes the transaction pools for a run of known shape (e.g. a
  // generated trace), so the submission path never grows them mid-flight.
  // Purely a performance hint.
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
    return shared_.groups();
  }
  // Fused-result cache (DESIGN.md §14); empty unless
  // FusionConfig::result_cache is on. The cache tests inspect it.
  const FusionResultCache& result_cache() const { return shared_.cache(); }

  // True when no transaction is in flight and no resource is held: every
  // CPU idle, scheduler queues empty, no locks, no live register slot, no
  // fusion group or candidate. Holds after Run() drains; the stress tests
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
  //   * update-register newest-wins — each item's register slot holds a
  //     queued or running update carrying the item's newest arrival
  //     sequence, and every such update holds its item's slot;
  //   * lock-table consistency — a walk of the dense lock table
  //     (LockManager::AuditConsistency): every grant belongs to a queued
  //     (preempted) or running transaction whose lock set holds the item;
  //   * profit-ledger conservation — the ledger's per-query counters and
  //     series totals agree with the obs::MetricRegistry lifecycle counters;
  //   * shared execution — its fusion groups, result cache and rendezvous
  //     groups (SharedExecution::AuditInvariants).
  // Compiled in every build (server/server_audit.cc) and callable from
  // tests; runs automatically (strided on scheduling events, and at every
  // submission boundary) when configured with -DWEBDB_AUDIT=ON.
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
  void ApplyUpdate(Update& update);
  // Drops `update`, queued or dispatched, superseded by a newer arrival
  // that takes over its register slot.
  void InvalidateUpdate(Update& update);
  // The one way a query leaves the lifecycle, into `state`: commit (solo,
  // fused member or cache hit), drop (at its deadline or at dissolution),
  // shed or reject. Writes the state, the lifecycle and tenant counters
  // and the trace event, settles a commit's QC in the ledger, and releases
  // an admitted query from admission. Commit and shed cancel the lifetime
  // event; a drop leaves it (it is the firing event, or fires later as a
  // no-op).
  void Retire(Query& query, TxnState state);
  // A queued query leaves for good (lifetime drop, shed): a preempted
  // leader's group dissolves, and it may hold locks.
  void Unqueue(Query& query);
  // A leader's scan committed: its members settle at the same instant on
  // one shared answer, each with its own QC, tenant and admission books.
  void SettleGroup(Query& leader);
  // A leader left without committing (restart, lifetime drop, shed): its
  // members go back to their queues, or drop when their own lifetime has
  // already expired.
  void DissolveGroup(Query& leader);
  void OnLifetimeDeadline(TxnId id);
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
  // The register table (Section 2.1): each item's one live update, queued
  // (pending or preempted) or running, nullptr for none. A newer arrival
  // supersedes it and takes the slot.
  std::vector<Update*> register_;
  size_t num_registered_ = 0;
  ProfitLedger ledger_;
  ServerMetrics metrics_;
  SharedExecution shared_;

  // Owned transaction storage; chunked pool with stable addresses
  // (util/stable_vector.h), reservable via ReserveCapacity.
  StableVector<Query> queries_;
  StableVector<Update> updates_;
  // Every submitted item set, living exactly as long as the queries that
  // view it (DESIGN.md §9, "Allocation-free submission").
  ChunkArena<ItemId> item_arena_;

  // The active period CpuUtilization divides by: the first submission and
  // the latest commit or apply.
  SimTime first_arrival_ = kSimTimeMax;
  SimTime last_completion_ = 0;

  // ResolveConflicts' and HasRunningConflict's holder buffer
  // (LockManager::Conflicts); keeps its capacity. Restart never asks for
  // conflicts, so the restart loop may walk it.
  std::vector<TxnId> conflicts_;

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
