#include "server/web_database_server.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

namespace {

// Every 2^k-th scheduling event runs the deep audit in WEBDB_AUDIT builds.
constexpr uint64_t kAuditStrideMask = 63;

int32_t NumItemsOf(const Database* database) {
  WEBDB_CHECK(database != nullptr);
  return database->NumItems();
}

}  // namespace

WebDatabaseServer::WebDatabaseServer(Database* database,
                                     CpuSetScheduler* scheduler,
                                     ServerConfig config)
    : WebDatabaseServer(std::make_unique<Simulator>(), nullptr, database,
                        scheduler, config) {}

WebDatabaseServer::WebDatabaseServer(Simulator* simulator, Database* database,
                                     CpuSetScheduler* scheduler,
                                     ServerConfig config)
    : WebDatabaseServer(nullptr, simulator, database, scheduler, config) {}

WebDatabaseServer::WebDatabaseServer(std::unique_ptr<Simulator> owned_sim,
                                     Simulator* simulator, Database* database,
                                     CpuSetScheduler* scheduler,
                                     ServerConfig config)
    : db_(database),
      sched_(scheduler),
      config_(config),
      owned_sim_(std::move(owned_sim)),
      sim_(owned_sim_ != nullptr ? owned_sim_.get() : simulator),
      cpus_(sim_, sched_ == nullptr ? 1 : sched_->num_cpus()),
      locks_(NumItemsOf(database)),
      register_(NumItemsOf(database)),
      active_updates_(static_cast<size_t>(NumItemsOf(database)), nullptr),
      wake_events_(cpus_.num_cpus(), 0),
      wake_times_(cpus_.num_cpus(), kSimTimeMax) {
  WEBDB_CHECK(sim_ != nullptr);
  WEBDB_CHECK(sched_ != nullptr);
}

void WebDatabaseServer::ReserveCapacity(size_t num_queries,
                                        size_t num_updates) {
  queries_.reserve(num_queries);
  updates_.reserve(num_updates);
  // Pending events: per CPU a completion and a wake-up, the snapshot
  // timer, and one lifetime deadline per query still in flight (cancelled
  // at commit and shed). Queries dominate; num_queries bounds them even in
  // a run where nothing commits.
  sim_->Reserve(num_queries + 16);
}

Transaction* WebDatabaseServer::Lookup(TxnId id) {
  WEBDB_CHECK(id != 0);
  const uint64_t index = TxnIndex(id);
  if (IsUpdateTxnId(id)) {
    WEBDB_CHECK(index < updates_.size());
    return &updates_[index];
  }
  WEBDB_CHECK(index < queries_.size());
  return &queries_[index];
}

Query& WebDatabaseServer::QueryFor(TxnId id) {
  WEBDB_CHECK(!IsUpdateTxnId(id));
  return *static_cast<Query*>(Lookup(id));
}

Update& WebDatabaseServer::UpdateFor(TxnId id) {
  WEBDB_CHECK(IsUpdateTxnId(id));
  return *static_cast<Update*>(Lookup(id));
}

Query* WebDatabaseServer::SubmitQuery(QueryType type,
                                      std::span<const ItemId> items,
                                      QualityContract qc,
                                      SimDuration exec_time, TenantId tenant) {
  WEBDB_CHECK(exec_time > 0);
  WEBDB_CHECK(tenant >= 0);
  WEBDB_CHECK(!items.empty());
  for (ItemId item : items) {
    WEBDB_CHECK(item >= 0 && item < db_->NumItems());
  }
  queries_.emplace_back();
  Query& query = queries_.back();
  query.id = QueryTxnId(queries_.size() - 1);
  query.kind = TxnKind::kQuery;
  query.state = TxnState::kQueued;
  query.arrival = sim_->Now();
  query.service_time = exec_time;
  query.remaining = exec_time;
  query.type = type;
  query.items = item_arena_.Copy(items);
  query.qc = std::move(qc);
  query.tenant = tenant;
  if (config_.fusion.enabled &&
      static_cast<int>(query.items.size()) <= kMaxFusionItems) {
    query.fusion_signature = FusionIndex::Signature(query);
  }
  first_arrival_ = std::min(first_arrival_, query.arrival);

  ++metrics_.queries_submitted;
  ServerMetrics::TenantCounters* tenant_counters =
      config_.tenants != nullptr ? &metrics_.Tenant(tenant) : nullptr;
  if (tenant_counters != nullptr) ++*tenant_counters->submitted;
  Trace(query, TraceEventType::kSubmit);
  // Rejected queries still count against the submitted maximum: turning a
  // user away is not free profit-wise.
  ledger_.OnQuerySubmitted(query.qc, sim_->Now());
  // A cached answer costs no scan and holds no resources, so it is served
  // before admission: a query the controller would have turned away (or
  // shed queued work for) still gets its zero-cost answer.
  if (TryServeFromCache(query)) return &query;
  if (config_.admission != nullptr) {
    AdmissionContext context{sim_->Now(), sched_->NumQueuedQueries(),
                             sched_->NumQueuedUpdates(), cpus_.num_cpus(),
                             this};
    // Admit may shed queued work through the ShedSink before answering.
    if (!config_.admission->Admit(query, context)) {
      query.state = TxnState::kRejected;
      ++metrics_.queries_rejected;
      if (tenant_counters != nullptr) ++*tenant_counters->rejected;
      Trace(query, TraceEventType::kReject);
      return &query;
    }
  }

  if (config_.lifetime_factor > 0.0) {
    const auto lifetime = std::max<SimDuration>(
        config_.min_lifetime,
        static_cast<SimDuration>(config_.lifetime_factor *
                                 static_cast<double>(query.qc.rt_max())));
    query.lifetime_deadline = query.arrival + lifetime;
    const TxnId id = query.id;
    query.lifetime_event = sim_->ScheduleAt(
        query.lifetime_deadline, [this, id] { OnLifetimeDeadline(id); });
  }

  sched_->OnQueryArrival(&query, sim_->Now());
  Trace(query, TraceEventType::kEnqueue);
  MaybeIndexForFusion(query);
  OnSchedulingEvent();
  return &query;
}

Update* WebDatabaseServer::SubmitUpdate(ItemId item, double value,
                                        SimDuration exec_time) {
  WEBDB_CHECK(exec_time > 0);
  WEBDB_CHECK(item >= 0 && item < db_->NumItems());
  updates_.emplace_back();
  Update& update = updates_.back();
  update.id = UpdateTxnId(updates_.size() - 1);
  update.kind = TxnKind::kUpdate;
  update.state = TxnState::kQueued;
  update.arrival = sim_->Now();
  update.service_time = exec_time;
  update.remaining = exec_time;
  update.item = item;
  update.value = value;
  update.item_arrival_seq = db_->RecordUpdateArrival(item, value, sim_->Now());
  update.fifo_rank = update.arrival;
  first_arrival_ = std::min(first_arrival_, update.arrival);
  // Cache honesty: the instant an update *arrives* on a cached symbol the
  // cached answer's recorded staleness is stale itself — evict eagerly
  // (and again at apply, which changes the committed value).
  if (config_.fusion.result_cache) result_cache_.InvalidateItem(item);
  ++metrics_.updates_submitted;
  Trace(update, TraceEventType::kSubmit);

  // Write-write handling (Section 2.1): the new arrival supersedes both a
  // pending (queued) update and an already-dispatched one on the same item —
  // the older update is simply dropped. The register table has one entry per
  // item, so the new update inherits the dropped one's queue position
  // (fifo_rank) instead of starting over at the tail.
  const uint64_t superseded = register_.Register(item, update.id);
  if constexpr (audit::kEnabled) {
    // Newest-wins at the registration boundary: the register must now hold
    // this update, and anything it displaced must be a strictly older
    // arrival on the same item.
    WEBDB_AUDIT_THAT(audit::Invariant::kRegisterNewestWins,
                     register_.PendingFor(item) == update.id,
                     "register did not retain the newest update");
    if (superseded != 0) {
      const Update& old = UpdateFor(superseded);
      WEBDB_AUDIT_THAT(audit::Invariant::kRegisterNewestWins,
                       old.item == item &&
                           old.item_arrival_seq < update.item_arrival_seq,
                       "superseded update is not an older arrival on item " +
                           std::to_string(item));
    }
  }
  if (superseded != 0) {
    Update& old = UpdateFor(superseded);
    update.fifo_rank = old.fifo_rank;
    InvalidateUpdate(old);
  }
  if (Update* active = active_updates_[item]; active != nullptr) {
    update.fifo_rank = std::min(update.fifo_rank, active->fifo_rank);
    InvalidateUpdate(*active);
  }

  sched_->OnUpdateArrival(&update, sim_->Now());
  Trace(update, TraceEventType::kEnqueue);
  OnSchedulingEvent();
  return &update;
}

void WebDatabaseServer::InvalidateUpdate(Update& update) {
  WEBDB_CHECK(update.state == TxnState::kQueued ||
              update.state == TxnState::kRunning);
  if (update.state == TxnState::kRunning) {
    Processor& cpu = cpus_.cpu(update.cpu);
    WEBDB_CHECK(cpu.busy() && cpu.current_task() == update.id);
    cpu.Abort();
    update.cpu = -1;
  } else {
    sched_->RemoveQueued(&update, sim_->Now());
  }
  locks_.Release(update.id, LockSet(update));
  ClearActiveUpdate(update);
  register_.Remove(update.item, update.id);
  update.state = TxnState::kInvalidated;
  ++metrics_.updates_invalidated;
  Trace(update, TraceEventType::kInvalidate);
  db_->RecordInvalidation(update.item);
}

void WebDatabaseServer::OnSchedulingEvent() {
  // Completion/abort callbacks and arrivals both land here; the guard keeps
  // accidental re-entry (e.g. through a future scheduler callback) harmless.
  if (in_scheduling_event_) return;
  in_scheduling_event_ = true;

  const int32_t num_cpus = cpus_.num_cpus();
  // Preemption sweep, then idle-CPU fill, both in ascending CPU order so the
  // schedule is a pure function of the event sequence.
  for (CpuId c = 0; c < num_cpus; ++c) {
    if (!cpus_.cpu(c).busy()) continue;
    Transaction* running = Lookup(cpus_.cpu(c).current_task());
    if (sched_->ShouldPreempt(c, *running, sim_->Now())) {
      PreemptRunning(c);
    }
  }
  for (CpuId c = 0; c < num_cpus; ++c) {
    while (!cpus_.cpu(c).busy()) {
      Transaction* next = sched_->PopNext(c, sim_->Now());
      if (next == nullptr) break;
      if (num_cpus > 1 && config_.enable_2plhp && HasRunningConflict(next)) {
        // Deferred dispatch: aborting a transaction mid-flight on another
        // CPU from inside this sweep would discard real progress for a
        // conflict that resolves by itself when the holder commits. Put the
        // candidate back and leave this CPU idle until the next event.
        sched_->Requeue(next, sim_->Now());
        break;
      }
      Dispatch(c, next);
    }
  }

  in_scheduling_event_ = false;
  ScheduleWake();
  MaybeStartSnapshots();
  if constexpr (audit::kEnabled) {
    if ((++audit_tick_ & kAuditStrideMask) == 0) AuditInvariants();
  }
}

void WebDatabaseServer::MaybeStartSnapshots() {
  if (config_.metric_snapshot_period <= 0 || snapshots_active_) return;
  if (!cpus_.AnyBusy() && !sched_->HasWork()) return;
  snapshots_active_ = true;
  sim_->ScheduleAfter(config_.metric_snapshot_period,
                     [this] { SnapshotMetrics(); });
}

void WebDatabaseServer::SnapshotMetrics() {
  sched_->ExportStats(metrics_.registry());
  metrics_.registry().RecordSnapshot(sim_->Now());
  if (cpus_.AnyBusy() || sched_->HasWork()) {
    sim_->ScheduleAfter(config_.metric_snapshot_period,
                       [this] { SnapshotMetrics(); });
  } else {
    snapshots_active_ = false;
  }
}

bool WebDatabaseServer::IsQuiescent() const {
  return !cpus_.AnyBusy() && !sched_->HasWork() &&
         locks_.NumLockedItems() == 0 && register_.Size() == 0 &&
         num_active_updates_ == 0 && fusion_groups_.empty() &&
         fusion_index_.Size() == 0;
}

void WebDatabaseServer::PreemptRunning(CpuId cpu) {
  Processor& proc = cpus_.cpu(cpu);
  Transaction* running = Lookup(proc.current_task());
  running->remaining = std::max<SimDuration>(1, proc.Preempt());
  running->state = TxnState::kQueued;  // preempt-resume: locks are retained
  running->cpu = -1;
  ++metrics_.preemptions;
  Trace(*running, TraceEventType::kPreempt, ToMillis(running->remaining));
  sched_->Requeue(running, sim_->Now());
  Trace(*running, TraceEventType::kEnqueue);
}

void WebDatabaseServer::ResolveConflicts(Transaction* txn) {
  // The transaction being dispatched embodies the scheduler's current
  // priority, so under 2PL-HP every conflicting holder is the loser and
  // restarts (releasing its locks and its progress). On a single CPU the
  // only possible holders are transactions preempted mid-execution; the
  // idle-CPU fill defers dispatch against RUNNING holders (multi-core), so
  // a running loser can only appear here via a wake-up-driven dispatch race
  // and is aborted off its CPU before restarting.
  locks_.Conflicts(txn->id, LockModeOf(*txn), LockSet(*txn), &conflicts_);
  for (TxnId holder_id : conflicts_) {
    Transaction* holder = Lookup(holder_id);
    WEBDB_CHECK_MSG(holder->state == TxnState::kQueued ||
                        holder->state == TxnState::kRunning,
                    "lock held by a transaction that is neither preempted "
                    "nor running");
    Restart(holder);
  }
}

bool WebDatabaseServer::HasRunningConflict(Transaction* txn) {
  locks_.Conflicts(txn->id, LockModeOf(*txn), LockSet(*txn), &conflicts_);
  for (TxnId holder_id : conflicts_) {
    if (Lookup(holder_id)->state == TxnState::kRunning) return true;
  }
  return false;
}

void WebDatabaseServer::Restart(Transaction* txn) {
  if (txn->kind == TxnKind::kQuery) {
    auto& query = *static_cast<Query*>(txn);
    // A restarted leader's scan never completes: its group dissolves and
    // the members go back to their queues before the leader re-enters its
    // own. (Members hold no locks, so they are never 2PL-HP losers
    // themselves.) The unindex is defensive — lock holders are not
    // candidates — and idempotent.
    DissolveFusionGroup(query);
    UnindexForFusion(query);
  }
  locks_.Release(txn->id, LockSet(*txn));
  if (txn->state == TxnState::kRunning) {
    // Multi-core loser caught mid-flight on another CPU: abort the attempt
    // (the processor discards the completion event) and fall through to the
    // normal requeue. It has no live queue entry to remove.
    Processor& proc = cpus_.cpu(txn->cpu);
    WEBDB_CHECK(proc.busy() && proc.current_task() == txn->id);
    proc.Abort();
    txn->cpu = -1;
  } else {
    // The loser was preempted mid-execution, so it still has a live entry in
    // its scheduler queue; drop it before requeueing or the queue's O(1)
    // depth counter overcounts (Push assumes no live entry).
    sched_->RemoveQueued(txn, sim_->Now());
  }
  // CPU time already sunk into the discarded attempt (2PL-HP loser cost).
  Trace(*txn, TraceEventType::kRestart,
        ToMillis(txn->service_time - txn->remaining));
  txn->remaining = txn->service_time;
  ++txn->restarts;
  if (txn->kind == TxnKind::kQuery) {
    ++metrics_.query_restarts;
  } else {
    // A restarted update is still the newest arrival for its item (a newer
    // one would have invalidated it), so it goes back to pending state.
    auto& update = *static_cast<Update*>(txn);
    ClearActiveUpdate(update);
    register_.Register(update.item, update.id);
    ++metrics_.update_restarts;
  }
  txn->state = TxnState::kQueued;
  sched_->Requeue(txn, sim_->Now());
  Trace(*txn, TraceEventType::kEnqueue);
  if (txn->kind == TxnKind::kQuery) {
    // Back at full service time with no locks: eligible to fuse again.
    MaybeIndexForFusion(*static_cast<Query*>(txn));
  }
}

void WebDatabaseServer::Dispatch(CpuId cpu, Transaction* txn) {
  WEBDB_CHECK(txn->state == TxnState::kQueued);
  auto* query =
      txn->kind == TxnKind::kQuery ? static_cast<Query*>(txn) : nullptr;
  if (query != nullptr) UnindexForFusion(*query);
  if (config_.enable_2plhp) {
    ResolveConflicts(txn);
    locks_.Acquire(txn->id, LockModeOf(*txn), LockSet(*txn));
  }
  if (query != nullptr) {
    // Attach after conflict resolution so members join a scan that holds
    // its read locks (a restarted holder may even re-join as a member).
    AttachFusionMembers(*query);
  } else {
    auto& update = *static_cast<Update*>(txn);
    register_.Remove(update.item, update.id);
    Update*& active = active_updates_[update.item];
    if (active == nullptr) ++num_active_updates_;
    active = &update;  // a preempted update resumes in its own slot
  }
  txn->state = TxnState::kRunning;
  txn->cpu = cpu;
  txn->remaining = std::max<SimDuration>(1, txn->remaining);
  Trace(*txn, TraceEventType::kDispatch);
  const TxnId id = txn->id;
  cpus_.cpu(cpu).Start(id, txn->remaining + config_.dispatch_overhead,
                       [this, cpu, id] { OnTxnComplete(cpu, id); });
}

void WebDatabaseServer::OnTxnComplete(CpuId cpu, TxnId id) {
  Transaction* txn = Lookup(id);
  WEBDB_CHECK(txn->state == TxnState::kRunning && txn->cpu == cpu);
  txn->cpu = -1;
  txn->remaining = 0;
  if (txn->kind == TxnKind::kQuery) {
    auto& query = *static_cast<Query*>(txn);
    CommitQuery(query);
    SettleFusionGroup(query);
    MaybeFillResultCache(query);
  } else {
    ApplyUpdate(*static_cast<Update*>(txn));
  }
  locks_.Release(id, LockSet(*txn));
  sched_->OnTxnFinished(*txn, sim_->Now());
  OnSchedulingEvent();
}

void WebDatabaseServer::CommitQuery(Query& query) {
  CancelLifetimeEvent(query);
  query.state = TxnState::kCommitted;
  query.commit_time = sim_->Now();
  last_completion_ = query.commit_time;
  // Cache honesty rule (DESIGN.md §14): a cache hit settles its QoD
  // contract against the cached data's age — staleness is anchored at the
  // producing scan's commit time, never at "now". Eager invalidation (at
  // update arrival and apply) guarantees the covered items are unchanged
  // since that instant, so this is the exact staleness the producing scan
  // itself was charged.
  const SimTime staleness_anchor =
      query.cache_source != 0 ? query.cached_commit_time : sim_->Now();
  query.staleness =
      QueryStaleness(*db_, query.items, config_.staleness_metric,
                     config_.staleness_combiner, staleness_anchor);
  if (sim_->Now() > query.lifetime_deadline) {
    // Finished past the maximum lifetime: QoS-Independent QCs pay nothing.
    query.profit = QualityContract::Evaluation{};
    ++metrics_.queries_expired;
  } else {
    query.profit = query.qc.Evaluate(query.ResponseTime(), query.staleness);
  }
  ++metrics_.queries_committed;
  metrics_.OnQueryCommitted(query.ResponseTime(), query.staleness);
  if (config_.tenants != nullptr) {
    ServerMetrics::TenantCounters& tenant = metrics_.Tenant(query.tenant);
    ++*tenant.committed;
    tenant.profit->Set(tenant.profit->value() + query.profit.Total());
  }
  Trace(query, TraceEventType::kCommit, query.staleness);
  ledger_.OnQueryCommitted(query.profit, sim_->Now());
  if (config_.admission != nullptr) {
    config_.admission->OnQueryFinished(query, sim_->Now());
  }
}

void WebDatabaseServer::ApplyUpdate(Update& update) {
  update.state = TxnState::kCommitted;
  update.commit_time = sim_->Now();
  last_completion_ = update.commit_time;
  db_->ApplyUpdate(update.item, update.item_arrival_seq, update.value,
                   sim_->Now());
  // An entry filled after this update's arrival (on a then-fresh item)
  // must not survive the value changing underneath it.
  if (config_.fusion.result_cache) result_cache_.InvalidateItem(update.item);
  ClearActiveUpdate(update);
  ++metrics_.updates_applied;
  metrics_.update_latency_ms.Add(ToMillis(update.ApplyLatency()));
  Trace(update, TraceEventType::kCommit, ToMillis(update.ApplyLatency()));
}

void WebDatabaseServer::ClearActiveUpdate(const Update& update) {
  Update*& active = active_updates_[update.item];
  if (active != &update) return;
  active = nullptr;
  --num_active_updates_;
}

void WebDatabaseServer::OnLifetimeDeadline(TxnId id) {
  Query& query = QueryFor(id);
  query.lifetime_event = 0;
  // Commit and shed cancel this event, so the query is still in flight.
  // Running, it commits late for zero profit; fused, it settles with the
  // scan it rides on (zero profit) or drops at dissolution — which may
  // already have happened at this very instant.
  if (query.state != TxnState::kQueued) return;
  // A preempted leader dropped at its deadline takes its scan with it.
  DissolveFusionGroup(query);
  UnindexForFusion(query);
  sched_->RemoveQueued(&query, sim_->Now());
  // It may have been preempted while holding locks.
  locks_.Release(id, LockSet(query));
  query.state = TxnState::kDropped;
  ++metrics_.queries_dropped;
  if (config_.tenants != nullptr) ++*metrics_.Tenant(query.tenant).dropped;
  Trace(query, TraceEventType::kDrop);
  if (config_.admission != nullptr) {
    config_.admission->OnQueryFinished(query, sim_->Now());
  }
  OnSchedulingEvent();
}

bool WebDatabaseServer::Shed(TxnId id) {
  Query& query = QueryFor(id);
  // Fused members report unsheddable (like running queries): their cost is
  // already sunk into the leader's scan, so evicting them frees no CPU.
  if (query.state != TxnState::kQueued) return false;
  DissolveFusionGroup(query);
  UnindexForFusion(query);
  sched_->RemoveQueued(&query, sim_->Now());
  // It may have been preempted while holding locks.
  locks_.Release(id, LockSet(query));
  CancelLifetimeEvent(query);
  query.state = TxnState::kShed;
  ++metrics_.queries_shed;
  if (config_.tenants != nullptr) ++*metrics_.Tenant(query.tenant).shed;
  Trace(query, TraceEventType::kShed);
  if (config_.admission != nullptr) {
    config_.admission->OnQueryFinished(query, sim_->Now());
  }
  // No OnSchedulingEvent: shedding only ever happens synchronously inside
  // SubmitQuery's admission check, which runs one after enqueueing the
  // admitted query — and removing queued (never running) work opens no
  // dispatch opportunity by itself.
  return true;
}

void WebDatabaseServer::CancelLifetimeEvent(Query& query) {
  if (query.lifetime_event == 0) return;
  sim_->Cancel(query.lifetime_event);
  query.lifetime_event = 0;
}

void WebDatabaseServer::MaybeIndexForFusion(Query& query) {
  if (!config_.fusion.enabled) return;
  if (query.state != TxnState::kQueued) return;
  if (static_cast<int>(query.items.size()) > kMaxFusionItems) return;
  // Preempt-resumed queries carry progress and (under 2PL-HP) locks;
  // fusing one would discard real work or attach a lock holder. Only fresh
  // arrivals and clean restarts are candidates.
  if (query.remaining != query.service_time ||
      locks_.Holds(query.id, query.items)) {
    return;
  }
  if (EffectiveFusionDomain(query) < 0) return;
  fusion_index_.Insert(&query);
}

void WebDatabaseServer::UnindexForFusion(Query& query) {
  if (!config_.fusion.enabled) return;
  fusion_index_.Remove(query);
}

void WebDatabaseServer::AttachFusionMembers(Query& leader) {
  if (!config_.fusion.enabled || fusion_index_.Size() == 0) return;
  if (static_cast<int>(leader.items.size()) > kMaxFusionItems ||
      EffectiveFusionDomain(leader) < 0) {
    return;
  }
  auto group_it = fusion_groups_.find(leader.id);
  const int carried = group_it == fusion_groups_.end()
                          ? 0
                          : static_cast<int>(group_it->second.size());
  fusion_joined_.clear();
  fusion_index_.CollectCandidates(leader, kMaxFusionGroupSize - carried,
                                  &fusion_joined_);
  if (fusion_joined_.empty()) return;
  if (group_it == fusion_groups_.end()) {
    group_it = fusion_groups_.emplace(leader.id, std::vector<TxnId>()).first;
    ++metrics_.fusion_groups;
  }
  for (TxnId id : fusion_joined_) {
    Query& member = QueryFor(id);
    WEBDB_CHECK(member.state == TxnState::kQueued && id != leader.id);
    UnindexForFusion(member);
    sched_->RemoveQueued(&member, sim_->Now());
    member.state = TxnState::kFused;
    member.fused_into = leader.id;
    group_it->second.push_back(id);
    Trace(member, TraceEventType::kFuse);
  }
}

void WebDatabaseServer::SettleFusionGroup(Query& leader) {
  const auto it = fusion_groups_.find(leader.id);
  if (it == fusion_groups_.end()) return;
  std::vector<TxnId> members = std::move(it->second);
  fusion_groups_.erase(it);
  // Snapshot the scan's answer once; every waiter points at the same
  // immutable slot (fused-result-mutation lint rule keeps aliases const).
  const FusionResult* result = SnapshotResult(leader);
  leader.fused_result = result;
  for (TxnId id : members) {
    Query& member = QueryFor(id);
    WEBDB_CHECK(member.state == TxnState::kFused &&
                member.fused_into == leader.id);
    // The member settles like any commit — own response time, own-item
    // staleness, own QC / tenant / admission books — at the scan's finish
    // time; only the fused marker and the shared answer differ. Its CPU
    // demand was never charged: the whole point.
    member.remaining = 0;
    member.fused_result = result;
    CommitQuery(member);
    ++metrics_.queries_fused;
  }
}

void WebDatabaseServer::DissolveFusionGroup(Query& leader) {
  const auto it = fusion_groups_.find(leader.id);
  if (it == fusion_groups_.end()) return;
  std::vector<TxnId> members = std::move(it->second);
  fusion_groups_.erase(it);
  for (TxnId id : members) {
    Query& member = QueryFor(id);
    WEBDB_CHECK(member.state == TxnState::kFused &&
                member.fused_into == leader.id);
    member.fused_into = 0;
    if (config_.lifetime_factor > 0.0 &&
        sim_->Now() >= member.lifetime_deadline) {
      // Its lifetime-deadline event fired while it was fused (and found
      // nothing queued to drop): settle the drop at dissolution instead of
      // requeueing a corpse that can never earn profit.
      member.state = TxnState::kDropped;
      ++metrics_.queries_dropped;
      if (config_.tenants != nullptr) {
        ++*metrics_.Tenant(member.tenant).dropped;
      }
      Trace(member, TraceEventType::kDrop);
      if (config_.admission != nullptr) {
        config_.admission->OnQueryFinished(member, sim_->Now());
      }
      continue;
    }
    member.state = TxnState::kQueued;
    sched_->Requeue(&member, sim_->Now());
    Trace(member, TraceEventType::kEnqueue);
    MaybeIndexForFusion(member);
  }
}

int WebDatabaseServer::EffectiveFusionDomain(const Query& query) const {
  const int domain = sched_->FusionDomain(query);
  if (domain >= 0 || !config_.fusion.cross_shard_rendezvous) return domain;
  return sched_->RendezvousDomain(query);
}

bool WebDatabaseServer::TryServeFromCache(Query& query) {
  if (!config_.fusion.enabled || !config_.fusion.result_cache) return false;
  if (static_cast<int>(query.items.size()) > kMaxFusionItems) return false;
  // Same domain gate as queue fusion: a shape that could never fuse (e.g.
  // cross-shard without rendezvous) is never cache-served either.
  if (EffectiveFusionDomain(query) < 0) return false;
  const FusionResultCache::Entry* entry =
      result_cache_.Lookup(query, sim_->Now());
  if (entry == nullptr) return false;
  // Zero scan cost: the producing scan's CPU demand was charged once, at
  // its own commit. The answer's age is what this query pays — CommitQuery
  // anchors its staleness at the cached commit time.
  query.cache_source = entry->source;
  query.cached_commit_time = entry->commit_time;
  query.fused_result = entry->result;
  query.remaining = 0;
  ++metrics_.queries_cache_hits;
  Trace(query, TraceEventType::kCacheHit,
        ToMillis(sim_->Now() - entry->commit_time));
  CommitQuery(query);
  return true;
}

void WebDatabaseServer::MaybeFillResultCache(Query& query) {
  if (!config_.fusion.enabled || !config_.fusion.result_cache) return;
  if (config_.fusion.cache_ttl <= 0) return;
  if (static_cast<int>(query.items.size()) > kMaxFusionItems) return;
  const int domain = EffectiveFusionDomain(query);
  if (domain < 0) return;
  // A settled group's answer is cached as is. A cacheable solo commit
  // snapshots its own, without marking the query itself as fused.
  const FusionResult* result = query.fused_result != nullptr
                                   ? query.fused_result
                                   : SnapshotResult(query);
  result_cache_.Fill(query, result, domain, sim_->Now(),
                     config_.fusion.cache_ttl, *db_);
  ++metrics_.cache_fills;
}

const FusionResult* WebDatabaseServer::SnapshotResult(const Query& query) {
  const std::span<double> values = value_arena_.Allocate(query.items.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = db_->Item(query.items[i]).value;
  }
  // The producer fills its own slot before publishing it.
  // lint:allow(fused-result-mutation)
  FusionResult& result = fusion_results_.emplace_back();
  result.leader = query.id;
  result.items = query.items;
  result.values = values;
  result.scan_complete = sim_->Now();
  return &result;
}

void WebDatabaseServer::ScheduleWake() {
  const int32_t num_cpus = cpus_.num_cpus();
  for (CpuId c = 0; c < num_cpus; ++c) {
    const SimTime t = sched_->NextDecisionTime(c, sim_->Now());
    if (t == wake_times_[c] && wake_events_[c] != 0 &&
        sim_->IsPending(wake_events_[c])) {
      continue;
    }
    if (wake_events_[c] != 0) sim_->Cancel(wake_events_[c]);
    wake_events_[c] = 0;
    wake_times_[c] = kSimTimeMax;
    if (t == kSimTimeMax) continue;
    wake_times_[c] = std::max(t, sim_->Now());
    wake_events_[c] = sim_->ScheduleAt(wake_times_[c], [this, c] {
      wake_events_[c] = 0;
      wake_times_[c] = kSimTimeMax;
      OnSchedulingEvent();
    });
  }
}

double WebDatabaseServer::CpuUtilization() const {
  if (last_completion_ <= first_arrival_) return 0.0;
  return static_cast<double>(cpus_.TotalBusyTime()) /
         (static_cast<double>(last_completion_ - first_arrival_) *
          cpus_.num_cpus());
}

void WebDatabaseServer::AuditInvariants() const {
  using audit::Invariant;

  // --- dual-queue conservation: queries ------------------------------------
  int64_t queued_queries = 0;
  int64_t running = 0;
  int64_t committed = 0;
  int64_t dropped = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t fused = 0;
  // Per-tenant lifecycle tallies: submitted / still-live / committed /
  // dropped / rejected / shed, keyed by tenant id (only filled when the
  // run is tenant-aware).
  struct TenantTally {
    int64_t submitted = 0;
    int64_t live = 0;
    int64_t committed = 0;
    int64_t dropped = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
  };
  std::map<TenantId, TenantTally> tenant_tallies;
  for (const Query& query : queries_) {
    TenantTally* tally = nullptr;
    if (config_.tenants != nullptr) {
      tally = &tenant_tallies[query.tenant];
      ++tally->submitted;
    }
    switch (query.state) {
      case TxnState::kQueued:
        ++queued_queries;
        if (tally != nullptr) ++tally->live;
        break;
      case TxnState::kRunning:
        ++running;
        if (tally != nullptr) ++tally->live;
        break;
      case TxnState::kCommitted:
        ++committed;
        if (tally != nullptr) ++tally->committed;
        break;
      case TxnState::kDropped:
        ++dropped;
        if (tally != nullptr) ++tally->dropped;
        break;
      case TxnState::kRejected:
        ++rejected;
        if (tally != nullptr) ++tally->rejected;
        break;
      case TxnState::kShed:
        ++shed;
        if (tally != nullptr) ++tally->shed;
        break;
      case TxnState::kFused:
        // Riding a live fused scan: out of every queue, off every CPU, but
        // still live for tenant/admission conservation purposes.
        ++fused;
        if (tally != nullptr) ++tally->live;
        break;
      case TxnState::kPending:
      case TxnState::kPreempted:
      case TxnState::kInvalidated:
        audit::Fail(Invariant::kDualQueueConservation, __FILE__, __LINE__,
                    "query " + std::to_string(query.id) +
                        " in impossible state " + ToString(query.state));
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   metrics_.queries_submitted ==
                       static_cast<int64_t>(queries_.size()),
                   "queries_submitted counter disagrees with storage");
  WEBDB_AUDIT_THAT(
      Invariant::kDualQueueConservation,
      metrics_.queries_committed == committed &&
          metrics_.queries_dropped == dropped &&
          metrics_.queries_rejected == rejected,
      "query lifecycle counters disagree with per-transaction states");
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   queued_queries == sched_->NumQueuedQueries(),
                   std::to_string(queued_queries) +
                       " queries in state queued but scheduler reports " +
                       std::to_string(sched_->NumQueuedQueries()));

  // --- admission conservation ----------------------------------------------
  // Arrived = admitted + rejected + shed: every submitted query is either
  // still live (queued/running), finished (committed/dropped), or was
  // turned away (rejected) or evicted (shed) by admission control — and the
  // shed counter matches the per-query states exactly.
  WEBDB_AUDIT_THAT(Invariant::kAdmissionConservation,
                   metrics_.queries_shed == shed,
                   "queries_shed counter disagrees with per-query states");
  WEBDB_AUDIT_THAT(
      Invariant::kAdmissionConservation,
      metrics_.queries_submitted == queued_queries + running + fused +
                                        committed + dropped + rejected + shed,
      "admission conservation: submitted != live + finished + refused");
  if (config_.tenants != nullptr) {
    for (const auto& [tenant, tally] : tenant_tallies) {
      const ServerMetrics::TenantCounters* counters =
          metrics_.FindTenant(tenant);
      WEBDB_AUDIT_THAT(Invariant::kAdmissionConservation, counters != nullptr,
                       "tenant " + std::to_string(tenant) +
                           " submitted queries but has no counters");
      WEBDB_AUDIT_THAT(
          Invariant::kAdmissionConservation,
          counters->submitted->value() == tally.submitted &&
              counters->committed->value() == tally.committed &&
              counters->dropped->value() == tally.dropped &&
              counters->rejected->value() == tally.rejected &&
              counters->shed->value() == tally.shed,
          "tenant " + std::to_string(tenant) +
              " lifecycle counters disagree with per-query states");
      WEBDB_AUDIT_THAT(
          Invariant::kAdmissionConservation,
          tally.submitted == tally.live + tally.committed + tally.dropped +
                                 tally.rejected + tally.shed,
          "tenant " + std::to_string(tenant) +
              " admission conservation violated");
    }
  }
  if (config_.admission != nullptr) {
    // Controller-internal bookkeeping (e.g. DBF demand nodes vs tracked
    // entries, per CPU lane).
    config_.admission->AuditInvariants(sim_->Now());
  }

  // --- dual-queue conservation: updates ------------------------------------
  int64_t queued_updates = 0;
  int64_t applied = 0;
  int64_t invalidated = 0;
  for (const Update& update : updates_) {
    switch (update.state) {
      case TxnState::kQueued:
        ++queued_updates;
        break;
      case TxnState::kRunning:
        ++running;
        break;
      case TxnState::kCommitted:
        ++applied;
        break;
      case TxnState::kInvalidated:
        ++invalidated;
        break;
      case TxnState::kPending:
      case TxnState::kPreempted:
      case TxnState::kDropped:
      case TxnState::kRejected:
      case TxnState::kShed:
      case TxnState::kFused:
        audit::Fail(Invariant::kDualQueueConservation, __FILE__, __LINE__,
                    "update " + std::to_string(update.id) +
                        " in impossible state " + ToString(update.state));
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   metrics_.updates_submitted ==
                       static_cast<int64_t>(updates_.size()),
                   "updates_submitted counter disagrees with storage");
  WEBDB_AUDIT_THAT(
      Invariant::kDualQueueConservation,
      metrics_.updates_applied == applied &&
          metrics_.updates_invalidated == invalidated,
      "update lifecycle counters disagree with per-transaction states");
  // A dispatched-then-preempted update is state kQueued *and* still in the
  // scheduler queue, so queue depths match exactly as for queries.
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   queued_updates == sched_->NumQueuedUpdates(),
                   std::to_string(queued_updates) +
                       " updates in state queued but scheduler reports " +
                       std::to_string(sched_->NumQueuedUpdates()));

  // --- CPU set -----------------------------------------------------------
  // Per-CPU conservation: the transactions in state running are exactly the
  // occupants of the busy CPUs, each agreeing on who runs where.
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   running == cpus_.NumBusy(),
                   std::to_string(running) +
                       " transactions in state running but " +
                       std::to_string(cpus_.NumBusy()) + " CPUs busy");
  for (CpuId c = 0; c < cpus_.num_cpus(); ++c) {
    if (!cpus_.cpu(c).busy()) continue;
    const Transaction* on_cpu = const_cast<WebDatabaseServer*>(this)->Lookup(
        cpus_.cpu(c).current_task());
    WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                     on_cpu->state == TxnState::kRunning && on_cpu->cpu == c,
                     "occupant of CPU " + std::to_string(c) +
                         " is not running there");
  }
  for (const Query& query : queries_) {
    WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                     (query.state == TxnState::kRunning) == (query.cpu >= 0),
                     "query " + std::to_string(query.id) +
                         " cpu binding disagrees with its state");
  }
  for (const Update& update : updates_) {
    WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                     (update.state == TxnState::kRunning) == (update.cpu >= 0),
                     "update " + std::to_string(update.id) +
                         " cpu binding disagrees with its state");
  }

  // --- update-register newest-wins ----------------------------------------
  auto* self = const_cast<WebDatabaseServer*>(this);
  for (const auto& [item, txn_id] : register_.PendingEntries()) {
    const Update& pending = self->UpdateFor(txn_id);
    WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                     pending.item == item &&
                         pending.state == TxnState::kQueued,
                     "register entry for item " + std::to_string(item) +
                         " is not a queued update on that item");
    // Any newer arrival would have superseded this entry at submission, so
    // the pending update must carry the item's newest arrival sequence.
    WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                     pending.item_arrival_seq == db_->Item(item).arrival_seq,
                     "register entry for item " + std::to_string(item) +
                         " is not the newest arrival");
  }
  size_t active_updates = 0;
  for (size_t i = 0; i < active_updates_.size(); ++i) {
    const Update* update = active_updates_[i];
    if (update == nullptr) continue;
    ++active_updates;
    WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                     update->item == static_cast<ItemId>(i) &&
                         (update->state == TxnState::kQueued ||
                          update->state == TxnState::kRunning),
                     "active update on item " + std::to_string(i) +
                         " is neither running nor preempted");
  }
  WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                   active_updates == num_active_updates_,
                   "active-update count disagrees with the per-item slots");

  // --- lock table ---------------------------------------------------------
  // Walks every grant: a finished transaction still holding a lock (a leak)
  // or a lock outside the holder's lock set fails here.
  locks_.AuditConsistency([self](TxnId id) { return self->Lookup(id); });

  // --- fusion groups (shared execution, DESIGN.md §13) ---------------------
  // The kFused population is exactly the union of the live groups' members,
  // membership is disjoint, members are lock-free and unsettled (no member
  // settles before its group's scan completes), and every leader is still
  // in flight (running, or preempted back to queued).
  {
    int64_t group_members = 0;
    std::set<TxnId> seen;
    for (const auto& [leader_id, members] : fusion_groups_) {
      const Query& leader = self->QueryFor(leader_id);
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                       leader.state == TxnState::kRunning ||
                           leader.state == TxnState::kQueued,
                       "fusion leader " + std::to_string(leader_id) +
                           " is no longer in flight");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup, leader.fused_into == 0,
                       "fusion leader " + std::to_string(leader_id) +
                           " is itself fused into another group");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup, !members.empty(),
                       "empty fusion group led by " +
                           std::to_string(leader_id));
      for (TxnId member_id : members) {
        const Query& member = self->QueryFor(member_id);
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         seen.insert(member_id).second,
                         "fusion membership not disjoint: query " +
                             std::to_string(member_id) + " in two groups");
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         member.state == TxnState::kFused,
                         "member " + std::to_string(member_id) +
                             " settled before its group's scan completed");
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         member.fused_into == leader_id,
                         "member " + std::to_string(member_id) +
                             " does not point back at its leader");
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         !locks_.Holds(member_id, member.items),
                         "fused member " + std::to_string(member_id) +
                             " holds locks");
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         member.fused_result == nullptr,
                         "member " + std::to_string(member_id) +
                             " holds a result before the scan completed");
        ++group_members;
      }
    }
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup, group_members == fused,
                     std::to_string(fused) +
                         " queries in state fused but live groups hold " +
                         std::to_string(group_members) + " members");
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                     metrics_.queries_fused <= metrics_.queries_committed,
                     "more fused settlements than commits");
    // The index and the cache key on the signature SubmitQuery stored;
    // re-derive it so a path that forgot to set it fails here.
    if (config_.fusion.enabled) {
      for (const Query& query : queries_) {
        if (static_cast<int>(query.items.size()) > kMaxFusionItems) continue;
        WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                         query.fusion_signature ==
                             FusionIndex::Signature(query),
                         "query " + std::to_string(query.id) +
                             " carries a stale fusion signature");
      }
    }
    fusion_index_.AuditConsistency();
  }

  // --- fused-result cache conservation (DESIGN.md §14) ---------------------
  // Every cache hit maps to exactly one committed scan (its source), is
  // settled against that scan's commit time, and was served within TTL of
  // it; live entries never outlive an update (arrival or apply) to any
  // cached symbol — the per-item sequence snapshots must still match the
  // database exactly.
  {
    int64_t hits = 0;
    for (const Query& query : queries_) {
      if (query.cache_source == 0) continue;
      ++hits;
      const std::string who = "cache hit " + std::to_string(query.id);
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       query.state == TxnState::kCommitted,
                       who + " is not committed");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache, query.fused_result != nullptr,
                       who + " carries no shared result");
      const Query& source = self->QueryFor(query.cache_source);
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       source.state == TxnState::kCommitted,
                       who + " maps to an uncommitted source");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache, source.cache_source == 0,
                       who + " maps to another cache hit, not a scan");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       query.cached_commit_time == source.commit_time,
                       who + " settled against the wrong commit time");
      WEBDB_AUDIT_THAT(
          Invariant::kFusionCache,
          query.commit_time >= query.cached_commit_time &&
              query.commit_time - query.cached_commit_time <=
                  config_.fusion.cache_ttl,
          who + " was served outside the cache TTL");
    }
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     metrics_.queries_cache_hits == hits,
                     "cache-hit counter disagrees with per-query states");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     metrics_.cache_fills >= result_cache_.Size(),
                     "more live cache entries than fills");
    result_cache_.AuditConsistency();
    result_cache_.ForEachEntry([&](const FusionResultCache::Entry& entry) {
      const std::string which =
          "cache entry " + std::to_string(entry.signature);
      const Query& source = self->QueryFor(entry.source);
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       source.state == TxnState::kCommitted &&
                           source.cache_source == 0,
                       which + " was not produced by a committed scan");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       entry.result != nullptr && entry.domain >= 0,
                       which + " has no shareable result");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       entry.expiry ==
                           entry.commit_time + config_.fusion.cache_ttl,
                       which + " has a TTL the config does not explain");
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       entry.arrival_seqs.size() ==
                               entry.sorted_items.size() &&
                           entry.applied_seqs.size() ==
                               entry.sorted_items.size(),
                       which + " sequence snapshot is malformed");
      for (size_t i = 0; i < entry.sorted_items.size(); ++i) {
        const DataItem& item = db_->Item(entry.sorted_items[i]);
        WEBDB_AUDIT_THAT(
            Invariant::kFusionCache,
            item.arrival_seq == entry.arrival_seqs[i] &&
                item.applied_seq == entry.applied_seqs[i],
            which + " outlived an update to item " +
                std::to_string(entry.sorted_items[i]));
      }
    });
  }

  // --- rendezvous groups (cross-shard fusion, DESIGN.md §14) ---------------
  // A live group whose leader spans shards only exists under the rendezvous
  // flag, and every member shares the leader's shareable domain: either an
  // exact look-alike (same class, same sorted items — hence the same shard
  // set) or a single-item lookup the leader's scan covers.
  {
    for (const auto& [leader_id, members] : fusion_groups_) {
      const Query& leader = self->QueryFor(leader_id);
      if (sched_->FusionDomain(leader) >= 0) continue;  // single-shard group
      const std::string who =
          "rendezvous group led by " + std::to_string(leader_id);
      WEBDB_AUDIT_THAT(Invariant::kRendezvousGroup,
                       config_.fusion.cross_shard_rendezvous,
                       who + " exists with rendezvous disabled");
      const int domain = EffectiveFusionDomain(leader);
      WEBDB_AUDIT_THAT(Invariant::kRendezvousGroup, domain >= 0,
                       who + " has no shareable domain");
      std::vector<ItemId> leader_sorted(leader.items.begin(),
                                        leader.items.end());
      std::sort(leader_sorted.begin(), leader_sorted.end());
      for (TxnId member_id : members) {
        const Query& member = self->QueryFor(member_id);
        const bool covered_lookup =
            member.items.size() == 1 &&
            std::binary_search(leader_sorted.begin(), leader_sorted.end(),
                               member.items[0]);
        if (covered_lookup) continue;
        std::vector<ItemId> member_sorted(member.items.begin(),
                                          member.items.end());
        std::sort(member_sorted.begin(), member_sorted.end());
        WEBDB_AUDIT_THAT(
            Invariant::kRendezvousGroup,
            ServiceClassOf(member.type) == ServiceClassOf(leader.type) &&
                member_sorted == leader_sorted &&
                EffectiveFusionDomain(member) == domain,
            who + ": member " + std::to_string(member_id) +
                " is neither an exact look-alike nor covered");
      }
    }
  }

  // --- profit-ledger conservation against the metric registry -------------
  WEBDB_AUDIT_THAT(Invariant::kLedgerConservation,
                   static_cast<int64_t>(ledger_.queries_submitted()) ==
                       metrics_.queries_submitted,
                   "ledger submissions disagree with registry counter");
  WEBDB_AUDIT_THAT(Invariant::kLedgerConservation,
                   static_cast<int64_t>(ledger_.queries_committed()) ==
                       metrics_.queries_committed,
                   "ledger commits disagree with registry counter");
  // Gained profit can never exceed the submitted maximum (per query the
  // evaluation is clamped to [0, max]; totals inherit it). The series are
  // bucket sums of the same samples, so they must re-add to the totals.
  const auto series_total = [](const TimeSeries& series) {
    double sum = 0.0;
    for (size_t i = 0; i < series.NumBuckets(); ++i) {
      sum += series.BucketSum(i);
    }
    return sum;
  };
  const double tolerance =
      1e-6 * (1.0 + ledger_.total_max());  // FP re-association slack
  WEBDB_AUDIT_THAT(Invariant::kLedgerConservation,
                   ledger_.qos_gained() <= ledger_.qos_max() + tolerance &&
                       ledger_.qod_gained() <= ledger_.qod_max() + tolerance,
                   "gained profit exceeds the submitted maximum");
  WEBDB_AUDIT_THAT(
      Invariant::kLedgerConservation,
      std::abs(series_total(ledger_.qos_gained_series()) -
               ledger_.qos_gained()) <= tolerance &&
          std::abs(series_total(ledger_.qod_gained_series()) -
                   ledger_.qod_gained()) <= tolerance &&
          std::abs(series_total(ledger_.qos_max_series()) -
                   ledger_.qos_max()) <= tolerance &&
          std::abs(series_total(ledger_.qod_max_series()) -
                   ledger_.qod_max()) <= tolerance,
      "profit time series do not re-add to the ledger totals");
}

uint64_t WebDatabaseServer::EndStateHash() const {
  audit::Fnv1aHasher hasher;
  hasher.MixU64(queries_.size());
  for (const Query& query : queries_) {
    hasher.MixByte(static_cast<uint8_t>(query.state));
    hasher.MixI64(query.arrival);
    hasher.MixI64(query.state == TxnState::kCommitted ? query.commit_time
                                                      : 0);
    hasher.MixU64(static_cast<uint64_t>(query.restarts));
  }
  hasher.MixU64(updates_.size());
  for (const Update& update : updates_) {
    hasher.MixByte(static_cast<uint8_t>(update.state));
    hasher.MixI64(update.arrival);
    hasher.MixI64(update.state == TxnState::kCommitted ? update.commit_time
                                                       : 0);
    hasher.MixU64(static_cast<uint64_t>(update.item));
    hasher.MixU64(update.item_arrival_seq);
  }
  const int32_t num_items = db_->NumItems();
  hasher.MixU64(static_cast<uint64_t>(num_items));
  for (ItemId item = 0; item < num_items; ++item) {
    const DataItem& data = db_->Item(item);
    hasher.MixU64(data.arrival_seq);
    hasher.MixU64(data.applied_seq);
    hasher.MixU64(data.applied_count);
    hasher.MixU64(data.invalidated_count);
    // Installed verbatim from the trace (never computed), so the bit
    // pattern is compiler-independent.
    hasher.MixDouble(data.value);
  }
  hasher.MixI64(metrics_.queries_committed);
  hasher.MixI64(metrics_.queries_dropped);
  hasher.MixI64(metrics_.queries_expired);
  hasher.MixI64(metrics_.queries_rejected);
  hasher.MixI64(metrics_.query_restarts);
  hasher.MixI64(metrics_.updates_applied);
  hasher.MixI64(metrics_.updates_invalidated);
  hasher.MixI64(metrics_.update_restarts);
  hasher.MixI64(metrics_.preemptions);
  hasher.MixI64(sim_->Now());
  return hasher.hash();
}

}  // namespace webdb
