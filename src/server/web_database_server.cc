#include "server/web_database_server.h"

#include <algorithm>
#include <memory>
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
      register_(static_cast<size_t>(NumItemsOf(database)), nullptr),
      shared_(config_.fusion, sched_, db_, &locks_, &metrics_),
      wake_events_(cpus_.num_cpus(), 0),
      wake_times_(cpus_.num_cpus(), kSimTimeMax) {
  WEBDB_CHECK(sim_ != nullptr);
  WEBDB_CHECK(sched_ != nullptr);
}

void WebDatabaseServer::ReserveCapacity(size_t num_queries,
                                        size_t num_updates) {
  queries_.reserve(num_queries);
  updates_.reserve(num_updates);
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
  first_arrival_ = std::min(first_arrival_, query.arrival);

  ++metrics_.queries_submitted;
  if (config_.tenants != nullptr) ++*metrics_.Tenant(tenant).submitted;
  Trace(query, TraceEventType::kSubmit);
  // Rejected queries still count against the submitted maximum: turning a
  // user away is not free profit-wise.
  ledger_.OnQuerySubmitted(query.qc, sim_->Now());
  // A cached answer costs no scan and holds no resources, so it is served
  // before admission: a query the controller would have turned away (or
  // shed queued work for) still gets its zero-cost answer.
  if (shared_.OnSubmit(query, sim_->Now())) {
    ++metrics_.queries_cache_hits;
    Trace(query, TraceEventType::kCacheHit,
          ToMillis(sim_->Now() - query.cached_commit_time));
    Retire(query, TxnState::kCommitted);
    return &query;
  }
  if (config_.admission != nullptr) {
    AdmissionContext context{sim_->Now(), sched_->NumQueuedQueries(),
                             sched_->NumQueuedUpdates(), cpus_.num_cpus(),
                             this};
    // Admit may shed queued work through the ShedSink before answering.
    if (!config_.admission->Admit(query, context)) {
      Retire(query, TxnState::kRejected);
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
  shared_.OnEnqueue(query);
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
  shared_.OnItemChanged(item);
  ++metrics_.updates_submitted;
  Trace(update, TraceEventType::kSubmit);

  // Write-write handling (Section 2.1): the new arrival supersedes the
  // item's live update, pending (queued) or already dispatched — the older
  // update is simply dropped. The register table has one slot per item, so
  // the new update inherits the dropped one's queue position (fifo_rank)
  // instead of starting over at the tail.
  Update*& slot = register_[static_cast<size_t>(item)];
  if (slot != nullptr) {
    if constexpr (audit::kEnabled) {
      // Newest-wins at the registration boundary: what this arrival
      // displaces must be a strictly older arrival on the same item.
      WEBDB_AUDIT_THAT(audit::Invariant::kRegisterNewestWins,
                       slot->item == item &&
                           slot->item_arrival_seq < update.item_arrival_seq,
                       "superseded update is not an older arrival on item " +
                           std::to_string(item));
    }
    update.fifo_rank = slot->fifo_rank;
    InvalidateUpdate(*slot);
  } else {
    ++num_registered_;
  }
  slot = &update;

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
         locks_.NumLockedItems() == 0 && num_registered_ == 0 &&
         shared_.Idle();
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
    // themselves.) The dequeue is defensive — lock holders are not
    // candidates — and idempotent.
    DissolveGroup(query);
    shared_.OnDequeue(query);
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
  // A restarted update is still the newest arrival for its item (a newer
  // one would have invalidated it), so it keeps its register slot.
  if (txn->kind == TxnKind::kQuery) {
    ++metrics_.query_restarts;
  } else {
    ++metrics_.update_restarts;
  }
  txn->state = TxnState::kQueued;
  sched_->Requeue(txn, sim_->Now());
  Trace(*txn, TraceEventType::kEnqueue);
  if (txn->kind == TxnKind::kQuery) {
    // Back at full service time with no locks: eligible to fuse again.
    shared_.OnEnqueue(*static_cast<Query*>(txn));
  }
}

void WebDatabaseServer::Dispatch(CpuId cpu, Transaction* txn) {
  WEBDB_CHECK(txn->state == TxnState::kQueued);
  auto* query =
      txn->kind == TxnKind::kQuery ? static_cast<Query*>(txn) : nullptr;
  if (query != nullptr) shared_.OnDequeue(*query);
  if (config_.enable_2plhp) {
    ResolveConflicts(txn);
    locks_.Acquire(txn->id, LockModeOf(*txn), LockSet(*txn));
  }
  if (query != nullptr) {
    // Attach after conflict resolution so members join a scan that holds
    // its read locks (a restarted holder may even re-join as a member).
    // Members leave their scheduler queues and settle with the leader.
    for (TxnId id : shared_.OnDispatch(*query)) {
      Query& member = QueryFor(id);
      WEBDB_CHECK(member.state == TxnState::kQueued && id != query->id);
      shared_.OnDequeue(member);
      sched_->RemoveQueued(&member, sim_->Now());
      member.state = TxnState::kFused;
      member.fused_into = query->id;
      Trace(member, TraceEventType::kFuse);
    }
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
    Retire(query, TxnState::kCommitted);
    SettleGroup(query);
    shared_.OnCommit(query, sim_->Now());
  } else {
    ApplyUpdate(*static_cast<Update*>(txn));
  }
  locks_.Release(id, LockSet(*txn));
  sched_->OnTxnFinished(*txn, sim_->Now());
  OnSchedulingEvent();
}

void WebDatabaseServer::ApplyUpdate(Update& update) {
  update.state = TxnState::kCommitted;
  update.commit_time = sim_->Now();
  last_completion_ = update.commit_time;
  db_->ApplyUpdate(update.item, update.item_arrival_seq, update.value,
                   sim_->Now());
  // An entry filled after this update's arrival (on a then-fresh item)
  // must not survive the value changing underneath it.
  shared_.OnItemChanged(update.item);
  // A running update is its item's live one: a newer arrival would have
  // aborted it.
  WEBDB_DCHECK(register_[static_cast<size_t>(update.item)] == &update);
  register_[static_cast<size_t>(update.item)] = nullptr;
  --num_registered_;
  ++metrics_.updates_applied;
  metrics_.update_latency_ms.Add(ToMillis(update.ApplyLatency()));
  Trace(update, TraceEventType::kCommit, ToMillis(update.ApplyLatency()));
}

void WebDatabaseServer::Retire(Query& query, TxnState state) {
  if (state != TxnState::kDropped && query.lifetime_event != 0) {
    sim_->Cancel(query.lifetime_event);
    query.lifetime_event = 0;
  }
  query.state = state;
  ServerMetrics::TenantCounters* tenant =
      config_.tenants != nullptr ? &metrics_.Tenant(query.tenant) : nullptr;
  switch (state) {
    case TxnState::kCommitted: {
      query.commit_time = sim_->Now();
      last_completion_ = query.commit_time;
      // Cache honesty rule (DESIGN.md §14): a cache hit settles its QoD
      // contract against the cached data's age — staleness is anchored at
      // the producing scan's commit time, never at "now". Eager
      // invalidation (at update arrival and apply) guarantees the covered
      // items are unchanged since that instant, so this is the exact
      // staleness the producing scan itself was charged.
      const SimTime staleness_anchor =
          query.cache_source != 0 ? query.cached_commit_time : sim_->Now();
      query.staleness =
          QueryStaleness(*db_, query.items, config_.staleness_metric,
                         config_.staleness_combiner, staleness_anchor);
      if (sim_->Now() > query.lifetime_deadline) {
        // Finished past the maximum lifetime: QoS-Independent QCs pay
        // nothing.
        query.profit = QualityContract::Evaluation{};
        ++metrics_.queries_expired;
      } else {
        query.profit =
            query.qc.Evaluate(query.ResponseTime(), query.staleness);
      }
      ++metrics_.queries_committed;
      metrics_.OnQueryCommitted(query.ResponseTime(), query.staleness);
      if (tenant != nullptr) {
        ++*tenant->committed;
        tenant->profit->Set(tenant->profit->value() + query.profit.Total());
      }
      Trace(query, TraceEventType::kCommit, query.staleness);
      ledger_.OnQueryCommitted(query.profit, sim_->Now());
      break;
    }
    case TxnState::kDropped:
      ++metrics_.queries_dropped;
      if (tenant != nullptr) ++*tenant->dropped;
      Trace(query, TraceEventType::kDrop);
      break;
    case TxnState::kShed:
      ++metrics_.queries_shed;
      if (tenant != nullptr) ++*tenant->shed;
      Trace(query, TraceEventType::kShed);
      break;
    case TxnState::kRejected:
      ++metrics_.queries_rejected;
      if (tenant != nullptr) ++*tenant->rejected;
      Trace(query, TraceEventType::kReject);
      break;
    default:
      WEBDB_CHECK_MSG(false, "a query retires into commit, drop, shed or "
                             "reject only");
  }
  // The controller tracks only queries it admitted: a rejected query was
  // refused by it, and a cache hit was answered before it ran.
  if (config_.admission != nullptr && state != TxnState::kRejected &&
      query.cache_source == 0) {
    config_.admission->OnQueryFinished(query, sim_->Now());
  }
}

void WebDatabaseServer::Unqueue(Query& query) {
  // A preempted leader leaving for good takes its scan with it.
  DissolveGroup(query);
  shared_.OnDequeue(query);
  sched_->RemoveQueued(&query, sim_->Now());
  // It may have been preempted while holding locks.
  locks_.Release(query.id, LockSet(query));
}

void WebDatabaseServer::SettleGroup(Query& leader) {
  const std::vector<TxnId> members = shared_.TakeGroup(leader.id);
  if (members.empty()) return;
  // Snapshot the scan's answer once; every waiter points at the same
  // immutable slot (fused-result-mutation lint rule keeps aliases const).
  leader.fused_result = shared_.Snapshot(leader, sim_->Now());
  for (TxnId id : members) {
    Query& member = QueryFor(id);
    WEBDB_CHECK(member.state == TxnState::kFused &&
                member.fused_into == leader.id);
    // The member settles like any commit — own response time, own-item
    // staleness, own QC / tenant / admission books — at the scan's finish
    // time; only the fused marker and the shared answer differ. Its CPU
    // demand was never charged: the whole point.
    member.remaining = 0;
    member.fused_result = leader.fused_result;
    Retire(member, TxnState::kCommitted);
    ++metrics_.queries_fused;
  }
}

void WebDatabaseServer::DissolveGroup(Query& leader) {
  for (TxnId id : shared_.TakeGroup(leader.id)) {
    Query& member = QueryFor(id);
    WEBDB_CHECK(member.state == TxnState::kFused &&
                member.fused_into == leader.id);
    member.fused_into = 0;
    if (config_.lifetime_factor > 0.0 &&
        sim_->Now() >= member.lifetime_deadline) {
      // Its lifetime-deadline event fired while it was fused (and found
      // nothing queued to drop): settle the drop at dissolution instead of
      // requeueing a corpse that can never earn profit.
      Retire(member, TxnState::kDropped);
      continue;
    }
    member.state = TxnState::kQueued;
    sched_->Requeue(&member, sim_->Now());
    Trace(member, TraceEventType::kEnqueue);
    shared_.OnEnqueue(member);
  }
}

void WebDatabaseServer::OnLifetimeDeadline(TxnId id) {
  Query& query = QueryFor(id);
  query.lifetime_event = 0;
  // Commit and shed cancel this event, so the query is still in flight.
  // Running, it commits late for zero profit; fused, it settles with the
  // scan it rides on (zero profit) or drops at dissolution — which may
  // already have happened at this very instant.
  if (query.state != TxnState::kQueued) return;
  Unqueue(query);
  Retire(query, TxnState::kDropped);
  OnSchedulingEvent();
}

bool WebDatabaseServer::Shed(TxnId id) {
  Query& query = QueryFor(id);
  // Fused members report unsheddable (like running queries): their cost is
  // already sunk into the leader's scan, so evicting them frees no CPU.
  if (query.state != TxnState::kQueued) return false;
  Unqueue(query);
  Retire(query, TxnState::kShed);
  // No OnSchedulingEvent: shedding only ever happens synchronously inside
  // SubmitQuery's admission check, which runs one after enqueueing the
  // admitted query — and removing queued (never running) work opens no
  // dispatch opportunity by itself.
  return true;
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

}  // namespace webdb
