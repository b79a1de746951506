// The server's deep invariant audit and its end-state hash (DESIGN.md §8).
// Members of WebDatabaseServer, kept apart from the lifecycle they check;
// shared execution audits its own state (SharedExecution::AuditInvariants).

#include <cmath>
#include <map>
#include <string>

#include "audit/invariant_auditor.h"
#include "server/web_database_server.h"

namespace webdb {

void WebDatabaseServer::AuditInvariants() const {
  using audit::Invariant;
  // Lookup is non-const only because the lifecycle mutates through it.
  auto* self = const_cast<WebDatabaseServer*>(this);

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
  int64_t running_updates = 0;
  int64_t applied = 0;
  int64_t invalidated = 0;
  for (const Update& update : updates_) {
    switch (update.state) {
      case TxnState::kQueued:
        ++queued_updates;
        break;
      case TxnState::kRunning:
        ++running_updates;
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
  running += running_updates;
  WEBDB_AUDIT_THAT(Invariant::kDualQueueConservation,
                   running == cpus_.NumBusy(),
                   std::to_string(running) +
                       " transactions in state running but " +
                       std::to_string(cpus_.NumBusy()) + " CPUs busy");
  for (CpuId c = 0; c < cpus_.num_cpus(); ++c) {
    if (!cpus_.cpu(c).busy()) continue;
    const Transaction* on_cpu = self->Lookup(cpus_.cpu(c).current_task());
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
  // Each slot holds a queued (pending or preempted) or running update on its
  // item carrying the item's newest arrival sequence: any newer arrival
  // would have superseded it. Every such update holds its item's slot.
  size_t registered = 0;
  for (size_t i = 0; i < register_.size(); ++i) {
    const Update* update = register_[i];
    if (update == nullptr) continue;
    ++registered;
    WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                     update->item == static_cast<ItemId>(i) &&
                         (update->state == TxnState::kQueued ||
                          update->state == TxnState::kRunning),
                     "register slot of item " + std::to_string(i) +
                         " is not a live update on that item");
    WEBDB_AUDIT_THAT(
        Invariant::kRegisterNewestWins,
        update->item_arrival_seq == db_->Item(update->item).arrival_seq,
        "register slot of item " + std::to_string(i) +
            " is not the newest arrival");
  }
  WEBDB_AUDIT_THAT(Invariant::kRegisterNewestWins,
                   registered == num_registered_ &&
                       static_cast<int64_t>(registered) ==
                           queued_updates + running_updates,
                   "register count disagrees with the slots or with the "
                   "live updates");

  // --- lock table ---------------------------------------------------------
  // Walks every grant: a finished transaction still holding a lock (a leak)
  // or a lock outside the holder's lock set fails here.
  locks_.AuditConsistency([self](TxnId id) { return self->Lookup(id); });

  // --- shared execution: fusion groups, cache, rendezvous ------------------
  shared_.AuditInvariants(queries_);

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
