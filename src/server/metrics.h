// Server-side performance counters and distributions: everything the
// experiment harness reports that is not profit (profit lives in
// qc/ProfitLedger).
//
// ServerMetrics is a thin view over an obs::MetricRegistry: every lifecycle
// counter is a registry-owned metric with a stable `server.*` / `txn.*`
// name, so the same numbers are reachable both through the familiar field
// names below (`metrics.queries_committed`) and through registry snapshots
// (`registry().Snap(now)`), alongside whatever the scheduler exports under
// `scheduler.*`.

#ifndef WEBDB_SERVER_METRICS_H_
#define WEBDB_SERVER_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metric_registry.h"
#include "txn/transaction.h"
#include "util/histogram.h"
#include "util/stats.h"
#include "util/time.h"

namespace webdb {

class ServerMetrics {
  // Declared first: the counter references below bind into it.
  MetricRegistry registry_;

 public:
  ServerMetrics();
  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  // The registry backing every counter below; the server also feeds it
  // periodic snapshots and scheduler exports.
  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }

  // --- transaction lifecycle counters (registry-backed) --------------------
  Counter& queries_submitted;  // server.queries.submitted
  Counter& queries_committed;  // server.queries.committed
  // Committed, but after the lifetime deadline: earns zero profit.
  Counter& queries_expired;  // server.queries.expired
  // Dropped from the queue at the lifetime deadline.
  Counter& queries_dropped;  // server.queries.dropped
  // Refused by admission control at submission time.
  Counter& queries_rejected;  // server.queries.rejected
  // Admitted, then evicted from the queue by admission control (DbfAdmission
  // load shedding).
  Counter& queries_shed;    // server.queries.shed
  // Committed as members of a fused scan (shared execution); a subset of
  // queries_committed. The leader of a group counts as a normal commit.
  Counter& queries_fused;  // server.queries.fused
  // Fusion groups formed (leaders that attached at least one member).
  Counter& fusion_groups;   // server.fusion.groups
  // Answered from the fused-result cache at submit (zero scan cost); a
  // subset of queries_committed, disjoint from queries_fused.
  Counter& queries_cache_hits;  // server.queries.cache_hits
  // Committed scans retained in the fused-result cache.
  Counter& cache_fills;     // server.fusion.cache_fills
  Counter& query_restarts;  // txn.restarts.query

  Counter& updates_submitted;    // server.updates.submitted
  Counter& updates_applied;      // server.updates.applied
  Counter& updates_invalidated;  // server.updates.invalidated
  Counter& update_restarts;      // txn.restarts.update

  Counter& preemptions;  // txn.preemptions

  // --- distributions over committed queries --------------------------------
  RunningStats response_time_ms;
  RunningStats staleness;  // in the configured metric's unit
  Histogram& response_time_hist;  // server.response_time_ms (registry-owned)
  // Arrival -> applied lag of committed updates (the freshness pipeline).
  RunningStats update_latency_ms;

  // --- per-tenant lifecycle accounting (registry-backed, lazily created) ----
  // Registered under "server.tenant<k>.*" on first use of tenant k, so
  // tenant-unaware runs carry no extra metrics (and no snapshot noise).
  struct TenantCounters {
    Counter* submitted = nullptr;  // server.tenant<k>.queries.submitted
    Counter* committed = nullptr;  // server.tenant<k>.queries.committed
    Counter* rejected = nullptr;   // server.tenant<k>.queries.rejected
    Counter* shed = nullptr;       // server.tenant<k>.queries.shed
    Counter* dropped = nullptr;    // server.tenant<k>.queries.dropped
    Gauge* profit = nullptr;       // server.tenant<k>.profit (running total)
  };
  TenantCounters& Tenant(TenantId tenant);
  // nullptr when tenant `tenant` never submitted.
  const TenantCounters* FindTenant(TenantId tenant) const;
  const std::map<TenantId, TenantCounters>& tenants() const {
    return tenant_counters_;
  }

  // --- recorders ------------------------------------------------------------
  void OnQueryCommitted(SimDuration response_time, double staleness_value);

  // Multi-line summary for examples and debugging.
  std::string Summary() const;

 private:
  std::map<TenantId, TenantCounters> tenant_counters_;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_METRICS_H_
