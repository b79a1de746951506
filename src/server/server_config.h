// Server-level model parameters (everything the paper leaves to the system
// rather than to the scheduler). Defaults follow the paper where specified
// and DESIGN.md section 2 where not.

#ifndef WEBDB_SERVER_SERVER_CONFIG_H_
#define WEBDB_SERVER_SERVER_CONFIG_H_

#include "db/staleness.h"
#include "obs/tracer.h"
#include "sched/admission.h"
#include "server/fusion.h"
#include "util/time.h"

namespace webdb {

struct ServerConfig {
  // Optional admission controller consulted for every incoming query.
  // Not owned; must outlive the server. nullptr admits everything.
  AdmissionController* admission = nullptr;

  // Optional tenant tiers. When set, the server keeps per-tenant lifecycle
  // counters and profit ("server.tenant<k>.*"), audited against the
  // per-tenant conservation law; when null, runs stay tenant-unaware and
  // registry contents are unchanged. Not owned; must outlive the server.
  const TenantSet* tenants = nullptr;

  // Optional lifecycle tracer fed one TraceEvent per transaction
  // transition (submit / enqueue / dispatch / preempt / restart / commit /
  // drop / invalidate / reject). Not owned; must outlive the server.
  // nullptr (the default) keeps every hook a single branch.
  Tracer* tracer = nullptr;

  StalenessMetric staleness_metric = StalenessMetric::kUnappliedUpdates;
  StalenessCombiner staleness_combiner = StalenessCombiner::kMax;

  // QoS-Independent QCs require a maximum query lifetime; we derive it as
  // max(min_lifetime, lifetime_factor * rt_max). The paper does not give a
  // number, but its UH results (near-maximal QoD despite second-scale
  // response times) imply a lifetime far above rt_max: a query that returns
  // late still earns QoD profit for fresh data. 30 s matches that regime
  // while still bounding queue residence. A non-positive factor disables
  // lifetime drops entirely (used for the naive Figure 1 policies, which
  // predate QCs).
  double lifetime_factor = 10.0;
  SimDuration min_lifetime = Seconds(30);

  // Shared execution (DESIGN.md §13): fuse queued look-alike queries onto
  // the query being dispatched and settle them all when its scan commits.
  // Off by default — fusion-off schedules are bit-identical to the
  // pre-fusion server.
  FusionConfig fusion;

  // 2PL-HP concurrency control. Disabling it (ablation) dispatches blindly:
  // data conflicts are ignored, queries may read mid-update values.
  bool enable_2plhp = true;

  // When positive, the server records a full metric-registry snapshot
  // (server.* / txn.* counters plus the scheduler's ExportStats) at this
  // period while work is in flight (MetricRegistry::series). This is the
  // time-series view of e.g. QUTS's rho against the queue depths.
  SimDuration metric_snapshot_period = 0;

  // Fixed CPU cost charged every time a transaction is (re)dispatched onto
  // the CPU — context switch, cache refill, lock table work. Zero keeps the
  // scheduling model pure (unit tests assert exact timings); the QC
  // experiment harness uses a small value so that very small atom times pay
  // a real switching price, as the paper observes in Figure 10b.
  SimDuration dispatch_overhead = 0;
};

}  // namespace webdb

#endif  // WEBDB_SERVER_SERVER_CONFIG_H_
