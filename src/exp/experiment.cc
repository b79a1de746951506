#include "exp/experiment.h"

#include <memory>
#include <optional>

#include "audit/invariant_auditor.h"
#include "core/quts_scheduler.h"
#include "db/database.h"
#include "exp/trace_feeder.h"
#include "qc/profit_ledger.h"
#include "server/web_database_server.h"
#include "util/logging.h"
#include "util/rng.h"

namespace webdb {

namespace {

std::vector<double> BucketSums(const TimeSeries& series) {
  std::vector<double> out(series.NumBuckets());
  for (size_t i = 0; i < out.size(); ++i) out[i] = series.BucketSum(i);
  return out;
}

}  // namespace

ExperimentResult RunExperiment(const Trace& trace, CpuSetScheduler* scheduler,
                               const ExperimentOptions& options) {
  WEBDB_CHECK(scheduler != nullptr);
  trace.CheckValid();

  Database db(trace.num_items);
  WebDatabaseServer server(&db, scheduler, options.server);
  // The trace shape is known up front: pre-size the transaction pools and
  // the event arena so the run itself is allocation-free on the hot path.
  server.ReserveCapacity(trace.queries.size(), trace.updates.size());

  Rng qc_rng(options.qc_seed);
  std::optional<QcGenerator> generator;
  if (const QcProfile* profile = std::get_if<QcProfile>(&options.qc)) {
    generator.emplace(*profile);
  }
  const QcSchedule* schedule = std::get_if<QcSchedule>(&options.qc);
  if (schedule != nullptr) WEBDB_CHECK(schedule->generator != nullptr);

  TraceFeeder feeder(&server, &trace,
                     [&](const QueryRecord& record) -> QualityContract {
                       if (generator.has_value()) return generator->Next(qc_rng);
                       if (schedule != nullptr) {
                         return schedule->generator->Next(record.arrival,
                                                          qc_rng);
                       }
                       return QualityContract();  // ZeroContracts
                     });
  feeder.Start();
  server.Run();
  WEBDB_CHECK(feeder.Done());
  // The drained end state is the cheapest point for a full audit: every
  // queue is empty, so the conservation sums cover the whole trace.
  if constexpr (audit::kEnabled) server.AuditInvariants();

  ExperimentResult result;
  result.scheduler = scheduler->Name();

  const ProfitLedger& ledger = server.ledger();
  result.qos_pct = ledger.QosPct();
  result.qod_pct = ledger.QodPct();
  result.total_pct = ledger.TotalPct();
  result.qos_max_pct = ledger.QosMaxPct();
  result.qod_max_pct = ledger.QodMaxPct();
  result.qos_gained = ledger.qos_gained();
  result.qod_gained = ledger.qod_gained();
  result.qos_max = ledger.qos_max();
  result.qod_max = ledger.qod_max();

  const ServerMetrics& metrics = server.metrics();
  result.avg_response_ms = metrics.response_time_ms.mean();
  result.avg_staleness = metrics.staleness.mean();
  result.cpu_utilization = server.CpuUtilization();
  result.queries_committed = metrics.queries_committed;
  result.queries_dropped = metrics.queries_dropped;
  result.queries_expired = metrics.queries_expired;
  result.query_restarts = metrics.query_restarts;
  result.updates_applied = metrics.updates_applied;
  result.updates_invalidated = metrics.updates_invalidated;
  result.update_restarts = metrics.update_restarts;
  result.preemptions = metrics.preemptions;
  result.queries_rejected = metrics.queries_rejected;
  result.queries_shed = metrics.queries_shed;
  result.queries_fused = metrics.queries_fused;
  result.fusion_groups = metrics.fusion_groups;
  result.queries_cache_hits = metrics.queries_cache_hits;
  result.cache_fills = metrics.cache_fills;
  result.cpu_busy_ms = ToMillis(server.TotalBusyTime());
  if (server.config().tenants != nullptr) {
    const TenantSet& tenants = *server.config().tenants;
    for (const auto& [tenant, counters] : metrics.tenants()) {
      ExperimentResult::TenantResult row;
      row.tenant = tenant;
      row.name = tenant >= 0 && tenant < tenants.NumTiers()
                     ? tenants.Tier(tenant).name
                     : "?";
      row.submitted = counters.submitted->value();
      row.committed = counters.committed->value();
      row.rejected = counters.rejected->value();
      row.shed = counters.shed->value();
      row.dropped = counters.dropped->value();
      row.profit = counters.profit->value();
      result.tenants.push_back(std::move(row));
    }
  }

  result.qos_gained_per_s = BucketSums(ledger.qos_gained_series());
  result.qod_gained_per_s = BucketSums(ledger.qod_gained_series());
  result.qos_max_per_s = BucketSums(ledger.qos_max_series());
  result.qod_max_per_s = BucketSums(ledger.qod_max_series());

  if (const auto* quts = dynamic_cast<const QutsScheduler*>(scheduler)) {
    result.rho_series = quts->rho_series();
  }

  if (options.compute_end_state_hash) {
    result.end_state_hash = server.EndStateHash();
  }

  // Pull the scheduler's final state into the registry, then capture it.
  scheduler->ExportStats(server.metric_registry());
  result.registry = server.metric_registry().Snap(server.Now());
  result.registry_series = server.metric_registry().series();
  return result;
}

ExperimentResult RunExperiment(const Trace& trace, const SchedulerSpec& spec,
                               const ExperimentOptions& options) {
  std::unique_ptr<CpuSetScheduler> scheduler = MakeScheduler(spec);
  // The spec may also describe admission control; a fresh controller per
  // run keeps SweepRunner's one-owner-per-point rule intact.
  std::unique_ptr<AdmissionController> admission =
      MakeAdmission(spec.admission, spec.topology.num_cpus);
  ExperimentOptions run_options = options;
  if (admission != nullptr) {
    WEBDB_CHECK_MSG(options.server.admission == nullptr,
                    "admission set both on the spec and on server config");
    run_options.server.admission = admission.get();
  }
  if (spec.admission.tenants.NumTiers() > 1) {
    WEBDB_CHECK_MSG(options.server.tenants == nullptr,
                    "tenants set both on the spec and on server config");
    run_options.server.tenants = &spec.admission.tenants;
  }
  return RunExperiment(trace, scheduler.get(), run_options);
}

}  // namespace webdb
