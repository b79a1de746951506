// One-shot experiment runner: (trace, scheduler, QC assignment, server
// config) -> metrics, profit percentages and time series. Every figure
// bench is a thin loop over RunExperiment.

#ifndef WEBDB_EXP_EXPERIMENT_H_
#define WEBDB_EXP_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/scheduler_factory.h"
#include "obs/metric_registry.h"
#include "qc/qc_generator.h"
#include "sched/cpu_set_scheduler.h"
#include "server/server_config.h"
#include "trace/trace.h"

namespace webdb {

// --- QC sources -------------------------------------------------------------
// Exactly one source assigns Quality Contracts to arriving queries; the
// variant makes "none" or "several" unrepresentable.

// Figure 1 mode: naive policies, no QCs — every query carries an empty
// contract. Callers typically also disable lifetime drops via
// server.lifetime_factor = 0.
struct ZeroContracts {};

// Time-varying profiles (Figure 9). The generator is not owned and must
// outlive the experiment; it must be non-null.
struct QcSchedule {
  const TimeVaryingQcGenerator* generator = nullptr;
};

// A plain QcProfile draws fixed-distribution contracts (Figures 6-8).
using QcSource = std::variant<ZeroContracts, QcProfile, QcSchedule>;

struct ExperimentOptions {
  ServerConfig server;
  uint64_t qc_seed = 7;
  QcSource qc = ZeroContracts{};
  // Fill ExperimentResult::end_state_hash after the run drains. Off by
  // default: the hash walks every transaction and data item, a measurable
  // cost on short runs. The regression tests and --audit-hash turn it on.
  bool compute_end_state_hash = false;
};

struct ExperimentResult {
  std::string scheduler;

  // Profit accounting (fractions of the submitted maximum).
  double qos_pct = 0.0;
  double qod_pct = 0.0;
  double total_pct = 0.0;
  double qos_max_pct = 0.0;
  double qod_max_pct = 0.0;
  double qos_gained = 0.0;
  double qod_gained = 0.0;
  double qos_max = 0.0;
  double qod_max = 0.0;

  // Classic metrics.
  double avg_response_ms = 0.0;
  double avg_staleness = 0.0;
  double cpu_utilization = 0.0;

  // Lifecycle counters.
  int64_t queries_committed = 0;
  int64_t queries_dropped = 0;
  int64_t queries_expired = 0;
  int64_t query_restarts = 0;
  int64_t updates_applied = 0;
  int64_t updates_invalidated = 0;
  int64_t update_restarts = 0;
  int64_t preemptions = 0;
  // Admission outcomes (0 when no controller was configured).
  int64_t queries_rejected = 0;
  int64_t queries_shed = 0;
  // Shared execution (0 unless ServerConfig::fusion.enabled): members
  // settled through fused scans, and the number of groups formed.
  int64_t queries_fused = 0;
  int64_t fusion_groups = 0;
  // Fused-result cache (0 unless fusion.result_cache): queries answered
  // from the cache at submit, and committed scans retained in it.
  int64_t queries_cache_hits = 0;
  int64_t cache_fills = 0;
  // Total CPU busy time across the pool, in milliseconds — denominator of
  // profit-per-CPU-second (the fusion headline).
  double cpu_busy_ms = 0.0;

  // Per-tenant outcomes, sorted by tenant id (empty unless the run was
  // tenant-aware, i.e. ServerConfig::tenants was set).
  struct TenantResult {
    TenantId tenant = 0;
    std::string name;
    int64_t submitted = 0;
    int64_t committed = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
    int64_t dropped = 0;
    double profit = 0.0;
  };
  std::vector<TenantResult> tenants;

  // Per-second profit series (bucket sums), for Figure 9a-c.
  std::vector<double> qos_gained_per_s;
  std::vector<double> qod_gained_per_s;
  std::vector<double> qos_max_per_s;
  std::vector<double> qod_max_per_s;
  // (time, ρ) at the start and at every adaptation boundary, ρ being the
  // plain mean across QUTS's shards — only populated when the scheduler is
  // QUTS (Figure 9d).
  std::vector<std::pair<SimTime, double>> rho_series;

  // FNV-1a hash of the server's end state (WebDatabaseServer::EndStateHash):
  // two runs agree on it iff they took the same schedule. Pinned by
  // tests/regression_test.cc; printed by the benches under --audit-hash.
  // Zero unless ExperimentOptions::compute_end_state_hash was set.
  uint64_t end_state_hash = 0;

  // Final metric-registry snapshot taken after the run drained: server.* /
  // txn.* lifecycle counters plus whatever the scheduler exports under
  // scheduler.* (QUTS: scheduler.quts.rho and friends).
  MetricSnapshot registry;
  // Periodic snapshots (empty unless server.metric_snapshot_period was set).
  std::vector<MetricSnapshot> registry_series;
};

// Runs `trace` through `scheduler` (not owned; used for a single run — make
// a fresh one per experiment). The simulation runs until it fully drains.
ExperimentResult RunExperiment(const Trace& trace, CpuSetScheduler* scheduler,
                               const ExperimentOptions& options);
// Convenience: builds the scheduler the spec describes (factory-owned for
// the duration of the run) and runs the trace through it.
ExperimentResult RunExperiment(const Trace& trace, const SchedulerSpec& spec,
                               const ExperimentOptions& options);

}  // namespace webdb

#endif  // WEBDB_EXP_EXPERIMENT_H_
