#include "exp/cluster_experiment.h"

#include "exp/trace_feeder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace webdb {

namespace {

// The cluster-side TraceFeeder: queries are routed to one replica, updates
// fan out to every replica.
class ClusterFeeder final : public TraceSource {
 public:
  ClusterFeeder(WebDatabaseCluster* cluster, const Trace* trace,
                const QcProfile& profile, uint64_t qc_seed)
      : TraceSource(&cluster->sim(), trace),
        cluster_(cluster),
        rng_(qc_seed),
        generator_(profile) {}

  void FireArrivals() override {
    SubmitDue(
        [this](const UpdateRecord& u) {
          cluster_->SubmitUpdate(u.item, u.value, u.exec_time);
        },
        [this](const QueryRecord& q) {
          cluster_->SubmitQuery(q.type, q.items, generator_.Next(rng_),
                                q.exec_time);
        });
  }

 private:
  WebDatabaseCluster* cluster_;
  Rng rng_;
  QcGenerator generator_;
};

}  // namespace

ClusterExperimentResult RunClusterExperiment(
    const Trace& trace, const WebDatabaseCluster::SchedulerFactory& factory,
    const ClusterConfig& config, const QcProfile& profile,
    uint64_t qc_seed) {
  trace.CheckValid();
  WebDatabaseCluster cluster(trace.num_items, factory, config);
  cluster.ReserveCapacity(trace.queries.size(), trace.updates.size());
  ClusterFeeder feeder(&cluster, &trace, profile, qc_seed);
  feeder.Start();
  cluster.Run();
  WEBDB_CHECK(feeder.Done());
  WEBDB_CHECK(cluster.IsQuiescent());

  ClusterExperimentResult result;
  result.routing = ToString(config.routing.policy);
  result.num_replicas = config.num_replicas;
  result.total_pct = cluster.TotalPct();
  result.gained = cluster.TotalGained();
  result.max = cluster.TotalMax();
  result.queries_committed = cluster.TotalQueriesCommitted();
  result.updates_applied = cluster.TotalUpdatesApplied();
  // Committed-count-weighted means across replicas, via the per-replica
  // sums.
  double response_sum = 0.0, staleness_sum = 0.0;
  int64_t committed = 0;
  for (size_t i = 0; i < cluster.NumReplicas(); ++i) {
    result.routed.push_back(cluster.RoutedCount(i));
    const ServerMetrics& metrics = cluster.replica(i).metrics();
    response_sum += metrics.response_time_ms.sum();
    staleness_sum += metrics.staleness.sum();
    committed += metrics.queries_committed;
  }
  if (committed > 0) {
    result.avg_response_ms = response_sum / static_cast<double>(committed);
    result.avg_staleness = staleness_sum / static_cast<double>(committed);
  }
  return result;
}

}  // namespace webdb
