#include "exp/cluster_experiment.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

WebDatabaseCluster::SchedulerFactory QutsFactory() {
  return [] {
    return std::make_unique<QutsScheduler>(QutsScheduler::Options{});
  };
}

TEST(ClusterExperimentTest, RunsTraceThroughCluster) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(41));
  ClusterConfig config;
  config.num_replicas = 2;
  config.routing.policy = RoutingPolicy::kQcAware;
  const ClusterExperimentResult result = RunClusterExperiment(
      trace, QutsFactory(), config, BalancedProfile(QcShape::kStep));
  EXPECT_EQ(result.routing, "qc-aware");
  EXPECT_EQ(result.num_replicas, 2);
  ASSERT_EQ(result.routed.size(), 2u);
  EXPECT_EQ(result.routed[0] + result.routed[1],
            static_cast<int64_t>(trace.queries.size()));
  // Every update runs on every replica.
  EXPECT_LE(result.updates_applied,
            2 * static_cast<int64_t>(trace.updates.size()));
  EXPECT_GT(result.updates_applied, 0);
  EXPECT_GT(result.total_pct, 0.0);
  EXPECT_LE(result.total_pct, 1.0 + 1e-9);
  EXPECT_GT(result.avg_response_ms, 0.0);
}

TEST(ClusterExperimentTest, MoreReplicasNeverEarnLess) {
  StockTraceConfig trace_config = StockTraceConfig::Small(42);
  trace_config.query_rate = 60.0;  // enough load that capacity matters
  trace_config.update_rate_start = 250.0;
  trace_config.update_rate_end = 180.0;
  const Trace trace = GenerateStockTrace(trace_config);
  double prev_pct = -1.0;
  for (int replicas : {1, 2, 4}) {
    ClusterConfig config;
    config.num_replicas = replicas;
    config.routing.policy = RoutingPolicy::kQcAware;
    const ClusterExperimentResult result = RunClusterExperiment(
        trace, QutsFactory(), config, BalancedProfile(QcShape::kStep));
    EXPECT_GE(result.total_pct, prev_pct - 0.02)
        << replicas << " replicas earned less";
    prev_pct = result.total_pct;
  }
}

// Pins one small run's outcome exactly: the cluster's arrivals reach the
// replicas through the simulator's arrival source, merged with the delayed
// update deliveries on the event heap, and every count and the earned
// profit must stay those of the chained-event pump the source replaced.
TEST(ClusterExperimentTest, PinnedOutcomeOfASmallRun) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(44));
  ClusterConfig config;
  config.num_replicas = 3;
  config.routing.policy = RoutingPolicy::kQcAware;
  config.replica_delays = {0, Millis(2), Millis(5)};
  const ClusterExperimentResult result = RunClusterExperiment(
      trace, QutsFactory(), config, BalancedProfile(QcShape::kStep));
  EXPECT_EQ(result.gained, 15241.589937619945);
  EXPECT_EQ(result.queries_committed, 262);
  EXPECT_EQ(result.updates_applied, 1167);
  EXPECT_EQ(result.routed, (std::vector<int64_t>{250, 10, 2}));
}

TEST(ClusterExperimentTest, DeterministicAcrossRuns) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(43));
  ClusterConfig config;
  config.num_replicas = 3;
  config.routing.policy = RoutingPolicy::kRoundRobin;
  const ClusterExperimentResult a = RunClusterExperiment(
      trace, QutsFactory(), config, BalancedProfile(QcShape::kStep));
  const ClusterExperimentResult b = RunClusterExperiment(
      trace, QutsFactory(), config, BalancedProfile(QcShape::kStep));
  EXPECT_DOUBLE_EQ(a.gained, b.gained);
  EXPECT_EQ(a.queries_committed, b.queries_committed);
  EXPECT_EQ(a.routed, b.routed);
}

}  // namespace
}  // namespace webdb
