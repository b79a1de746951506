// Cross-scheduler property tests on small generated traces: conservation of
// transactions, profit bounds, determinism, and the qualitative orderings
// the paper takes for granted (UH freshest, QH fastest).

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "exp/experiment.h"
#include "exp/scheduler_factory.h"
#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

// A deliberately overloaded small workload (offered utilization > 1) so the
// schedulers actually have to make trade-offs.
Trace LoadedTrace(uint64_t seed) {
  StockTraceConfig config = StockTraceConfig::Small(seed);
  config.query_rate = 40.0;
  config.update_rate_start = 280.0;
  config.update_rate_end = 200.0;
  return GenerateStockTrace(config);
}

ExperimentResult RunOnce(const Trace& trace, SchedulerKind kind,
                     uint64_t qc_seed = 7) {
  SchedulerSpec spec;
  spec.kind = kind;
  ExperimentOptions options;
  options.qc_seed = qc_seed;
  options.qc = BalancedProfile(QcShape::kStep);
  return RunExperiment(trace, spec, options);
}

class SchedulerPropertyTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, uint64_t>> {};

TEST_P(SchedulerPropertyTest, EveryTransactionReachesATerminalState) {
  const auto [kind, seed] = GetParam();
  const Trace trace = LoadedTrace(seed);
  const ExperimentResult result = RunOnce(trace, kind);
  EXPECT_EQ(result.queries_committed + result.queries_dropped,
            static_cast<int64_t>(trace.queries.size()));
  EXPECT_EQ(result.updates_applied + result.updates_invalidated,
            static_cast<int64_t>(trace.updates.size()));
}

TEST_P(SchedulerPropertyTest, GainedProfitBoundedBySubmittedMax) {
  const auto [kind, seed] = GetParam();
  const ExperimentResult result = RunOnce(LoadedTrace(seed), kind);
  EXPECT_GE(result.qos_gained, 0.0);
  EXPECT_GE(result.qod_gained, 0.0);
  EXPECT_LE(result.qos_gained, result.qos_max + 1e-9);
  EXPECT_LE(result.qod_gained, result.qod_max + 1e-9);
  EXPECT_GE(result.total_pct, 0.0);
  EXPECT_LE(result.total_pct, 1.0 + 1e-9);
}

TEST_P(SchedulerPropertyTest, DeterministicAcrossRuns) {
  const auto [kind, seed] = GetParam();
  const Trace trace = LoadedTrace(seed);
  const ExperimentResult a = RunOnce(trace, kind);
  const ExperimentResult b = RunOnce(trace, kind);
  EXPECT_DOUBLE_EQ(a.qos_gained, b.qos_gained);
  EXPECT_DOUBLE_EQ(a.qod_gained, b.qod_gained);
  EXPECT_DOUBLE_EQ(a.avg_response_ms, b.avg_response_ms);
  EXPECT_EQ(a.queries_committed, b.queries_committed);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.preemptions, b.preemptions);
}

TEST_P(SchedulerPropertyTest, UtilizationWithinPhysicalBounds) {
  const auto [kind, seed] = GetParam();
  const ExperimentResult result = RunOnce(LoadedTrace(seed), kind);
  EXPECT_GT(result.cpu_utilization, 0.0);
  EXPECT_LE(result.cpu_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerPropertyTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kFifo,
                                         SchedulerKind::kUpdateHigh,
                                         SchedulerKind::kQueryHigh,
                                         SchedulerKind::kFifoUpdateHigh,
                                         SchedulerKind::kFifoQueryHigh,
                                         SchedulerKind::kQuts),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(SchedulerOrderingTest, UpdateHighIsFreshestQueryHighIsFastest) {
  const Trace trace = LoadedTrace(4);
  const ExperimentResult uh = RunOnce(trace, SchedulerKind::kUpdateHigh);
  const ExperimentResult qh = RunOnce(trace, SchedulerKind::kQueryHigh);
  // UH keeps data essentially fresh; QH answers faster than UH.
  EXPECT_LT(uh.avg_staleness, 0.05);
  EXPECT_GE(qh.avg_staleness, uh.avg_staleness);
  EXPECT_LE(qh.avg_response_ms, uh.avg_response_ms);
}

TEST(SchedulerOrderingTest, QutsRhoStaysInTheFeasibleBand) {
  const Trace trace = LoadedTrace(5);
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  ASSERT_FALSE(result.rho_series.empty());
  for (const auto& [time, rho] : result.rho_series) {
    EXPECT_GE(rho, 0.5 - 1e-9);
    EXPECT_LE(rho, 1.0 + 1e-9);
  }
}

TEST(SchedulerOrderingTest, QutsBeatsFifoOnBalancedPreferences) {
  const Trace trace = LoadedTrace(6);
  const ExperimentResult fifo = RunOnce(trace, SchedulerKind::kFifo);
  const ExperimentResult quts = RunOnce(trace, SchedulerKind::kQuts);
  EXPECT_GT(quts.total_pct, fifo.total_pct);
}

}  // namespace
}  // namespace webdb
