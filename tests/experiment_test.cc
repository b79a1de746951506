#include "exp/experiment.h"

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "exp/scheduler_factory.h"
#include "sched/fifo_scheduler.h"
#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

TEST(SchedulerFactoryTest, NamesRoundTrip) {
  for (SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kUpdateHigh,
        SchedulerKind::kQueryHigh, SchedulerKind::kFifoUpdateHigh,
        SchedulerKind::kFifoQueryHigh, SchedulerKind::kQuts}) {
    ASSERT_TRUE(SchedulerKindFromName(ToString(kind)).has_value());
    EXPECT_EQ(*SchedulerKindFromName(ToString(kind)), kind);
    SchedulerSpec spec;
    spec.kind = kind;
    EXPECT_NE(MakeScheduler(spec), nullptr);
  }
}

TEST(SchedulerFactoryTest, UnknownNameIsNullopt) {
  EXPECT_EQ(SchedulerKindFromName("no-such-policy"), std::nullopt);
  EXPECT_EQ(SchedulerKindFromName(""), std::nullopt);
  EXPECT_EQ(SchedulerKindFromName("FIFO"), std::nullopt);  // case-sensitive
}

TEST(SchedulerFactoryTest, ValidSchedulerNamesCoversEveryKind) {
  const std::vector<std::string> names = ValidSchedulerNames();
  ASSERT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    EXPECT_TRUE(SchedulerKindFromName(name).has_value()) << name;
  }
}

TEST(SchedulerFactoryTest, PaperSchedulersAreTheFourCompared) {
  const auto kinds = PaperSchedulers();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], SchedulerKind::kFifo);
  EXPECT_EQ(kinds[3], SchedulerKind::kQuts);
}

TEST(ExperimentTest, FillsResultFields) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(21));
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  EXPECT_EQ(result.scheduler, "QUTS");
  EXPECT_GT(result.queries_committed, 0);
  EXPECT_GT(result.updates_applied, 0);
  EXPECT_GT(result.total_pct, 0.0);
  EXPECT_NEAR(result.qos_max_pct + result.qod_max_pct, 1.0, 1e-9);
  EXPECT_FALSE(result.qos_gained_per_s.empty());
  EXPECT_FALSE(result.rho_series.empty());
}

TEST(ExperimentTest, RegistrySnapshotMirrorsCountersAndRho) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(21));
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);

  const double* committed = result.registry.Find("server.queries.committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(static_cast<int64_t>(*committed), result.queries_committed);
  const double* applied = result.registry.Find("server.updates.applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(static_cast<int64_t>(*applied), result.updates_applied);

  // QUTS exposes its final rho, matching the recorded series.
  const double* rho = result.registry.Find("scheduler.quts.rho");
  ASSERT_NE(rho, nullptr);
  ASSERT_FALSE(result.rho_series.empty());
  EXPECT_DOUBLE_EQ(*rho, result.rho_series.back().second);
}

TEST(ExperimentTest, PeriodicRegistrySeriesTracksTheRun) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(26));
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  options.server.metric_snapshot_period = Seconds(1);
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  ASSERT_GT(result.registry_series.size(), 1u);
  for (size_t i = 1; i < result.registry_series.size(); ++i) {
    EXPECT_GT(result.registry_series[i].time,
              result.registry_series[i - 1].time);
  }
  // Every periodic snapshot carries the scheduler's gauges.
  EXPECT_NE(result.registry_series.front().Find("scheduler.quts.rho"),
            nullptr);
}

TEST(ExperimentTest, NonQutsSchedulerHasNoRhoSeries) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(22));
  FifoScheduler scheduler;
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  EXPECT_TRUE(result.rho_series.empty());
  EXPECT_EQ(result.scheduler, "FIFO");
}

TEST(ExperimentTest, ZeroContractsModeEarnsNothing) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(23));
  FifoScheduler scheduler;
  ExperimentOptions options;
  options.qc = ZeroContracts{};
  options.server.lifetime_factor = 0.0;
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  EXPECT_DOUBLE_EQ(result.qos_max, 0.0);
  EXPECT_DOUBLE_EQ(result.qos_gained, 0.0);
  EXPECT_EQ(result.queries_committed,
            static_cast<int64_t>(trace.queries.size()));
  EXPECT_GT(result.avg_response_ms, 0.0);
}

TEST(ExperimentTest, ScheduleModeUsesTimeVaryingProfiles) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(24));
  const auto schedule = TimeVaryingQcGenerator::AlternatingPreference(
      trace.EndTime() + 1, 2, 5.0, QcShape::kStep);
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.qc = QcSchedule{&schedule};
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  EXPECT_GT(result.total_pct, 0.0);
  // First half QoD-heavy, second half QoS-heavy: the per-second max series
  // must reflect the flip.
  const size_t half = result.qos_max_per_s.size() / 2;
  double qos_head = 0.0, qos_tail = 0.0, qod_head = 0.0, qod_tail = 0.0;
  for (size_t i = 0; i < half; ++i) {
    qos_head += result.qos_max_per_s[i];
    qod_head += result.qod_max_per_s[i];
  }
  for (size_t i = half; i < result.qos_max_per_s.size(); ++i) {
    qos_tail += result.qos_max_per_s[i];
    qod_tail += result.qod_max_per_s[i];
  }
  EXPECT_GT(qod_head, qos_head);
  EXPECT_GT(qos_tail, qod_tail);
}

TEST(ExperimentDeathTest, ScheduleSourceRequiresAGenerator) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(25));
  FifoScheduler scheduler;
  ExperimentOptions options;
  options.qc = QcSchedule{};  // null generator
  EXPECT_DEATH(RunExperiment(trace, &scheduler, options), "");
}

}  // namespace
}  // namespace webdb
