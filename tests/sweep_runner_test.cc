// SweepRunner correctness: the determinism contract (bit-identical results
// at any jobs value), submission-order collection, exception propagation,
// edge cases, and the sweep.* metric accounting.

#include "exp/sweep_runner.h"

#include <cstddef>
#include <ios>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

// Serializes every field of an ExperimentResult — hex floats, so two
// results compare byte-for-byte equal iff they are bit-identical.
std::string Serialize(const ExperimentResult& result) {
  std::ostringstream out;
  out << std::hexfloat;
  out << result.scheduler << '|' << result.qos_pct << '|' << result.qod_pct
      << '|' << result.total_pct << '|' << result.qos_max_pct << '|'
      << result.qod_max_pct << '|' << result.qos_gained << '|'
      << result.qod_gained << '|' << result.qos_max << '|' << result.qod_max
      << '|' << result.avg_response_ms << '|' << result.avg_staleness << '|'
      << result.cpu_utilization << '|' << result.queries_committed << '|'
      << result.queries_dropped << '|' << result.queries_expired << '|'
      << result.query_restarts << '|' << result.updates_applied << '|'
      << result.updates_invalidated << '|' << result.update_restarts << '|'
      << result.preemptions;
  for (double v : result.qos_gained_per_s) out << ',' << v;
  for (double v : result.qod_gained_per_s) out << ',' << v;
  for (double v : result.qos_max_per_s) out << ',' << v;
  for (double v : result.qod_max_per_s) out << ',' << v;
  for (const auto& [time, rho] : result.rho_series) {
    out << ';' << time << ':' << rho;
  }
  out << '#' << result.registry.time;
  for (const auto& [name, value] : result.registry.values) {
    out << ';' << name << '=' << value;
  }
  for (const MetricSnapshot& snap : result.registry_series) {
    out << '@' << snap.time;
    for (const auto& [name, value] : snap.values) {
      out << ';' << name << '=' << value;
    }
  }
  return out.str();
}

class SweepRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockTraceConfig config = StockTraceConfig::Small(77);
    config.query_rate = 25.0;
    config.update_rate_start = 150.0;
    config.update_rate_end = 100.0;
    trace_ = new Trace(GenerateStockTrace(config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  // A 16-point sweep mixing schedulers and QC profiles, with per-run
  // derived seeds — the shape the figure sweeps use.
  static std::vector<SweepRunner::Point> SixteenPoints(
      const SweepRunner& runner) {
    const std::vector<SchedulerKind> kinds = PaperSchedulers();
    std::vector<SweepRunner::Point> points;
    for (size_t i = 0; i < 16; ++i) {
      SweepRunner::Point point;
      point.trace = trace_;
      point.spec.kind = kinds[i % kinds.size()];
      point.options.qc_seed = runner.SeedFor(i);
      point.options.qc =
          Table4Profile(0.1 * static_cast<double>(1 + i % 9), QcShape::kStep);
      points.push_back(point);
    }
    return points;
  }

  static Trace* trace_;
};

Trace* SweepRunnerTest::trace_ = nullptr;

TEST_F(SweepRunnerTest, BitIdenticalResultsAtAnyJobsValue) {
  std::vector<std::string> baseline;
  for (int jobs : {1, 4, 8}) {
    SweepConfig config;
    config.jobs = jobs;
    config.base_seed = 2007;
    const SweepRunner runner(config);
    const std::vector<ExperimentResult> results =
        runner.RunPoints(SixteenPoints(runner));
    ASSERT_EQ(results.size(), 16u);
    std::vector<std::string> serialized;
    for (const ExperimentResult& result : results) {
      serialized.push_back(Serialize(result));
    }
    if (jobs == 1) {
      baseline = serialized;
    } else {
      for (size_t i = 0; i < serialized.size(); ++i) {
        EXPECT_EQ(serialized[i], baseline[i])
            << "point " << i << " diverged at jobs=" << jobs;
      }
    }
  }
}

TEST_F(SweepRunnerTest, ResultsCollectedInSubmissionOrder) {
  SweepConfig config;
  config.jobs = 4;
  const SweepRunner runner(config);
  // Tasks deliberately finish out of order (later ids are cheaper).
  const std::vector<size_t> out = runner.Map(32, [](size_t i) { return i; });
  ASSERT_EQ(out.size(), 32u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST_F(SweepRunnerTest, EmptySweepReturnsEmpty) {
  SweepConfig config;
  config.jobs = 4;
  const SweepRunner runner(config);
  EXPECT_TRUE(runner.RunPoints({}).empty());
  EXPECT_TRUE(runner.Map(0, [](size_t) { return 1; }).empty());
}

TEST_F(SweepRunnerTest, SinglePointSweep) {
  SweepConfig config;
  config.jobs = 8;  // more workers than points
  const SweepRunner runner(config);
  const std::vector<int> out = runner.Map(1, [](size_t) { return 41; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 41);
}

TEST_F(SweepRunnerTest, ExceptionPropagatesToCaller) {
  for (int jobs : {1, 4}) {
    SweepConfig config;
    config.jobs = jobs;
    const SweepRunner runner(config);
    EXPECT_THROW(runner.Map(8,
                            [](size_t i) -> int {
                              if (i == 3) throw std::runtime_error("boom");
                              return static_cast<int>(i);
                            }),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST_F(SweepRunnerTest, SeedForMatchesDeriveSeed) {
  SweepConfig config;
  config.base_seed = 99;
  const SweepRunner runner(config);
  for (uint64_t run_id : {uint64_t{0}, uint64_t{1}, uint64_t{1000}}) {
    EXPECT_EQ(runner.SeedFor(run_id), DeriveSeed(99, run_id));
  }
}

TEST_F(SweepRunnerTest, ResolveJobsContract) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_GE(ResolveJobs(0), 1);   // hardware concurrency, at least one
  EXPECT_GE(ResolveJobs(-3), 1);
}

TEST_F(SweepRunnerTest, SweepMetricsRecordedOnSubmittingThread) {
  MetricRegistry registry;
  SweepConfig config;
  config.jobs = 4;
  config.registry = &registry;
  const SweepRunner runner(config);
  (void)runner.Map(10, [](size_t i) { return i; });
  (void)runner.Map(6, [](size_t i) { return i; });
  EXPECT_EQ(registry.Value("sweep.runs"), 16.0);
  EXPECT_EQ(registry.Value("sweep.sweeps"), 2.0);
  EXPECT_GE(registry.Value("sweep.wall_us"), 0.0);
}

}  // namespace
}  // namespace webdb
