// Golden regression tests: pin end-to-end results for fixed seeds so that
// accidental behavior changes in any layer (RNG, simulator ordering,
// scheduler logic, profit math) surface immediately. Tolerances are loose
// enough for cross-compiler floating-point differences but tight enough to
// catch real logic changes.
//
// If a change is *intended* to alter scheduling behavior, update these
// constants and say so in the commit message.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/scheduler_factory.h"
#include "exp/sweep_runner.h"
#include "trace/stock_trace_generator.h"
#include "util/csv.h"

namespace webdb {
namespace {

class RegressionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockTraceConfig config = StockTraceConfig::Small(1234);
    config.query_rate = 40.0;
    config.update_rate_start = 280.0;
    config.update_rate_end = 200.0;
    trace_ = new Trace(GenerateStockTrace(config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static ExperimentResult Run(SchedulerKind kind) {
    SchedulerSpec spec;
    spec.kind = kind;
    ExperimentOptions options;
    options.qc_seed = 99;
    options.qc = BalancedProfile(QcShape::kStep);
    options.compute_end_state_hash = true;
    return RunExperiment(*trace_, spec, options);
  }

  static Trace* trace_;
};

Trace* RegressionTest::trace_ = nullptr;

TEST_F(RegressionTest, TraceShapePinned) {
  // Trace generation is fully determined by the seed.
  EXPECT_EQ(trace_->queries.size(), 908u);
  EXPECT_EQ(trace_->updates.size(), 2222u);
  EXPECT_EQ(trace_->queries.front().arrival, trace_->queries.front().arrival);
}

TEST_F(RegressionTest, FifoOutcomePinned) {
  const ExperimentResult result = Run(SchedulerKind::kFifo);
  EXPECT_EQ(result.queries_committed + result.queries_dropped, 908);
  EXPECT_NEAR(result.total_pct, result.total_pct, 0.0);  // self-consistency
  // Integer counters must be exactly reproducible.
  static const ExperimentResult pinned = Run(SchedulerKind::kFifo);
  EXPECT_EQ(result.queries_committed, pinned.queries_committed);
  EXPECT_EQ(result.updates_invalidated, pinned.updates_invalidated);
  EXPECT_DOUBLE_EQ(result.qos_gained, pinned.qos_gained);
}

TEST_F(RegressionTest, SchedulerTotalsPinned) {
  // This 10-second workload is dominated by a flash crowd, so UH (pure
  // freshness) leads and the query-favoring policies trail — a deliberately
  // different regime from the full-trace figures. Values pinned with a
  // tolerance wide enough for cross-compiler floating-point noise.
  const double fifo = Run(SchedulerKind::kFifo).total_pct;
  const double uh = Run(SchedulerKind::kUpdateHigh).total_pct;
  const double qh = Run(SchedulerKind::kQueryHigh).total_pct;
  const double quts = Run(SchedulerKind::kQuts).total_pct;
  EXPECT_GT(quts, fifo);
  EXPECT_GT(qh, fifo);
  EXPECT_NEAR(uh, 0.751, 0.05);
  EXPECT_NEAR(quts, 0.596, 0.05);
  for (double v : {fifo, uh, qh, quts}) {
    EXPECT_GT(v, 0.2);
    EXPECT_LT(v, 1.0 + 1e-9);
  }
}

TEST_F(RegressionTest, EndStateHashPinned) {
  // The FNV-1a end-state hash (WebDatabaseServer::EndStateHash) reduces the
  // whole schedule — every transaction outcome, every item's sequence
  // numbers, the lifecycle counters, the final clock — to one number. Only
  // integer state and moved (never computed) doubles are mixed, so the
  // pinned values hold across compilers and libm versions. If a change
  // *intends* to alter scheduling, update these constants and say so in the
  // commit message; the failure message prints the new values.
  const ExperimentResult fifo = Run(SchedulerKind::kFifo);
  const ExperimentResult quts = Run(SchedulerKind::kQuts);
  // Both hashes re-pinned when commit started cancelling the query's
  // lifetime-deadline event: the drain clock now ends at the last
  // completion instead of the last (no-op) deadline; commit set identical.
  EXPECT_EQ(fifo.end_state_hash, 0x1f17fc51c80bfd70ULL)
      << "fifo end-state hash changed: 0x" << std::hex << fifo.end_state_hash;
  // QUTS hash re-pinned when ShouldPreempt stopped flipping to the
  // opposite side on a boundary draw for the running side with an empty
  // waiting queue (the running transaction counts as its side's work), and
  // NextDecisionTime stopped answering `now` for an expired atom.
  EXPECT_EQ(quts.end_state_hash, 0x815b75c154044dafULL)
      << "quts end-state hash changed: 0x" << std::hex << quts.end_state_hash;
  // Same run twice -> same hash, and different policies must not collide.
  EXPECT_EQ(Run(SchedulerKind::kFifo).end_state_hash, fifo.end_state_hash);
  EXPECT_NE(fifo.end_state_hash, quts.end_state_hash);
}

// Reads every row of a headline-results CSV (see WriteExperimentCsv).
std::vector<std::vector<std::string>> ReadCsv(const std::string& path) {
  CsvReader reader(path);
  EXPECT_TRUE(reader.ok()) << "cannot open " << path;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (reader.ReadRow(fields)) rows.push_back(fields);
  return rows;
}

TEST_F(RegressionTest, ParallelSweepMatchesGoldenSnapshot) {
  // A coarse Figure-5-style grid (3 QoD shares x the 4 paper schedulers)
  // run through SweepRunner at jobs=4, snapshotted as a committed CSV.
  // Counters compare exactly; doubles with a tolerance wide enough for
  // cross-compiler floating-point noise. SweepRunner guarantees the rows
  // are independent of thread count, so the snapshot doubles as an
  // end-to-end determinism check for the parallel path.
  //
  // To regenerate after an *intended* behavior change:
  //   WEBDB_REGEN_GOLDEN=1 ./regression_test
  //       --gtest_filter='*ParallelSweepMatchesGoldenSnapshot'
  const std::string golden_path =
      std::string(WEBDB_TEST_DATA_DIR) + "/golden_sweep.csv";

  const std::vector<SchedulerKind> kinds = PaperSchedulers();
  std::vector<SweepRunner::Point> points;
  for (double qod_share : {0.2, 0.5, 0.8}) {
    for (SchedulerKind kind : kinds) {
      SweepRunner::Point point;
      point.trace = trace_;
      point.spec.kind = kind;
      point.options.qc_seed = 99;
      point.options.qc = Table4Profile(qod_share, QcShape::kStep);
      points.push_back(point);
    }
  }

  SweepConfig config;
  config.jobs = 4;
  config.base_seed = 1234;
  const std::vector<ExperimentResult> results =
      SweepRunner(config).RunPoints(points);
  ASSERT_EQ(results.size(), points.size());

  if (std::getenv("WEBDB_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteExperimentCsv(golden_path, results));
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const std::string actual_path =
      ::testing::TempDir() + "regression_sweep.csv";
  ASSERT_TRUE(WriteExperimentCsv(actual_path, results));

  const auto expected = ReadCsv(golden_path);
  const auto actual = ReadCsv(actual_path);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual[0], expected[0]);  // header
  // Columns 1..7 are doubles, everything else (scheduler name, lifecycle
  // counters) must match exactly.
  for (size_t r = 1; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size()) << "row " << r;
    for (size_t c = 0; c < expected[r].size(); ++c) {
      if (c >= 1 && c <= 7) {
        const double want = std::stod(expected[r][c]);
        const double got = std::stod(actual[r][c]);
        EXPECT_NEAR(got, want, std::max(1e-6, 1e-3 * std::abs(want)))
            << "row " << r << " col " << c << " (" << expected[0][c] << ")";
      } else {
        EXPECT_EQ(actual[r][c], expected[r][c])
            << "row " << r << " col " << c << " (" << expected[0][c] << ")";
      }
    }
  }
}

}  // namespace
}  // namespace webdb
