// Golden regression for the overload scenarios (exp/overload_scenarios.h):
// a fixed grid of adversarial traces x admission controllers x CPU counts,
// snapshotted as tests/data/golden_overload.csv with the per-run end-state
// hashes pinned in the hash column. Any change to trace generation, tenant
// assignment, admission logic, shedding order or the multi-core schedule
// shows up as a hash or counter diff here.
//
// To regenerate after an *intended* behavior change:
//   WEBDB_REGEN_GOLDEN=1 ./overload_scenario_test
//       --gtest_filter='*MatchesGoldenSnapshot'
//
// The grid deliberately reuses the bench_overload headline regime (a 4-CPU
// box provisioned near capacity, QoS-heavy Table 4 contracts) at test
// scale, and the acceptance ordering — dbf strictly out-earns admit-all and
// queue-cap on the 10x market-open trace at 4 CPUs — is asserted in-test,
// so the ordering itself is pinned, not just the raw numbers.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/sweep_runner.h"
#include "util/csv.h"

namespace webdb {
namespace {

constexpr uint64_t kSeed = 2007;
constexpr int64_t kQueueCap = 64;

struct GridPoint {
  OverloadScenario scenario;
  double scale = 0.0;
  int cpus = 0;
  AdmissionKind admission = AdmissionKind::kAdmitAll;
};

class OverloadScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ~3.2 CPUs of standing query load (see bench/bench_overload.cc): the
    // 4-CPU rows sit just under capacity so the burst backlog has nowhere
    // to drain, which is the regime where admission policy matters.
    OverloadScenarioConfig base;
    base.seed = kSeed;
    base.duration = Seconds(4);
    base.num_stocks = 128;
    base.query_rate = 450.0;
    base.update_rate = 60.0;

    traces_ = new std::vector<Trace>();
    OverloadScenarioConfig market = base;
    market.scale = 10.0;
    traces_->push_back(MakeOverloadTrace(OverloadScenario::kMarketOpen, market));
    OverloadScenarioConfig storm = base;
    storm.scale = 10.0;
    traces_->push_back(MakeOverloadTrace(OverloadScenario::kUpdateStorm, storm));
    // The 100x scale-up on a short window: two orders of magnitude past
    // saturation, the survival end of the acceptance range.
    OverloadScenarioConfig extreme = base;
    extreme.scale = 100.0;
    extreme.duration = Seconds(1);
    traces_->push_back(MakeOverloadTrace(OverloadScenario::kScaleUp, extreme));

    grid_ = new std::vector<GridPoint>();
    results_ = new std::vector<ExperimentResult>();
    const std::vector<AdmissionKind> admissions = {
        AdmissionKind::kAdmitAll, AdmissionKind::kQueueCap,
        AdmissionKind::kDbf};
    std::vector<SweepRunner::Point> points;
    const struct {
      size_t trace;
      OverloadScenario scenario;
      double scale;
      std::vector<int> cpu_counts;
    } rows[] = {
        {0, OverloadScenario::kMarketOpen, 10.0, {1, 4}},
        {1, OverloadScenario::kUpdateStorm, 10.0, {1, 4}},
        {2, OverloadScenario::kScaleUp, 100.0, {4}},
    };
    for (const auto& row : rows) {
      for (int cpus : row.cpu_counts) {
        for (AdmissionKind admission : admissions) {
          grid_->push_back({row.scenario, row.scale, cpus, admission});
          SweepRunner::Point point;
          point.trace = &(*traces_)[row.trace];
          point.spec.kind = SchedulerKind::kQuts;
          point.spec.topology.num_cpus = cpus;
          point.spec.admission.kind = admission;
          point.spec.admission.queue_cap = kQueueCap;
          point.options.qc_seed = 99;
          point.options.qc = Table4Profile(0.2, QcShape::kStep);
          point.options.compute_end_state_hash = true;
          points.push_back(point);
        }
      }
    }
    SweepConfig sweep;
    sweep.jobs = 4;
    sweep.base_seed = kSeed;
    *results_ = SweepRunner(sweep).RunPoints(points);
  }

  static void TearDownTestSuite() {
    delete traces_;
    delete grid_;
    delete results_;
    traces_ = nullptr;
    grid_ = nullptr;
    results_ = nullptr;
  }

  static const ExperimentResult& ResultFor(OverloadScenario scenario,
                                           double scale, int cpus,
                                           AdmissionKind admission) {
    for (size_t i = 0; i < grid_->size(); ++i) {
      const GridPoint& point = (*grid_)[i];
      if (point.scenario == scenario && point.scale == scale &&
          point.cpus == cpus && point.admission == admission) {
        return (*results_)[i];
      }
    }
    ADD_FAILURE() << "grid point missing";
    static ExperimentResult empty;
    return empty;
  }

  static std::vector<Trace>* traces_;
  static std::vector<GridPoint>* grid_;
  static std::vector<ExperimentResult>* results_;
};

std::vector<Trace>* OverloadScenarioTest::traces_ = nullptr;
std::vector<GridPoint>* OverloadScenarioTest::grid_ = nullptr;
std::vector<ExperimentResult>* OverloadScenarioTest::results_ = nullptr;

TEST_F(OverloadScenarioTest, TraceShapesPinned) {
  ASSERT_EQ(traces_->size(), 3u);
  // Scenario generation is a pure function of the config.
  for (const Trace& trace : *traces_) {
    EXPECT_GT(trace.queries.size(), 0u);
    trace.CheckValid();
  }
  // market-open adds a burst on top of the same base trace: strictly more
  // queries than updates here, and the storm is update-dominated.
  EXPECT_GT((*traces_)[0].queries.size(), (*traces_)[0].updates.size());
  EXPECT_GT((*traces_)[1].updates.size(), (*traces_)[1].queries.size());
}

TEST_F(OverloadScenarioTest, ConservationHoldsOnEveryGridPoint) {
  for (size_t i = 0; i < grid_->size(); ++i) {
    const GridPoint& point = (*grid_)[i];
    const ExperimentResult& result = (*results_)[i];
    size_t trace_index = point.scenario == OverloadScenario::kMarketOpen ? 0
                         : point.scenario == OverloadScenario::kUpdateStorm
                             ? 1
                             : 2;
    EXPECT_EQ(static_cast<size_t>(
                  result.queries_committed + result.queries_dropped +
                  result.queries_rejected + result.queries_shed),
              (*traces_)[trace_index].queries.size())
        << ToString(point.scenario) << " cpus=" << point.cpus << " "
        << ToString(point.admission);
  }
}

TEST_F(OverloadScenarioTest, DbfOutEarnsAdmitAllAndQueueCapOnFlashCrowd) {
  // The PR's acceptance criterion, pinned as an ordering (robust to small
  // numeric drift that the golden CSV would flag anyway).
  const double admit_all =
      ResultFor(OverloadScenario::kMarketOpen, 10.0, 4,
                AdmissionKind::kAdmitAll)
          .total_pct;
  const double queue_cap =
      ResultFor(OverloadScenario::kMarketOpen, 10.0, 4,
                AdmissionKind::kQueueCap)
          .total_pct;
  const double dbf = ResultFor(OverloadScenario::kMarketOpen, 10.0, 4,
                               AdmissionKind::kDbf)
                         .total_pct;
  EXPECT_GT(dbf, admit_all);
  EXPECT_GT(dbf, queue_cap);
  // And shedding must actually have happened — the winning controller is
  // doing its job, not coasting through an underloaded trace.
  EXPECT_GT(ResultFor(OverloadScenario::kMarketOpen, 10.0, 4,
                      AdmissionKind::kDbf)
                .queries_shed,
            0);
}

TEST_F(OverloadScenarioTest, MatchesGoldenSnapshot) {
  const std::string golden_path =
      std::string(WEBDB_TEST_DATA_DIR) + "/golden_overload.csv";

  // Dedicated writer: golden_sweep.csv (WriteExperimentCsv) keeps its own
  // pinned header; this snapshot needs scenario/admission/hash columns.
  auto write = [&](const std::string& path) {
    CsvWriter writer(path);
    writer.WriteRow({"scenario", "scale", "cpus", "admission", "total_pct",
                     "qos_pct", "qod_pct", "committed", "dropped", "rejected",
                     "shed", "end_state_hash"});
    char buffer[32];
    for (size_t i = 0; i < grid_->size(); ++i) {
      const GridPoint& point = (*grid_)[i];
      const ExperimentResult& result = (*results_)[i];
      std::vector<std::string> row;
      row.push_back(ToString(point.scenario));
      std::snprintf(buffer, sizeof(buffer), "%.0f", point.scale);
      row.push_back(buffer);
      row.push_back(std::to_string(point.cpus));
      row.push_back(ToString(point.admission));
      std::snprintf(buffer, sizeof(buffer), "%.6f", result.total_pct);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.6f", result.qos_pct);
      row.push_back(buffer);
      std::snprintf(buffer, sizeof(buffer), "%.6f", result.qod_pct);
      row.push_back(buffer);
      row.push_back(std::to_string(result.queries_committed));
      row.push_back(std::to_string(result.queries_dropped));
      row.push_back(std::to_string(result.queries_rejected));
      row.push_back(std::to_string(result.queries_shed));
      std::snprintf(buffer, sizeof(buffer), "%016llx",
                    static_cast<unsigned long long>(result.end_state_hash));
      row.push_back(buffer);
      writer.WriteRow(row);
    }
    return writer.Close();
  };

  if (std::getenv("WEBDB_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(write(golden_path));
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const std::string actual_path = ::testing::TempDir() + "overload.csv";
  ASSERT_TRUE(write(actual_path));

  auto read = [](const std::string& path) {
    CsvReader reader(path);
    EXPECT_TRUE(reader.ok()) << "cannot open " << path;
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> fields;
    while (reader.ReadRow(fields)) rows.push_back(fields);
    return rows;
  };
  const auto expected = read(golden_path);
  const auto actual = read(actual_path);
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual[0], expected[0]);  // header
  for (size_t r = 1; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size()) << "row " << r;
    for (size_t c = 0; c < expected[r].size(); ++c) {
      if (c >= 4 && c <= 6) {
        // Profit percentages: doubles, compared with cross-compiler slack.
        const double want = std::stod(expected[r][c]);
        const double got = std::stod(actual[r][c]);
        EXPECT_NEAR(got, want, std::max(1e-6, 1e-3 * std::abs(want)))
            << "row " << r << " col " << c << " (" << expected[0][c] << ")";
      } else {
        // Scenario names, counters and the end-state hash match exactly.
        EXPECT_EQ(actual[r][c], expected[r][c])
            << "row " << r << " col " << c << " (" << expected[0][c] << ")";
      }
    }
  }
}

}  // namespace
}  // namespace webdb
