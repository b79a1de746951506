// Smoke tests for every figure driver on a small trace: shapes, ranges and
// structural invariants, not absolute values. Drivers run through the same
// SweepRunner path the benches use, at jobs=4, so these tests double as
// smoke coverage of the parallel fan-out.

#include "exp/figures.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

class FiguresTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockTraceConfig config = StockTraceConfig::Small(31);
    config.query_rate = 30.0;
    config.update_rate_start = 200.0;
    config.update_rate_end = 120.0;
    trace_ = new Trace(GenerateStockTrace(config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static SweepConfig Par() {
    SweepConfig config;
    config.jobs = 4;
    return config;
  }
  static Trace* trace_;
};

Trace* FiguresTest::trace_ = nullptr;

TEST_F(FiguresTest, Figure1HasThreePoliciesWithSaneValues) {
  const auto rows = RunFigure1(*trace_, Par());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].policy, "fifo");
  EXPECT_EQ(rows[1].policy, "fifo-uh");
  EXPECT_EQ(rows[2].policy, "fifo-qh");
  for (const auto& row : rows) {
    EXPECT_GT(row.avg_response_ms, 0.0);
    EXPECT_GE(row.avg_staleness_uu, 0.0);
  }
  // The paper's dominance structure: UH freshest, QH fastest.
  EXPECT_LE(rows[1].avg_staleness_uu, rows[0].avg_staleness_uu + 1e-9);
  EXPECT_LE(rows[2].avg_response_ms, rows[1].avg_response_ms);
}

TEST_F(FiguresTest, Figure6CoversFourSchedulersBothShapes) {
  for (QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    const auto rows = RunFigure6(*trace_, shape, 7, Par());
    ASSERT_EQ(rows.size(), 4u);
    for (const auto& row : rows) {
      EXPECT_GE(row.qos_pct, 0.0);
      EXPECT_GE(row.qod_pct, 0.0);
      EXPECT_LE(row.TotalPct(), 1.0 + 1e-9);
    }
  }
}

TEST_F(FiguresTest, QcSweepHasNinePointsWithMatchingDiagonal) {
  const auto points = RunQcSweep(*trace_, SchedulerKind::kQuts, 7, Par());
  ASSERT_EQ(points.size(), 9u);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(points[i].qod_share_pct, 0.1 * (i + 1), 1e-9);
    // The diagonal reference: QOSmax% ≈ 1 - QODmax%.
    EXPECT_NEAR(points[i].qos_max_pct, 1.0 - points[i].qod_share_pct, 0.05);
    EXPECT_LE(points[i].total_pct, 1.0 + 1e-9);
  }
}

TEST_F(FiguresTest, ImprovementSummaryComputesRatios) {
  std::vector<SweepPoint> uh(2), qh(2), quts(2);
  uh[0].total_pct = 0.5;
  qh[0].total_pct = 0.8;
  quts[0].total_pct = 1.0;
  uh[1].total_pct = 0.8;
  qh[1].total_pct = 0.5;
  quts[1].total_pct = 0.9;
  const auto summary = SummarizeImprovement(uh, qh, quts);
  EXPECT_DOUBLE_EQ(summary.max_vs_uh, 1.0);   // (1.0-0.5)/0.5
  EXPECT_DOUBLE_EQ(summary.max_vs_qh, 0.8);   // (0.9-0.5)/0.5
  EXPECT_DOUBLE_EQ(summary.min_vs_best, 0.1);
}

TEST_F(FiguresTest, Figure9SeriesSmoothedAndRhoInBand) {
  const auto result = RunFigure9(*trace_, /*intervals=*/2, /*ratio=*/5.0);
  EXPECT_FALSE(result.total_gained.empty());
  EXPECT_EQ(result.total_gained.size(), result.total_max.size());
  ASSERT_FALSE(result.rho.empty());
  for (const auto& [time, rho] : result.rho) {
    EXPECT_GE(rho, 0.5 - 1e-9);
    EXPECT_LE(rho, 1.0 + 1e-9);
  }
  // Gained never exceeds max in aggregate.
  double gained = 0.0, max = 0.0;
  for (double v : result.total_gained) gained += v;
  for (double v : result.total_max) max += v;
  EXPECT_LE(gained, max * 1.05);
}

TEST_F(FiguresTest, OmegaSensitivityReturnsOnePointPerOmega) {
  const auto points = RunOmegaSensitivity(*trace_, {0.5, 1.0, 5.0}, 7, Par());
  ASSERT_EQ(points.size(), 3u);
  for (const auto& [omega, pct] : points) {
    EXPECT_GT(pct, 0.0);
    EXPECT_LE(pct, 1.0 + 1e-9);
  }
}

TEST_F(FiguresTest, TauSensitivityReturnsOnePointPerTau) {
  const auto points = RunTauSensitivity(*trace_, {1.0, 10.0, 100.0}, 7, Par());
  ASSERT_EQ(points.size(), 3u);
  for (const auto& [tau, pct] : points) {
    EXPECT_GT(pct, 0.0);
    EXPECT_LE(pct, 1.0 + 1e-9);
  }
}

TEST_F(FiguresTest, CombinationAblationCoversBothModes) {
  const auto rows = RunCombinationAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_NE(rows[0].variant.find("qos-independent"), std::string::npos);
  EXPECT_NE(rows[1].variant.find("qos-dependent"), std::string::npos);
  // QoS-dependent can only reduce the earned QoD.
  EXPECT_LE(rows[1].qod_pct, rows[0].qod_pct + 1e-9);
}

TEST_F(FiguresTest, QueryPolicyAblationCoversFourPolicies) {
  const auto rows = RunQueryPolicyAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) {
    EXPECT_LE(row.total_pct, 1.0 + 1e-9);
    EXPECT_GT(row.total_pct, 0.0);
  }
}

TEST_F(FiguresTest, StalenessAblationCoversVariants) {
  const auto rows = RunStalenessAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_NE(rows[0].variant.find("uu/max"), std::string::npos);
  EXPECT_NE(rows[3].variant.find("td"), std::string::npos);
}

TEST_F(FiguresTest, SlicingAblationCoversBothSchemes) {
  const auto rows = RunSlicingAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].variant, "quts/random");
  EXPECT_EQ(rows[1].variant, "quts/deterministic");
  // Same long-run share: totals within a few points of each other.
  EXPECT_NEAR(rows[0].total_pct, rows[1].total_pct, 0.1);
}

TEST_F(FiguresTest, AdmissionAblationCoversControllers) {
  const auto rows = RunAdmissionAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].variant, "admit-all");
  EXPECT_EQ(rows[1].variant, "queue-cap(64)");
  EXPECT_EQ(rows[2].variant, "dbf");
  for (const auto& row : rows) {
    EXPECT_GT(row.total_pct, 0.0);
    EXPECT_LE(row.total_pct, 1.0 + 1e-9);
  }
}

TEST_F(FiguresTest, ConcurrencyAblationCoversBothModes) {
  const auto rows = RunConcurrencyAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].variant, "2pl-hp");
  EXPECT_EQ(rows[1].variant, "no-cc");
}

TEST_F(FiguresTest, UpdatePolicyAblationCoversBothPolicies) {
  const auto rows = RunUpdatePolicyAblation(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].variant, "quts/fifo");
  EXPECT_EQ(rows[1].variant, "quts/demand-weighted");
  for (const auto& row : rows) EXPECT_GT(row.total_pct, 0.0);
}

TEST_F(FiguresTest, AdaptabilityComparisonRanksQutsAtTop) {
  const auto rows = RunAdaptabilityComparison(*trace_, 7, Par());
  ASSERT_EQ(rows.size(), 4u);
  double quts_total = 0.0, best_other = 0.0;
  for (const auto& row : rows) {
    if (row.variant == "quts") {
      quts_total = row.total_pct;
    } else {
      best_other = std::max(best_other, row.total_pct);
    }
  }
  // At worst a near-tie on this heavily down-scaled schedule. The slack
  // covers QH edging ahead at test scale: QUTS no longer preempts a
  // running transaction when the atom draw picks its own side but its
  // waiting queue is empty (that flip over-served the opposite side
  // beyond the ρ share), which costs a fraction of a point here while the
  // full Figure 8/9 dominance results are unchanged.
  EXPECT_GT(quts_total, best_other - 0.06);
}

TEST_F(FiguresTest, RhoModelValidationProducesBothCurves) {
  const auto points = RunRhoModelValidation(
      *trace_, {0.2, 0.5, 0.8, 1.0}, Table4Profile(0.8), 7, Par());
  ASSERT_EQ(points.size(), 4u);
  for (const auto& point : points) {
    EXPECT_GE(point.measured_total_pct, 0.0);
    EXPECT_LE(point.measured_total_pct, 1.0 + 1e-9);
    EXPECT_GE(point.modeled_total_pct, 0.0);
    EXPECT_LE(point.modeled_total_pct, 1.0 + 1e-9);
  }
  // The model's optimum for QODmax% = 0.8 is rho* = 0.625: modeled profit
  // at 0.5 and 0.8 exceeds the rho = 0.2 end.
  EXPECT_GT(points[1].modeled_total_pct, points[0].modeled_total_pct);
}

TEST_F(FiguresTest, CanonicalGridsMatchPaperShapes) {
  // The bench grids are now shared declarations; pin their shapes so a
  // bench and the paper can't silently drift apart.
  EXPECT_EQ(Table4QodShares().size(), 9u);
  EXPECT_DOUBLE_EQ(Table4QodShares().front(), 0.1);
  EXPECT_DOUBLE_EQ(Table4QodShares().back(), 0.9);
  EXPECT_EQ(OmegaSensitivityGrid().size(), 9u);
  EXPECT_DOUBLE_EQ(OmegaSensitivityGrid().front(), 0.1);
  EXPECT_DOUBLE_EQ(OmegaSensitivityGrid().back(), 100.0);
  EXPECT_EQ(TauSensitivityGrid().size(), 7u);
  EXPECT_DOUBLE_EQ(TauSensitivityGrid().front(), 1.0);
  EXPECT_DOUBLE_EQ(TauSensitivityGrid().back(), 1000.0);
  EXPECT_EQ(AlphaSensitivityGrid().size(), 6u);
  EXPECT_EQ(RhoValidationGrid().size(), 7u);
  EXPECT_EQ(CorrelationRobustnessGrid().size(), 4u);
  EXPECT_EQ(SpikeRobustnessGrid().size(), 4u);
}

TEST_F(FiguresTest, DriversIdenticalSerialAndParallel) {
  // The same driver at jobs=1 and jobs=4 must produce bit-identical rows —
  // the figure-level version of the SweepRunner determinism contract.
  const auto serial = RunFigure6(*trace_, QcShape::kStep, 7, SweepConfig());
  const auto par = RunFigure6(*trace_, QcShape::kStep, 7, Par());
  ASSERT_EQ(serial.size(), par.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].policy, par[i].policy);
    EXPECT_EQ(serial[i].qos_pct, par[i].qos_pct);
    EXPECT_EQ(serial[i].qod_pct, par[i].qod_pct);
  }
  const auto sweep_serial =
      RunQcSweep(*trace_, SchedulerKind::kUpdateHigh, 7, SweepConfig());
  const auto sweep_par =
      RunQcSweep(*trace_, SchedulerKind::kUpdateHigh, 7, Par());
  ASSERT_EQ(sweep_serial.size(), sweep_par.size());
  for (size_t i = 0; i < sweep_serial.size(); ++i) {
    EXPECT_EQ(sweep_serial[i].total_pct, sweep_par[i].total_pct);
    EXPECT_EQ(sweep_serial[i].qos_max_pct, sweep_par[i].qos_max_pct);
  }
}

TEST_F(FiguresTest, AlphaSensitivityFlat) {
  const auto points = RunAlphaSensitivity(*trace_, {0.1, 0.5, 0.9}, 7, Par());
  ASSERT_EQ(points.size(), 3u);
  // "The exact α does not matter much": within a few points of each other.
  double lo = 1.0, hi = 0.0;
  for (const auto& [alpha, pct] : points) {
    lo = std::min(lo, pct);
    hi = std::max(hi, pct);
  }
  EXPECT_LT(hi - lo, 0.15);
}

}  // namespace
}  // namespace webdb
