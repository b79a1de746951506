// Per-figure experiment drivers. Each function reproduces the data behind
// one figure/table of the paper (see DESIGN.md section 3 for the index);
// the bench binaries only format what these return.

#ifndef WEBDB_EXP_FIGURES_H_
#define WEBDB_EXP_FIGURES_H_

#include <string>
#include <utility>
#include <vector>

#include "db/staleness.h"
#include "exp/experiment.h"
#include "exp/scheduler_factory.h"
#include "exp/sweep_runner.h"
#include "qc/qc_generator.h"
#include "trace/trace.h"

namespace webdb {

// --- Canonical sweep grids ---------------------------------------------------
// The exact parameter grids behind the figures, defined once so the bench
// binaries and the tests exercise the same sweep construction (they used to
// carry private copies that could drift apart).

// Table 4: QODmax% = 0.1 ... 0.9 (Figures 7-8).
std::vector<double> Table4QodShares();
// Figure 10a: adaptation period omega in seconds, 0.1 ... 100.
std::vector<double> OmegaSensitivityGrid();
// Figure 10b: atom time tau in milliseconds, 1 ... 1000.
std::vector<double> TauSensitivityGrid();
// Aging factor alpha sweep (bench_ablation).
std::vector<double> AlphaSensitivityGrid();
// Frozen-rho grid for the Eq. 3 model validation (bench_model).
std::vector<double> RhoValidationGrid();
// Robustness knobs (bench_robustness): popularity correlation and
// flash-crowd gain.
std::vector<double> CorrelationRobustnessGrid();
std::vector<double> SpikeRobustnessGrid();

// Every driver below takes a SweepConfig and fans its independent runs out
// through SweepRunner; results are identical for any `jobs` value. The
// default (jobs = 1) runs serially on the calling thread.

// --- Figure 1: response time vs staleness under naive policies -------------
struct TradeoffRow {
  std::string policy;
  double avg_response_ms = 0.0;
  double avg_staleness_uu = 0.0;
  // Peak queue depths over the 1-second metric snapshots (the
  // scheduler.queue.* gauges) — not in the paper's figure, but they show
  // where the response-time orders of magnitude come from.
  int64_t peak_queued_queries = 0;
  int64_t peak_queued_updates = 0;
};

// FIFO, FIFO-UH, FIFO-QH with no QCs and no lifetime drops.
std::vector<TradeoffRow> RunFigure1(const Trace& trace,
                                    const SweepConfig& sweep = SweepConfig());

// --- Figures 6-8: profit percentages ----------------------------------------
struct ProfitBarRow {
  std::string policy;
  double qos_pct = 0.0;
  double qod_pct = 0.0;
  double TotalPct() const { return qos_pct + qod_pct; }
};

// Figure 6: the four paper schedulers under the balanced profile, one call
// per QC shape.
std::vector<ProfitBarRow> RunFigure6(const Trace& trace, QcShape shape,
                                     uint64_t qc_seed = 7,
                                     const SweepConfig& sweep = SweepConfig());

struct SweepPoint {
  double qod_share_pct = 0.0;  // the Table 4 QODmax% knob
  double qos_pct = 0.0;
  double qod_pct = 0.0;
  double total_pct = 0.0;
  double qos_max_pct = 0.0;  // the diagonal reference line
};

// Figures 7 and 8: one scheduler across the nine Table 4 QC sets
// (QODmax% = 0.1 ... 0.9, step QCs).
std::vector<SweepPoint> RunQcSweep(const Trace& trace, SchedulerKind kind,
                                   uint64_t qc_seed = 7,
                                   const SweepConfig& sweep = SweepConfig());

// The paper's headline comparison: max over the sweep of
// (QUTS total - other total) / other total.
struct ImprovementSummary {
  double max_vs_uh = 0.0;  // paper: up to 101.3%
  double max_vs_qh = 0.0;  // paper: up to 40.1%
  double min_vs_best = 0.0;  // worst case vs max(UH, QH); >= 0 means QUTS
                             // always matches the best fixed policy
};
ImprovementSummary SummarizeImprovement(
    const std::vector<SweepPoint>& uh, const std::vector<SweepPoint>& qh,
    const std::vector<SweepPoint>& quts);

// --- Figure 9: adaptability under changing preferences ----------------------
struct AdaptabilityResult {
  // Per-second, smoothed with the paper's 5-second moving window.
  std::vector<double> total_gained;
  std::vector<double> total_max;
  std::vector<double> qos_gained;
  std::vector<double> qos_max;
  std::vector<double> qod_gained;
  std::vector<double> qod_max;
  // (time, ρ) per adaptation period.
  std::vector<std::pair<SimTime, double>> rho;
  ExperimentResult raw;
};

// QUTS on `trace` (pass a ~300 s prefix to match the paper) with the
// alternating 1:5 / 5:1 preference schedule over `intervals` segments.
AdaptabilityResult RunFigure9(const Trace& trace, int intervals = 4,
                              double ratio = 5.0,
                              QcShape shape = QcShape::kStep,
                              uint64_t qc_seed = 7);

// --- Figure 10: parameter sensitivity ---------------------------------------
// Total profit percentage of QUTS for each adaptation period ω (seconds),
// same setup as Figure 9, τ = 10 ms.
std::vector<std::pair<double, double>> RunOmegaSensitivity(
    const Trace& trace, const std::vector<double>& omegas_s,
    uint64_t qc_seed = 7, const SweepConfig& sweep = SweepConfig());

// Total profit percentage of QUTS for each atom time τ (milliseconds),
// ω = 1000 ms.
std::vector<std::pair<double, double>> RunTauSensitivity(
    const Trace& trace, const std::vector<double>& taus_ms,
    uint64_t qc_seed = 7, const SweepConfig& sweep = SweepConfig());

// --- Ablations (DESIGN.md A1-A3 + α sensitivity) -----------------------------
struct AblationRow {
  std::string variant;
  double qos_pct = 0.0;
  double qod_pct = 0.0;
  double total_pct = 0.0;
};

// A1: QoS-Independent vs QoS-Dependent combination, QUTS and QH.
std::vector<AblationRow> RunCombinationAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// A2: low-level query policy inside QUTS (VRD, FIFO, EDF, profit-density).
std::vector<AblationRow> RunQueryPolicyAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// A3: staleness metric (#uu vs td) and combiner (max vs sum vs avg) on QUTS.
std::vector<AblationRow> RunStalenessAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// Aging-factor sweep (the paper asserts "the exact α does not matter much").
std::vector<std::pair<double, double>> RunAlphaSensitivity(
    const Trace& trace, const std::vector<double>& alphas,
    uint64_t qc_seed = 7, const SweepConfig& sweep = SweepConfig());
// A4: random (paper) vs deterministic atom-side selection in QUTS.
std::vector<AblationRow> RunSlicingAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// A5: admission control under overload (admit-all vs queue-cap vs dbf
// demand-bound admission with shedding), QUTS scheduler.
std::vector<AblationRow> RunAdmissionAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// A6: 2PL-HP on/off — what concurrency control costs/buys, QUTS scheduler.
std::vector<AblationRow> RunConcurrencyAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// A7: low-level update policy inside QUTS — the paper's FIFO vs a
// demand-weighted queue that applies updates on frequently-queried items
// first (weights derived from the trace's per-item query counts).
std::vector<AblationRow> RunUpdatePolicyAblation(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());
// Beyond Figure 9: every paper scheduler under the changing-preference
// schedule, showing that only QUTS follows the flips.
std::vector<AblationRow> RunAdaptabilityComparison(
    const Trace& trace, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());

// --- Eq. 3 model validation --------------------------------------------------
struct RhoModelPoint {
  double rho = 0.0;
  double measured_total_pct = 0.0;  // QUTS with frozen ρ
  double modeled_total_pct = 0.0;   // QOSmax%·ρ + QODmax%·ρ(1-ρ)
};

// Freezes QUTS's ρ at each value and measures the earned profit share,
// against the paper's closed-form model (Section 4.1). The paper never
// plots this curve; it is the direct check that Eq. 4's optimum is real.
std::vector<RhoModelPoint> RunRhoModelValidation(
    const Trace& trace, const std::vector<double>& rhos,
    const QcProfile& profile, uint64_t qc_seed = 7,
    const SweepConfig& sweep = SweepConfig());

}  // namespace webdb

#endif  // WEBDB_EXP_FIGURES_H_
