#include "exp/figures.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/rho.h"
#include "util/logging.h"
#include "util/stats.h"

namespace webdb {

namespace {

// Default server configuration for QC experiments (paper setup). The small
// dispatch overhead is what makes sub-millisecond atom times pay a real
// switching price (Figure 10b).
ServerConfig QcServerConfig() {
  ServerConfig config;
  config.dispatch_overhead = Micros(20);
  return config;
}

// A RunExperiment point drawing contracts from `profile` — the common shape
// of most figure sweeps.
SweepRunner::Point ProfilePoint(const Trace& trace, SchedulerKind kind,
                                const QcProfile& profile, uint64_t qc_seed,
                                const QutsScheduler::Options& quts_options =
                                    QutsScheduler::Options()) {
  SweepRunner::Point point;
  point.trace = &trace;
  point.spec.kind = kind;
  point.spec.quts = quts_options;
  point.options.server = QcServerConfig();
  point.options.qc_seed = qc_seed;
  point.options.qc = profile;
  return point;
}

// A point running QUTS under the Section 5.2 alternating-preference
// schedule. `schedule` is shared read-only across the sweep and must
// outlive it.
SweepRunner::Point SchedulePoint(const Trace& trace,
                                 const TimeVaryingQcGenerator& schedule,
                                 SchedulerKind kind, uint64_t qc_seed,
                                 const QutsScheduler::Options& quts_options =
                                     QutsScheduler::Options()) {
  SweepRunner::Point point;
  point.trace = &trace;
  point.spec.kind = kind;
  point.spec.quts = quts_options;
  point.options.server = QcServerConfig();
  point.options.qc_seed = qc_seed;
  point.options.qc = QcSchedule{&schedule};
  return point;
}

TimeVaryingQcGenerator Section52Schedule(const Trace& trace) {
  return TimeVaryingQcGenerator::AlternatingPreference(trace.EndTime() + 1, 4,
                                                       5.0, QcShape::kStep);
}

std::vector<double> Smooth(const std::vector<double>& v, size_t w) {
  TimeSeries series(1);
  for (size_t i = 0; i < v.size(); ++i) {
    series.Add(static_cast<int64_t>(i), v[i]);
  }
  return series.SmoothedSums(w);
}

std::vector<double> Sum(const std::vector<double>& a,
                        const std::vector<double>& b) {
  std::vector<double> out(std::max(a.size(), b.size()), 0.0);
  for (size_t i = 0; i < a.size(); ++i) out[i] += a[i];
  for (size_t i = 0; i < b.size(); ++i) out[i] += b[i];
  return out;
}

// Largest value the gauge `name` took across the periodic snapshots.
int64_t PeakOf(const std::vector<MetricSnapshot>& series,
               const std::string& name) {
  double peak = 0.0;
  for (const MetricSnapshot& snapshot : series) {
    if (const double* value = snapshot.Find(name)) {
      peak = std::max(peak, *value);
    }
  }
  return static_cast<int64_t>(peak);
}

}  // namespace

std::vector<double> Table4QodShares() {
  std::vector<double> shares;
  for (int i = 1; i <= 9; ++i) shares.push_back(static_cast<double>(i) / 10.0);
  return shares;
}

std::vector<double> OmegaSensitivityGrid() {
  return {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0};
}

std::vector<double> TauSensitivityGrid() {
  return {1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};
}

std::vector<double> AlphaSensitivityGrid() {
  return {0.05, 0.1, 0.2, 0.5, 0.8, 1.0};
}

std::vector<double> RhoValidationGrid() {
  return {0.2, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0};
}

std::vector<double> CorrelationRobustnessGrid() { return {0.0, 0.1, 0.5, 1.0}; }

std::vector<double> SpikeRobustnessGrid() { return {1.0, 3.0, 4.5, 6.0}; }

std::vector<TradeoffRow> RunFigure1(const Trace& trace,
                                    const SweepConfig& sweep) {
  const std::vector<SchedulerKind> kinds = {SchedulerKind::kFifo,
                                            SchedulerKind::kFifoUpdateHigh,
                                            SchedulerKind::kFifoQueryHigh};
  std::vector<SweepRunner::Point> points;
  for (SchedulerKind kind : kinds) {
    SweepRunner::Point point;
    point.trace = &trace;
    point.spec.kind = kind;
    point.options.qc = ZeroContracts{};
    // The naive Figure 1 policies predate QCs: no lifetime drops, #uu
    // staleness, every query runs to completion.
    point.options.server.lifetime_factor = 0.0;
    point.options.server.metric_snapshot_period = Seconds(1);
    points.push_back(point);
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<TradeoffRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    TradeoffRow row;
    row.policy = ToString(kinds[i]);
    row.avg_response_ms = results[i].avg_response_ms;
    row.avg_staleness_uu = results[i].avg_staleness;
    row.peak_queued_queries =
        PeakOf(results[i].registry_series, "scheduler.queue.queries");
    row.peak_queued_updates =
        PeakOf(results[i].registry_series, "scheduler.queue.updates");
    rows.push_back(row);
  }
  return rows;
}

std::vector<ProfitBarRow> RunFigure6(const Trace& trace, QcShape shape,
                                     uint64_t qc_seed,
                                     const SweepConfig& sweep) {
  const std::vector<SchedulerKind> kinds = PaperSchedulers();
  std::vector<SweepRunner::Point> points;
  for (SchedulerKind kind : kinds) {
    points.push_back(
        ProfilePoint(trace, kind, BalancedProfile(shape), qc_seed));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<ProfitBarRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(ProfitBarRow{ToString(kinds[i]), results[i].qos_pct,
                                results[i].qod_pct});
  }
  return rows;
}

std::vector<SweepPoint> RunQcSweep(const Trace& trace, SchedulerKind kind,
                                   uint64_t qc_seed,
                                   const SweepConfig& sweep) {
  const std::vector<double> shares = Table4QodShares();
  std::vector<SweepRunner::Point> points;
  for (double qod_share : shares) {
    points.push_back(ProfilePoint(
        trace, kind, Table4Profile(qod_share, QcShape::kStep), qc_seed));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<SweepPoint> out;
  for (size_t i = 0; i < results.size(); ++i) {
    out.push_back(SweepPoint{shares[i], results[i].qos_pct,
                             results[i].qod_pct, results[i].total_pct,
                             results[i].qos_max_pct});
  }
  return out;
}

ImprovementSummary SummarizeImprovement(const std::vector<SweepPoint>& uh,
                                        const std::vector<SweepPoint>& qh,
                                        const std::vector<SweepPoint>& quts) {
  WEBDB_CHECK(uh.size() == quts.size() && qh.size() == quts.size());
  ImprovementSummary summary;
  summary.min_vs_best = 1e9;
  for (size_t i = 0; i < quts.size(); ++i) {
    const double vs_uh =
        uh[i].total_pct <= 0 ? 0.0
                             : (quts[i].total_pct - uh[i].total_pct) /
                                   uh[i].total_pct;
    const double vs_qh =
        qh[i].total_pct <= 0 ? 0.0
                             : (quts[i].total_pct - qh[i].total_pct) /
                                   qh[i].total_pct;
    summary.max_vs_uh = std::max(summary.max_vs_uh, vs_uh);
    summary.max_vs_qh = std::max(summary.max_vs_qh, vs_qh);
    const double best = std::max(uh[i].total_pct, qh[i].total_pct);
    summary.min_vs_best =
        std::min(summary.min_vs_best, quts[i].total_pct - best);
  }
  return summary;
}

AdaptabilityResult RunFigure9(const Trace& trace, int intervals, double ratio,
                              QcShape shape, uint64_t qc_seed) {
  const SimDuration duration = trace.EndTime() + 1;
  const TimeVaryingQcGenerator schedule =
      TimeVaryingQcGenerator::AlternatingPreference(duration, intervals,
                                                    ratio, shape);
  QutsScheduler scheduler{QutsScheduler::Options()};
  ExperimentOptions options;
  options.server = QcServerConfig();
  options.qc_seed = qc_seed;
  options.qc = QcSchedule{&schedule};
  AdaptabilityResult out;
  out.raw = RunExperiment(trace, &scheduler, options);

  // Late commits can extend the gained series past the max series; pad all
  // four to a common length so the plots line up second by second.
  const size_t len = std::max(
      {out.raw.qos_gained_per_s.size(), out.raw.qod_gained_per_s.size(),
       out.raw.qos_max_per_s.size(), out.raw.qod_max_per_s.size()});
  for (auto* series : {&out.raw.qos_gained_per_s, &out.raw.qod_gained_per_s,
                       &out.raw.qos_max_per_s, &out.raw.qod_max_per_s}) {
    series->resize(len, 0.0);
  }

  constexpr size_t kWindow = 5;  // the paper's 5-second moving window
  out.qos_gained = Smooth(out.raw.qos_gained_per_s, kWindow);
  out.qod_gained = Smooth(out.raw.qod_gained_per_s, kWindow);
  out.qos_max = Smooth(out.raw.qos_max_per_s, kWindow);
  out.qod_max = Smooth(out.raw.qod_max_per_s, kWindow);
  out.total_gained = Sum(out.qos_gained, out.qod_gained);
  out.total_max = Sum(out.qos_max, out.qod_max);
  out.rho = out.raw.rho_series;
  return out;
}

std::vector<std::pair<double, double>> RunOmegaSensitivity(
    const Trace& trace, const std::vector<double>& omegas_s, uint64_t qc_seed,
    const SweepConfig& sweep) {
  const TimeVaryingQcGenerator schedule = Section52Schedule(trace);
  std::vector<SweepRunner::Point> points;
  for (double omega_s : omegas_s) {
    QutsScheduler::Options quts_options;
    quts_options.adaptation_period = SecondsF(omega_s);
    points.push_back(SchedulePoint(trace, schedule, SchedulerKind::kQuts,
                                   qc_seed, quts_options));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < results.size(); ++i) {
    out.emplace_back(omegas_s[i], results[i].total_pct);
  }
  return out;
}

std::vector<std::pair<double, double>> RunTauSensitivity(
    const Trace& trace, const std::vector<double>& taus_ms, uint64_t qc_seed,
    const SweepConfig& sweep) {
  const TimeVaryingQcGenerator schedule = Section52Schedule(trace);
  std::vector<SweepRunner::Point> points;
  for (double tau_ms : taus_ms) {
    QutsScheduler::Options quts_options;
    quts_options.atom_time = static_cast<SimDuration>(tau_ms * 1000.0);
    points.push_back(SchedulePoint(trace, schedule, SchedulerKind::kQuts,
                                   qc_seed, quts_options));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < results.size(); ++i) {
    out.emplace_back(taus_ms[i], results[i].total_pct);
  }
  return out;
}

std::vector<AblationRow> RunCombinationAblation(const Trace& trace,
                                                uint64_t qc_seed,
                                                const SweepConfig& sweep) {
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (SchedulerKind kind : {SchedulerKind::kQuts, SchedulerKind::kQueryHigh}) {
    for (QcCombination combination :
         {QcCombination::kQosIndependent, QcCombination::kQosDependent}) {
      QcProfile profile = BalancedProfile(QcShape::kStep);
      profile.combination = combination;
      points.push_back(ProfilePoint(trace, kind, profile, qc_seed));
      names.push_back(ToString(kind) + "/" + ToString(combination));
    }
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<AblationRow> RunQueryPolicyAblation(const Trace& trace,
                                                uint64_t qc_seed,
                                                const SweepConfig& sweep) {
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (QueryPolicy policy :
       {QueryPolicy::kVrd, QueryPolicy::kFifo, QueryPolicy::kEdf,
        QueryPolicy::kProfitDensity}) {
    QutsScheduler::Options quts_options;
    quts_options.query_policy = policy;
    points.push_back(ProfilePoint(trace, SchedulerKind::kQuts,
                                  BalancedProfile(QcShape::kStep), qc_seed,
                                  quts_options));
    names.push_back("quts/" + ToString(policy));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<AblationRow> RunStalenessAblation(const Trace& trace,
                                              uint64_t qc_seed,
                                              const SweepConfig& sweep) {
  struct Variant {
    StalenessMetric metric;
    StalenessCombiner combiner;
    double uu_max;  // cutoff in the metric's unit
  };
  // uu-raw counts superseded arrivals too (cutoff 3: up to two missed
  // changes tolerated); td cutoff 500 ms: an item is "too stale" when its
  // oldest unapplied update has waited longer than half a second.
  const std::vector<Variant> variants = {
      {StalenessMetric::kUnappliedUpdates, StalenessCombiner::kMax, 1.0},
      {StalenessMetric::kUnappliedUpdates, StalenessCombiner::kSum, 1.0},
      {StalenessMetric::kUnappliedArrivals, StalenessCombiner::kMax, 3.0},
      {StalenessMetric::kTimeDifferential, StalenessCombiner::kMax, 500.0},
  };
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (const Variant& variant : variants) {
    SweepRunner::Point point;
    point.trace = &trace;
    point.spec.kind = SchedulerKind::kQuts;
    point.options.server = QcServerConfig();
    point.options.server.staleness_metric = variant.metric;
    point.options.server.staleness_combiner = variant.combiner;
    point.options.qc_seed = qc_seed;
    QcProfile profile = BalancedProfile(QcShape::kStep);
    profile.uu_max = variant.uu_max;
    point.options.qc = profile;
    points.push_back(point);
    names.push_back(ToString(variant.metric) + "/" +
                    ToString(variant.combiner));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<std::pair<double, double>> RunAlphaSensitivity(
    const Trace& trace, const std::vector<double>& alphas, uint64_t qc_seed,
    const SweepConfig& sweep) {
  const TimeVaryingQcGenerator schedule = Section52Schedule(trace);
  std::vector<SweepRunner::Point> points;
  for (double alpha : alphas) {
    QutsScheduler::Options quts_options;
    quts_options.alpha = alpha;
    points.push_back(SchedulePoint(trace, schedule, SchedulerKind::kQuts,
                                   qc_seed, quts_options));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<std::pair<double, double>> out;
  for (size_t i = 0; i < results.size(); ++i) {
    out.emplace_back(alphas[i], results[i].total_pct);
  }
  return out;
}

std::vector<AblationRow> RunSlicingAblation(const Trace& trace,
                                            uint64_t qc_seed,
                                            const SweepConfig& sweep) {
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (QutsSlicing slicing :
       {QutsSlicing::kRandom, QutsSlicing::kDeterministic}) {
    QutsScheduler::Options quts_options;
    quts_options.slicing = slicing;
    // The QoD-heavy Table 4 point keeps rho well below 1, so the slicing
    // scheme actually matters.
    points.push_back(ProfilePoint(trace, SchedulerKind::kQuts,
                                  Table4Profile(0.8), qc_seed, quts_options));
    names.push_back(slicing == QutsSlicing::kRandom ? "quts/random"
                                                    : "quts/deterministic");
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<AblationRow> RunAdmissionAblation(const Trace& trace,
                                              uint64_t qc_seed,
                                              const SweepConfig& sweep) {
  // Each run builds its own controller from the spec: controllers are
  // stateful, so none is shared between points.
  const std::pair<const char*, AdmissionKind> variants[] = {
      {"admit-all", AdmissionKind::kAdmitAll},
      {"queue-cap(64)", AdmissionKind::kQueueCap},
      {"dbf", AdmissionKind::kDbf},
  };
  std::vector<SweepRunner::Point> points;
  for (const auto& [name, kind] : variants) {
    SweepRunner::Point point;
    point.trace = &trace;
    point.spec.kind = SchedulerKind::kQuts;
    point.spec.admission.kind = kind;
    point.spec.admission.queue_cap = 64;
    point.options.server = QcServerConfig();
    point.options.qc_seed = qc_seed;
    point.options.qc = BalancedProfile(QcShape::kStep);
    points.push_back(point);
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{variants[i].first, results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<AblationRow> RunUpdatePolicyAblation(const Trace& trace,
                                                 uint64_t qc_seed,
                                                 const SweepConfig& sweep) {
  // Demand weights: how often each item is queried in this trace. Shared
  // read-only by the runs that use them.
  std::vector<double> weights(static_cast<size_t>(trace.num_items), 0.0);
  for (const QueryRecord& q : trace.queries) {
    for (ItemId item : q.items) weights[static_cast<size_t>(item)] += 1.0;
  }
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (UpdatePolicy policy :
       {UpdatePolicy::kFifo, UpdatePolicy::kDemandWeighted}) {
    QutsScheduler::Options quts_options;
    quts_options.update_policy = policy;
    if (policy == UpdatePolicy::kDemandWeighted) {
      quts_options.item_weights = &weights;
    }
    points.push_back(ProfilePoint(trace, SchedulerKind::kQuts,
                                  Table4Profile(0.8), qc_seed, quts_options));
    names.push_back("quts/" + ToString(policy));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<AblationRow> RunAdaptabilityComparison(const Trace& trace,
                                                   uint64_t qc_seed,
                                                   const SweepConfig& sweep) {
  const TimeVaryingQcGenerator schedule = Section52Schedule(trace);
  const std::vector<SchedulerKind> kinds = PaperSchedulers();
  std::vector<SweepRunner::Point> points;
  for (SchedulerKind kind : kinds) {
    points.push_back(SchedulePoint(trace, schedule, kind, qc_seed));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{ToString(kinds[i]), results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

std::vector<RhoModelPoint> RunRhoModelValidation(
    const Trace& trace, const std::vector<double>& rhos,
    const QcProfile& profile, uint64_t qc_seed, const SweepConfig& sweep) {
  const double qos_share = profile.ExpectedQosSharePct();
  std::vector<SweepRunner::Point> points;
  for (double rho : rhos) {
    QutsScheduler::Options quts_options;
    quts_options.freeze_rho = true;
    quts_options.initial_rho = rho;
    points.push_back(ProfilePoint(trace, SchedulerKind::kQuts, profile,
                                  qc_seed, quts_options));
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<RhoModelPoint> out;
  for (size_t i = 0; i < results.size(); ++i) {
    RhoModelPoint point;
    point.rho = rhos[i];
    point.measured_total_pct = results[i].total_pct;
    point.modeled_total_pct =
        ModeledTotalProfit(qos_share, 1.0 - qos_share, rhos[i]);
    out.push_back(point);
  }
  return out;
}

std::vector<AblationRow> RunConcurrencyAblation(const Trace& trace,
                                                uint64_t qc_seed,
                                                const SweepConfig& sweep) {
  std::vector<SweepRunner::Point> points;
  std::vector<std::string> names;
  for (bool enable : {true, false}) {
    SweepRunner::Point point;
    point.trace = &trace;
    point.spec.kind = SchedulerKind::kQuts;
    point.options.server = QcServerConfig();
    point.options.server.enable_2plhp = enable;
    point.options.qc_seed = qc_seed;
    point.options.qc = BalancedProfile(QcShape::kStep);
    points.push_back(point);
    names.push_back(enable ? "2pl-hp" : "no-cc");
  }
  const std::vector<ExperimentResult> results =
      SweepRunner(sweep).RunPoints(points);
  std::vector<AblationRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(AblationRow{names[i], results[i].qos_pct,
                               results[i].qod_pct, results[i].total_pct});
  }
  return rows;
}

}  // namespace webdb
