// Overload-survival bench: adversarial traces (exp/overload_scenarios.h)
// swept over admission policies and CPU counts. Two headline numbers the CI
// gate checks: under a 10x market-open flash crowd at 4 CPUs, (1) demand-
// bound admission (dbf) must commit strictly more profit than admit-all and
// than a static queue cap — shedding the right work must beat shedding none
// and shedding blindly — and (2) shared execution (DESIGN.md §13) must buy
// at least 1.2x profit per CPU-busy-second over the unfused server on the
// same trace. Emits BENCH_overload.json; the overload_smoke ctest checks a
// --smoke run against the committed copy.
//
// Usage: bench_overload [--jobs N] [--smoke] [--audit-hash] [--out <path>]
//   --smoke   shorter traces, 10x scenarios only (the CI configuration)
//
// The full run adds the 100x scale-up row — the "does anything survive two
// orders of magnitude past saturation" experiment.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/sweep_runner.h"
#include "qc/qc_generator.h"
#include "util/logging.h"
#include "util/time.h"

namespace webdb {
namespace {

constexpr uint64_t kTraceSeed = 2007;
constexpr uint64_t kQcSeed = 99;
constexpr int64_t kQueueCap = 64;
// Base arrival rates. 450 queries/s at ~7 ms mean service is ~3.2 CPUs of
// standing query load — a 4-CPU box provisioned near capacity, the regime
// where a flash crowd actually hurts: the burst backlog cannot drain into
// spare capacity, so every admitted-but-doomed query displaces a fresh one
// for the rest of the window. The 10x market-open burst (9x extra on top)
// is ~28 CPUs of momentary demand.
constexpr double kQueryRate = 450.0;
constexpr double kUpdateRate = 60.0;
// QoS-heavy contracts (Table 4's 20% QoD point): flash-crowd users pay for
// latency, so a missed rt_max forfeits most of the contract. Under the
// balanced profile a late query still collects ~half its worth as QoD, and
// shedding can never pay for itself.
constexpr double kQodSharePct = 0.2;

struct Flags {
  int jobs = 1;
  bool smoke = false;
  bool audit_hash = false;
  std::string out = "BENCH_overload.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  if (const char* env = std::getenv("WEBDB_JOBS")) {
    flags.jobs = static_cast<int>(std::atol(env));
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(arg, "--audit-hash") == 0) {
      flags.audit_hash = true;
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      flags.jobs = static_cast<int>(std::atol(argv[++i]));
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      flags.jobs = static_cast<int>(std::atol(arg + 7));
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      flags.out = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--jobs N] [--smoke] [--audit-hash] [--out <path>]\n",
          argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

// One generated trace, shared read-only by every point that sweeps it.
struct ScenarioTrace {
  OverloadScenario scenario;
  double scale = 0.0;
  Trace trace;
};

// One sweep row: (scenario trace, CPUs, admission policy).
struct RowKey {
  size_t trace_index = 0;
  int cpus = 0;
  AdmissionKind admission = AdmissionKind::kAdmitAll;
};

struct Row {
  OverloadScenario scenario;
  double scale = 0.0;
  int cpus = 0;
  AdmissionKind admission = AdmissionKind::kAdmitAll;
  double profit = 0.0;
  double total_pct = 0.0;
  int64_t committed = 0;
  int64_t dropped = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  uint64_t end_state_hash = 0;
};

SchedulerSpec SpecFor(const RowKey& key) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = key.cpus;
  spec.admission.kind = key.admission;
  spec.admission.queue_cap = kQueueCap;
  return spec;
}

ExperimentOptions BaseOptions() {
  ExperimentOptions options;
  options.qc_seed = kQcSeed;
  options.qc = Table4Profile(kQodSharePct, QcShape::kStep);
  options.compute_end_state_hash = true;
  return options;
}

double Profit(const ExperimentResult& result) {
  return result.qos_gained + result.qod_gained;
}

}  // namespace
}  // namespace webdb

int main(int argc, char** argv) {
  using namespace webdb;  // NOLINT(google-build-using-namespace)

  const Flags flags = ParseFlags(argc, argv);

  OverloadScenarioConfig base;
  base.seed = kTraceSeed;
  base.query_rate = kQueryRate;
  base.update_rate = kUpdateRate;
  if (flags.smoke) {
    base.duration = Seconds(8);
    base.num_stocks = 128;
  }

  // The scenario grid: every adversarial shape at 10x, plus (full runs
  // only) the 100x scale-up.
  std::vector<ScenarioTrace> traces;
  for (OverloadScenario scenario : AllOverloadScenarios()) {
    OverloadScenarioConfig config = base;
    config.scale = 10.0;
    traces.push_back({scenario, config.scale,
                      MakeOverloadTrace(scenario, config)});
  }
  if (!flags.smoke) {
    // The 100x row runs on a fifth of the window: two orders of magnitude
    // past saturation is a survival test (does admission keep the server
    // deterministic and the profit positive), not a throughput sweep, and
    // a full-length trace at 45k queries/s would dominate the bench's
    // runtime without changing the verdict.
    OverloadScenarioConfig config = base;
    config.scale = 100.0;
    config.duration = base.duration / 5;
    traces.push_back({OverloadScenario::kScaleUp, config.scale,
                      MakeOverloadTrace(OverloadScenario::kScaleUp, config)});
  }
  for (const ScenarioTrace& st : traces) {
    std::fprintf(stderr, "[bench_overload] %s %.0fx: %zu queries, %zu updates\n",
                 ToString(st.scenario).c_str(), st.scale,
                 st.trace.queries.size(), st.trace.updates.size());
  }

  const std::vector<AdmissionKind> admissions = {
      AdmissionKind::kAdmitAll, AdmissionKind::kQueueCap, AdmissionKind::kDbf};

  std::vector<RowKey> keys;
  std::vector<SweepRunner::Point> points;
  for (size_t t = 0; t < traces.size(); ++t) {
    for (int cpus : {1, 4}) {
      for (AdmissionKind admission : admissions) {
        RowKey key;
        key.trace_index = t;
        key.cpus = cpus;
        key.admission = admission;
        keys.push_back(key);
        SweepRunner::Point point;
        point.trace = &traces[t].trace;
        point.spec = SpecFor(key);
        point.options = BaseOptions();
        points.push_back(point);
      }
    }
  }

  SweepConfig sweep;
  sweep.jobs = flags.jobs;
  sweep.base_seed = kTraceSeed;
  sweep.registry = &bench::BenchRegistry();
  sweep.print_audit_hash = flags.audit_hash;
  std::fprintf(stderr, "[bench_overload] %zu points, jobs %d\n", points.size(),
               ResolveJobs(sweep.jobs));
  SweepRunner runner(sweep);
  const std::vector<ExperimentResult> results = runner.RunPoints(points);

  bench::PrintHeader(
      "Overload survival: admission control under adversarial traces",
      "stress companion to Sec. 5 (traces pushed 10-100x past saturation)");

  std::vector<Row> rows;
  std::printf("%-13s %6s %4s %-16s %12s %7s %9s %8s %8s %7s\n", "scenario",
              "scale", "cpus", "admission", "profit", "total%", "committed",
              "dropped", "rejected", "shed");
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioTrace& st = traces[keys[i].trace_index];
    Row row;
    row.scenario = st.scenario;
    row.scale = st.scale;
    row.cpus = keys[i].cpus;
    row.admission = keys[i].admission;
    row.profit = Profit(results[i]);
    row.total_pct = results[i].total_pct;
    row.committed = results[i].queries_committed;
    row.dropped = results[i].queries_dropped;
    row.rejected = results[i].queries_rejected;
    row.shed = results[i].queries_shed;
    row.end_state_hash = results[i].end_state_hash;
    rows.push_back(row);
    std::printf("%-13s %5.0fx %4d %-16s %12.0f %6.1f%% %9lld %8lld %8lld "
                "%7lld\n",
                ToString(row.scenario).c_str(), row.scale, row.cpus,
                ToString(row.admission).c_str(), row.profit,
                100.0 * row.total_pct, static_cast<long long>(row.committed),
                static_cast<long long>(row.dropped),
                static_cast<long long>(row.rejected),
                static_cast<long long>(row.shed));
  }

  // --- headline: 10x market-open at 4 CPUs ---------------------------------
  // The acceptance criterion this bench exists to demonstrate: dbf beats
  // both no admission control and a static cap on the flash crowd.
  auto headline_row = [&](AdmissionKind admission) -> const Row* {
    for (const Row& row : rows) {
      if (row.scenario == OverloadScenario::kMarketOpen && row.scale == 10.0 &&
          row.cpus == 4 && row.admission == admission) {
        return &row;
      }
    }
    return nullptr;
  };
  const Row* admit_all = headline_row(AdmissionKind::kAdmitAll);
  const Row* queue_cap = headline_row(AdmissionKind::kQueueCap);
  const Row* dbf = headline_row(AdmissionKind::kDbf);
  WEBDB_CHECK(admit_all != nullptr && queue_cap != nullptr && dbf != nullptr);
  const bool dbf_beats_admit_all = dbf->profit > admit_all->profit;
  const bool dbf_beats_queue_cap = dbf->profit > queue_cap->profit;

  std::printf("\nheadline (market-open 10x, 4 CPUs):\n");
  std::printf("  dbf %.0f vs admit-all %.0f (%.2fx) vs queue-cap %.0f "
              "(%.2fx)\n",
              dbf->profit, admit_all->profit,
              admit_all->profit > 0 ? dbf->profit / admit_all->profit : 0.0,
              queue_cap->profit,
              queue_cap->profit > 0 ? dbf->profit / queue_cap->profit : 0.0);

  // Determinism is part of the contract: rerunning the headline dbf point
  // must land on the same end-state hash.
  {
    RowKey key;
    key.trace_index = 0;  // market-open is always the first trace
    key.cpus = 4;
    key.admission = AdmissionKind::kDbf;
    WEBDB_CHECK(traces[0].scenario == OverloadScenario::kMarketOpen);
    const ExperimentResult rerun =
        RunExperiment(traces[0].trace, SpecFor(key), BaseOptions());
    if (rerun.end_state_hash != dbf->end_state_hash) {
      std::fprintf(stderr, "headline rerun diverged: %llx vs %llx\n",
                   static_cast<unsigned long long>(dbf->end_state_hash),
                   static_cast<unsigned long long>(rerun.end_state_hash));
      return 1;
    }
  }

  // --- tenant tiers ---------------------------------------------------------
  // The same flash crowd split 50/50 across a free tier (demand charged 4x)
  // and a premium tier: the weighted DBF squeezes free traffic out first.
  std::vector<ExperimentResult::TenantResult> tenant_rows;
  const std::string tenant_spec = "free:4,premium:1";
  {
    const TenantSet tenants = *TenantSet::Parse(tenant_spec);
    Trace trace = traces[0].trace;  // market-open 10x
    AssignTenants(&trace, tenants, kTraceSeed);
    RowKey key;
    key.cpus = 4;
    key.admission = AdmissionKind::kDbf;
    SchedulerSpec spec = SpecFor(key);
    spec.admission.tenants = tenants;
    const ExperimentResult result =
        RunExperiment(trace, spec, BaseOptions());
    tenant_rows = result.tenants;
    std::printf("\ntenant tiers (dbf, market-open 10x, 4 CPUs, %s):\n",
                tenant_spec.c_str());
    for (const auto& tenant : tenant_rows) {
      std::printf("  %-8s submitted %6lld committed %6lld rejected %6lld "
                  "shed %5lld dropped %5lld profit %10.0f\n",
                  tenant.name.c_str(),
                  static_cast<long long>(tenant.submitted),
                  static_cast<long long>(tenant.committed),
                  static_cast<long long>(tenant.rejected),
                  static_cast<long long>(tenant.shed),
                  static_cast<long long>(tenant.dropped), tenant.profit);
    }
  }

  // --- shared execution -----------------------------------------------------
  // The fusion headline (DESIGN.md §13): the same flash crowd at 4 CPUs,
  // admit-all so nothing but shared execution differs, fused vs unfused.
  // The gated figure is profit per CPU-busy-second — fusion must buy more
  // profit per cycle actually spent, not just shift work around. The
  // floor is 1.2x (tools/check_overload.py --min-fusion-gain).
  struct FusionPoint {
    double profit = 0.0;
    double cpu_busy_s = 0.0;
    double profit_per_cpu_s = 0.0;
    int64_t fused = 0;
    int64_t groups = 0;
    int64_t committed = 0;
    int64_t cache_hits = 0;
    int64_t cache_fills = 0;
    uint64_t end_state_hash = 0;
  };
  auto fusion_point = [&](bool enabled, bool cache) {
    RowKey key;
    key.trace_index = 0;  // market-open 10x
    key.cpus = 4;
    key.admission = AdmissionKind::kAdmitAll;
    ExperimentOptions options = BaseOptions();
    options.server.fusion.enabled = enabled;
    options.server.fusion.result_cache = cache;
    const ExperimentResult result =
        RunExperiment(traces[0].trace, SpecFor(key), options);
    FusionPoint point;
    point.profit = Profit(result);
    point.cpu_busy_s = result.cpu_busy_ms / 1e3;
    point.profit_per_cpu_s =
        point.cpu_busy_s > 0.0 ? point.profit / point.cpu_busy_s : 0.0;
    point.fused = result.queries_fused;
    point.groups = result.fusion_groups;
    point.committed = result.queries_committed;
    point.cache_hits = result.queries_cache_hits;
    point.cache_fills = result.cache_fills;
    point.end_state_hash = result.end_state_hash;
    return point;
  };
  const FusionPoint fusion_off = fusion_point(false, false);
  const FusionPoint fusion_on = fusion_point(true, false);
  const FusionPoint fusion_rerun = fusion_point(true, false);
  const bool fusion_rerun_identical =
      fusion_rerun.end_state_hash == fusion_on.end_state_hash;
  const double fusion_gain = fusion_off.profit_per_cpu_s > 0.0
                                 ? fusion_on.profit_per_cpu_s /
                                       fusion_off.profit_per_cpu_s
                                 : 0.0;
  // The round-2 headline (DESIGN.md §14): same point with the fused-result
  // cache on top — hits answer repeat look-alikes for zero scan cost, so
  // the gain must only climb from here.
  const FusionPoint cache_on = fusion_point(true, true);
  const FusionPoint cache_rerun = fusion_point(true, true);
  const bool cache_rerun_identical =
      cache_rerun.end_state_hash == cache_on.end_state_hash;
  const double cache_gain = fusion_off.profit_per_cpu_s > 0.0
                                ? cache_on.profit_per_cpu_s /
                                      fusion_off.profit_per_cpu_s
                                : 0.0;
  std::printf("\nshared execution (market-open 10x, 4 CPUs, admit-all):\n");
  std::printf("  fusion off: profit %10.0f  cpu-busy %7.2fs  "
              "profit/cpu-s %10.1f\n",
              fusion_off.profit, fusion_off.cpu_busy_s,
              fusion_off.profit_per_cpu_s);
  std::printf("  fusion on : profit %10.0f  cpu-busy %7.2fs  "
              "profit/cpu-s %10.1f  (%lld fused in %lld groups)\n",
              fusion_on.profit, fusion_on.cpu_busy_s,
              fusion_on.profit_per_cpu_s,
              static_cast<long long>(fusion_on.fused),
              static_cast<long long>(fusion_on.groups));
  std::printf("  profit/cpu-s gain: %.3fx\n", fusion_gain);
  std::printf("  fusion on + result cache: profit %10.0f  cpu-busy %7.2fs  "
              "profit/cpu-s %10.1f\n",
              cache_on.profit, cache_on.cpu_busy_s,
              cache_on.profit_per_cpu_s);
  std::printf("    cache: %lld hits / %lld fills  gain vs off: %.3fx\n",
              static_cast<long long>(cache_on.cache_hits),
              static_cast<long long>(cache_on.cache_fills), cache_gain);
  if (!fusion_rerun_identical) {
    std::fprintf(stderr, "fusion rerun diverged: %llx vs %llx\n",
                 static_cast<unsigned long long>(fusion_on.end_state_hash),
                 static_cast<unsigned long long>(fusion_rerun.end_state_hash));
    return 1;
  }
  if (!cache_rerun_identical) {
    std::fprintf(stderr, "fusion-cache rerun diverged: %llx vs %llx\n",
                 static_cast<unsigned long long>(cache_on.end_state_hash),
                 static_cast<unsigned long long>(cache_rerun.end_state_hash));
    return 1;
  }

  bench::PrintSweepSummary();

  std::FILE* out = std::fopen(flags.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"overload\",\n"
               "  \"smoke\": %s,\n"
               "  \"queue_cap\": %lld,\n"
               "  \"rows\": [\n",
               flags.smoke ? "true" : "false",
               static_cast<long long>(kQueueCap));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"scale\": %.0f, \"cpus\": %d,\n"
                 "     \"admission\": \"%s\", \"profit\": %.3f,\n"
                 "     \"total_pct\": %.4f, \"committed\": %lld,\n"
                 "     \"dropped\": %lld, \"rejected\": %lld, \"shed\": %lld,\n"
                 "     \"end_state_hash\": \"%016llx\"}%s\n",
                 ToString(row.scenario).c_str(), row.scale, row.cpus,
                 ToString(row.admission).c_str(), row.profit, row.total_pct,
                 static_cast<long long>(row.committed),
                 static_cast<long long>(row.dropped),
                 static_cast<long long>(row.rejected),
                 static_cast<long long>(row.shed),
                 static_cast<unsigned long long>(row.end_state_hash),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"headline\": {\n"
               "    \"scenario\": \"market-open\", \"scale\": 10, \"cpus\": 4,\n"
               "    \"admit_all_profit\": %.3f,\n"
               "    \"queue_cap_profit\": %.3f,\n"
               "    \"dbf_profit\": %.3f,\n"
               "    \"dbf_beats_admit_all\": %s,\n"
               "    \"dbf_beats_queue_cap\": %s\n"
               "  },\n"
               "  \"fusion\": {\n"
               "    \"scenario\": \"market-open\", \"scale\": 10, \"cpus\": 4,\n"
               "    \"admission\": \"admit-all\",\n"
               "    \"profit_off\": %.3f, \"profit_on\": %.3f,\n"
               "    \"cpu_busy_s_off\": %.6f, \"cpu_busy_s_on\": %.6f,\n"
               "    \"profit_per_cpu_s_off\": %.3f,\n"
               "    \"profit_per_cpu_s_on\": %.3f,\n"
               "    \"queries_fused\": %lld, \"fusion_groups\": %lld,\n"
               "    \"gain\": %.4f,\n"
               "    \"end_state_hash\": \"%016llx\",\n"
               "    \"rerun_identical\": %s\n"
               "  },\n"
               "  \"fusion_cache\": {\n"
               "    \"scenario\": \"market-open\", \"scale\": 10, \"cpus\": 4,\n"
               "    \"admission\": \"admit-all\",\n"
               "    \"profit\": %.3f, \"cpu_busy_s\": %.6f,\n"
               "    \"profit_per_cpu_s\": %.3f,\n"
               "    \"cache_hits\": %lld, \"cache_fills\": %lld,\n"
               "    \"queries_fused\": %lld, \"fusion_groups\": %lld,\n"
               "    \"gain\": %.4f,\n"
               "    \"end_state_hash\": \"%016llx\",\n"
               "    \"rerun_identical\": %s\n"
               "  },\n"
               "  \"tenants\": {\"spec\": \"%s\", \"rows\": [\n",
               admit_all->profit, queue_cap->profit, dbf->profit,
               dbf_beats_admit_all ? "true" : "false",
               dbf_beats_queue_cap ? "true" : "false", fusion_off.profit,
               fusion_on.profit, fusion_off.cpu_busy_s, fusion_on.cpu_busy_s,
               fusion_off.profit_per_cpu_s, fusion_on.profit_per_cpu_s,
               static_cast<long long>(fusion_on.fused),
               static_cast<long long>(fusion_on.groups), fusion_gain,
               static_cast<unsigned long long>(fusion_on.end_state_hash),
               fusion_rerun_identical ? "true" : "false", cache_on.profit,
               cache_on.cpu_busy_s, cache_on.profit_per_cpu_s,
               static_cast<long long>(cache_on.cache_hits),
               static_cast<long long>(cache_on.cache_fills),
               static_cast<long long>(cache_on.fused),
               static_cast<long long>(cache_on.groups), cache_gain,
               static_cast<unsigned long long>(cache_on.end_state_hash),
               cache_rerun_identical ? "true" : "false",
               tenant_spec.c_str());
  for (size_t i = 0; i < tenant_rows.size(); ++i) {
    const auto& tenant = tenant_rows[i];
    std::fprintf(out,
                 "    {\"tenant\": \"%s\", \"submitted\": %lld,\n"
                 "     \"committed\": %lld, \"rejected\": %lld,\n"
                 "     \"shed\": %lld, \"dropped\": %lld, \"profit\": %.3f}%s\n",
                 tenant.name.c_str(),
                 static_cast<long long>(tenant.submitted),
                 static_cast<long long>(tenant.committed),
                 static_cast<long long>(tenant.rejected),
                 static_cast<long long>(tenant.shed),
                 static_cast<long long>(tenant.dropped), tenant.profit,
                 i + 1 < tenant_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ]},\n"
               "  \"rerun_identical\": true\n"
               "}\n");
  std::fclose(out);
  std::fprintf(stderr, "[bench_overload] wrote %s\n", flags.out.c_str());

  // The headline comparison gates through the JSON booleans
  // (tools/check_overload.py, run by the overload_smoke ctest), not the exit
  // code, so a regression still writes the full report for diagnosis.
  return 0;
}
