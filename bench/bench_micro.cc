// Micro-benchmarks (google-benchmark): costs of the building blocks — event
// queue, transaction queues, QC evaluation, Zipf sampling, lock manager,
// trace generation, and a small end-to-end server run per scheduler.
//
// Extra flags (consumed before google-benchmark sees argv):
//   --trace <path>   after the benchmarks, run one end-to-end experiment with
//                    lifecycle tracing on and write the JSONL trace to <path>
//                    (inspect with `trace_tool summarize-spans <path>`)
//   --sched <name>   scheduler for that traced run (default: quts)
//   --cpus <n>       CPUs for that traced run (default: 1; n > 1 requires
//                    --sched quts — the sharded scheduler is QUTS-only)
//   --fusion         skip the benchmarks; run the market-open flash crowd
//                    twice under QUTS — fusion off, then on — and print
//                    profit-per-CPU-second for both plus the on/off ratio
//                    (DESIGN.md §13). Respects --cpus and
//                    --scan-atom-factor.
//   --fusion-cache   like --fusion, but with a third run that also enables
//                    the fused-result cache (DESIGN.md §14) and prints its
//                    hit/fill counts plus both profit/cpu-s ratios
//   --scan-atom-factor <f>  atom-length multiplier for scan-class queries
//                    in those comparisons (default 1.0 = class-blind)

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/quts_scheduler.h"
#include "obs/tracer.h"
#include "server/fusion.h"
#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/scheduler_factory.h"
#include "qc/qc_generator.h"
#include "sched/txn_queue.h"
#include "sim/simulator.h"
#include "trace/stock_trace_generator.h"
#include "txn/lock_manager.h"
#include "util/rng.h"

namespace webdb {
namespace {

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(i, [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleAndRun)->Arg(1000)->Arg(100000);

// Transaction-shaped event churn, the server's per-query pattern: each of 64
// in-flight transactions schedules a completion and a far-future lifetime
// deadline, and the completion cancels the deadline and starts the next
// transaction. Items are resolved events (one fired and one cancelled per
// transaction), so this is the event core's events/sec on the workload an
// event-list change (e.g. heap vs calendar queue) must be timed on.
// tests/hot_path_test.cc holds the same workload to exact counts.
struct TxnChurn {
  Simulator sim;
  int64_t remaining = 0;

  void Start() {
    --remaining;
    const SimTime now = sim.Now();
    const EventId deadline = sim.ScheduleAt(now + 1000, [] {});
    sim.ScheduleAt(now + 10, [this, deadline] {
      sim.Cancel(deadline);
      if (remaining > 0) Start();
    });
  }
};

void BM_SimulatorTxnChurn(benchmark::State& state) {
  TxnChurn churn;  // one simulator across iterations keeps the arena warm
  for (auto _ : state) {
    churn.remaining = state.range(0);
    for (int i = 0; i < 64 && churn.remaining > 0; ++i) churn.Start();
    churn.sim.Run();
    benchmark::DoNotOptimize(churn.sim.NumExecuted());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_SimulatorTxnChurn)->Arg(100000);

// The paper's event mix: a sorted stream of arrivals merged through the
// simulator's arrival source (DESIGN.md §9, "Arrivals off the heap"), each
// starting one transaction shaped like BM_SimulatorTxnChurn's: a completion
// plus a cancelled far deadline, 64 in flight. One arrival per instant, as
// in the stock trace, where 578,970 of 579,061 records (seed 2007, 1800 s)
// arrive at an instant of their own. Items are arrivals.
struct ArrivalStream final : ArrivalSource {
  // One arrival per tick, so a 64-tick service keeps 64 in flight.
  static constexpr SimDuration kService = 64;

  Simulator sim;
  SimTime base = 0;
  int64_t next = 0;
  int64_t end = 0;

  SimTime NextArrivalTime() const override {
    return next < end ? base + next : kSimTimeMax;
  }

  void FireArrivals() override {
    ++next;
    const SimTime now = sim.Now();
    const EventId deadline = sim.ScheduleAt(now + 1000, [] {});
    sim.ScheduleAt(now + kService, [this, deadline] { sim.Cancel(deadline); });
  }
};

void BM_SimulatorArrivalStream(benchmark::State& state) {
  ArrivalStream stream;  // one simulator across iterations keeps the arena warm
  for (auto _ : state) {
    stream.base = stream.sim.Now();
    stream.next = 0;
    stream.end = state.range(0);
    stream.sim.AttachArrivals(&stream);
    stream.sim.Run();
    benchmark::DoNotOptimize(stream.sim.NumExecuted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorArrivalStream)->Arg(100000);

void BM_TxnQueuePushPop(benchmark::State& state) {
  std::vector<Query> queries(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].id = QueryTxnId(i);
    queries[i].arrival = static_cast<SimTime>(i);
  }
  Rng rng(1);
  for (auto _ : state) {
    TxnQueue queue;
    for (auto& query : queries) queue.Push(&query, rng.NextDouble());
    while (queue.Pop() != nullptr) {
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TxnQueuePushPop)->Arg(1000)->Arg(10000);

void BM_QcEvaluate(benchmark::State& state) {
  const auto qc =
      QualityContract::Make(QcShape::kLinear, 10.0, Millis(50), 20.0, 2.0);
  SimDuration rt = 0;
  double staleness = 0.0;
  double sink = 0.0;
  for (auto _ : state) {
    rt = (rt + Millis(1)) % Millis(100);
    staleness = staleness >= 3.0 ? 0.0 : staleness + 0.1;
    sink += qc.Evaluate(rt, staleness).Total();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_QcEvaluate);

void BM_QcGeneratorNext(benchmark::State& state) {
  QcGenerator generator(BalancedProfile(QcShape::kStep));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Next(rng));
  }
}
BENCHMARK(BM_QcGeneratorNext);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(4608, 1.0);
  Rng rng(3);
  int64_t sink = 0;
  for (auto _ : state) sink += zipf.Sample(rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfSample);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  LockManager lm(8);
  const std::vector<ItemId> items = {1, 2, 3, 4, 5};
  const ItemId probe = 3;
  std::vector<TxnId> conflicts;
  for (auto _ : state) {
    lm.Acquire(2, LockMode::kShared, items);
    lm.Conflicts(5, LockMode::kExclusive, std::span(&probe, 1), &conflicts);
    benchmark::DoNotOptimize(conflicts.data());
    lm.Release(2, items);
  }
}
BENCHMARK(BM_LockManagerAcquireRelease);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    StockTraceConfig config = StockTraceConfig::Small(42);
    config.duration = Seconds(state.range(0));
    benchmark::DoNotOptimize(GenerateStockTrace(config));
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(10)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_EndToEndServerRun(benchmark::State& state) {
  const SchedulerKind kind = static_cast<SchedulerKind>(state.range(0));
  StockTraceConfig config = StockTraceConfig::Small(7);
  config.query_rate = 40.0;
  config.update_rate_start = 280.0;
  config.update_rate_end = 200.0;
  const Trace trace = GenerateStockTrace(config);
  SchedulerSpec spec;
  spec.kind = kind;
  for (auto _ : state) {
    ExperimentOptions options;
    options.qc = BalancedProfile(QcShape::kStep);
    benchmark::DoNotOptimize(RunExperiment(trace, spec, options));
  }
  state.SetLabel(ToString(kind));
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(trace.queries.size() + trace.updates.size()));
}
BENCHMARK(BM_EndToEndServerRun)
    ->Arg(static_cast<int>(SchedulerKind::kFifo))
    ->Arg(static_cast<int>(SchedulerKind::kUpdateHigh))
    ->Arg(static_cast<int>(SchedulerKind::kQueryHigh))
    ->Arg(static_cast<int>(SchedulerKind::kQuts))
    ->Unit(benchmark::kMillisecond);

// Candidate collection over a bucket of N exact look-alikes: the cost that
// used to go quadratic in the taken() membership scan before the flat/hash
// switchover at 16 collected members (src/server/fusion.cc).
void BM_FusionCollectCandidates(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  static constexpr ItemId kItems[] = {1, 2, 3};
  std::vector<Query> queries(static_cast<size_t>(n));
  FusionIndex index;
  for (int i = 0; i < n; ++i) {
    Query& query = queries[static_cast<size_t>(i)];
    query.id = QueryTxnId(static_cast<uint64_t>(i));
    query.kind = TxnKind::kQuery;
    query.state = TxnState::kQueued;
    query.type = QueryType::kAggregation;
    query.items = kItems;
    query.fusion_signature = FusionIndex::Signature(query);
    index.Insert(&query);
  }
  std::vector<TxnId> members;
  members.reserve(static_cast<size_t>(n));
  for (auto _ : state) {
    members.clear();
    index.CollectCandidates(queries[0], n, &members);
    benchmark::DoNotOptimize(members.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FusionCollectCandidates)->Arg(8)->Arg(64)->Arg(512);

// Runs one end-to-end experiment with the tracer attached and writes the
// JSONL lifecycle trace to `path`. Returns an exit status.
int RunTracedExperiment(const std::string& path, const std::string& sched,
                        int cpus, const std::string& admission,
                        const std::string& tenants) {
  const std::optional<SchedulerKind> kind = SchedulerKindFromName(sched);
  if (!kind.has_value()) {
    std::fprintf(stderr, "error: unknown scheduler '%s'; valid names:",
                 sched.c_str());
    for (const std::string& name : ValidSchedulerNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  const std::optional<AdmissionKind> admission_kind =
      AdmissionKindFromName(admission);
  if (!admission_kind.has_value()) {
    std::fprintf(stderr, "error: unknown admission policy '%s'; valid names:",
                 admission.c_str());
    for (const std::string& name : ValidAdmissionNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  std::optional<TenantSet> tenant_set;
  if (!tenants.empty()) {
    tenant_set = TenantSet::Parse(tenants);
    if (!tenant_set.has_value()) {
      std::fprintf(stderr,
                   "error: bad --tenants spec '%s' (want name:weight pairs, "
                   "e.g. free:4,premium:1)\n",
                   tenants.c_str());
      return 1;
    }
  }
  if (cpus < 1) {
    std::fprintf(stderr, "error: --cpus must be >= 1 (got %d)\n", cpus);
    return 1;
  }
  if (cpus > 1 && *kind != SchedulerKind::kQuts) {
    std::fprintf(stderr,
                 "error: --cpus %d needs --sched quts (only QUTS shards "
                 "across cores)\n",
                 cpus);
    return 1;
  }
  StockTraceConfig config = StockTraceConfig::Small(7);
  config.query_rate = 40.0;
  config.update_rate_start = 280.0;
  config.update_rate_end = 200.0;
  Trace trace = GenerateStockTrace(config);
  if (tenant_set.has_value()) {
    AssignTenants(&trace, *tenant_set, config.seed);
  }

  Tracer tracer;
  SchedulerSpec spec;
  spec.kind = *kind;
  spec.topology.num_cpus = cpus;
  spec.admission.kind = *admission_kind;
  if (tenant_set.has_value()) spec.admission.tenants = *tenant_set;
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  options.server.tracer = &tracer;
  const ExperimentResult result = RunExperiment(trace, spec, options);
  if (*admission_kind != AdmissionKind::kAdmitAll) {
    std::fprintf(stderr,
                 "admission %s: %lld committed, %lld rejected, %lld shed\n",
                 ToString(*admission_kind).c_str(),
                 static_cast<long long>(result.queries_committed),
                 static_cast<long long>(result.queries_rejected),
                 static_cast<long long>(result.queries_shed));
  }
  if (!tracer.WriteJsonlFile(path)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu trace events (%s, %d cpu%s) to %s\n",
               tracer.NumEvents(), ToString(*kind).c_str(), cpus,
               cpus == 1 ? "" : "s", path.c_str());
  return 0;
}

// Runs the market-open flash crowd fusion-off, fusion-on and — under
// --fusion-cache — a third time with the fused-result cache, printing
// profit-per-CPU-second for each. The README quickstart entry point for
// shared execution (DESIGN.md §13-14); bench_overload publishes the gated
// version of the same comparison.
int RunFusionComparison(int cpus, double scan_atom_factor, bool with_cache) {
  if (cpus < 1) {
    std::fprintf(stderr, "error: --cpus must be >= 1 (got %d)\n", cpus);
    return 1;
  }
  if (scan_atom_factor <= 0.0) {
    std::fprintf(stderr, "error: --scan-atom-factor must be > 0 (got %g)\n",
                 scan_atom_factor);
    return 1;
  }
  // bench_overload's smoke regime: ~3.2 CPUs of standing query load on a
  // 4-CPU box, so the 10x burst builds the deep hot-symbol queues fusion
  // feeds on. A lighter trace would leave the queues empty and show 1.00x.
  OverloadScenarioConfig config;
  config.query_rate = 450.0;
  config.update_rate = 60.0;
  config.duration = Seconds(8);
  config.num_stocks = 128;
  const Trace trace =
      MakeOverloadTrace(OverloadScenario::kMarketOpen, config);
  const int modes = with_cache ? 3 : 2;
  double profit_per_cpu_s[3] = {0.0, 0.0, 0.0};
  for (int mode = 0; mode < modes; ++mode) {
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = cpus;
    spec.quts.scan_atom_factor = scan_atom_factor;
    ExperimentOptions options;
    options.qc = BalancedProfile(QcShape::kStep);
    options.server.fusion.enabled = mode >= 1;
    options.server.fusion.result_cache = mode == 2;
    const ExperimentResult result = RunExperiment(trace, spec, options);
    const double busy_s = result.cpu_busy_ms / 1e3;
    const double profit = result.qos_gained + result.qod_gained;
    profit_per_cpu_s[mode] = busy_s > 0.0 ? profit / busy_s : 0.0;
    std::fprintf(stderr,
                 "fusion %-8s  profit %10.1f  cpu-busy %8.2fs  "
                 "profit/cpu-s %8.2f  committed %lld  fused %lld in %lld "
                 "groups",
                 mode == 0 ? "off" : mode == 1 ? "on" : "on+cache", profit,
                 busy_s, profit_per_cpu_s[mode],
                 static_cast<long long>(result.queries_committed),
                 static_cast<long long>(result.queries_fused),
                 static_cast<long long>(result.fusion_groups));
    if (mode == 2) {
      std::fprintf(stderr, "  cache %lld hits / %lld fills",
                   static_cast<long long>(result.queries_cache_hits),
                   static_cast<long long>(result.cache_fills));
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "profit/cpu-s ratio (on/off): %.3fx  (%d cpu%s, "
               "scan-atom-factor %g)\n",
               profit_per_cpu_s[0] > 0.0
                   ? profit_per_cpu_s[1] / profit_per_cpu_s[0]
                   : 0.0,
               cpus, cpus == 1 ? "" : "s", scan_atom_factor);
  if (with_cache) {
    std::fprintf(stderr, "profit/cpu-s ratio (on+cache/off): %.3fx\n",
                 profit_per_cpu_s[0] > 0.0
                     ? profit_per_cpu_s[2] / profit_per_cpu_s[0]
                     : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace webdb

int main(int argc, char** argv) {
  std::string trace_path;
  std::string sched = "quts";
  std::string admission = "admit-all";
  std::string tenants;
  int cpus = 1;
  bool fusion = false;
  bool fusion_cache = false;
  double scan_atom_factor = 1.0;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--sched" && i + 1 < argc) {
      sched = argv[++i];
    } else if (arg == "--cpus" && i + 1 < argc) {
      cpus = std::atoi(argv[++i]);
    } else if (arg == "--admission" && i + 1 < argc) {
      admission = argv[++i];
    } else if (arg == "--tenants" && i + 1 < argc) {
      tenants = argv[++i];
    } else if (arg == "--fusion") {
      fusion = true;
    } else if (arg == "--fusion-cache") {
      fusion_cache = true;
    } else if (arg == "--scan-atom-factor" && i + 1 < argc) {
      scan_atom_factor = std::atof(argv[++i]);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  if (fusion || fusion_cache) {
    return webdb::RunFusionComparison(cpus, scan_atom_factor, fusion_cache);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty()) {
    return webdb::RunTracedExperiment(trace_path, sched, cpus, admission,
                                      tenants);
  }
  return 0;
}
