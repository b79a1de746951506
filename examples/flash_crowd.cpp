// Flash crowd: the paper's motivating scenario — breaking news triggers a
// tsunami of stock trades (updates) at the same time as an avalanche of
// queries from jittery investors. Compares the four schedulers on the same
// burst and shows why a fixed priority between queries and updates loses.
//
//   $ ./examples/flash_crowd

#include <cstdio>

#include "exp/experiment.h"
#include "exp/scheduler_factory.h"
#include "trace/stock_trace_generator.h"
#include "util/table.h"

using namespace webdb;

int main() {
  // One minute of trading on 256 stocks with a violent mid-minute spike:
  // query rate x5 for 10 seconds while updates pour in.
  StockTraceConfig config;
  config.seed = 99;
  config.num_stocks = 256;
  config.duration = Seconds(60);
  config.query_rate = 40.0;
  config.query_rate_wobble = 0.1;
  config.query_spike_count = 1;
  config.query_spike_gain = 4.0;
  config.query_spike_len_s = 15.0;
  config.update_rate_start = 250.0;
  config.update_rate_end = 200.0;
  const Trace trace = GenerateStockTrace(config);
  std::printf("flash-crowd trace: %zu queries, %zu updates over %.0f s\n",
              trace.queries.size(), trace.updates.size(),
              ToSeconds(trace.EndTime()));

  // Users split between latency lovers and freshness lovers (balanced QCs).
  AsciiTable table({"policy", "QOS%", "QOD%", "total%", "avg rt (ms)",
                    "avg staleness", "dropped"});
  for (const SchedulerKind kind : PaperSchedulers()) {
    SchedulerSpec spec;
    spec.kind = kind;
    ExperimentOptions options;
    options.qc = BalancedProfile(QcShape::kStep);
    const ExperimentResult result = RunExperiment(trace, spec, options);
    table.AddRow({result.scheduler, AsciiTable::Num(result.qos_pct, 3),
                  AsciiTable::Num(result.qod_pct, 3),
                  AsciiTable::Num(result.total_pct, 3),
                  AsciiTable::Num(result.avg_response_ms, 1),
                  AsciiTable::Num(result.avg_staleness, 3),
                  std::to_string(result.queries_dropped)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "UH keeps data fresh but starves queries during the burst; QH answers\n"
      "fast on stale prices; QUTS splits the CPU by the submitted QCs.\n");
  return 0;
}
