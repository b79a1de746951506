// Preference knob: the "cell phone plan" usability story of Section 2.2 —
// the service provider fixes the QC shape and the user only turns a knob
// between "fresh data" and "fast answers". Sweeps the knob and shows how
// QUTS re-allocates the CPU (rho) and how the earned profit mix follows.
//
//   $ ./examples/preference_knob

#include <cstdio>

#include "core/quts_scheduler.h"
#include "exp/experiment.h"
#include "trace/stock_trace_generator.h"
#include "util/table.h"

using namespace webdb;

int main() {
  StockTraceConfig config;
  config.seed = 17;
  config.num_stocks = 512;
  config.duration = Seconds(120);
  config.query_rate = 40.0;
  config.query_spike_count = 2;
  config.query_spike_len_s = 15.0;
  config.update_rate_start = 260.0;
  config.update_rate_end = 200.0;
  const Trace trace = GenerateStockTrace(config);

  std::printf("the user's knob: 0.1 = \"I want speed\" ... 0.9 = \"I want "
              "freshness\"\n");
  AsciiTable table({"knob (QODmax%)", "final rho", "QOS%", "QOD%", "total%"});
  for (int i = 1; i <= 9; i += 2) {
    const double knob = static_cast<double>(i) / 10.0;
    QutsScheduler scheduler{QutsScheduler::Options()};
    ExperimentOptions options;
    options.qc = Table4Profile(knob, QcShape::kStep);
    const ExperimentResult result = RunExperiment(trace, &scheduler, options);
    const double final_rho =
        result.rho_series.empty() ? 0.0 : result.rho_series.back().second;
    table.AddRow({AsciiTable::Num(knob, 1), AsciiTable::Num(final_rho, 3),
                  AsciiTable::Num(result.qos_pct, 3),
                  AsciiTable::Num(result.qod_pct, 3),
                  AsciiTable::Num(result.total_pct, 3)});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "as the knob moves toward freshness, rho falls from 1.0 toward the\n"
      "0.5 floor (Eq. 4) and the earned profit mix shifts from QoS to QoD.\n");
  return 0;
}
