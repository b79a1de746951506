#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/quts_scheduler.h"
#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/scheduler_factory.h"
#include "obs/span_summary.h"
#include "sched/fifo_scheduler.h"
#include "trace/stock_trace_generator.h"

namespace webdb {
namespace {

TEST(TracerTest, RecordsEventsInOrder) {
  Tracer tracer;
  tracer.Record(Millis(1), 0, false, TraceEventType::kSubmit);
  tracer.Record(Millis(1), 0, false, TraceEventType::kEnqueue);
  tracer.Record(Millis(2), 1, true, TraceEventType::kSubmit);
  tracer.Record(Millis(3), 0, false, TraceEventType::kDispatch);
  tracer.Record(Millis(8), 0, false, TraceEventType::kCommit, 1.5);

  ASSERT_EQ(tracer.NumEvents(), 5u);
  const std::vector<TraceEvent>& events = tracer.events();
  EXPECT_EQ(events[0].type, TraceEventType::kSubmit);
  EXPECT_EQ(events[1].type, TraceEventType::kEnqueue);
  EXPECT_EQ(events[3].type, TraceEventType::kDispatch);
  EXPECT_EQ(events[4].type, TraceEventType::kCommit);
  EXPECT_DOUBLE_EQ(events[4].detail, 1.5);
  EXPECT_TRUE(events[2].is_update);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(/*enabled=*/false);
  tracer.Record(Millis(1), 0, false, TraceEventType::kSubmit);
  tracer.Record(Millis(2), 0, false, TraceEventType::kCommit, 3.0);
  EXPECT_EQ(tracer.NumEvents(), 0u);
  EXPECT_FALSE(tracer.enabled());
}

TEST(TracerTest, JsonlRoundTrip) {
  Tracer tracer;
  tracer.Record(Millis(1), 2, false, TraceEventType::kSubmit);
  tracer.Record(Millis(2), 2, false, TraceEventType::kEnqueue);
  tracer.Record(Millis(3), 2, false, TraceEventType::kDispatch);
  tracer.Record(Millis(4), 3, true, TraceEventType::kRestart, 2.25);
  tracer.Record(Millis(9), 2, false, TraceEventType::kCommit, 0.5);

  std::stringstream stream;
  tracer.WriteJsonl(stream);

  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(ReadTraceEventsJsonl(stream, &parsed));
  ASSERT_EQ(parsed.size(), tracer.events().size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], tracer.events()[i]) << "event " << i;
  }
}

TEST(TracerTest, JsonlParserRejectsMalformedLines) {
  std::stringstream stream;
  stream << "{\"t\":1,\"txn\":0,\"kind\":\"query\",\"ev\":\"submit\",\"v\":0}\n"
         << "not json at all\n";
  std::vector<TraceEvent> parsed;
  EXPECT_FALSE(ReadTraceEventsJsonl(stream, &parsed));
}

TEST(TracerTest, CsvHasHeaderAndOneRowPerEvent) {
  Tracer tracer;
  tracer.Record(Millis(1), 0, false, TraceEventType::kSubmit);
  tracer.Record(Millis(2), 1, true, TraceEventType::kCommit, 4.0);
  std::stringstream stream;
  tracer.WriteCsv(stream);
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  EXPECT_EQ(line, "time_us,txn,kind,event,value");
  size_t rows = 0;
  while (std::getline(stream, line)) ++rows;
  EXPECT_EQ(rows, 2u);
}

TEST(TracerTest, EventTypeNamesRoundTrip) {
  for (TraceEventType type :
       {TraceEventType::kSubmit, TraceEventType::kEnqueue,
        TraceEventType::kDispatch, TraceEventType::kPreempt,
        TraceEventType::kRestart, TraceEventType::kCommit,
        TraceEventType::kDrop, TraceEventType::kInvalidate,
        TraceEventType::kReject, TraceEventType::kShed}) {
    TraceEventType parsed = TraceEventType::kSubmit;
    ASSERT_TRUE(TraceEventTypeFromName(ToString(type), &parsed))
        << ToString(type);
    EXPECT_EQ(parsed, type);
  }
  TraceEventType unused = TraceEventType::kSubmit;
  EXPECT_FALSE(TraceEventTypeFromName("bogus", &unused));
}

// End-to-end: run a server with the tracer attached and check the lifecycle
// stream agrees with the server's own counters, both directly and through
// the span summarizer (the `trace_tool summarize-spans` path).
TEST(TracerTest, ServerTraceMatchesMetrics) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(31));
  QutsScheduler scheduler{QutsScheduler::Options()};
  Tracer tracer;
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  options.server.tracer = &tracer;
  const ExperimentResult result = RunExperiment(trace, &scheduler, options);
  ASSERT_GT(tracer.NumEvents(), 0u);

  int64_t query_commits = 0, update_commits = 0, preempts = 0, drops = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.type == TraceEventType::kCommit) {
      (event.is_update ? update_commits : query_commits)++;
    }
    if (event.type == TraceEventType::kPreempt) ++preempts;
    if (event.type == TraceEventType::kDrop) ++drops;
  }
  EXPECT_EQ(query_commits, result.queries_committed);
  EXPECT_EQ(update_commits, result.updates_applied);
  EXPECT_EQ(preempts, result.preemptions);
  EXPECT_EQ(drops, result.queries_dropped);

  const SpanSummary summary = SummarizeSpans(tracer.events());
  EXPECT_EQ(summary.queries.committed, result.queries_committed);
  EXPECT_EQ(summary.updates.committed, result.updates_applied);
  EXPECT_EQ(summary.queries.dropped, result.queries_dropped);
  EXPECT_EQ(summary.queries.restarts + summary.updates.restarts,
            result.query_restarts + result.update_restarts);
  // Committed queries spend nonzero time in the system.
  ASSERT_GT(summary.queries.response_ms.count, 0);
  EXPECT_GT(summary.queries.response_ms.mean, 0.0);
  EXPECT_GE(summary.queries.response_ms.p99, summary.queries.response_ms.p50);
  EXPECT_GE(summary.queries.response_ms.max, summary.queries.response_ms.p99);

  // The rendered report mentions both transaction classes.
  const std::string report = RenderSpanSummary(summary);
  EXPECT_NE(report.find("queries"), std::string::npos);
  EXPECT_NE(report.find("updates"), std::string::npos);
}

// Shared execution in the lifecycle stream: on a market-open overload trace
// with fusion and the result cache on, cache hits (kCacheHit, then kCommit
// at the same instant) and fused members (kFuse, then kCommit at the
// leader's commit) must both be counted as committed queries by the span
// summary, exactly as the server counts them.
TEST(TracerTest, SpanSummaryCountsCacheHitsAndFusedMembers) {
  OverloadScenarioConfig config;
  config.seed = 21;
  config.scale = 10.0;
  config.duration = Seconds(2);
  config.num_stocks = 64;
  config.query_rate = 300.0;
  config.update_rate = 60.0;
  const Trace trace = MakeOverloadTrace(OverloadScenario::kMarketOpen, config);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 4;
  Tracer tracer;
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  options.server.tracer = &tracer;
  options.server.fusion.enabled = true;
  options.server.fusion.result_cache = true;
  const ExperimentResult result = RunExperiment(trace, spec, options);

  int64_t cache_hits = 0;
  for (const TraceEvent& event : tracer.events()) {
    if (event.type == TraceEventType::kCacheHit) ++cache_hits;
  }
  ASSERT_GT(cache_hits, 0) << "trace produced no cache hits";
  EXPECT_EQ(cache_hits, result.queries_cache_hits);
  ASSERT_GT(result.queries_fused, 0) << "trace produced no fused members";

  const SpanSummary summary = SummarizeSpans(tracer.events());
  EXPECT_EQ(summary.queries.committed, result.queries_committed);
  EXPECT_EQ(summary.updates.committed, result.updates_applied);
  EXPECT_EQ(summary.queries.dropped, result.queries_dropped);
  EXPECT_EQ(summary.queries.response_ms.count, result.queries_committed);
}

// The summarize-spans pipeline consumes the serialized form too: JSONL out,
// parse back, summarize — identical totals.
TEST(TracerTest, SummaryStableAcrossJsonlRoundTrip) {
  const Trace trace = GenerateStockTrace(StockTraceConfig::Small(33));
  FifoScheduler scheduler;
  Tracer tracer;
  ExperimentOptions options;
  options.qc = BalancedProfile(QcShape::kStep);
  options.server.tracer = &tracer;
  RunExperiment(trace, &scheduler, options);

  std::stringstream stream;
  tracer.WriteJsonl(stream);
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(ReadTraceEventsJsonl(stream, &parsed));

  const SpanSummary direct = SummarizeSpans(tracer.events());
  const SpanSummary reparsed = SummarizeSpans(std::move(parsed));
  EXPECT_EQ(direct.num_events, reparsed.num_events);
  EXPECT_EQ(direct.queries.committed, reparsed.queries.committed);
  EXPECT_EQ(direct.updates.committed, reparsed.updates.committed);
  EXPECT_DOUBLE_EQ(direct.queries.response_ms.mean,
                   reparsed.queries.response_ms.mean);
}

}  // namespace
}  // namespace webdb
