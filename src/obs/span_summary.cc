#include "obs/span_summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace webdb {

namespace {

// Streaming per-transaction state while walking the event sequence.
struct TxnSpan {
  SimTime submit = -1;
  SimTime queued_since = -1;     // earliest not-yet-dispatched queue entry
  SimTime dispatched_at = -1;    // valid while running
  bool running = false;
  double wait_us = 0.0;
  double service_us = 0.0;
  double lost_ms = 0.0;
};

struct PhaseSamples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
};

PhaseStats Finalize(PhaseSamples& samples) {
  PhaseStats stats;
  std::vector<double>& v = samples.values;
  stats.count = static_cast<int64_t>(v.size());
  if (v.empty()) return stats;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  stats.mean = sum / static_cast<double>(v.size());
  stats.max = v.back();
  const auto quantile = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
  };
  stats.p50 = quantile(0.5);
  stats.p90 = quantile(0.9);
  stats.p99 = quantile(0.99);
  return stats;
}

struct BreakdownSamples {
  SpanBreakdown counts;
  PhaseSamples wait, service, lost, response;
};

void AppendPhase(const char* label, const PhaseStats& stats,
                 std::string* out) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "  %-12s n=%-7lld mean=%-9.3f p50=%-9.3f p90=%-9.3f "
                "p99=%-9.3f max=%.3f\n",
                label, static_cast<long long>(stats.count), stats.mean,
                stats.p50, stats.p90, stats.p99, stats.max);
  *out += buffer;
}

}  // namespace

SpanSummary SummarizeSpans(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  SpanSummary summary;
  summary.num_events = static_cast<int64_t>(events.size());

  std::unordered_map<uint64_t, TxnSpan> spans;
  BreakdownSamples queries, updates;

  for (const TraceEvent& event : events) {
    BreakdownSamples& bucket = event.is_update ? updates : queries;
    TxnSpan& span = spans[event.txn];
    switch (event.type) {
      case TraceEventType::kSubmit:
        span.submit = event.time;
        break;
      case TraceEventType::kEnqueue:
        // A restart's re-enqueue keeps the original waiting anchor: the
        // transaction never left the queue.
        if (span.queued_since < 0) span.queued_since = event.time;
        break;
      case TraceEventType::kDispatch:
        if (span.queued_since >= 0) {
          span.wait_us += static_cast<double>(event.time - span.queued_since);
          span.queued_since = -1;
        }
        span.running = true;
        span.dispatched_at = event.time;
        break;
      case TraceEventType::kPreempt:
        if (span.running) {
          span.service_us +=
              static_cast<double>(event.time - span.dispatched_at);
          span.running = false;
        }
        ++bucket.counts.preempts;
        break;
      case TraceEventType::kRestart:
        span.lost_ms += event.detail;
        ++bucket.counts.restarts;
        break;
      case TraceEventType::kCommit: {
        if (span.running) {
          span.service_us +=
              static_cast<double>(event.time - span.dispatched_at);
          span.running = false;
        }
        ++bucket.counts.committed;
        bucket.wait.Add(span.wait_us / 1e3);
        bucket.service.Add(span.service_us / 1e3);
        bucket.lost.Add(span.lost_ms);
        if (span.submit >= 0) {
          bucket.response.Add(static_cast<double>(event.time - span.submit) /
                              1e3);
        }
        spans.erase(event.txn);
        break;
      }
      case TraceEventType::kDrop:
        ++bucket.counts.dropped;
        spans.erase(event.txn);
        break;
      case TraceEventType::kInvalidate:
        if (span.running) {
          span.service_us +=
              static_cast<double>(event.time - span.dispatched_at);
        }
        ++bucket.counts.invalidated;
        spans.erase(event.txn);
        break;
      case TraceEventType::kReject:
        ++bucket.counts.rejected;
        spans.erase(event.txn);
        break;
      case TraceEventType::kShed:
        ++bucket.counts.shed;
        spans.erase(event.txn);
        break;
      case TraceEventType::kFuse:
        // The member leaves its queue to ride a fused scan; the wait until
        // its (group) commit still counts as queue wait, so the anchor
        // stays put.
        break;
      case TraceEventType::kCacheHit:
        // Answered from the result cache at submit: the kCommit that
        // follows at the same instant settles it, with zero queue wait and
        // zero service.
        break;
    }
  }

  const auto finalize = [](BreakdownSamples& samples) {
    SpanBreakdown out = samples.counts;
    out.queue_wait_ms = Finalize(samples.wait);
    out.service_ms = Finalize(samples.service);
    out.restart_lost_ms = Finalize(samples.lost);
    out.response_ms = Finalize(samples.response);
    return out;
  };
  summary.queries = finalize(queries);
  summary.updates = finalize(updates);
  return summary;
}

std::string RenderSpanSummary(const SpanSummary& summary) {
  std::string out;
  char buffer[200];
  std::snprintf(buffer, sizeof(buffer), "%lld lifecycle events\n",
                static_cast<long long>(summary.num_events));
  out += buffer;

  std::snprintf(buffer, sizeof(buffer),
                "queries: committed=%lld dropped=%lld rejected=%lld "
                "shed=%lld preempts=%lld restarts=%lld\n",
                static_cast<long long>(summary.queries.committed),
                static_cast<long long>(summary.queries.dropped),
                static_cast<long long>(summary.queries.rejected),
                static_cast<long long>(summary.queries.shed),
                static_cast<long long>(summary.queries.preempts),
                static_cast<long long>(summary.queries.restarts));
  out += buffer;
  AppendPhase("queue-wait", summary.queries.queue_wait_ms, &out);
  AppendPhase("service", summary.queries.service_ms, &out);
  AppendPhase("restart-lost", summary.queries.restart_lost_ms, &out);
  AppendPhase("response", summary.queries.response_ms, &out);

  std::snprintf(buffer, sizeof(buffer),
                "updates: applied=%lld invalidated=%lld preempts=%lld "
                "restarts=%lld\n",
                static_cast<long long>(summary.updates.committed),
                static_cast<long long>(summary.updates.invalidated),
                static_cast<long long>(summary.updates.preempts),
                static_cast<long long>(summary.updates.restarts));
  out += buffer;
  AppendPhase("queue-wait", summary.updates.queue_wait_ms, &out);
  AppendPhase("service", summary.updates.service_ms, &out);
  AppendPhase("restart-lost", summary.updates.restart_lost_ms, &out);
  AppendPhase("response", summary.updates.response_ms, &out);
  out += "(all figures in milliseconds; percentiles over committed "
         "transactions)\n";
  return out;
}

}  // namespace webdb
