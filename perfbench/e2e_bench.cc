// End-to-end benchmark program (see README.md next to this file).
//
// Replays one seeded workload, single-threaded, through the public server
// API (WebDatabaseServer, TraceFeeder, MakeScheduler, MakeAdmission) and
// reports two kinds of performance that are never divided by each other:
//
//   engine speed    host time: transactions replayed per host second,
//                   allocations per transaction, peak RSS, set-up time;
//   served quality  simulated time: profit, deadlines met, committed
//                   queries, response-time percentiles, staleness, lag.
//
// A run covers a fixed number of traces ("segments"), each generated from
// a seed derived from --seed; served quality is pooled over all of them,
// engine speed is the median over every timed replay. Host times are scaled
// by a host speed probe timed between replays (see HostProbe), so that
// neighbours slowing a shared host do not move them.
//
// With --trace 1 it reports per-layer host time instead, from separate
// traced replays that wrap the two virtual boundaries the server calls
// through (CpuSetScheduler, AdmissionController) and the QC-assigner
// callback in timing decorators. Untraced replays carry no decorator.
//
// Every replay is checked: its schedule digest must match the segment's
// first replay, traced and untraced digests must agree, the run digest
// must equal --expect-digest when given, and after each replay the server
// must be quiescent, pass AuditInvariants, and conserve queries and
// updates.
//
// Usage:
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--expect-digest <hex>] [--spans-out <path>]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit status is nonzero when any
// correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariant_auditor.h"
#include "db/database.h"
#include "exp/overload_scenarios.h"
#include "exp/scheduler_factory.h"
#include "exp/trace_feeder.h"
#include "qc/qc_generator.h"
#include "server/web_database_server.h"
#include "sim/simulator.h"
#include "trace/stock_trace_generator.h"
#include "util/rng.h"
#include "util/seed.h"
#include "util/time.h"

// --- allocation counting ------------------------------------------------------
// Every heap allocation in the process, as bench/bench_hotpath.cc counts them.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace webdb {
namespace {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of simulated durations (us), in milliseconds.
double PercentileMs(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return ToMillis(v[k]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- workloads ----------------------------------------------------------------

// Stream ids for DeriveSeed: the workload seed is the only input; each
// segment's trace and QC seeds are derived from it.
constexpr uint64_t kTraceStream = 1;
constexpr uint64_t kQcStream = 2;

// Under --trace 1 every 4th segment is traced: a traced replay costs about
// twice an untraced one, and a quarter of the segments is plenty for
// per-layer shares.
constexpr int kTracedSegmentStride = 4;

// Overload scenarios: bench_overload's market-open / update-storm setup
// (base 450 q/s and 60 u/s, 10x, 256 stocks), on 15 s windows: how hot
// query items overlap hot update items is fixed per trace, so many short
// traces pool to a steadier staleness than a few long ones.
constexpr double kOverloadQueryRate = 450.0;
constexpr double kOverloadUpdateRate = 60.0;
constexpr double kOverloadScale = 10.0;

struct Workload {
  std::string name;
  SchedulerSpec spec;
  ServerConfig server;
  QcProfile qc;
  std::optional<OverloadScenario> scenario;  // nullopt: the paper trace
  int64_t window_s = 0;
  // Independently seeded traces per run. Served quality depends on where a
  // trace's bursts and hot items fall; pooling several traces keeps the
  // seed-to-seed spread of the quality metrics small.
  int segments = 0;
};

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  w.spec.kind = SchedulerKind::kQuts;
  if (name == "paper-1cpu") {
    // Fig. 8 setup: the full 1800 s trace, QUTS on one CPU, Table 4 QoD
    // share 0.5, step contracts, 20 us dispatch overhead, no admission, no
    // fusion.
    w.spec.topology.num_cpus = 1;
    w.server.dispatch_overhead = Micros(20);
    w.qc = Table4Profile(0.5, QcShape::kStep);
    w.window_s = 1800;
    w.segments = 24;
    return w;
  }
  if (name == "market-open-4cpu") w.scenario = OverloadScenario::kMarketOpen;
  if (name == "update-storm-4cpu") w.scenario = OverloadScenario::kUpdateStorm;
  if (!w.scenario) return std::nullopt;
  // bench_overload's 4-CPU sharded QUTS with DBF admission, plus fusion and
  // the result cache.
  w.spec.topology.num_cpus = 4;
  w.spec.admission.kind = AdmissionKind::kDbf;
  w.server.fusion.enabled = true;
  w.server.fusion.result_cache = true;
  w.qc = Table4Profile(0.2, QcShape::kStep);
  w.window_s = 15;
  // Stale reads are rare under the read-heavy market-open crowd, so its
  // staleness needs twice the traces to settle.
  w.segments = *w.scenario == OverloadScenario::kMarketOpen ? 256 : 128;
  return w;
}

Trace MakeTrace(const Workload& w, uint64_t trace_seed, double scale) {
  const auto window = static_cast<SimDuration>(
      std::llround(static_cast<double>(Seconds(w.window_s)) * scale));
  if (!w.scenario) {
    StockTraceConfig config;
    config.seed = trace_seed;
    config.duration = window;
    return GenerateStockTrace(config);
  }
  OverloadScenarioConfig config;
  config.seed = trace_seed;
  config.scale = kOverloadScale;
  config.duration = window;
  config.query_rate = kOverloadQueryRate;
  config.update_rate = kOverloadUpdateRate;
  return MakeOverloadTrace(*w.scenario, config);
}

// --- span recording -----------------------------------------------------------
// Layer entry points timed by the decorators below.

enum Entry : uint8_t {
  kArrival,
  kPopNext,
  kShouldPreempt,
  kNextDecision,
  kRequeue,
  kFinished,
  kRemoveQueued,
  kAdmit,
  kAdmissionFinished,
  kQcAssign,
  kNumEntries,
};
constexpr int kNumSchedEntries = kRemoveQueued + 1;

constexpr std::array<const char*, kNumEntries> kEntryNames = {
    "sched.arrival",       "sched.pop_next",  "sched.should_preempt",
    "sched.next_decision", "sched.requeue",   "sched.finished",
    "sched.remove_queued", "admission.admit", "admission.finished",
    "qc.assign"};

struct EntryStats {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time of nested spans
  uint64_t hits = 0;    // non-null pops, true preempt checks, admits
};

// Per-entry aggregates of one or more traced replays.
struct LayerTimes {
  std::array<EntryStats, kNumEntries> entries{};
  int64_t top_level_ns = 0;  // time inside outermost spans
  int64_t run_ns = 0;        // wall time of the replays' Run()

  void Add(const LayerTimes& o) {
    for (int e = 0; e < kNumEntries; ++e) {
      entries[e].calls += o.entries[e].calls;
      entries[e].total_ns += o.entries[e].total_ns;
      entries[e].self_ns += o.entries[e].self_ns;
      entries[e].hits += o.entries[e].hits;
    }
    top_level_ns += o.top_level_ns;
    run_ns += o.run_ns;
  }
};

struct RawSpan {
  TxnId txn = 0;
  Entry entry = kArrival;
  uint8_t depth = 0;
  int64_t start_ns = 0;  // relative to the replay start
  int64_t dur_ns = 0;
};

// Aggregates spans per entry point in memory (count, total, self time) and
// keeps a bounded sample of raw spans: every span of each transaction whose
// index is a multiple of kSampleStride, up to kSampleCap spans.
class SpanRecorder {
 public:
  static constexpr uint64_t kSampleStride = 1024;
  static constexpr size_t kSampleCap = 1 << 16;
  static constexpr int kMaxDepth = 16;

  void Begin() {
    if (depth_ >= kMaxDepth) {
      std::fprintf(stderr, "span nesting deeper than %d\n", kMaxDepth);
      std::exit(1);
    }
    stack_[depth_++] = Frame{NowNs(), 0};
  }

  void End(Entry entry, TxnId txn, bool hit = false) {
    const int64_t end = NowNs();
    const Frame frame = stack_[--depth_];
    const int64_t dur = end - frame.start_ns;
    EntryStats& s = times_.entries[entry];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += dur - frame.child_ns;
    s.hits += hit ? 1 : 0;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    } else {
      times_.top_level_ns += dur;
    }
    if (txn != 0 && TxnIndex(txn) % kSampleStride == 0 &&
        sample_.size() < kSampleCap) {
      sample_.push_back(RawSpan{txn, entry, static_cast<uint8_t>(depth_),
                                frame.start_ns - origin_ns_, dur});
    }
  }

  void SetOrigin(int64_t origin_ns) { origin_ns_ = origin_ns; }
  void SetRunNs(int64_t run_ns) { times_.run_ns = run_ns; }

  const LayerTimes& times() const { return times_; }
  const std::vector<RawSpan>& sample() const { return sample_; }

 private:
  struct Frame {
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  LayerTimes times_;
  int64_t origin_ns_ = 0;
  std::vector<RawSpan> sample_;
};

// Times every dispatch-protocol call into the wrapped scheduler. Queue
// introspection (HasWork, NumQueued*, fusion domains, stats export) is
// forwarded untimed and stays in the server's self time.
class TimedScheduler final : public CpuSetScheduler {
 public:
  TimedScheduler(CpuSetScheduler* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  std::string Name() const override { return inner_->Name(); }
  int num_cpus() const override { return inner_->num_cpus(); }

  void OnQueryArrival(Query* query, SimTime now) override {
    spans_->Begin();
    inner_->OnQueryArrival(query, now);
    spans_->End(kArrival, query->id);
  }
  void OnUpdateArrival(Update* update, SimTime now) override {
    spans_->Begin();
    inner_->OnUpdateArrival(update, now);
    spans_->End(kArrival, update->id);
  }
  void Requeue(Transaction* txn, SimTime now) override {
    spans_->Begin();
    inner_->Requeue(txn, now);
    spans_->End(kRequeue, txn->id);
  }
  Transaction* PopNext(CpuId cpu, SimTime now) override {
    spans_->Begin();
    Transaction* txn = inner_->PopNext(cpu, now);
    spans_->End(kPopNext, txn != nullptr ? txn->id : 0, txn != nullptr);
    return txn;
  }
  bool ShouldPreempt(CpuId cpu, const Transaction& running,
                     SimTime now) override {
    spans_->Begin();
    const bool preempt = inner_->ShouldPreempt(cpu, running, now);
    spans_->End(kShouldPreempt, running.id, preempt);
    return preempt;
  }
  SimTime NextDecisionTime(CpuId cpu, SimTime now) override {
    spans_->Begin();
    const SimTime t = inner_->NextDecisionTime(cpu, now);
    spans_->End(kNextDecision, 0);
    return t;
  }
  void OnTxnFinished(const Transaction& txn, SimTime now) override {
    spans_->Begin();
    inner_->OnTxnFinished(txn, now);
    spans_->End(kFinished, txn.id);
  }
  void RemoveQueued(Transaction* txn, SimTime now) override {
    spans_->Begin();
    inner_->RemoveQueued(txn, now);
    spans_->End(kRemoveQueued, txn->id);
  }

  int FusionDomain(const Query& query) const override {
    return inner_->FusionDomain(query);
  }
  int RendezvousDomain(const Query& query) override {
    return inner_->RendezvousDomain(query);
  }
  bool HasWork() const override { return inner_->HasWork(); }
  int64_t NumQueuedQueries() const override {
    return inner_->NumQueuedQueries();
  }
  int64_t NumQueuedUpdates() const override {
    return inner_->NumQueuedUpdates();
  }
  void ExportStats(MetricRegistry& registry) const override {
    inner_->ExportStats(registry);
  }

 private:
  CpuSetScheduler* inner_;
  SpanRecorder* spans_;
};

// Times the admission controller's two hooks. Shedding calls back into the
// server from inside Admit; the nested scheduler and finished spans are
// subtracted from admit's self time.
class TimedAdmission final : public AdmissionController {
 public:
  TimedAdmission(AdmissionController* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  std::string Name() const override { return inner_->Name(); }
  bool Admit(const Query& query, const AdmissionContext& context) override {
    spans_->Begin();
    const bool admitted = inner_->Admit(query, context);
    spans_->End(kAdmit, query.id, admitted);
    return admitted;
  }
  void OnQueryFinished(const Query& query, SimTime now) override {
    spans_->Begin();
    inner_->OnQueryFinished(query, now);
    spans_->End(kAdmissionFinished, query.id);
  }
  void AuditInvariants(SimTime now) const override {
    inner_->AuditInvariants(now);
  }

 private:
  AdmissionController* inner_;
  SpanRecorder* spans_;
};

// --- one replay ---------------------------------------------------------------

// The simulated outcome of one or more replays, in poolable form: sums,
// counts and raw samples (never per-trace ratios).
struct Outcome {
  int64_t queries = 0;
  int64_t updates = 0;
  int64_t committed = 0;
  int64_t dropped = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t deadline_met = 0;
  int64_t applied = 0;
  int64_t invalidated = 0;
  int64_t query_restarts = 0;
  int64_t update_restarts = 0;
  int64_t preemptions = 0;
  int64_t fused = 0;
  int64_t fusion_groups = 0;
  int64_t cache_hits = 0;
  int64_t cache_fills = 0;
  double qos_gained = 0.0;
  double qod_gained = 0.0;
  double total_max = 0.0;
  double staleness_sum = 0.0;
  int64_t staleness_count = 0;
  uint64_t events_executed = 0;
  uint64_t events_cancelled = 0;
  uint64_t slots_high_water = 0;  // max over replays
  // CPU busy time and CPU time available over the active period (first
  // arrival to last completion), both in simulated microseconds.
  double cpu_busy_us = 0.0;
  double cpu_active_us = 0.0;
  // Raw samples in simulated microseconds, 32 bits to keep the pooled
  // samples small next to the engine's own memory.
  std::vector<uint32_t> response;  // committed queries
  std::vector<uint32_t> lag;       // applied updates

  void Add(const Outcome& o) {
    queries += o.queries;
    updates += o.updates;
    committed += o.committed;
    dropped += o.dropped;
    rejected += o.rejected;
    shed += o.shed;
    deadline_met += o.deadline_met;
    applied += o.applied;
    invalidated += o.invalidated;
    query_restarts += o.query_restarts;
    update_restarts += o.update_restarts;
    preemptions += o.preemptions;
    fused += o.fused;
    fusion_groups += o.fusion_groups;
    cache_hits += o.cache_hits;
    cache_fills += o.cache_fills;
    qos_gained += o.qos_gained;
    qod_gained += o.qod_gained;
    total_max += o.total_max;
    staleness_sum += o.staleness_sum;
    staleness_count += o.staleness_count;
    events_executed += o.events_executed;
    events_cancelled += o.events_cancelled;
    slots_high_water = std::max(slots_high_water, o.slots_high_water);
    cpu_busy_us += o.cpu_busy_us;
    cpu_active_us += o.cpu_active_us;
    response.insert(response.end(), o.response.begin(), o.response.end());
    lag.insert(lag.end(), o.lag.begin(), o.lag.end());
  }
};

struct Replay {
  double construct_s = 0.0;  // server construction + ReserveCapacity
  double run_s = 0.0;        // feeder start + Run, the timed part
  uint64_t allocs = 0;       // heap allocations during the timed part
  // Hash of every transaction's public outcome (id, final state, commit
  // time, restarts). The simulator clock is left out, so a change that
  // only moves the drain clock keeps the digest.
  uint64_t digest = 0;
  std::vector<std::string> errors;
  Outcome outcome;
  std::unique_ptr<SpanRecorder> spans;  // traced replays only
};

void Check(Replay& r, bool ok, const std::string& what) {
  if (!ok) r.errors.push_back(what);
}

uint32_t Sample(Replay& r, SimDuration d) {
  Check(r, d >= 0 && d <= UINT32_MAX, "duration out of sample range");
  return static_cast<uint32_t>(std::clamp<SimDuration>(d, 0, UINT32_MAX));
}

// Digest, outcome and conservation checks of a drained server.
void Summarize(const WebDatabaseServer& server, Replay& r) {
  const ServerMetrics& m = server.metrics();
  Outcome& o = r.outcome;
  o.queries = static_cast<int64_t>(server.queries().size());
  o.updates = static_cast<int64_t>(server.updates().size());
  o.query_restarts = m.query_restarts;
  o.update_restarts = m.update_restarts;
  o.preemptions = m.preemptions;
  o.fused = m.queries_fused;
  o.fusion_groups = m.fusion_groups;
  o.cache_hits = m.queries_cache_hits;
  o.cache_fills = m.cache_fills;
  o.qos_gained = server.ledger().qos_gained();
  o.qod_gained = server.ledger().qod_gained();
  o.total_max = server.ledger().total_max();
  o.staleness_sum = m.staleness.sum();
  o.staleness_count = m.staleness.count();

  audit::Fnv1aHasher digest;
  SimTime first_arrival = kSimTimeMax;
  SimTime last_completion = 0;
  o.response.reserve(server.queries().size());
  const auto& queries = server.queries();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    digest.MixU64(q.id);
    digest.MixU64(static_cast<uint64_t>(q.state));
    digest.MixI64(q.commit_time);
    digest.MixI64(q.restarts);
    first_arrival = std::min(first_arrival, q.arrival);
    switch (q.state) {
      case TxnState::kCommitted: {
        ++o.committed;
        last_completion = std::max(last_completion, q.commit_time);
        o.response.push_back(Sample(r, q.ResponseTime()));
        const SimDuration rt_max = q.qc.rt_max();
        if (rt_max <= 0 || q.ResponseTime() <= rt_max) ++o.deadline_met;
        break;
      }
      case TxnState::kDropped:
        ++o.dropped;
        break;
      case TxnState::kRejected:
        ++o.rejected;
        break;
      case TxnState::kShed:
        ++o.shed;
        break;
      default:
        Check(r, false, "query " + std::to_string(q.id) + " ended in state " +
                            ToString(q.state));
    }
  }
  o.lag.reserve(server.updates().size());
  const auto& updates = server.updates();
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    digest.MixU64(u.id);
    digest.MixU64(static_cast<uint64_t>(u.state));
    digest.MixI64(u.commit_time);
    digest.MixI64(u.restarts);
    first_arrival = std::min(first_arrival, u.arrival);
    if (u.state == TxnState::kCommitted) {
      ++o.applied;
      last_completion = std::max(last_completion, u.commit_time);
      o.lag.push_back(Sample(r, u.ApplyLatency()));
    } else if (u.state == TxnState::kInvalidated) {
      ++o.invalidated;
    } else {
      Check(r, false, "update " + std::to_string(u.id) + " ended in state " +
                          ToString(u.state));
    }
  }
  r.digest = digest.hash();

  // Conservation, from the final states and against the server's counters.
  Check(r, o.committed + o.dropped + o.rejected + o.shed == o.queries,
        "query conservation (committed + dropped + rejected + shed)");
  Check(r, o.applied + o.invalidated == o.updates,
        "update conservation (applied + invalidated)");
  Check(r,
        o.committed == m.queries_committed && o.dropped == m.queries_dropped &&
            o.rejected == m.queries_rejected && o.shed == m.queries_shed,
        "query outcome counters disagree with final states");
  Check(r,
        o.applied == m.updates_applied &&
            o.invalidated == m.updates_invalidated,
        "update outcome counters disagree with final states");
  Check(r,
        m.queries_submitted == o.queries && m.updates_submitted == o.updates,
        "submission counters disagree with the transaction pools");
  Check(r, o.staleness_count == o.committed,
        "staleness samples differ from committed queries");

  // Utilisation over the active period, never over the drain clock.
  const SimTime active =
      last_completion > first_arrival ? last_completion - first_arrival : 0;
  o.cpu_busy_us = static_cast<double>(server.TotalBusyTime());
  o.cpu_active_us = static_cast<double>(active) * server.NumCpus();
}

// Builds a fresh server stack for `trace`, replays it once, and checks the
// end state. `traced` wraps the layer boundaries in timing decorators;
// `audit` runs the O(n) AuditInvariants pass on the drained server.
Replay RunReplay(const Workload& w, const Trace& trace, uint64_t qc_seed,
                 bool traced, bool audit) {
  Replay r;
  if (traced) r.spans = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = r.spans.get();

  const int64_t t0 = NowNs();
  Database db(trace.num_items);
  Simulator sim;
  std::unique_ptr<CpuSetScheduler> scheduler = MakeScheduler(w.spec);
  std::unique_ptr<AdmissionController> admission =
      MakeAdmission(w.spec.admission, w.spec.topology.num_cpus);
  std::optional<TimedScheduler> timed_scheduler;
  std::optional<TimedAdmission> timed_admission;
  CpuSetScheduler* sched = scheduler.get();
  ServerConfig config = w.server;
  config.admission = admission.get();
  if (traced) {
    sched = &timed_scheduler.emplace(scheduler.get(), spans);
    if (admission != nullptr) {
      config.admission = &timed_admission.emplace(admission.get(), spans);
    }
  }
  WebDatabaseServer server(&sim, &db, sched, config);
  server.ReserveCapacity(trace.queries.size(), trace.updates.size());
  r.construct_s = NsToS(NowNs() - t0);

  Rng qc_rng(qc_seed);
  const QcGenerator generator(w.qc);
  TraceFeeder::QcAssigner assigner;
  if (traced) {
    const QueryRecord* base = trace.queries.data();
    assigner = [&generator, &qc_rng, spans,
                base](const QueryRecord& record) -> QualityContract {
      spans->Begin();
      QualityContract qc = generator.Next(qc_rng);
      spans->End(kQcAssign, QueryTxnId(static_cast<uint64_t>(&record - base)));
      return qc;
    };
  } else {
    assigner = [&generator, &qc_rng](const QueryRecord&) {
      return generator.Next(qc_rng);
    };
  }

  const uint64_t allocs_before = AllocCount();
  const int64_t t1 = NowNs();
  if (traced) spans->SetOrigin(t1);
  TraceFeeder feeder(&server, &trace, std::move(assigner));
  feeder.Start();
  server.Run();
  const int64_t t2 = NowNs();
  r.allocs = AllocCount() - allocs_before;
  r.run_s = NsToS(t2 - t1);

  // Outside timing: end-state checks, digest, outcome.
  Check(r, feeder.Done(), "trace feeder did not finish");
  Check(r, server.IsQuiescent(), "server not quiescent after Run()");
  if (audit) server.AuditInvariants();  // aborts on violation
  Check(r,
        server.queries().size() == trace.queries.size() &&
            server.updates().size() == trace.updates.size(),
        "submitted transactions differ from the trace");
  Summarize(server, r);
  r.outcome.events_executed = sim.NumExecuted();
  r.outcome.events_cancelled = sim.stats().cancelled;
  r.outcome.slots_high_water = sim.stats().slots_allocated;
  if (traced) {
    spans->SetRunNs(t2 - t1);
    int64_t self_sum = 0;
    for (const EntryStats& s : spans->times().entries) self_sum += s.self_ns;
    Check(r, self_sum == spans->times().top_level_ns,
          "span self times do not add up to the top-level span time");
  }
  return r;
}

// --- clock calibration ----------------------------------------------------------

// Host cost of one span's two clock reads, in ns: the median of several
// batches of back-to-back reads.
double CalibrateClockCostNs() {
  constexpr int kBatches = 7;
  constexpr int kReads = 200000;
  std::vector<double> per_read;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t start = NowNs();
    for (int i = 0; i < kReads; ++i) NowNs();
    const int64_t end = NowNs();
    per_read.push_back(static_cast<double>(end - start) / kReads);
  }
  return 2.0 * Median(per_read);
}

// --- host speed probe -----------------------------------------------------------

// A fixed piece of work that uses no repository code, timed between replays.
// On a shared host, neighbours slow this vCPU for seconds to minutes at a
// time, by a quarter or more, and not uniformly: thread CPU time slows with
// wall time, so it is contention, not preemption; dependent loads from DRAM
// barely slow, while branchy, cache-resident code like the engine's slows
// most. The probe is work of that kind: binary-heap pops and pushes (the
// event queue is a binary heap) over a 128 KiB and a 2 MiB heap. Across
// runs its time tracks the engine's replay time with a correlation of 0.8 to
// 0.97, and the engine slows as the probe time to a power of 1.1 to 1.5
// (fitted per workload over 20 runs on the reference host). Scaling each
// replay by the probe times on either side of it, to the power kExponent,
// cancels most of the slowdown; a change to the engine scales the result
// as it scales the raw rate.
class HostProbe {
 public:
  // Probe time on the reference host (a 4-vCPU Xeon VM at 2.1 GHz) when
  // quiet; the scaled metrics read as if every replay had run there.
  static constexpr double kReferenceS = 0.0075;
  static constexpr double kExponent = 1.5;

  HostProbe() : large_(kLargeHeap), work_(kLargeHeap) {
    uint64_t state = ~kSeed;
    for (uint64_t& v : large_) v = NextRandom(state);
    std::make_heap(large_.begin(), large_.end(), std::greater<>());
    small_.reserve(kSmallHeap);
    for (int i = 0; i < 3; ++i) Measure();  // fault in and warm up
  }

  // The host's slowdown relative to the reference host, as it acts on the
  // engine, from a probe time.
  static double Slowdown(double probe_s) {
    return std::pow(probe_s / kReferenceS, kExponent);
  }

  // Host seconds the fixed work takes now.
  double Measure() {
    std::copy(large_.begin(), large_.end(), work_.begin());  // untimed reset
    const int64_t start = NowNs();
    uint64_t state = kSeed;
    small_.clear();
    for (int i = 0; i < kSmallHeap; ++i) {
      small_.push_back(NextRandom(state));
      std::push_heap(small_.begin(), small_.end(), std::greater<>());
    }
    Churn(small_, kSmallOps, state);
    Churn(work_, kLargeOps, state);
    sink_ = sink_ + small_.front() + work_.front();
    return NsToS(NowNs() - start);
  }

 private:
  static constexpr int kSmallHeap = 1 << 14;  // 128 KiB
  static constexpr int kSmallOps = 40000;
  static constexpr int kLargeHeap = 1 << 18;  // 2 MiB
  static constexpr int kLargeOps = 20000;
  static constexpr uint64_t kSeed = 0x5eed5eed5eed5eedULL;

  static uint64_t NextRandom(uint64_t& state) {  // splitmix64
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Pops the minimum, raises it by a random amount and pushes it back.
  static void Churn(std::vector<uint64_t>& heap, int ops, uint64_t& state) {
    for (int i = 0; i < ops; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() += NextRandom(state) >> 8;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }

  std::vector<uint64_t> small_;
  std::vector<uint64_t> large_;  // the large heap's starting state
  std::vector<uint64_t> work_;   // the large heap, reset before each probe
  volatile uint64_t sink_ = 0;   // keeps the work from being optimised away
};

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Writes the run's per-entry aggregates and the first segment's bounded
// raw-span sample as one JSON document.
void WriteSpans(const std::string& path, const Workload& w, uint64_t seed,
                const LayerTimes& times, const std::vector<RawSpan>& sample,
                double clock_cost_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"run_ns\": %" PRId64 ", \"top_level_ns\": %" PRId64
               ", \"clock_cost_ns\": %.3f,\n \"layers\": {",
               w.name.c_str(), seed, times.run_ns, times.top_level_ns,
               clock_cost_ns);
  for (int e = 0; e < kNumEntries; ++e) {
    const EntryStats& s = times.entries[e];
    std::fprintf(out,
                 "%s\n  \"%s\": {\"calls\": %" PRIu64 ", \"total_ns\": %" PRId64
                 ", \"self_ns\": %" PRId64 ", \"hits\": %" PRIu64 "}",
                 e == 0 ? "" : ",", kEntryNames[e], s.calls, s.total_ns,
                 s.self_ns, s.hits);
  }
  std::fprintf(out,
               "},\n \"span_sample\": {\"segment\": 0, \"stride\": %" PRIu64
               ", \"fields\": [\"txn\", \"entry\", \"depth\", \"start_ns\", "
               "\"dur_ns\"],\n  \"spans\": [",
               SpanRecorder::kSampleStride);
  for (size_t i = 0; i < sample.size(); ++i) {
    const RawSpan& s = sample[i];
    std::fprintf(out, "%s\n   [%" PRIu64 ", \"%s\", %d, %" PRId64 ", %" PRId64 "]",
                 i == 0 ? "" : ",", s.txn, kEntryNames[s.entry], s.depth,
                 s.start_ns, s.dur_ns);
  }
  std::fprintf(out, "]}}\n");
  std::fclose(out);
}

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  double scale = 1.0;
  std::string expect_digest;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper-1cpu|market-open-4cpu|"
               "update-storm-4cpu> --seed <n> --seconds <s> --trace <0|1>\n"
               "          [--scale <f>] [--expect-digest <hex>] "
               "[--spans-out <path>]\n",
               argv0);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      f.workload = value;
    } else if (arg == "--seed") {
      f.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      f.seconds = std::strtod(value, &end);
      if (*end != '\0') Usage(argv[0]);
    } else if (arg == "--trace") {
      f.trace = std::atoi(value);
    } else if (arg == "--scale") {
      f.scale = std::strtod(value, &end);
      if (*end != '\0') Usage(argv[0]);
    } else if (arg == "--expect-digest") {
      f.expect_digest = value;
    } else if (arg == "--spans-out") {
      f.spans_out = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (f.workload.empty() || !have_seed || !(f.seconds > 0.0) ||
      (f.trace != 0 && f.trace != 1) || !(f.scale > 0.0 && f.scale <= 1.0)) {
    Usage(argv[0]);
  }
  return f;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const std::optional<Workload> workload = MakeWorkload(flags.workload);
  if (!workload) Usage(argv[0]);
  const Workload& w = *workload;
  const double clock_cost_ns = CalibrateClockCostNs();
  const bool per_layer = flags.trace == 1;

  // Each segment: generate its trace and build a server (set-up), replay
  // untraced for its share of --seconds (at least once). With --trace 1,
  // every kTracedSegmentStride-th segment alternates untraced and traced
  // replays, and the per-layer metrics cover exactly those segments; under
  // --trace 0 the first segment ends with one traced replay, so every run
  // compares traced and untraced digests. Segment 0 also warms up first.
  //
  // Host time is scaled by the host speed probe: probe_s always holds the
  // latest probe time, taken after every replay.
  const int64_t segment_budget_ns =
      static_cast<int64_t>(flags.seconds * 1e9 / w.segments);
  HostProbe probe;
  double probe_s = probe.Measure();
  std::vector<double> setup_s, generate_s, txns_per_s, allocs_per_txn;
  std::vector<double> raw_txns_per_s, slowdown;
  std::vector<double> traced_run_s, untraced_run_s;
  std::vector<std::string> errors;
  Outcome pooled;        // every segment: served quality
  Outcome layer_pooled;  // traced segments: per-layer counts
  LayerTimes layers;
  std::vector<RawSpan> span_sample;
  audit::Fnv1aHasher run_digest;
  uint64_t attempted = 0, failed = 0;
  size_t untraced_replays = 0, traced_replays = 0;
  for (int k = 0; k < w.segments; ++k) {
    const uint64_t trace_seed =
        DeriveSeed(DeriveSeed(flags.seed, kTraceStream), k);
    const uint64_t qc_seed = DeriveSeed(DeriveSeed(flags.seed, kQcStream), k);
    const double segment_probe_s = probe_s;
    const int64_t t0 = NowNs();
    const Trace trace = MakeTrace(w, trace_seed, flags.scale);
    generate_s.push_back(NsToS(NowNs() - t0));
    trace.CheckValid();
    const uint64_t txns = trace.queries.size() + trace.updates.size();
    if (k == 0) {
      RunReplay(w, trace, qc_seed, false, false);  // warm-up
      probe_s = probe.Measure();
    }
    // Host slowdown over the segment's set-up: the probes on either side.
    double setup_slowdown = 1.0;

    // Replays are checked and reduced as they finish; only the segment's
    // first untraced outcome is kept, for the pooled served quality.
    std::optional<Replay> first;
    std::vector<double> seg_untraced;
    std::vector<Replay> seg_traced;  // outcomes dropped, spans kept
    auto check = [&](Replay& r, const char* kind, size_t i) {
      if (first && r.digest != first->digest) {
        r.errors.push_back("digest " + Hex(r.digest) + " differs from " +
                           Hex(first->digest));
      }
      attempted += txns;
      if (!r.errors.empty()) failed += txns;
      for (const std::string& e : r.errors) {
        errors.push_back("segment " + std::to_string(k) + " " + kind +
                         " replay " + std::to_string(i) + ": " + e);
      }
      if (!first) {
        first.emplace(std::move(r));
        if (k == 0) {
          // Sized once from the first trace (with headroom for larger
          // ones), so pooling never reallocates and the pooled samples add
          // the same memory to peak RSS on every run.
          const size_t n = w.segments * 5 / 4;
          pooled.response.reserve(n * first->outcome.response.size());
          pooled.lag.reserve(n * first->outcome.lag.size());
        }
        pooled.Add(first->outcome);
        run_digest.MixU64(first->digest);
        setup_s.push_back((generate_s.back() + first->construct_s) /
                          setup_slowdown);
      }
    };
    auto untraced = [&] {
      Replay r = RunReplay(w, trace, qc_seed, false, !first);
      const double before_s = probe_s;
      probe_s = probe.Measure();
      const double slow = HostProbe::Slowdown(0.5 * (before_s + probe_s));
      if (!first) {
        setup_slowdown =
            HostProbe::Slowdown(0.5 * (segment_probe_s + probe_s));
      }
      const double rate = static_cast<double>(txns) / r.run_s;
      seg_untraced.push_back(r.run_s);
      raw_txns_per_s.push_back(rate);
      txns_per_s.push_back(rate * slow);
      slowdown.push_back(slow);
      allocs_per_txn.push_back(static_cast<double>(r.allocs) /
                               static_cast<double>(txns));
      check(r, "untraced", seg_untraced.size() - 1);
      ++untraced_replays;
    };
    auto traced = [&] {
      Replay r = RunReplay(w, trace, qc_seed, true, true);
      check(r, "traced", seg_traced.size());
      r.outcome = Outcome();
      seg_traced.push_back(std::move(r));
      ++traced_replays;
      probe_s = probe.Measure();
    };
    const bool traced_segment = per_layer && k % kTracedSegmentStride == 0;
    const int64_t start = NowNs();
    do {
      untraced();
      if (traced_segment) traced();
    } while (NowNs() - start < segment_budget_ns);
    if (!per_layer && k == 0) traced();

    if (traced_segment) {
      // The traced replay with the segment's median run time, so the layer
      // times of one replay add up to its run time.
      std::sort(seg_traced.begin(), seg_traced.end(),
                [](const Replay& a, const Replay& b) { return a.run_s < b.run_s; });
      const Replay& median = seg_traced[(seg_traced.size() - 1) / 2];
      layers.Add(median.spans->times());
      if (k == 0) span_sample = median.spans->sample();
      traced_run_s.push_back(median.run_s);
      untraced_run_s.push_back(Median(seg_untraced));
      layer_pooled.Add(first->outcome);
    }
    const Outcome& so = first->outcome;
    std::printf("segment %2d: %zu queries, %zu updates, profit %.2f%%, "
                "staleness %.4f, digest %s, %zu untraced + %zu traced "
                "replays\n",
                k, trace.queries.size(), trace.updates.size(),
                100.0 * Ratio(so.qos_gained + so.qod_gained, so.total_max),
                Ratio(so.staleness_sum, so.staleness_count),
                Hex(first->digest).c_str(), seg_untraced.size(),
                seg_traced.size());
  }
  const std::string digest = Hex(run_digest.hash());
  if (!flags.expect_digest.empty() && flags.expect_digest != digest) {
    errors.push_back("run digest " + digest + " differs from the pinned " +
                     flags.expect_digest);
    failed = attempted;
  }

  // --- report ---------------------------------------------------------------
  // Per-layer metrics describe the traced segments only.
  const Outcome& o = per_layer ? layer_pooled : pooled;
  const double queries = static_cast<double>(o.queries);
  const double txns = static_cast<double>(o.queries + o.updates);
  std::printf("workload %s  seed %" PRIu64 "  scale %g  segments %d  "
              "digest %s\n",
              w.name.c_str(), flags.seed, flags.scale, w.segments,
              digest.c_str());
  std::printf("digests: %zu untraced and %zu traced replays checked against "
              "their segment's first untraced replay; %zu checks failed\n",
              untraced_replays, traced_replays, errors.size());
  std::printf("%s: %" PRId64 " queries (%" PRId64 " committed, %" PRId64
              " dropped, %" PRId64 " rejected, %" PRId64 " shed), %" PRId64
              " updates (%" PRId64 " applied, %" PRId64 " invalidated)\n",
              per_layer ? "traced segments" : "all segments", o.queries, o.committed, o.dropped, o.rejected, o.shed,
              o.updates, o.applied, o.invalidated);
  std::printf("bases: profit/qos/qod over the submitted maximum %.1f; "
              "deadline_met/query_committed over %" PRId64
              " submitted queries; response percentiles over %zu committed "
              "queries; staleness over %" PRId64
              " committed queries; update lag over %zu applied updates; "
              "txns_per_s/allocs_per_txn: median of %zu replays\n",
              o.total_max, o.queries, o.response.size(), o.staleness_count,
              o.lag.size(), txns_per_s.size());
  std::printf("host: median slowdown %.4f (probe time over its reference "
              "%.4f s, to the power %.2f); unscaled txns_per_s %.1f\n",
              Median(slowdown), HostProbe::kReferenceS, HostProbe::kExponent,
              Median(raw_txns_per_s));

  std::vector<Metric> metrics;
  if (!per_layer) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"txns_per_s", Median(txns_per_s), "1/s"},
        {"allocs_per_txn", Median(allocs_per_txn), "count"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"setup_s", Median(setup_s), "s"},
        {"profit_pct", 100.0 * Ratio(o.qos_gained + o.qod_gained, o.total_max),
         "%"},
        {"qos_pct", 100.0 * Ratio(o.qos_gained, o.total_max), "%"},
        {"qod_pct", 100.0 * Ratio(o.qod_gained, o.total_max), "%"},
        {"deadline_met_pct", 100.0 * Ratio(o.deadline_met, queries), "%"},
        {"query_committed_pct", 100.0 * Ratio(o.committed, queries), "%"},
        {"response_p50_ms", PercentileMs(o.response, 0.50), "ms"},
        {"response_p99_ms", PercentileMs(o.response, 0.99), "ms"},
        {"staleness_mean", Ratio(o.staleness_sum, o.staleness_count),
         "updates"},
        {"update_lag_p99_ms", PercentileMs(o.lag, 0.99), "ms"},
    };
  } else {
    const auto& e = layers.entries;
    uint64_t sched_calls = 0;
    int64_t sched_ns = 0;
    for (int i = 0; i < kNumSchedEntries; ++i) {
      sched_calls += e[i].calls;
      sched_ns += e[i].self_ns;
    }
    auto count = [](auto v) { return static_cast<double>(v); };
    metrics.push_back({"sched.calls", count(sched_calls), "count"});
    metrics.push_back({"sched.busy_s", NsToS(sched_ns), "s"});
    metrics.push_back(
        {"sched.calls_per_txn", Ratio(count(sched_calls), txns), "count"});
    for (int i = 0; i < kNumSchedEntries; ++i) {
      const std::string name = kEntryNames[i];
      metrics.push_back({name + ".calls", count(e[i].calls), "count"});
      metrics.push_back({name + ".busy_s", NsToS(e[i].self_ns), "s"});
    }
    metrics.push_back({"sched.pop_next.hit_ratio",
                       Ratio(count(e[kPopNext].hits), count(e[kPopNext].calls)),
                       "ratio"});
    metrics.push_back({"sched.should_preempt.true_ratio",
                       Ratio(count(e[kShouldPreempt].hits),
                             count(e[kShouldPreempt].calls)),
                       "ratio"});
    metrics.push_back(
        {"admission.admit.calls", count(e[kAdmit].calls), "count"});
    metrics.push_back(
        {"admission.admit.busy_s", NsToS(e[kAdmit].self_ns), "s"});
    metrics.push_back({"admission.finished.busy_s",
                       NsToS(e[kAdmissionFinished].self_ns), "s"});
    metrics.push_back(
        {"admission.admit_ratio",
         Ratio(count(e[kAdmit].hits), count(e[kAdmit].calls)), "ratio"});
    metrics.push_back({"admission.shed", count(o.shed), "count"});
    metrics.push_back({"qc.assign.calls", count(e[kQcAssign].calls), "count"});
    metrics.push_back(
        {"qc.assign.busy_s", NsToS(e[kQcAssign].self_ns), "s"});
    metrics.push_back({"server.run_s", NsToS(layers.run_ns), "s"});
    metrics.push_back(
        {"server.self_s", NsToS(layers.run_ns - layers.top_level_ns), "s"});
    metrics.push_back(
        {"sim.events_executed", count(o.events_executed), "count"});
    metrics.push_back(
        {"sim.events_cancelled", count(o.events_cancelled), "count"});
    metrics.push_back({"sim.events_per_txn",
                       Ratio(count(o.events_executed), txns), "count"});
    metrics.push_back(
        {"sim.slots_high_water", count(o.slots_high_water), "count"});
    metrics.push_back({"sim.cpu_busy_pct",
                       100.0 * Ratio(o.cpu_busy_us, o.cpu_active_us), "%"});
    metrics.push_back({"txn.restarts.query", count(o.query_restarts), "count"});
    metrics.push_back(
        {"txn.restarts.update", count(o.update_restarts), "count"});
    metrics.push_back({"txn.preemptions", count(o.preemptions), "count"});
    metrics.push_back({"db.update_invalidated_ratio",
                       Ratio(count(o.invalidated), count(o.updates)), "ratio"});
    metrics.push_back({"fusion.queries_fused", count(o.fused), "count"});
    metrics.push_back({"fusion.groups", count(o.fusion_groups), "count"});
    metrics.push_back({"fusion.cache_hits", count(o.cache_hits), "count"});
    metrics.push_back({"fusion.cache_fills", count(o.cache_fills), "count"});
    metrics.push_back({"fusion.cache_hit_ratio",
                       Ratio(count(o.cache_hits), queries), "ratio"});
    metrics.push_back({"trace.generate_s", Median(generate_s), "s"});
    metrics.push_back({"trace.queries", queries, "count"});
    metrics.push_back({"trace.updates", count(o.updates), "count"});
    metrics.push_back({"txn.queries_committed", count(o.committed), "count"});
    metrics.push_back({"txn.updates_applied", count(o.applied), "count"});
    metrics.push_back({"bench.clock_cost_ns", clock_cost_ns, "ns"});
    double overhead = 0.0;
    for (size_t i = 0; i < traced_run_s.size(); ++i) {
      overhead += traced_run_s[i] - untraced_run_s[i];
    }
    metrics.push_back({"bench.span_overhead_s", overhead, "s"});
    metrics.push_back({"bench.host_slowdown", Median(slowdown), "ratio"});
    metrics.push_back(
        {"bench.txns_per_host_s", Median(raw_txns_per_s), "1/s"});
    if (!flags.spans_out.empty()) {
      WriteSpans(flags.spans_out, w, flags.seed, layers, span_sample,
                 clock_cost_ns);
    }
  }

  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  PrintResult(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace webdb

int main(int argc, char** argv) { return webdb::Main(argc, argv); }
