// Exit-path pins: every way a query leaves the server, on one seeded
// overload trace. A query leaves by commit (a solo scan, a fused member's
// settle, or a cache hit), by a drop at its lifetime deadline, by a drop
// when the fused group it rides dissolves after its deadline, by shedding,
// or by rejection. The run uses DBF admission over two tenant tiers, fusion
// with the result cache and short lifetimes, so that every exit fires; the
// 4-CPU run adds cross-shard rendezvous. Each run's outcome is pinned
// exactly: the end-state hash, the ledger's gained profit, every server.*
// and txn.* counter and gauge (the per-tenant ones included), the
// simulator's event counts, and a hash over the lifecycle trace.
//
// A second test holds the admission contract on the same runs: the
// controller hears OnQueryFinished exactly once for every query it
// admitted, and never for a query it did not admit (a cache hit is
// answered before admission runs).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "db/database.h"
#include "exp/overload_scenarios.h"
#include "exp/scheduler_factory.h"
#include "exp/trace_feeder.h"
#include "obs/tracer.h"
#include "qc/qc_generator.h"
#include "server/web_database_server.h"
#include "util/rng.h"

namespace webdb {
namespace {

// Forwards to a controller and records who was admitted and released.
class CountingAdmission final : public AdmissionController {
 public:
  explicit CountingAdmission(AdmissionController* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  bool Admit(const Query& query, const AdmissionContext& context) override {
    const bool admitted = inner_->Admit(query, context);
    if (admitted) admitted_.insert(query.id);
    return admitted;
  }
  void OnQueryFinished(const Query& query, SimTime now) override {
    ++finishes_;
    if (!admitted_.contains(query.id)) ++never_admitted_released_;
    if (!released_.insert(query.id).second) ++released_twice_;
    inner_->OnQueryFinished(query, now);
  }
  void AuditInvariants(SimTime now) const override {
    inner_->AuditInvariants(now);
  }

  int64_t admits() const { return static_cast<int64_t>(admitted_.size()); }
  int64_t finishes() const { return finishes_; }
  int64_t never_admitted_released() const { return never_admitted_released_; }
  int64_t released_twice() const { return released_twice_; }

 private:
  AdmissionController* inner_;
  std::set<TxnId> admitted_;
  std::set<TxnId> released_;
  int64_t finishes_ = 0;
  int64_t never_admitted_released_ = 0;
  int64_t released_twice_ = 0;
};

struct ExitOutcome {
  uint64_t end_state_hash = 0;
  double qos_gained = 0.0;
  double qod_gained = 0.0;
  // Every server.* and txn.* counter and gauge, in name order.
  std::vector<std::pair<std::string, double>> counters;
  uint64_t events_executed = 0;
  uint64_t events_cancelled = 0;
  // FNV-1a over every trace event's (time, txn id, type).
  uint64_t trace_hash = 0;
  // kDrop events whose transaction's previous event was kFuse: the group it
  // rode dissolved after its deadline. Other kDrops are lifetime drops.
  int64_t drops_at_dissolution = 0;
  int64_t lifetime_drops = 0;
  int64_t admits = 0;
  int64_t finishes = 0;
  int64_t never_admitted_released = 0;
  int64_t released_twice = 0;
};

ExitOutcome RunExitTrace(int cpus) {
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  OverloadScenarioConfig scenario;
  scenario.seed = 13;
  scenario.scale = 10.0;
  scenario.duration = Seconds(2);
  scenario.num_stocks = 64;
  scenario.query_rate = 300.0;
  scenario.update_rate = 300.0;
  Trace trace = MakeOverloadTrace(OverloadScenario::kMarketOpen, scenario);
  AssignTenants(&trace, tenants, scenario.seed);

  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = cpus;
  std::unique_ptr<CpuSetScheduler> scheduler = MakeScheduler(spec);
  AdmissionSpec admission_spec;
  admission_spec.kind = AdmissionKind::kDbf;
  admission_spec.tenants = tenants;
  std::unique_ptr<AdmissionController> dbf =
      MakeAdmission(admission_spec, cpus);
  CountingAdmission admission(dbf.get());

  Tracer tracer;
  Database db(trace.num_items);
  ServerConfig config;
  config.admission = &admission;
  config.tenants = &tenants;
  config.tracer = &tracer;
  // Lifetimes of half the response-time bound: queued queries drop, and so
  // do fused members whose group dissolves after their deadline.
  config.lifetime_factor = 0.5;
  config.min_lifetime = 0;
  config.fusion.enabled = true;
  config.fusion.result_cache = true;
  config.fusion.cross_shard_rendezvous = cpus > 1;
  WebDatabaseServer server(&db, scheduler.get(), config);
  server.ReserveCapacity(trace.queries.size(), trace.updates.size());

  QcGenerator generator(BalancedProfile(QcShape::kStep));
  Rng qc_rng(scenario.seed * 31 + 7);
  TraceFeeder feeder(&server, &trace,
                     [&](const QueryRecord&) { return generator.Next(qc_rng); });
  feeder.Start();
  server.Run();
  EXPECT_TRUE(feeder.Done());
  EXPECT_TRUE(server.IsQuiescent());
  server.AuditInvariants();

  ExitOutcome out;
  out.end_state_hash = server.EndStateHash();
  out.qos_gained = server.ledger().qos_gained();
  out.qod_gained = server.ledger().qod_gained();
  const MetricRegistry& registry = server.metric_registry();
  for (const std::string& name : registry.Names()) {
    if (name == "server.response_time_ms") continue;  // the one histogram
    if (name.starts_with("server.") || name.starts_with("txn.")) {
      out.counters.emplace_back(name, registry.Value(name));
    }
  }
  out.events_executed = server.sim().NumExecuted();
  out.events_cancelled = server.sim().stats().cancelled;

  audit::Fnv1aHasher hasher;
  std::unordered_map<uint64_t, TraceEventType> last_event;
  for (const TraceEvent& event : tracer.events()) {
    hasher.MixI64(event.time);
    hasher.MixU64(event.txn);
    hasher.MixByte(static_cast<uint8_t>(event.type));
    if (event.type == TraceEventType::kDrop) {
      const auto last = last_event.find(event.txn);
      if (last != last_event.end() && last->second == TraceEventType::kFuse) {
        ++out.drops_at_dissolution;
      } else {
        ++out.lifetime_drops;
      }
    }
    last_event[event.txn] = event.type;
  }
  out.trace_hash = hasher.hash();
  out.admits = admission.admits();
  out.finishes = admission.finishes();
  out.never_admitted_released = admission.never_admitted_released();
  out.released_twice = admission.released_twice();
  return out;
}

// The outcome as C++ initializers, for re-pinning after an intended
// schedule change.
std::string Describe(const ExitOutcome& out) {
  std::string text;
  char line[256];
  std::snprintf(line, sizeof(line),
                "end_state_hash 0x%016llx\nqos_gained %.17g\n"
                "qod_gained %.17g\nevents %llu executed, %llu cancelled\n"
                "trace_hash 0x%016llx\n",
                static_cast<unsigned long long>(out.end_state_hash),
                out.qos_gained, out.qod_gained,
                static_cast<unsigned long long>(out.events_executed),
                static_cast<unsigned long long>(out.events_cancelled),
                static_cast<unsigned long long>(out.trace_hash));
  text += line;
  for (const auto& [name, value] : out.counters) {
    std::snprintf(line, sizeof(line), "      {\"%s\", %.17g},\n", name.c_str(),
                  value);
    text += line;
  }
  return text;
}

struct ExitPin {
  int cpus;
  uint64_t end_state_hash;
  double qos_gained;
  double qod_gained;
  uint64_t events_executed;
  uint64_t events_cancelled;
  uint64_t trace_hash;
  std::vector<std::pair<std::string, double>> counters;
};

const std::vector<ExitPin>& Pins() {
  // A change that moves any of these changes the schedule; re-pin only
  // with a per-field reason (Describe prints the new values).
  static const std::vector<ExitPin> pins = {
      {1,
       0xf4424174609c70a4ull,
       16586.268955834312,
       11511.224868719271,
       3009,
       555,
       0x75fea5fc49da1582ull,
       {
           {"server.fusion.cache_fills", 206},
           {"server.fusion.groups", 35},
           {"server.queries.cache_hits", 287},
           {"server.queries.committed", 532},
           {"server.queries.dropped", 144},
           {"server.queries.expired", 18},
           {"server.queries.fused", 39},
           {"server.queries.rejected", 736},
           {"server.queries.shed", 249},
           {"server.queries.submitted", 1661},
           {"server.tenant0.profit", 11236.668933243061},
           {"server.tenant0.queries.committed", 218},
           {"server.tenant0.queries.dropped", 4},
           {"server.tenant0.queries.rejected", 590},
           {"server.tenant0.queries.shed", 62},
           {"server.tenant0.queries.submitted", 874},
           {"server.tenant1.profit", 16860.824891310538},
           {"server.tenant1.queries.committed", 314},
           {"server.tenant1.queries.dropped", 140},
           {"server.tenant1.queries.rejected", 146},
           {"server.tenant1.queries.shed", 187},
           {"server.tenant1.queries.submitted", 787},
           {"server.updates.applied", 260},
           {"server.updates.invalidated", 259},
           {"server.updates.submitted", 519},
           {"txn.preemptions", 70},
           {"txn.restarts.query", 4},
           {"txn.restarts.update", 5},
       }},
      {4,
       0x30b724c4b12132d8ull,
       37973.240058847565,
       34622.009380399701,
       3566,
       1191,
       0x49afa4b675093c17ull,
       {
           {"server.fusion.cache_fills", 543},
           {"server.fusion.groups", 60},
           {"server.queries.cache_hits", 616},
           {"server.queries.committed", 1245},
           {"server.queries.dropped", 127},
           {"server.queries.expired", 21},
           {"server.queries.fused", 86},
           {"server.queries.rejected", 180},
           {"server.queries.shed", 109},
           {"server.queries.submitted", 1661},
           {"server.tenant0.profit", 34545.303022616354},
           {"server.tenant0.queries.committed", 578},
           {"server.tenant0.queries.dropped", 7},
           {"server.tenant0.queries.rejected", 180},
           {"server.tenant0.queries.shed", 109},
           {"server.tenant0.queries.submitted", 874},
           {"server.tenant1.profit", 38049.946416630955},
           {"server.tenant1.queries.committed", 667},
           {"server.tenant1.queries.dropped", 120},
           {"server.tenant1.queries.rejected", 0},
           {"server.tenant1.queries.shed", 0},
           {"server.tenant1.queries.submitted", 787},
           {"server.updates.applied", 493},
           {"server.updates.invalidated", 26},
           {"server.updates.submitted", 519},
           {"txn.preemptions", 45},
           {"txn.restarts.query", 4},
           {"txn.restarts.update", 3},
       }},
  };
  return pins;
}

TEST(ServerExitTest, EveryExitFiresAndTheOutcomeIsPinned) {
  for (const ExitPin& pin : Pins()) {
    SCOPED_TRACE(std::to_string(pin.cpus) + " CPUs");
    const ExitOutcome out = RunExitTrace(pin.cpus);
    const auto counter = [&](const std::string& name) {
      for (const auto& [key, value] : out.counters) {
        if (key == name) return value;
      }
      ADD_FAILURE() << "no counter " << name;
      return 0.0;
    };
    // Every exit fires at least once.
    EXPECT_GT(counter("server.queries.committed"), 0);
    EXPECT_GT(out.lifetime_drops, 0);
    EXPECT_GT(out.drops_at_dissolution, 0);
    EXPECT_GT(counter("server.queries.shed"), 0);
    EXPECT_GT(counter("server.queries.rejected"), 0);
    EXPECT_GT(counter("server.queries.fused"), 0);
    EXPECT_GT(counter("server.queries.cache_hits"), 0);
    EXPECT_EQ(out.lifetime_drops + out.drops_at_dissolution,
              counter("server.queries.dropped"));

    EXPECT_EQ(out.end_state_hash, pin.end_state_hash) << Describe(out);
    EXPECT_EQ(out.qos_gained, pin.qos_gained);
    EXPECT_EQ(out.qod_gained, pin.qod_gained);
    EXPECT_EQ(out.events_executed, pin.events_executed);
    EXPECT_EQ(out.events_cancelled, pin.events_cancelled);
    EXPECT_EQ(out.trace_hash, pin.trace_hash);
    EXPECT_EQ(out.counters, pin.counters) << Describe(out);
  }
}

TEST(ServerExitTest, AdmissionHearsEveryAdmittedQueryLeaveOnce) {
  for (int cpus : {1, 4}) {
    SCOPED_TRACE(std::to_string(cpus) + " CPUs");
    const ExitOutcome out = RunExitTrace(cpus);
    ASSERT_GT(out.admits, 0);
    EXPECT_EQ(out.finishes, out.admits);
    EXPECT_EQ(out.released_twice, 0);
    EXPECT_EQ(out.never_admitted_released, 0);
  }
}

}  // namespace
}  // namespace webdb
