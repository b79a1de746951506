// Property tests for shared execution (DESIGN.md §13) on random bursts:
// across seeds, scales and CPU counts — with tenants assigned and DBF
// admission shedding mid-burst — re-derive the fan-out conservation laws
// from the server's own books:
//   * every fused member settles exactly once: the count of committed
//     queries carrying a fused result as a member equals the
//     queries_fused counter, no query ends in kFused, and every group has
//     been torn down by drain time;
//   * arrived = committed + dropped + rejected + shed, globally and per
//     tenant (fusion settles members through the same
//     WebDatabaseServer::Retire path, so the tenant books cannot tell a
//     fused commit from a scheduled one);
//   * SweepRunner --jobs values are bit-identical: the worker count is an
//     execution detail, never a schedule input.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/scheduler_factory.h"
#include "exp/sweep_runner.h"
#include "exp/trace_feeder.h"
#include "qc/qc_generator.h"
#include "server/web_database_server.h"
#include "util/rng.h"

namespace webdb {
namespace {

struct BurstCase {
  uint64_t seed = 0;
  double scale = 0.0;
  int cpus = 1;
};

const std::vector<BurstCase>& Cases() {
  static const std::vector<BurstCase> cases = {
      {11, 5.0, 1}, {12, 10.0, 1}, {13, 20.0, 2},
      {14, 10.0, 4}, {15, 20.0, 4},
  };
  return cases;
}

Trace MakeBurst(const BurstCase& bc, const TenantSet& tenants) {
  OverloadScenarioConfig config;
  config.seed = bc.seed;
  config.scale = bc.scale;
  config.duration = Seconds(2);
  config.num_stocks = 64;
  config.query_rate = 300.0;
  config.update_rate = 60.0;
  Trace trace = MakeOverloadTrace(OverloadScenario::kMarketOpen, config);
  AssignTenants(&trace, tenants, bc.seed);
  return trace;
}

TEST(FusionPropertyTest, FanOutConservationOnRandomBursts) {
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  for (const BurstCase& bc : Cases()) {
    SCOPED_TRACE("seed " + std::to_string(bc.seed) + " scale " +
                 std::to_string(bc.scale) + " cpus " +
                 std::to_string(bc.cpus));
    const Trace trace = MakeBurst(bc, tenants);

    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = bc.cpus;
    std::unique_ptr<CpuSetScheduler> scheduler = MakeScheduler(spec);

    // DBF shedding mid-burst is the adversarial part: shed plans race with
    // group formation, and fused members must be reported unsheddable.
    AdmissionSpec admission_spec;
    admission_spec.kind = AdmissionKind::kDbf;
    admission_spec.tenants = tenants;
    std::unique_ptr<AdmissionController> admission =
        MakeAdmission(admission_spec, bc.cpus);

    Database db(trace.num_items);
    ServerConfig config;
    config.fusion.enabled = true;
    config.admission = admission.get();
    config.tenants = &tenants;
    WebDatabaseServer server(&db, scheduler.get(), config);
    server.ReserveCapacity(trace.queries.size(), trace.updates.size());

    QcGenerator generator(BalancedProfile(QcShape::kStep));
    Rng qc_rng(bc.seed * 31 + 7);
    TraceFeeder feeder(&server, &trace, [&](const QueryRecord&) {
      return generator.Next(qc_rng);
    });
    feeder.Start();
    server.Run();
    ASSERT_TRUE(feeder.Done());
    EXPECT_TRUE(server.IsQuiescent());
    EXPECT_TRUE(server.fusion_groups().empty());
    server.AuditInvariants();

    // Every query settled exactly once, in a terminal state; fused members
    // are the committed queries still pointing at a shared scan result.
    const ServerMetrics& metrics = server.metrics();
    int64_t members_settled = 0;
    std::map<TenantId, int64_t> arrived_by_tenant;
    std::map<TenantId, int64_t> settled_by_tenant;
    for (const Query& query : server.queries()) {
      ++arrived_by_tenant[query.tenant];
      switch (query.state) {
        case TxnState::kCommitted:
          if (query.fused_into != 0) {
            ASSERT_NE(query.fused_result, nullptr);
            ++members_settled;
          }
          ++settled_by_tenant[query.tenant];
          break;
        case TxnState::kDropped:
        case TxnState::kRejected:
        case TxnState::kShed:
          EXPECT_EQ(query.fused_result, nullptr);
          ++settled_by_tenant[query.tenant];
          break;
        default:
          ADD_FAILURE() << "query " << query.id
                        << " not terminal: " << ToString(query.state);
      }
    }
    EXPECT_EQ(members_settled, metrics.queries_fused);
    EXPECT_GT(members_settled, 0) << "burst produced no fusion";
    EXPECT_EQ(arrived_by_tenant, settled_by_tenant);

    // arrived = committed + dropped + rejected + shed, globally...
    EXPECT_EQ(static_cast<int64_t>(trace.queries.size()),
              metrics.queries_committed + metrics.queries_dropped +
                  metrics.queries_rejected + metrics.queries_shed);
    // ...and per tenant against the tenant books the audit gates on.
    for (const auto& [tenant, counters] : metrics.tenants()) {
      EXPECT_EQ(counters.submitted->value(), arrived_by_tenant[tenant])
          << "tenant " << tenant;
      EXPECT_EQ(counters.submitted->value(),
                counters.committed->value() + counters.rejected->value() +
                    counters.shed->value() + counters.dropped->value())
          << "tenant " << tenant;
    }
  }
}

TEST(FusionPropertyTest, SweepJobsAreBitIdentical) {
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  std::vector<Trace> traces;
  for (const BurstCase& bc : Cases()) traces.push_back(MakeBurst(bc, tenants));

  auto run_with_jobs = [&](int jobs) {
    std::vector<SweepRunner::Point> points;
    for (size_t i = 0; i < Cases().size(); ++i) {
      SweepRunner::Point point;
      point.trace = &traces[i];
      point.spec.kind = SchedulerKind::kQuts;
      point.spec.topology.num_cpus = Cases()[i].cpus;
      point.spec.admission.kind = AdmissionKind::kDbf;
      point.spec.admission.tenants = tenants;
      point.options.qc_seed = Cases()[i].seed * 31 + 7;
      point.options.qc = BalancedProfile(QcShape::kStep);
      point.options.server.fusion.enabled = true;
      point.options.compute_end_state_hash = true;
      points.push_back(point);
    }
    SweepConfig sweep;
    sweep.jobs = jobs;
    sweep.base_seed = 2007;
    return SweepRunner(sweep).RunPoints(points);
  };

  const std::vector<ExperimentResult> serial = run_with_jobs(1);
  const std::vector<ExperimentResult> parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].end_state_hash, parallel[i].end_state_hash)
        << "point " << i;
    EXPECT_EQ(serial[i].queries_fused, parallel[i].queries_fused)
        << "point " << i;
    EXPECT_EQ(serial[i].fusion_groups, parallel[i].fusion_groups)
        << "point " << i;
    EXPECT_EQ(serial[i].queries_committed, parallel[i].queries_committed)
        << "point " << i;
    EXPECT_GT(serial[i].queries_fused, 0) << "point " << i;
  }
}

// Class-aware atoms (SchedulerSpec::quts.scan_atom_factor) must be
// bit-identical at the default factor of 1.0 — the knob only changes the
// schedule when actually turned.
TEST(FusionPropertyTest, ScanAtomFactorDefaultIsBitIdentical) {
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  const Trace trace = MakeBurst(Cases()[3], tenants);
  auto run = [&](double factor) {
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = Cases()[3].cpus;
    spec.quts.scan_atom_factor = factor;
    ExperimentOptions options;
    options.qc_seed = 5;
    options.qc = BalancedProfile(QcShape::kStep);
    options.compute_end_state_hash = true;
    return RunExperiment(trace, spec, options);
  };
  const ExperimentResult base = run(1.0);
  const ExperimentResult again = run(1.0);
  EXPECT_EQ(base.end_state_hash, again.end_state_hash);
  // A genuinely different factor must change the schedule on this
  // scan-heavy burst — otherwise the knob is dead code.
  const ExperimentResult wider = run(3.0);
  EXPECT_NE(base.end_state_hash, wider.end_state_hash);
}

}  // namespace
}  // namespace webdb
