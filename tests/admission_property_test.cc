// Property tests for demand-bound admission (sched/admission.h): random
// burst workloads at 1-4 CPUs, checking the invariants the design rests on
// rather than pinned outcomes:
//
//   * supply:       after every admission, each CPU lane's cumulative
//                   weighted demand fits (deadline - now) * supply_factor
//                   at every demand node — DbfAdmission never over-commits;
//   * conservation: at the server, arrived = committed + dropped +
//                   rejected + shed, for every CPU count and every seed;
//   * determinism:  the same sweep is bit-identical at --jobs 1, 2 and 4,
//                   and a rerun of any single point lands on the same
//                   end-state hash;
//   * equivalence:  DbfAdmission's flat lanes and residual planner make
//                   exactly the decisions of the std::map reference in
//                   dbf_map_reference.h, step by step.

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dbf_map_reference.h"
#include "exp/experiment.h"
#include "exp/overload_scenarios.h"
#include "exp/sweep_runner.h"
#include "sched/admission.h"
#include "test_txns.h"
#include "util/rng.h"
#include "util/seed.h"

namespace webdb {
namespace {

// Rebuilds every lane from PlacementOf — the independent model the checks
// below compare the controller against. Placements whose deadline has
// passed are skipped: the controller prunes expired demand nodes lazily on
// Admit (their late queries stay tracked until they finish), so right
// after an Admit at `now` the lanes hold exactly the unexpired demand.
std::vector<std::map<SimTime, SimDuration>> RebuildLanes(
    const DbfAdmission& controller,
    const std::map<TxnId, const Query*>& tracked, SimTime now) {
  std::vector<std::map<SimTime, SimDuration>> lanes(
      static_cast<size_t>(controller.num_cpus()));
  for (const auto& [id, query] : tracked) {
    if (!controller.IsTracked(id)) continue;  // best-effort or finished
    const DbfAdmission::Placement placement = controller.PlacementOf(id);
    EXPECT_GE(placement.cpu, 0);
    EXPECT_LT(placement.cpu, controller.num_cpus());
    if (placement.deadline <= now) continue;  // node pruned, query late
    lanes[static_cast<size_t>(placement.cpu)][placement.deadline] +=
        placement.demand;
  }
  return lanes;
}

// Lane bookkeeping must match the unexpired tracked entries exactly.
void ExpectLaneSumsConsistent(const DbfAdmission& controller,
                              const std::map<TxnId, const Query*>& tracked,
                              SimTime now) {
  const auto lanes = RebuildLanes(controller, tracked, now);
  for (int32_t cpu = 0; cpu < controller.num_cpus(); ++cpu) {
    SimDuration total = 0;
    for (const auto& [deadline, demand] : lanes[static_cast<size_t>(cpu)]) {
      total += demand;
    }
    EXPECT_EQ(controller.QueuedDemand(cpu), total) << "lane " << cpu;
  }
}

// The admission guarantee, checked against the rebuilt model at the moment
// it is made: the freshly admitted query's lane satisfies the demand bound
// at its deadline and at every later node. (The bound is an admission-time
// promise — once the clock advances past idle time the harness never
// serviced, earlier placements may legitimately no longer fit.)
void ExpectAdmissionFeasible(const DbfAdmission& controller,
                             const std::map<TxnId, const Query*>& tracked,
                             const DbfAdmission::Placement& placement,
                             SimTime now, double supply_factor) {
  EXPECT_TRUE(controller.DemandFits(placement.cpu, placement.deadline, now));
  const auto lanes = RebuildLanes(controller, tracked, now);
  const auto& lane = lanes[static_cast<size_t>(placement.cpu)];
  SimDuration cumulative = 0;
  for (const auto& [deadline, demand] : lane) {
    cumulative += demand;
    if (deadline < placement.deadline) continue;
    EXPECT_LE(static_cast<double>(cumulative),
              static_cast<double>(deadline - now) * supply_factor)
        << "lane " << placement.cpu << " over-committed at deadline "
        << deadline;
  }
}

TEST(DbfAdmissionPropertyTest, AdmittedDemandNeverExceedsSupply) {
  for (uint64_t round = 0; round < 12; ++round) {
    Rng rng(DeriveSeed(0xD8FADBF, round));
    const int32_t cpus = 1 + static_cast<int32_t>(round % 4);
    const double supply_factor = round % 3 == 0 ? 0.8 : 1.0;
    DbfAdmission::Options options;
    options.num_cpus = cpus;
    options.supply_factor = supply_factor;
    DbfAdmission controller(std::move(options));

    TxnPool pool;
    AdmissionContext context;
    context.num_cpus = cpus;
    std::map<TxnId, const Query*> tracked;
    std::vector<const Query*> outstanding;

    SimTime now = 0;
    int64_t admitted = 0;
    int64_t rejected = 0;
    for (int i = 0; i < 300; ++i) {
      // Bursty arrivals: long quiet gaps between packed arrival trains. The
      // trains are several times oversubscribed even on 4 CPUs (mean 7 ms of
      // service arriving every ~1 ms against 10-40 ms deadline windows), so
      // every round must drive the controller into rejection.
      now += rng.Bernoulli(0.1) ? Millis(rng.UniformInt(20, 60))
                                : Millis(rng.UniformInt(0, 2));
      const SimDuration service = Millis(rng.UniformInt(2, 12));
      // A slice of the queries carries no QoS deadline (best-effort path):
      // those get the empty ZeroContracts-style contract.
      const SimDuration rt_max =
          rng.Bernoulli(0.1) ? 0 : Millis(rng.UniformInt(10, 40));
      Query* query = pool.NewQuery(now, service, rng.Uniform(1.0, 50.0),
                                   rng.Uniform(0.0, 20.0),
                                   rt_max > 0 ? rt_max : Millis(50));
      if (rt_max <= 0) query->qc = QualityContract();
      context.now = now;
      if (controller.Admit(*query, context)) {
        ++admitted;
        if (rt_max > 0) {
          EXPECT_TRUE(controller.IsTracked(query->id));
          tracked[query->id] = query;
          outstanding.push_back(query);
          ExpectAdmissionFeasible(controller, tracked,
                                  controller.PlacementOf(query->id), now,
                                  supply_factor);
        } else {
          EXPECT_FALSE(controller.IsTracked(query->id));
        }
      } else {
        ++rejected;
        EXPECT_FALSE(controller.IsTracked(query->id));
      }
      ExpectLaneSumsConsistent(controller, tracked, now);
      controller.AuditInvariants(now);

      // Drain a random suffix now and then — commits release demand. At
      // most half drains, so the standing backlog keeps the lanes loaded.
      if (rng.Bernoulli(0.15)) {
        const size_t keep = static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(outstanding.size() / 2),
            static_cast<int64_t>(outstanding.size())));
        while (outstanding.size() > keep) {
          const Query* done = outstanding.back();
          outstanding.pop_back();
          controller.OnQueryFinished(*done, now);
          tracked.erase(done->id);
        }
      }
    }
    EXPECT_EQ(admitted, 300 - rejected);
    EXPECT_EQ(controller.RejectedCount(), rejected);
    // No shed sink was offered, so nothing may have been shed.
    EXPECT_EQ(controller.ShedCount(), 0);
    EXPECT_GT(rejected, 0) << "round " << round
                           << " never saturated a lane; property vacuous";
  }
}

// The ShedSink of one controller in a differential pair: records every
// victim it is offered, in order, and refuses the ones the harness marks as
// running or fused — exactly what the server does — so both controllers see
// identical answers.
class RecordingShedSink final : public ShedSink {
 public:
  RecordingShedSink(AdmissionController* controller,
                    const std::map<TxnId, Query*>* live,
                    const std::set<TxnId>* unsheddable)
      : controller_(controller), live_(live), unsheddable_(unsheddable) {}

  bool Shed(TxnId id) override {
    offered.push_back(id);
    if (unsheddable_->contains(id)) return false;
    // Mirror the server: release the controller's demand for the victim.
    controller_->OnQueryFinished(*live_->at(id), now);
    return true;
  }

  std::vector<TxnId> offered;
  SimTime now = 0;

 private:
  AdmissionController* controller_;
  const std::map<TxnId, Query*>* live_;
  const std::set<TxnId>* unsheddable_;
};

// Differential oracle for the eviction planner: DbfAdmission and the
// std::map reference are driven with the same bursts and must agree after
// every step on admit/reject, the victim sequence, every placement, every
// lane's demand and both counters. The bursts are built to hit the planner's
// tie cases: QoS/QoD maxima come from small sets under step contracts, so
// many queued queries share a worth and lanes tie on plan cost; arrivals
// share instants and rt_max values, so they share deadline nodes; quiet gaps
// longer than every rt_max leave tracked queries whose nodes were pruned;
// and the sink refuses running/fused victims.
TEST(DbfAdmissionPropertyTest, FlatPlannerMatchesMapReference) {
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  const double kQosMax[] = {2.0, 5.0, 10.0, 20.0};
  const double kQodMax[] = {0.0, 1.0, 4.0};
  const int64_t kRtMaxMs[] = {10, 20, 30};
  int64_t shed = 0;
  int64_t refused = 0;
  int64_t late_victims = 0;
  int64_t rejected = 0;
  for (uint64_t round = 0; round < 16; ++round) {
    Rng rng(DeriveSeed(0xD1FFDBF, round));
    const int32_t cpus = 1 + static_cast<int32_t>(round % 4);
    const double supply_factor = (round / 4) % 2 == 0 ? 1.0 : 0.8;
    DbfAdmission::Options options;
    options.num_cpus = cpus;
    options.supply_factor = supply_factor;
    options.tenants = tenants;
    DbfAdmission flat(std::move(options));
    MapDbfReference reference(cpus, supply_factor, tenants);

    TxnPool pool;
    // Admitted deadline-bearing queries that have not finished, with the
    // deadline their demand was booked at.
    std::map<TxnId, Query*> live;
    std::map<TxnId, SimTime> deadline_of;
    std::set<TxnId> unsheddable;  // running or fused
    RecordingShedSink flat_sink(&flat, &live, &unsheddable);
    RecordingShedSink reference_sink(&reference, &live, &unsheddable);
    AdmissionContext flat_context;
    flat_context.num_cpus = cpus;
    flat_context.shed_sink = &flat_sink;
    AdmissionContext reference_context = flat_context;
    reference_context.shed_sink = &reference_sink;

    SimTime now = 0;
    for (int step = 0; step < 400; ++step) {
      const std::string where = "round " + std::to_string(round) + " step " +
                                std::to_string(step) + " (" +
                                std::to_string(cpus) + " CPUs)";
      now += rng.Bernoulli(0.06) ? Millis(rng.UniformInt(35, 60))
                                 : Millis(rng.UniformInt(0, 1));
      const SimDuration service = Millis(2 * rng.UniformInt(1, 5));
      const SimDuration rt_max = Millis(kRtMaxMs[rng.UniformInt(0, 2)]);
      Query* query = pool.NewQuery(now, service, kQosMax[rng.UniformInt(0, 3)],
                                   kQodMax[rng.UniformInt(0, 2)], rt_max);
      query->tenant = rng.Bernoulli(0.5) ? 0 : 1;
      const bool best_effort = rng.Bernoulli(0.05);
      if (best_effort) query->qc = QualityContract();

      flat_sink.offered.clear();
      reference_sink.offered.clear();
      flat_sink.now = reference_sink.now = now;
      flat_context.now = reference_context.now = now;
      const bool admitted = flat.Admit(*query, flat_context);
      ASSERT_EQ(admitted, reference.Admit(*query, reference_context)) << where;
      ASSERT_EQ(flat_sink.offered, reference_sink.offered) << where;
      ASSERT_EQ(flat.RejectedCount(), reference.RejectedCount()) << where;
      ASSERT_EQ(flat.ShedCount(), reference.ShedCount()) << where;
      if (!admitted) ++rejected;
      for (TxnId victim : flat_sink.offered) {
        if (deadline_of.at(victim) <= now) ++late_victims;
        if (unsheddable.contains(victim)) {
          ++refused;  // still running: its release comes later, a no-op
        } else {
          ++shed;
          live.erase(victim);
          deadline_of.erase(victim);
        }
      }
      if (admitted && !best_effort) {
        live[query->id] = query;
        deadline_of[query->id] = now + rt_max;
      }

      ASSERT_EQ(flat.TrackedCount(), reference.TrackedCount()) << where;
      for (const auto& [id, tracked] : live) {
        (void)tracked;
        ASSERT_EQ(flat.IsTracked(id), reference.IsTracked(id)) << where;
        if (!flat.IsTracked(id)) continue;
        const DbfAdmission::Placement got = flat.PlacementOf(id);
        const DbfAdmission::Placement want = reference.PlacementOf(id);
        ASSERT_EQ(got.cpu, want.cpu) << where << " txn " << id;
        ASSERT_EQ(got.deadline, want.deadline) << where << " txn " << id;
        ASSERT_EQ(got.demand, want.demand) << where << " txn " << id;
      }
      for (int32_t cpu = 0; cpu < cpus; ++cpu) {
        ASSERT_EQ(flat.QueuedDemand(cpu), reference.QueuedDemand(cpu))
            << where << " lane " << cpu;
      }
      flat.AuditInvariants(now);

      // A queued query starts running (or joins a fused scan): from now on
      // the sink refuses to shed it, and its remaining work shrinks.
      if (!live.empty() && rng.Bernoulli(0.25)) {
        auto it = live.begin();
        std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) -
                                               1));
        if (unsheddable.insert(it->first).second) {
          Query* running = it->second;
          running->remaining =
              Millis(rng.UniformInt(0, running->remaining / Millis(1)));
        }
      }
      // Some queries finish: commits release demand in both controllers.
      if (!live.empty() && rng.Bernoulli(0.2)) {
        const int64_t finishing = rng.UniformInt(1, 3);
        for (int64_t k = 0; k < finishing && !live.empty(); ++k) {
          auto it = live.begin();
          std::advance(it, rng.UniformInt(
                               0, static_cast<int64_t>(live.size()) - 1));
          flat.OnQueryFinished(*it->second, now);
          reference.OnQueryFinished(*it->second, now);
          unsheddable.erase(it->first);
          deadline_of.erase(it->first);
          live.erase(it);
        }
      }
    }
  }
  // Every branch the oracle exists for must actually have been taken.
  EXPECT_GT(shed, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(late_victims, 0);
  EXPECT_GT(rejected, 0);
}

// Random overload traces through the full server: the shed-conservation
// law must hold for every scenario shape, CPU count and seed.
TEST(DbfAdmissionPropertyTest, ServerShedConservationOnRandomBursts) {
  const std::vector<OverloadScenario> scenarios = AllOverloadScenarios();
  for (uint64_t round = 0; round < 6; ++round) {
    Rng rng(DeriveSeed(0x5EDC0, round));
    OverloadScenarioConfig config;
    config.seed = DeriveSeed(0x5EDC0, round + 100);
    config.scale = rng.Uniform(4.0, 16.0);
    config.duration = Seconds(2 + static_cast<SimTime>(rng.UniformInt(0, 2)));
    config.num_stocks = 64;
    config.query_rate = rng.Uniform(150.0, 400.0);
    config.update_rate = rng.Uniform(20.0, 80.0);
    const OverloadScenario scenario = scenarios[round % scenarios.size()];
    const Trace trace = MakeOverloadTrace(scenario, config);

    const int cpus = 1 + static_cast<int>(round % 4);
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = cpus;
    spec.admission.kind = AdmissionKind::kDbf;

    ExperimentOptions options;
    options.qc_seed = DeriveSeed(0x9C, round);
    options.qc = Table4Profile(0.2, QcShape::kStep);
    options.compute_end_state_hash = true;
    const ExperimentResult result = RunExperiment(trace, spec, options);

    EXPECT_EQ(static_cast<size_t>(
                  result.queries_committed + result.queries_dropped +
                  result.queries_rejected + result.queries_shed),
              trace.queries.size())
        << ToString(scenario) << " at " << cpus << " CPUs, round " << round;
    // The traces are engineered to overload: admission must have acted.
    EXPECT_GT(result.queries_rejected + result.queries_shed, 0)
        << ToString(scenario) << " at " << cpus << " CPUs, round " << round;

    // Point determinism: the identical run lands on the identical hash.
    const ExperimentResult rerun = RunExperiment(trace, spec, options);
    EXPECT_EQ(rerun.end_state_hash, result.end_state_hash);
    EXPECT_EQ(rerun.queries_shed, result.queries_shed);
  }
}

// The sweep over (scenario, cpus) with dbf admission must be bit-identical
// at every --jobs value — shedding is per-run state and must not leak
// across SweepRunner workers.
TEST(DbfAdmissionPropertyTest, SweepBitIdenticalAcrossJobs) {
  OverloadScenarioConfig config;
  config.seed = 77;
  config.scale = 10.0;
  config.duration = Seconds(2);
  config.num_stocks = 64;
  config.query_rate = 250.0;
  config.update_rate = 40.0;
  std::vector<Trace> traces;
  for (OverloadScenario scenario : AllOverloadScenarios()) {
    traces.push_back(MakeOverloadTrace(scenario, config));
  }

  std::vector<SweepRunner::Point> points;
  for (const Trace& trace : traces) {
    for (int cpus : {1, 2, 4}) {
      SweepRunner::Point point;
      point.trace = &trace;
      point.spec.kind = SchedulerKind::kQuts;
      point.spec.topology.num_cpus = cpus;
      point.spec.admission.kind = AdmissionKind::kDbf;
      point.options.qc_seed = 99;
      point.options.qc = Table4Profile(0.2, QcShape::kStep);
      point.options.compute_end_state_hash = true;
      points.push_back(point);
    }
  }

  std::vector<std::vector<ExperimentResult>> by_jobs;
  for (int jobs : {1, 2, 4}) {
    SweepConfig sweep;
    sweep.jobs = jobs;
    sweep.base_seed = 77;
    by_jobs.push_back(SweepRunner(sweep).RunPoints(points));
  }
  for (size_t j = 1; j < by_jobs.size(); ++j) {
    ASSERT_EQ(by_jobs[j].size(), by_jobs[0].size());
    for (size_t i = 0; i < by_jobs[0].size(); ++i) {
      EXPECT_EQ(by_jobs[j][i].end_state_hash, by_jobs[0][i].end_state_hash)
          << "point " << i << " diverged at jobs index " << j;
      EXPECT_EQ(by_jobs[j][i].queries_shed, by_jobs[0][i].queries_shed);
      EXPECT_EQ(by_jobs[j][i].queries_rejected,
                by_jobs[0][i].queries_rejected);
      EXPECT_DOUBLE_EQ(by_jobs[j][i].qos_gained, by_jobs[0][i].qos_gained);
      EXPECT_DOUBLE_EQ(by_jobs[j][i].qod_gained, by_jobs[0][i].qod_gained);
    }
  }
}

// Tenant weights only squeeze — they never break conservation, and the
// premium tier's admitted share must be at least the free tier's when both
// offer the same traffic.
TEST(DbfAdmissionPropertyTest, TenantTiersSqueezeFreeTrafficFirst) {
  OverloadScenarioConfig config;
  config.seed = 4242;
  config.scale = 10.0;
  config.duration = Seconds(3);
  config.num_stocks = 64;
  config.query_rate = 300.0;
  config.update_rate = 40.0;
  Trace trace = MakeOverloadTrace(OverloadScenario::kMarketOpen, config);
  const TenantSet tenants = *TenantSet::Parse("free:4,premium:1");
  AssignTenants(&trace, tenants, config.seed);

  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 2;
  spec.admission.kind = AdmissionKind::kDbf;
  spec.admission.tenants = tenants;

  ExperimentOptions options;
  options.qc_seed = 99;
  options.qc = Table4Profile(0.2, QcShape::kStep);
  const ExperimentResult result = RunExperiment(trace, spec, options);

  ASSERT_EQ(result.tenants.size(), 2u);
  const ExperimentResult::TenantResult& free = result.tenants[0];
  const ExperimentResult::TenantResult& premium = result.tenants[1];
  EXPECT_EQ(free.name, "free");
  EXPECT_EQ(premium.name, "premium");
  // Per-tenant conservation.
  for (const auto& tenant : result.tenants) {
    EXPECT_EQ(tenant.submitted, tenant.committed + tenant.dropped +
                                    tenant.rejected + tenant.shed);
  }
  EXPECT_EQ(free.submitted + premium.submitted,
            static_cast<int64_t>(trace.queries.size()));
  // The squeeze: the 4x-weighted free tier loses a larger fraction of its
  // traffic to rejection + shedding than the premium tier.
  ASSERT_GT(free.submitted, 0);
  ASSERT_GT(premium.submitted, 0);
  const double free_loss =
      static_cast<double>(free.rejected + free.shed) /
      static_cast<double>(free.submitted);
  const double premium_loss =
      static_cast<double>(premium.rejected + premium.shed) /
      static_cast<double>(premium.submitted);
  EXPECT_GT(free_loss, premium_loss);
  EXPECT_GT(free.rejected + free.shed, 0);
}

}  // namespace
}  // namespace webdb
