// Multi-core server model: the CPU-set protocol and multi-CPU QUTS's
// determinism (one shard per CPU, work stealing, shard placement), and the
// pinned 1/2/4-CPU schedules of a flash-crowd trace. The one-CPU paper
// schedules are pinned by tests/regression_test.cc.

#include <ios>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "db/database.h"
#include "exp/experiment.h"
#include "exp/scheduler_factory.h"
#include "server/web_database_server.h"
#include "trace/stock_trace_generator.h"
#include "util/rng.h"
#include "util/time.h"

namespace webdb {
namespace {

class MulticoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StockTraceConfig config = StockTraceConfig::Small(1234);
    config.query_rate = 40.0;
    config.update_rate_start = 280.0;
    config.update_rate_end = 200.0;
    trace_ = new Trace(GenerateStockTrace(config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static ExperimentOptions Options() {
    ExperimentOptions options;
    options.qc_seed = 99;
    options.qc = BalancedProfile(QcShape::kStep);
    options.compute_end_state_hash = true;
    return options;
  }

  static ExperimentResult RunSpec(const SchedulerSpec& spec) {
    return RunExperiment(*trace_, spec, Options());
  }

  static Trace* trace_;
};

Trace* MulticoreTest::trace_ = nullptr;

TEST_F(MulticoreTest, ShardedRunIsBitIdenticalAcrossReruns) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 4;
  const ExperimentResult first = RunSpec(spec);
  const ExperimentResult second = RunSpec(spec);
  EXPECT_EQ(first.end_state_hash, second.end_state_hash);
  EXPECT_EQ(first.queries_committed, second.queries_committed);
  EXPECT_EQ(first.updates_applied, second.updates_applied);
  EXPECT_DOUBLE_EQ(first.qos_gained, second.qos_gained);
}

TEST_F(MulticoreTest, CpuCountsProduceDistinctSchedules) {
  // Sanity that the pool actually runs in parallel: more CPUs commit at
  // least as many queries on this overloaded trace, and the schedules
  // differ (different hash) while each stays self-deterministic.
  std::set<uint64_t> hashes;
  int64_t committed_1 = 0;
  for (int cpus : {1, 2, 4}) {
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = cpus;
    const ExperimentResult result = RunSpec(spec);
    hashes.insert(result.end_state_hash);
    if (cpus == 1) committed_1 = result.queries_committed;
    EXPECT_GE(result.queries_committed, committed_1)
        << cpus << " CPUs committed fewer queries than one";
  }
  EXPECT_EQ(hashes.size(), 3u) << "CPU counts collided on one schedule";
}

TEST_F(MulticoreTest, FlashCrowdSchedulesAndScalingPinned) {
  // A short, heavily overloaded market open: the spike demand is several
  // times one CPU, so extra CPUs turn directly into committed profit. The
  // end-state hashes pin each schedule across commits, and the scaling
  // floor is on profit itself, with no wall-clock term.
  StockTraceConfig config = StockTraceConfig::Small(2024);
  config.query_rate = 1000.0;
  config.query_spike_gain = 6.0;
  config.update_rate_start = 400.0;
  config.update_rate_end = 300.0;
  const Trace trace = GenerateStockTrace(config);
  const struct {
    int cpus;
    uint64_t hash;
  } pins[] = {
      {1, 0xd8064cec3aa29caeULL},
      {2, 0x0b164a40f4929cc2ULL},
      {4, 0x33eb1a0a830c57afULL},
  };
  std::vector<double> profit;
  for (const auto& pin : pins) {
    SchedulerSpec spec;
    spec.kind = SchedulerKind::kQuts;
    spec.topology.num_cpus = pin.cpus;
    const ExperimentResult result = RunExperiment(trace, spec, Options());
    EXPECT_EQ(result.end_state_hash, pin.hash)
        << pin.cpus << " CPUs: got " << std::hex << result.end_state_hash;
    profit.push_back(result.qos_gained + result.qod_gained);
  }
  EXPECT_GE(profit[1], profit[0]);
  EXPECT_GE(profit[2], 2.0 * profit[0]);
}

TEST_F(MulticoreTest, WorkStealingPinnedAgainstSeededTrace) {
  // A 4-CPU run over the seeded trace must steal: the flash crowd
  // concentrates query mass on hot symbols, so some home shards run dry
  // while others back up. The steal count is part of the deterministic
  // schedule, so it must reproduce exactly across reruns.
  auto run = [] {
    QutsScheduler scheduler(QutsScheduler::Options(), 4);
    const ExperimentResult result =
        RunExperiment(*trace_, &scheduler, Options());
    return std::pair<int64_t, uint64_t>(scheduler.steals(),
                                        result.end_state_hash);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.first, 0) << "no steals on an imbalanced trace";
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(MulticoreTest, ShardPlacementIsSeedStableAndHome) {
  QutsScheduler a(QutsScheduler::Options(), 4);
  QutsScheduler b(QutsScheduler::Options(), 4);
  EXPECT_EQ(a.num_shards(), 4);
  for (ItemId item = 0; item < 64; ++item) {
    const int shard = a.ShardOfItem(item);
    EXPECT_EQ(shard, b.ShardOfItem(item));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, a.num_shards());
  }
}

TEST_F(MulticoreTest, FactoryRejectsMultiCoreNonQuts) {
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kFifo;
  spec.topology.num_cpus = 4;
  EXPECT_DEATH(MakeScheduler(spec), "QUTS");
}

TEST_F(MulticoreTest, MidRunAuditHoldsAtFourCpus) {
  // Drive a 4-CPU server directly and audit invariants mid-flight, not
  // just at the drained end state (RunExperiment audits there already).
  QutsScheduler scheduler(QutsScheduler::Options(), 4);
  Database db(trace_->num_items);
  WebDatabaseServer server(&db, &scheduler);
  Rng rng(7);
  const SimTime horizon = Millis(2000);
  SimTime t = 0;
  int submitted = 0;
  while (t < horizon) {
    t += static_cast<SimTime>(rng.Exponential(0.002)) + 1;
    server.RunUntil(t);
    if (rng.Bernoulli(0.3)) {
      server.SubmitQuery(QueryType::kLookup,
                         {static_cast<ItemId>(
                             rng.UniformInt(0, trace_->num_items - 1))},
                         QualityContract(), Micros(rng.UniformInt(50, 500)));
    } else {
      server.SubmitUpdate(rng.UniformInt(0, trace_->num_items - 1), 1.0,
                          Micros(rng.UniformInt(20, 200)));
    }
    if (++submitted % 64 == 0) server.AuditInvariants();
  }
  server.Run();
  server.AuditInvariants();
  EXPECT_TRUE(server.IsQuiescent());
  EXPECT_EQ(server.NumCpus(), 4);
}

}  // namespace
}  // namespace webdb
