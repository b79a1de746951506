// Randomized stress tests: hammer the server with adversarial submission
// patterns (hot-item storms, same-timestamp ties, zero-QC mixes, tiny
// lifetimes) under every scheduler and check the invariants that no nominal
// scenario exercises: quiescence after drain, terminal states for every
// transaction, resource-leak freedom, profit bounds.

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "audit/invariant_auditor.h"
#include "core/quts_scheduler.h"
#include "db/database.h"
#include "exp/scheduler_factory.h"
#include "obs/metric_registry.h"
#include "qc/qc_generator.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "util/rng.h"

namespace webdb {
namespace {

struct StressConfig {
  int num_items = 8;           // tiny: maximal contention
  int rounds = 2000;
  SimDuration max_gap = Millis(4);
  double query_frac = 0.35;
  double zero_qc_frac = 0.1;
  ServerConfig server;
};

void RunStress(SchedulerKind kind, uint64_t seed, const StressConfig& cfg) {
  SchedulerSpec spec;
  spec.kind = kind;
  auto scheduler = MakeScheduler(spec);
  Database db(cfg.num_items);
  WebDatabaseServer server(&db, scheduler.get(), cfg.server);
  Rng rng(seed);
  QcGenerator qc_gen(BalancedProfile(QcShape::kStep));

  SimTime t = 0;
  for (int round = 0; round < cfg.rounds; ++round) {
    // Ties on purpose: ~25% of submissions share the previous timestamp.
    if (!rng.Bernoulli(0.25)) t += rng.UniformInt(1, cfg.max_gap);
    const bool is_query = rng.Bernoulli(cfg.query_frac);
    server.sim().ScheduleAt(t, [&server, &rng, &qc_gen, &cfg, is_query] {
      if (is_query) {
        std::vector<ItemId> items;
        const int n = static_cast<int>(rng.UniformInt(1, 3));
        for (int i = 0; i < n; ++i) {
          const ItemId item =
              static_cast<ItemId>(rng.UniformInt(0, cfg.num_items - 1));
          if (std::find(items.begin(), items.end(), item) == items.end()) {
            items.push_back(item);
          }
        }
        const QualityContract qc = rng.Bernoulli(cfg.zero_qc_frac)
                                       ? QualityContract()
                                       : qc_gen.Next(rng);
        server.SubmitQuery(QueryType::kLookup, std::move(items), qc,
                           rng.UniformInt(Millis(1), Millis(9)));
      } else {
        server.SubmitUpdate(
            static_cast<ItemId>(rng.UniformInt(0, cfg.num_items - 1)),
            rng.Uniform(1.0, 100.0), rng.UniformInt(Millis(1), Millis(5)));
      }
    });
  }
  server.Run();

  // --- invariants -----------------------------------------------------------
  // Deep structural audit of the drained end state (DESIGN.md §8); aborts
  // on violation. Under -DWEBDB_AUDIT=ON it also ran throughout the run,
  // strided across scheduling events.
  server.AuditInvariants();
  if constexpr (audit::kEnabled) {
    EXPECT_GT(audit::TotalChecksPerformed(), 0u)
        << "audit build ran without exercising any invariant check";
  }
  EXPECT_TRUE(server.IsQuiescent());
  const ServerMetrics& metrics = server.metrics();
  EXPECT_EQ(metrics.queries_committed + metrics.queries_dropped,
            metrics.queries_submitted);
  EXPECT_EQ(metrics.updates_applied + metrics.updates_invalidated,
            metrics.updates_submitted);
  for (const Query& query : server.queries()) {
    EXPECT_TRUE(query.state == TxnState::kCommitted ||
                query.state == TxnState::kDropped)
        << ToString(query.state);
    if (query.state == TxnState::kCommitted) {
      EXPECT_GE(query.ResponseTime(), query.service_time);
      EXPECT_GE(query.profit.qos, 0.0);
      EXPECT_LE(query.profit.qos, query.qc.qos_max());
      EXPECT_LE(query.profit.qod, query.qc.qod_max());
    }
  }
  for (const Update& update : server.updates()) {
    EXPECT_TRUE(update.state == TxnState::kCommitted ||
                update.state == TxnState::kInvalidated)
        << ToString(update.state);
    if (update.state == TxnState::kCommitted) {
      EXPECT_GE(update.ApplyLatency(), update.service_time);
    }
  }
  // Every item's committed value is the newest applied one; the database's
  // internal sequence checks would have aborted otherwise. Final freshness:
  // all updates either applied or superseded, so every item is fresh.
  for (ItemId i = 0; i < db.NumItems(); ++i) {
    EXPECT_TRUE(db.Item(i).IsFresh()) << "item " << i;
  }
  EXPECT_LE(server.ledger().total_gained(),
            server.ledger().total_max() + 1e-9);
}

class StressTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, uint64_t>> {};

TEST_P(StressTest, InvariantsHoldUnderRandomLoad) {
  const auto [kind, seed] = GetParam();
  RunStress(kind, seed, StressConfig());
}

TEST_P(StressTest, InvariantsHoldWithAggressiveLifetimes) {
  const auto [kind, seed] = GetParam();
  StressConfig cfg;
  cfg.server.lifetime_factor = 0.1;
  cfg.server.min_lifetime = Millis(5);  // most queued queries will drop
  RunStress(kind, seed, cfg);
}

TEST_P(StressTest, InvariantsHoldWithDispatchOverheadAndSampling) {
  const auto [kind, seed] = GetParam();
  StressConfig cfg;
  cfg.server.dispatch_overhead = Micros(50);
  cfg.server.metric_snapshot_period = Millis(10);
  RunStress(kind, seed, cfg);
}

TEST_P(StressTest, InvariantsHoldWithout2plHp) {
  const auto [kind, seed] = GetParam();
  StressConfig cfg;
  cfg.server.enable_2plhp = false;
  RunStress(kind, seed, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, StressTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kFifo,
                                         SchedulerKind::kUpdateHigh,
                                         SchedulerKind::kQueryHigh,
                                         SchedulerKind::kQuts),
                       ::testing::Values<uint64_t>(11, 22)));

TEST(RestartStormTest, HeavyPreemptionKeepsQueueAccountingExact) {
  // Adversarial 2PL-HP restart storm: one hot item, long-running updates,
  // and a stream of short queries under the query-favoring scheduler. Every
  // dispatched query preempts the running update and then restarts it at
  // lock acquisition (write-lock conflict), so the update queue sees a
  // continuous Remove+Requeue churn — the exact pattern that builds
  // tombstones in TxnQueue. Auditing at every step checks that the O(1)
  // queue depths still match the per-state transaction populations (the
  // dual-queue conservation law), i.e. that compaction and the Remove()
  // bookkeeping never drift.
  auto scheduler = MakeQueryHigh();
  Database db(2);
  WebDatabaseServer server(&db, scheduler.get(), ServerConfig());
  Rng rng(7);

  SimTime t = 0;
  for (int round = 0; round < 400; ++round) {
    t += rng.UniformInt(Millis(1), Millis(3));
    const bool is_query = (round % 4) != 0;  // 3 queries per update
    server.sim().ScheduleAt(t, [&server, is_query] {
      if (is_query) {
        server.SubmitQuery(QueryType::kLookup, {0}, QualityContract(),
                           Millis(1));
      } else {
        server.SubmitUpdate(0, 1.0, Millis(20));  // long: preemption target
      }
    });
  }

  // Drive the run in slices, deep-auditing between slices so queue-depth
  // drift is caught while the storm is raging, not just after the drain.
  for (SimTime cut = Millis(50); cut <= t + Millis(100); cut += Millis(50)) {
    server.RunUntil(cut);
    server.AuditInvariants();
  }
  server.Run();
  server.AuditInvariants();

  const ServerMetrics& metrics = server.metrics();
  EXPECT_GT(metrics.preemptions, 50);
  EXPECT_GT(metrics.update_restarts, 50);
  EXPECT_TRUE(server.IsQuiescent());
  EXPECT_EQ(metrics.queries_committed + metrics.queries_dropped,
            metrics.queries_submitted);
  EXPECT_EQ(metrics.updates_applied + metrics.updates_invalidated,
            metrics.updates_submitted);
}

TEST(QueueSamplingTest, SamplesRecordedWhileBusy) {
  FifoScheduler scheduler;
  Database db(8);
  ServerConfig config;
  config.metric_snapshot_period = Millis(1);
  WebDatabaseServer server(&db, &scheduler, config);
  // 10 ms of queued work on distinct items -> ~10 snapshots.
  for (int i = 0; i < 5; ++i) {
    server.SubmitUpdate(static_cast<ItemId>(i), i, Millis(2));
  }
  server.Run();
  const std::vector<MetricSnapshot>& series =
      server.metric_registry().series();
  ASSERT_GE(series.size(), 5u);
  // Depth decreases monotonically as the FIFO drains.
  auto depth = [&series](size_t i, const char* name) {
    const double* value = series[i].Find(name);
    EXPECT_NE(value, nullptr) << name;
    return value == nullptr ? -1.0 : *value;
  };
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(depth(i, "scheduler.queue.updates"),
              depth(i - 1, "scheduler.queue.updates"));
    EXPECT_EQ(depth(i, "scheduler.queue.queries"), 0.0);
  }
}

}  // namespace
}  // namespace webdb
