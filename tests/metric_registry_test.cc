#include "obs/metric_registry.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "test_txns.h"

namespace webdb {
namespace {

TEST(MetricRegistryTest, SameNameYieldsSameInstance) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("server.queries.committed");
  Counter& b = registry.GetCounter("server.queries.committed");
  EXPECT_EQ(&a, &b);
  ++a;
  a.Increment(2);
  EXPECT_EQ(b.value(), 3);
  EXPECT_EQ(registry.NumMetrics(), 1u);

  Gauge& g1 = registry.GetGauge("scheduler.quts.rho");
  Gauge& g2 = registry.GetGauge("scheduler.quts.rho");
  EXPECT_EQ(&g1, &g2);
  g1.Set(0.25);
  EXPECT_DOUBLE_EQ(g2.value(), 0.25);

  Histogram& h1 = registry.GetHistogram("server.response_time_ms",
                                        Histogram::Exponential(1.0, 2.0, 8));
  // The second prototype is ignored: the first registration wins.
  Histogram& h2 = registry.GetHistogram("server.response_time_ms",
                                        Histogram::Exponential(5.0, 3.0, 2));
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.NumBuckets(), 9u);  // 8 bounds + overflow
  EXPECT_EQ(registry.NumMetrics(), 3u);
  EXPECT_TRUE(registry.Has("scheduler.quts.rho"));
  EXPECT_FALSE(registry.Has("scheduler.quts.tau"));
}

TEST(MetricRegistryDeathTest, KindMismatchAborts) {
  MetricRegistry registry;
  registry.GetCounter("server.queries.committed");
  EXPECT_DEATH(registry.GetGauge("server.queries.committed"), "");
  EXPECT_DEATH(registry.GetHistogram("server.queries.committed",
                                     Histogram::Exponential(1.0, 2.0, 4)),
               "");
  EXPECT_DEATH(registry.Value("no.such.metric"), "");
}

TEST(MetricRegistryTest, SnapshotSortedAndExpandsHistograms) {
  MetricRegistry registry;
  registry.GetCounter("b.counter").Increment(7);
  registry.GetGauge("a.gauge").Set(1.5);
  Histogram& hist = registry.GetHistogram(
      "c.hist", Histogram::Exponential(1.0, 2.0, 8));
  hist.Add(3.0);
  hist.Add(3.0);

  const MetricSnapshot snap = registry.Snap(Seconds(2));
  EXPECT_EQ(snap.time, Seconds(2));
  // Sorted by name, histograms expanded to .count/.p50/.p99.
  for (size_t i = 1; i < snap.values.size(); ++i) {
    EXPECT_LT(snap.values[i - 1].first, snap.values[i].first);
  }
  ASSERT_NE(snap.Find("b.counter"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.Find("b.counter"), 7.0);
  ASSERT_NE(snap.Find("a.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.Find("a.gauge"), 1.5);
  ASSERT_NE(snap.Find("c.hist.count"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.Find("c.hist.count"), 2.0);
  EXPECT_NE(snap.Find("c.hist.p50"), nullptr);
  EXPECT_NE(snap.Find("c.hist.p99"), nullptr);
  EXPECT_EQ(snap.Find("c.hist"), nullptr);
  EXPECT_EQ(snap.Find("zzz"), nullptr);
}

TEST(MetricRegistryTest, SeriesIsMonotoneAndCapturesGrowth) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("server.updates.applied");
  registry.RecordSnapshot(Seconds(1));
  counter.Increment(5);
  registry.RecordSnapshot(Seconds(2));
  counter.Increment(5);
  registry.RecordSnapshot(Seconds(3));

  const auto& series = registry.series();
  ASSERT_EQ(series.size(), 3u);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].time, series[i - 1].time);
    // Counters never move backwards between snapshots.
    EXPECT_GE(*series[i].Find("server.updates.applied"),
              *series[i - 1].Find("server.updates.applied"));
  }
  EXPECT_DOUBLE_EQ(*series.front().Find("server.updates.applied"), 0.0);
  EXPECT_DOUBLE_EQ(*series.back().Find("server.updates.applied"), 10.0);
}

TEST(MetricRegistryTest, FifoExportStatsUsesDefaultQueueGauges) {
  TxnPool pool;
  FifoScheduler scheduler;
  scheduler.OnQueryArrival(pool.NewQuery(Millis(1)), Millis(1));
  scheduler.OnQueryArrival(pool.NewQuery(Millis(2)), Millis(2));
  scheduler.OnUpdateArrival(pool.NewUpdate(Millis(3)), Millis(3));

  MetricRegistry registry;
  scheduler.ExportStats(registry);
  EXPECT_DOUBLE_EQ(registry.Value("scheduler.queue.queries"), 2.0);
  EXPECT_DOUBLE_EQ(registry.Value("scheduler.queue.updates"), 1.0);

  // Idempotent: draining the queue and re-exporting overwrites in place.
  scheduler.PopNext(0, Millis(4));
  scheduler.ExportStats(registry);
  EXPECT_DOUBLE_EQ(registry.Value("scheduler.queue.queries") +
                       registry.Value("scheduler.queue.updates"),
                   2.0);
}

TEST(MetricRegistryTest, QutsExportStatsPublishesRho) {
  // One gauge set at every CPU count: the generic queue depths plus the
  // QUTS state, with rho the plain mean of the per-shard values.
  for (int cpus : {1, 4}) {
    SCOPED_TRACE(cpus);
    TxnPool pool;
    QutsScheduler scheduler(QutsScheduler::Options(), cpus);
    // Spread QoS-heavy and QoD-heavy demand over the symbol space, then
    // cross an adaptation boundary so the shards' rho values diverge.
    for (ItemId item = 0; item < 16; ++item) {
      const bool qos_heavy = item % 2 == 0;
      Query* query = pool.NewQuery(Millis(1), Millis(5),
                                   qos_heavy ? 100.0 : 1.0,
                                   qos_heavy ? 1.0 : 100.0);
      pool.SetItems(query, {item});
      scheduler.OnQueryArrival(query, Millis(1));
    }
    scheduler.OnUpdateArrival(pool.NewUpdate(Millis(2)), Millis(2));
    scheduler.PopNext(0, Millis(1500));

    MetricRegistry registry;
    scheduler.ExportStats(registry);
    std::vector<std::string> want = {
        "scheduler.queue.queries",     "scheduler.queue.updates",
        "scheduler.quts.adaptations",  "scheduler.quts.atom.redraws",
        "scheduler.quts.rho",          "scheduler.quts.shards",
        "scheduler.quts.steals"};
    for (int k = 0; k < cpus; ++k) {
      want.push_back("scheduler.quts.shard" + std::to_string(k) + ".rho");
    }
    std::sort(want.begin(), want.end());
    std::vector<std::string> names;
    for (const auto& [name, value] : registry.Snap(0).values) {
      names.push_back(name);
    }
    EXPECT_EQ(names, want);

    double sum = 0.0;
    for (int k = 0; k < cpus; ++k) {
      const double shard_rho =
          registry.Value("scheduler.quts.shard" + std::to_string(k) + ".rho");
      EXPECT_DOUBLE_EQ(shard_rho, scheduler.rho(k));
      sum += shard_rho;
    }
    EXPECT_DOUBLE_EQ(registry.Value("scheduler.quts.rho"), sum / cpus);
    EXPECT_DOUBLE_EQ(registry.Value("scheduler.quts.rho"), scheduler.rho());
    EXPECT_GE(registry.Value("scheduler.quts.rho"), 0.5);
    EXPECT_LE(registry.Value("scheduler.quts.rho"), 1.0);
    EXPECT_DOUBLE_EQ(registry.Value("scheduler.quts.shards"), cpus);
    EXPECT_DOUBLE_EQ(registry.Value("scheduler.quts.adaptations"), 1.0);
    EXPECT_GE(registry.Value("scheduler.quts.atom.redraws"), 1.0);
    // PopNext dispatched one of the 17 transactions.
    EXPECT_DOUBLE_EQ(registry.Value("scheduler.queue.queries") +
                         registry.Value("scheduler.queue.updates"),
                     16.0);
    if (cpus > 1) {
      std::set<double> distinct;
      for (int k = 0; k < cpus; ++k) distinct.insert(scheduler.rho(k));
      EXPECT_GT(distinct.size(), 1u) << "shards saw different demand mixes";
    }
  }
}

}  // namespace
}  // namespace webdb
