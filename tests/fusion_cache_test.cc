// Fused-result cache (DESIGN.md §14) and FusionIndex contract tests.
//
// FusionIndex half: the Remove/Insert contract fixes — Remove is
// symmetrically idempotent on both bucket tables, double-Insert dies, and
// a degenerate leader with repeated items collects each covered lookup
// exactly once — plus an exactness check for the hash-set membership path
// CollectCandidates switches to past its linear-scan threshold.
//
// Cache half: the TTL edges the honesty rule lives or dies on — a hit
// exactly at expiry (inclusive), a miss one tick past it, eviction by an
// update arriving in the same event batch as the lookup, a cache hit
// served while an overloaded admission controller is turning identical
// load away — and SweepRunner --jobs bit-identity of cached runs.

#include <initializer_list>
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
#include "sched/fifo_scheduler.h"
#include "server/fusion.h"
#include "server/web_database_server.h"
#include "test_txns.h"
#include "util/rng.h"

namespace webdb {
namespace {

// --- FusionIndex contract --------------------------------------------------

// A hand-built queued query whose items `item_sets` keeps.
Query MakeIndexQuery(ItemSets& item_sets, uint64_t index, QueryType type,
                     std::vector<ItemId> items) {
  Query query;
  query.id = QueryTxnId(index);
  query.kind = TxnKind::kQuery;
  query.state = TxnState::kQueued;
  query.type = type;
  query.items = item_sets.Keep(std::move(items));
  query.fusion_signature = FusionIndex::Signature(query);
  return query;
}

TEST(FusionIndexTest, RemoveIsIdempotentOnBothBucketTables) {
  ItemSets item_sets;
  FusionIndex index;
  // A subset joiner sits in its signature bucket and its item row; a scan
  // only in its bucket.
  Query lookup = MakeIndexQuery(item_sets, 1, QueryType::kLookup, {3});
  Query scan =
      MakeIndexQuery(item_sets, 2, QueryType::kAggregation, {1, 2, 3});
  index.Insert(&lookup);
  index.Insert(&scan);
  ASSERT_EQ(index.Size(), 2);

  index.Remove(lookup);
  EXPECT_EQ(index.Size(), 1);
  EXPECT_FALSE(index.Contains(lookup));
  // Second Remove of the same query: a no-op on both tables, no abort.
  index.Remove(lookup);
  EXPECT_EQ(index.Size(), 1);

  index.Remove(scan);
  index.Remove(scan);
  EXPECT_EQ(index.Size(), 0);
  EXPECT_FALSE(index.Contains(scan));
}

TEST(FusionIndexTest, RemoveOfNeverIndexedQueryIsANoOp) {
  ItemSets item_sets;
  FusionIndex index;
  Query indexed = MakeIndexQuery(item_sets, 1, QueryType::kLookup, {5});
  Query stranger = MakeIndexQuery(item_sets, 2, QueryType::kLookup, {5});
  index.Insert(&indexed);
  // Same signature and same item row as `indexed`, but never
  // inserted: Remove must leave the indexed twin untouched.
  index.Remove(stranger);
  EXPECT_EQ(index.Size(), 1);
  EXPECT_TRUE(index.Contains(indexed));
}

TEST(FusionIndexDeathTest, DoubleInsertDies) {
  // Double-indexing used to double-count size_ and leave a dangling id;
  // the guarded Insert refuses with a CHECK naming the Contains guard.
  ItemSets item_sets;
  Query query = MakeIndexQuery(item_sets, 1, QueryType::kLookup, {0});
  EXPECT_DEATH(
      {
        FusionIndex index;
        index.Insert(&query);
        index.Insert(&query);
      },
      "CHECK failed.*Contains");
}

TEST(FusionIndexTest, DuplicateLeaderItemsCollectEachLookupOnce) {
  // Regression for the duplicate-leader-item rescan: a degenerate leader
  // whose item list repeats one symbol must yield each covered lookup
  // exactly once, in bucket order.
  ItemSets item_sets;
  FusionIndex index;
  std::vector<Query> lookups;
  lookups.reserve(3);
  for (uint64_t i = 0; i < 3; ++i) {
    lookups.push_back(
        MakeIndexQuery(item_sets, 10 + i, QueryType::kLookup, {7}));
    index.Insert(&lookups.back());
  }
  const Query leader =
      MakeIndexQuery(item_sets, 1, QueryType::kAggregation, {7, 7, 7, 7});
  std::vector<TxnId> members;
  index.CollectCandidates(leader, /*max_members=*/64, &members);
  EXPECT_EQ(members, std::vector<TxnId>(
                         {lookups[0].id, lookups[1].id, lookups[2].id}));
}

TEST(FusionIndexTest, CollectStaysExactPastTheLinearScanThreshold) {
  // 40 exact look-alikes push `out` well past the small-group linear scan,
  // onto the hash-set membership path: the result must still be every
  // candidate exactly once, in insertion order, capped by max_members.
  ItemSets item_sets;
  FusionIndex index;
  std::vector<Query> twins;
  twins.reserve(40);
  for (uint64_t i = 0; i < 40; ++i) {
    twins.push_back(MakeIndexQuery(item_sets, 100 + i,
                                   QueryType::kAggregation, {1, 2, 3}));
    index.Insert(&twins.back());
  }
  // A covered lookup after the exact pass exercises taken() on the set.
  Query lookup = MakeIndexQuery(item_sets, 200, QueryType::kLookup, {2});
  index.Insert(&lookup);

  const Query leader =
      MakeIndexQuery(item_sets, 1, QueryType::kAggregation, {1, 2, 3});
  std::vector<TxnId> members;
  index.CollectCandidates(leader, /*max_members=*/64, &members);
  ASSERT_EQ(members.size(), 41u);
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(members[i], twins[i].id);
  EXPECT_EQ(members[40], lookup.id);

  members.clear();
  index.CollectCandidates(leader, /*max_members=*/25, &members);
  ASSERT_EQ(members.size(), 25u);
  for (size_t i = 0; i < 25; ++i) EXPECT_EQ(members[i], twins[i].id);
}

// --- fused-result cache ----------------------------------------------------

constexpr SimDuration kTtl = Millis(50);

struct CacheHarness {
  Database db;
  FifoScheduler scheduler;
  std::unique_ptr<WebDatabaseServer> server;
  QcGenerator qc_gen{BalancedProfile(QcShape::kStep)};
  Rng qc_rng{42};

  explicit CacheHarness(ServerConfig config = ServerConfig(),
                        int num_items = 8)
      : db(num_items) {
    config.lifetime_factor = 0.0;
    config.fusion.enabled = true;
    config.fusion.result_cache = true;
    config.fusion.cache_ttl = kTtl;
    server = std::make_unique<WebDatabaseServer>(&db, &scheduler, config);
  }

  Query* Submit(std::vector<ItemId> items,
                SimDuration exec = Millis(10)) {
    return server->SubmitQuery(QueryType::kLookup, std::move(items),
                               qc_gen.Next(qc_rng), exec);
  }
};

TEST(FusionCacheTest, HitExactlyAtTtlExpiryThenMissOneTickPast) {
  CacheHarness h;
  Query* scan = h.Submit({0});
  h.server->RunUntil(Millis(30));
  ASSERT_EQ(scan->state, TxnState::kCommitted);
  const SimTime filled = scan->commit_time;
  ASSERT_EQ(h.server->result_cache().Size(), 1);

  // The TTL is inclusive: a lookup exactly at expiry is still served.
  Query* at_expiry = nullptr;
  h.server->sim().ScheduleAt(filled + kTtl,
                             [&] { at_expiry = h.Submit({0}); });
  // One microsecond later the entry is dead and the query runs for real.
  Query* past_expiry = nullptr;
  h.server->sim().ScheduleAt(filled + kTtl + Micros(1),
                             [&] { past_expiry = h.Submit({0}); });
  h.server->Run();

  ASSERT_NE(at_expiry, nullptr);
  EXPECT_EQ(at_expiry->state, TxnState::kCommitted);
  EXPECT_EQ(at_expiry->cache_source, scan->id);
  EXPECT_EQ(at_expiry->cached_commit_time, filled);
  // Zero scan cost: served at its own arrival instant.
  EXPECT_EQ(at_expiry->commit_time, at_expiry->arrival);
  ASSERT_NE(at_expiry->fused_result, nullptr);
  EXPECT_EQ(at_expiry->fused_result->leader, scan->id);

  ASSERT_NE(past_expiry, nullptr);
  EXPECT_EQ(past_expiry->state, TxnState::kCommitted);
  EXPECT_EQ(past_expiry->cache_source, 0u);
  EXPECT_GT(past_expiry->commit_time, past_expiry->arrival);

  EXPECT_EQ(h.server->metrics().queries_cache_hits, 1);
  // The expired-miss scan recommitted and refilled the cache.
  EXPECT_EQ(h.server->metrics().cache_fills, 2);
  h.server->AuditInvariants();
}

TEST(FusionCacheTest, UpdateArrivingInTheSameEventBatchEvictsFirst) {
  CacheHarness h;
  Query* scan = h.Submit({2});
  h.server->RunUntil(Millis(30));
  ASSERT_EQ(scan->state, TxnState::kCommitted);
  ASSERT_EQ(h.server->result_cache().Size(), 1);

  // Update arrival and lookup land at the same instant, update first (the
  // order they were scheduled): the arrival evicts, so the lookup in the
  // same batch must NOT be served a value the cache already knows is
  // stale-stamped wrong. Anchored at the drained clock (RunUntil advanced
  // it), still well inside the entry's TTL.
  const SimTime batch = h.server->sim().Now() + Millis(5);
  h.server->sim().ScheduleAt(
      batch, [&] { h.server->SubmitUpdate(2, 9.5, Millis(2)); });
  Query* lookup = nullptr;
  h.server->sim().ScheduleAt(batch, [&] { lookup = h.Submit({2}); });
  h.server->Run();

  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->state, TxnState::kCommitted);
  EXPECT_EQ(lookup->cache_source, 0u);
  EXPECT_EQ(h.server->metrics().queries_cache_hits, 0);
  h.server->AuditInvariants();
}

TEST(FusionCacheTest, ApplyOfAPreArrivalUpdateEvictsTheEntry) {
  // The update ARRIVES while the scan is still running (cache empty, so
  // the arrival hook evicts nothing), the scan commits and fills with that
  // update still unapplied, and only then does the update reach the CPU:
  // the *apply* hook is the only thing standing between the stale entry
  // and a dishonest hit.
  CacheHarness h;
  Query* scan = h.Submit({4});  // runs [0, 10ms) on the FIFO CPU
  h.server->sim().ScheduleAt(
      Millis(1), [&] { h.server->SubmitUpdate(4, 1.25, Millis(2)); });
  Query* lookup = nullptr;
  // Well within TTL of the ~10 ms fill, but after the ~12 ms apply.
  h.server->sim().ScheduleAt(Millis(20), [&] { lookup = h.Submit({4}); });
  h.server->Run();

  EXPECT_EQ(scan->state, TxnState::kCommitted);
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->state, TxnState::kCommitted);
  EXPECT_EQ(lookup->cache_source, 0u);
  EXPECT_EQ(h.server->metrics().queries_cache_hits, 0);
  // Both real scans filled (the second fill replacing the evicted one).
  EXPECT_EQ(h.server->metrics().cache_fills, 2);
  h.server->AuditInvariants();
}

TEST(FusionCacheTest, CacheHitIsServedWhileAdmissionIsSheddingLoad) {
  // A cached answer holds no resources, so it is served ahead of
  // admission: with DBF starved of supply and actively turning identical
  // load away, the covered lookup still commits from cache while its
  // uncovered twin is refused.
  const int kCpus = 1;
  AdmissionSpec admission_spec;
  admission_spec.kind = AdmissionKind::kDbf;
  // rt_max draws in [50, 100] ms; at 20% supply the lone 4 ms seed scan
  // always fits (supply >= 10 ms) while each 30 ms flood query never does
  // (supply <= 20 ms), independent of the QC draw.
  admission_spec.supply_factor = 0.2;
  std::unique_ptr<AdmissionController> admission =
      MakeAdmission(admission_spec, kCpus);
  ServerConfig config;
  config.admission = admission.get();
  CacheHarness h(config);

  Query* scan = h.Submit({1}, Millis(4));
  h.server->RunUntil(Millis(30));
  ASSERT_EQ(scan->state, TxnState::kCommitted);

  // Flood: long uncached queries on other items outstrip the throttled
  // supply, so the controller is rejecting when the covered lookup
  // arrives. Anchored at the drained clock, inside the entry's TTL.
  const SimTime burst = h.server->sim().Now() + Millis(2);
  std::vector<Query*> flood;
  h.server->sim().ScheduleAt(burst, [&] {
    for (int i = 0; i < 8; ++i) flood.push_back(h.Submit({5}, Millis(30)));
  });
  Query* covered = nullptr;
  h.server->sim().ScheduleAt(burst + Millis(1),
                             [&] { covered = h.Submit({1}, Millis(4)); });
  h.server->Run();

  ASSERT_NE(covered, nullptr);
  EXPECT_EQ(covered->state, TxnState::kCommitted);
  EXPECT_EQ(covered->cache_source, scan->id);
  EXPECT_GE(h.server->metrics().queries_rejected +
                h.server->metrics().queries_shed,
            1) << "flood did not overload admission";
  h.server->AuditInvariants();
}

TEST(FusionCacheTest, FannedOutAnswerIsTheLeadersScan) {
  // One scan's answer reaches every member of its group and every later
  // cache hit: the same object, its items the leader's own item set (a
  // view, not a copy), its values the items' values at the scan's commit.
  CacheHarness h;
  const double kValues[] = {10.5, 20.25, 30.125};
  for (ItemId item = 0; item < 3; ++item) {
    h.server->SubmitUpdate(item, kValues[item], Millis(1));
  }
  h.server->RunUntil(Millis(10));
  // A blocker holds the FIFO CPU while the look-alikes queue behind the
  // leader: an exact twin in another order, and a covered lookup.
  const auto submit = [&](QueryType type, std::initializer_list<ItemId> items,
                          SimDuration exec) {
    return h.server->SubmitQuery(type, items, h.qc_gen.Next(h.qc_rng), exec);
  };
  submit(QueryType::kLookup, {5}, Millis(10));
  Query* leader = submit(QueryType::kAggregation, {2, 0, 1}, Millis(8));
  const std::vector<Query*> members = {
      submit(QueryType::kAggregation, {0, 1, 2}, Millis(8)),
      submit(QueryType::kLookup, {1}, Millis(3)),
  };
  h.server->RunUntil(Millis(40));
  ASSERT_EQ(leader->state, TxnState::kCommitted);
  const FusionResult* result = leader->fused_result;
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->leader, leader->id);
  EXPECT_EQ(result->scan_complete, leader->commit_time);
  EXPECT_EQ(result->items.data(), leader->items.data());
  ASSERT_EQ(result->items.size(), 3u);
  ASSERT_EQ(result->values.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result->items[i], leader->items[i]);
    EXPECT_EQ(result->values[i],
              kValues[static_cast<size_t>(result->items[i])]);
  }
  for (const Query* member : members) {
    EXPECT_EQ(member->state, TxnState::kCommitted);
    EXPECT_EQ(member->fused_into, leader->id);
    EXPECT_EQ(member->fused_result, result);
  }

  // Inside the TTL, an exact look-alike and a covered lookup hit the
  // leader's entry and get the very same answer object.
  const std::vector<Query*> hits = {
      submit(QueryType::kAggregation, {1, 2, 0}, Millis(8)),
      submit(QueryType::kLookup, {2}, Millis(3)),
  };
  for (const Query* hit : hits) {
    EXPECT_EQ(hit->state, TxnState::kCommitted);
    EXPECT_EQ(hit->cache_source, leader->id);
    EXPECT_EQ(hit->fused_result, result);
  }

  // A later write moves the database, not the snapshot.
  h.server->SubmitUpdate(0, 99.0, Millis(1));
  h.server->Run();
  EXPECT_EQ(h.db.Item(0).value, 99.0);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result->values[i],
              kValues[static_cast<size_t>(result->items[i])]);
  }
  h.server->AuditInvariants();
}

TEST(FusionCacheTest, SweepJobsAreBitIdenticalWithCacheOn) {
  std::vector<Trace> traces;
  for (uint64_t seed : {21u, 22u, 23u}) {
    OverloadScenarioConfig config;
    config.seed = seed;
    config.scale = 10.0;
    config.duration = Seconds(2);
    config.num_stocks = 64;
    config.query_rate = 300.0;
    config.update_rate = 60.0;
    traces.push_back(MakeOverloadTrace(OverloadScenario::kMarketOpen,
                                       config));
  }

  auto run_with_jobs = [&](int jobs) {
    std::vector<SweepRunner::Point> points;
    for (size_t i = 0; i < traces.size(); ++i) {
      SweepRunner::Point point;
      point.trace = &traces[i];
      point.spec.kind = SchedulerKind::kQuts;
      point.spec.topology.num_cpus = i == 2 ? 4 : 1;
      point.options.qc_seed = 17 + i;
      point.options.qc = BalancedProfile(QcShape::kStep);
      point.options.server.fusion.enabled = true;
      point.options.server.fusion.result_cache = true;
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
  int64_t total_hits = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].end_state_hash, parallel[i].end_state_hash)
        << "point " << i;
    EXPECT_EQ(serial[i].queries_cache_hits, parallel[i].queries_cache_hits)
        << "point " << i;
    EXPECT_EQ(serial[i].cache_fills, parallel[i].cache_fills)
        << "point " << i;
    EXPECT_EQ(serial[i].queries_committed, parallel[i].queries_committed)
        << "point " << i;
    total_hits += serial[i].queries_cache_hits;
  }
  EXPECT_GT(total_hits, 0) << "sweep produced no cache hits";
}

}  // namespace
}  // namespace webdb
