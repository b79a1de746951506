#include "sched/admission.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "test_txns.h"

namespace webdb {
namespace {

TEST(AdmitAllTest, AlwaysAdmits) {
  TxnPool pool;
  AdmitAll controller;
  AdmissionContext context;
  context.queued_queries = 1 << 20;
  EXPECT_TRUE(controller.Admit(*pool.NewQuery(0), context));
  EXPECT_EQ(controller.Name(), "admit-all");
}

TEST(QueueCapTest, RejectsBeyondCap) {
  TxnPool pool;
  QueueCapAdmission controller(3);
  Query* q = pool.NewQuery(0);
  AdmissionContext context;
  context.queued_queries = 2;
  EXPECT_TRUE(controller.Admit(*q, context));
  context.queued_queries = 3;
  EXPECT_FALSE(controller.Admit(*q, context));
  context.queued_queries = 100;
  EXPECT_FALSE(controller.Admit(*q, context));
  EXPECT_EQ(controller.RejectedCount(), 2);
}

TEST(QueueCapTest, RejectedCountTracksMixedSequences) {
  TxnPool pool;
  QueueCapAdmission controller(2);
  Query* q = pool.NewQuery(0);
  AdmissionContext context;
  int64_t expected_rejected = 0;
  // Queue depth oscillates across the cap; only the at/above-cap calls
  // count, independent of ordering.
  for (int64_t depth : {0, 2, 1, 3, 2, 0, 5, 1, 2, 2}) {
    context.queued_queries = depth;
    const bool admitted = controller.Admit(*q, context);
    EXPECT_EQ(admitted, depth < 2) << "depth " << depth;
    if (!admitted) ++expected_rejected;
  }
  EXPECT_EQ(controller.RejectedCount(), expected_rejected);
  EXPECT_EQ(expected_rejected, 6);
}

TEST(TenantSetTest, ParseRoundTripsAndRejectsMalformed) {
  const std::optional<TenantSet> tenants = TenantSet::Parse("free:4,premium:1");
  ASSERT_TRUE(tenants.has_value());
  ASSERT_EQ(tenants->NumTiers(), 2);
  EXPECT_EQ(tenants->Tier(0).name, "free");
  EXPECT_DOUBLE_EQ(tenants->WeightFor(0), 4.0);
  EXPECT_EQ(tenants->Tier(1).name, "premium");
  EXPECT_DOUBLE_EQ(tenants->WeightFor(1), 1.0);
  // Unknown tenant ids fall back to weight 1.
  EXPECT_DOUBLE_EQ(tenants->WeightFor(7), 1.0);
  EXPECT_DOUBLE_EQ(tenants->WeightFor(-1), 1.0);
  EXPECT_EQ(tenants->Spec(), "free:4,premium:1");

  for (const char* bad : {"", "free", "free:", ":4", "free:0", "free:-1",
                          "free:4,", "free:4,,premium:1", "free:x"}) {
    EXPECT_FALSE(TenantSet::Parse(bad).has_value()) << "'" << bad << "'";
  }
}

// Records Shed calls without a server; answers true/false per a scripted
// allowance.
class TestShedSink final : public ShedSink {
 public:
  explicit TestShedSink(DbfAdmission* controller) : controller_(controller) {}

  bool Shed(TxnId id) override {
    shed_ids.push_back(id);
    if (!allow_shed) return false;
    // Mirror the server: release the controller's demand for the victim.
    if (victims != nullptr) {
      for (const Query* query : *victims) {
        if (query->id == id) {
          controller_->OnQueryFinished(*query, now);
          return true;
        }
      }
      ADD_FAILURE() << "shed of unknown victim";
      return false;
    }
    return true;
  }

  DbfAdmission* controller_;
  std::vector<TxnId> shed_ids;
  const std::vector<const Query*>* victims = nullptr;
  SimTime now = 0;
  bool allow_shed = true;
};

TEST(DbfAdmissionTest, AdmitsUntilLaneSupplyIsSpent) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  AdmissionContext context;  // no shed sink: reject-only
  // Each query: 10ms of demand against a 30ms deadline. Three fit
  // (30ms supply at the shared deadline), the fourth cannot.
  for (int i = 0; i < 3; ++i) {
    Query* q = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
    EXPECT_TRUE(controller.Admit(*q, context)) << i;
    EXPECT_TRUE(controller.IsTracked(q->id));
  }
  EXPECT_EQ(controller.QueuedDemand(0), Millis(30));
  Query* overflow = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
  EXPECT_FALSE(controller.Admit(*overflow, context));
  EXPECT_EQ(controller.RejectedCount(), 1);
  // A later deadline still has room: 40ms supply vs 30 + 5 demand.
  Query* later = pool.NewQuery(0, Millis(5), 10.0, 0.0, Millis(40));
  EXPECT_TRUE(controller.Admit(*later, context));
  // An earlier deadline does not: it must fit under every later node too.
  Query* earlier = pool.NewQuery(0, Millis(5), 10.0, 0.0, Millis(10));
  EXPECT_FALSE(controller.Admit(*earlier, context));
  EXPECT_EQ(controller.TrackedCount(), 4);
  controller.AuditInvariants(0);
}

TEST(DbfAdmissionTest, FinishedQueriesReleaseDemand) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  AdmissionContext context;
  Query* a = pool.NewQuery(0, Millis(15), 10.0, 0.0, Millis(30));
  Query* b = pool.NewQuery(0, Millis(15), 10.0, 0.0, Millis(30));
  EXPECT_TRUE(controller.Admit(*a, context));
  EXPECT_TRUE(controller.Admit(*b, context));
  Query* c = pool.NewQuery(0, Millis(15), 10.0, 0.0, Millis(30));
  EXPECT_FALSE(controller.Admit(*c, context));
  controller.OnQueryFinished(*a, Millis(1));
  EXPECT_FALSE(controller.IsTracked(a->id));
  // a's 15ms released; c now fits (15 + 15 <= 29ms remaining supply).
  context.now = Millis(1);
  Query* d = pool.NewQuery(Millis(1), Millis(14), 10.0, 0.0, Millis(29));
  EXPECT_TRUE(controller.Admit(*d, context));
  controller.AuditInvariants(Millis(1));
}

TEST(DbfAdmissionTest, ShedsLowerWorthWorkToFitHigherWorth) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  TestShedSink sink(&controller);
  AdmissionContext context;
  context.shed_sink = &sink;
  // Fill the lane with three cheap ($2) queries...
  std::vector<const Query*> victims;
  for (int i = 0; i < 3; ++i) {
    Query* q = pool.NewQuery(0, Millis(10), 2.0, 0.0, Millis(30));
    ASSERT_TRUE(controller.Admit(*q, context));
    victims.push_back(q);
  }
  sink.victims = &victims;
  // ...then a $40 query arrives: worth shedding one victim for.
  Query* vip = pool.NewQuery(0, Millis(10), 40.0, 0.0, Millis(30));
  EXPECT_TRUE(controller.Admit(*vip, context));
  EXPECT_EQ(sink.shed_ids.size(), 1u);
  EXPECT_EQ(sink.shed_ids[0], victims[0]->id);  // lowest worth, lowest id
  EXPECT_EQ(controller.ShedCount(), 1);
  EXPECT_TRUE(controller.IsTracked(vip->id));
  EXPECT_EQ(controller.QueuedDemand(0), Millis(30));
  controller.AuditInvariants(0);
}

TEST(DbfAdmissionTest, NeverShedsForAQueryThatStillWontFit) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  TestShedSink sink(&controller);
  AdmissionContext context;
  context.shed_sink = &sink;
  std::vector<const Query*> victims;
  // One cheap query, then a huge high-worth query that cannot fit even on
  // an empty lane: the plan is infeasible, so nothing may be shed.
  Query* cheap = pool.NewQuery(0, Millis(10), 2.0, 0.0, Millis(30));
  ASSERT_TRUE(controller.Admit(*cheap, context));
  victims.push_back(cheap);
  sink.victims = &victims;
  Query* huge = pool.NewQuery(0, Millis(50), 100.0, 0.0, Millis(30));
  EXPECT_FALSE(controller.Admit(*huge, context));
  EXPECT_TRUE(sink.shed_ids.empty());
  EXPECT_EQ(controller.ShedCount(), 0);
  EXPECT_TRUE(controller.IsTracked(cheap->id));
  EXPECT_EQ(controller.RejectedCount(), 1);
}

TEST(DbfAdmissionTest, EqualWorthNeverTriggersShedding) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  TestShedSink sink(&controller);
  AdmissionContext context;
  context.shed_sink = &sink;
  std::vector<const Query*> victims;
  for (int i = 0; i < 3; ++i) {
    Query* q = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
    ASSERT_TRUE(controller.Admit(*q, context));
    victims.push_back(q);
  }
  sink.victims = &victims;
  // Same worth as the queued work: strictly-below is required, so the
  // newcomer is rejected and the queue is left alone (no thrashing).
  Query* peer = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
  EXPECT_FALSE(controller.Admit(*peer, context));
  EXPECT_TRUE(sink.shed_ids.empty());
  EXPECT_EQ(controller.RejectedCount(), 1);
}

TEST(DbfAdmissionTest, BestEffortQueriesBypassDemandAccounting) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  DbfAdmission controller(std::move(options));
  AdmissionContext context;
  // An empty contract (rt_max = 0, the ZeroContracts mode) has no QoS
  // deadline: always admitted, never tracked.
  for (int i = 0; i < 100; ++i) {
    Query* q = pool.NewQuery(0, Millis(10));
    q->qc = QualityContract();
    EXPECT_TRUE(controller.Admit(*q, context));
    EXPECT_FALSE(controller.IsTracked(q->id));
  }
  EXPECT_EQ(controller.TrackedCount(), 0);
  EXPECT_EQ(controller.QueuedDemand(0), 0);
}

TEST(DbfAdmissionTest, TenantWeightMultipliesChargedDemand) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 1;
  options.tenants = *TenantSet::Parse("free:4,premium:1");
  DbfAdmission controller(std::move(options));
  AdmissionContext context;
  // A free-tier query is charged 4x its service time: 10ms costs 40ms of
  // budget, so only one fits under a 50ms deadline...
  Query* free1 = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(50));
  free1->tenant = 0;
  EXPECT_TRUE(controller.Admit(*free1, context));
  EXPECT_EQ(controller.PlacementOf(free1->id).demand, Millis(40));
  Query* free2 = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(50));
  free2->tenant = 0;
  EXPECT_FALSE(controller.Admit(*free2, context));
  // ...while premium demand is charged at face value and still fits.
  Query* premium = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(50));
  premium->tenant = 1;
  EXPECT_TRUE(controller.Admit(*premium, context));
  EXPECT_EQ(controller.PlacementOf(premium->id).demand, Millis(10));
  controller.AuditInvariants(0);
}

TEST(DbfAdmissionTest, SpreadsDemandAcrossCpuLanes) {
  TxnPool pool;
  DbfAdmission::Options options;
  options.num_cpus = 2;
  DbfAdmission controller(std::move(options));
  AdmissionContext context;
  context.num_cpus = 2;
  // 30ms of demand saturates lane 0; the next admission must first-fit
  // into lane 1 instead of rejecting.
  std::vector<Query*> queries;
  for (int i = 0; i < 6; ++i) {
    Query* q = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
    queries.push_back(q);
    EXPECT_TRUE(controller.Admit(*q, context)) << i;
  }
  EXPECT_EQ(controller.QueuedDemand(0), Millis(30));
  EXPECT_EQ(controller.QueuedDemand(1), Millis(30));
  Query* overflow = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
  EXPECT_FALSE(controller.Admit(*overflow, context));
}

// The lane count is checked in every build type: a one-lane controller on a
// 4-CPU server would otherwise book every query onto one lane and admit
// against a quarter of the supply.
TEST(DbfAdmissionDeathTest, LaneCountMustMatchServerCpus) {
  TxnPool pool;
  DbfAdmission controller(DbfAdmission::Options{});  // one lane
  AdmissionContext context;
  context.num_cpus = 4;
  Query* q = pool.NewQuery(0, Millis(10), 10.0, 0.0, Millis(30));
  EXPECT_DEATH(controller.Admit(*q, context), "num_cpus");
}

TEST(ServerAdmissionTest, RejectedQueriesNeverRun) {
  Database db(2);
  FifoScheduler sched;
  QueueCapAdmission controller(1);
  ServerConfig config;
  config.admission = &controller;
  WebDatabaseServer server(&db, &sched, config);
  // Block the CPU, then stack queries: the second submission sees one
  // queued query and is rejected.
  server.SubmitUpdate(0, 1.0, Millis(20));
  Query* admitted = nullptr;
  Query* rejected = nullptr;
  server.sim().ScheduleAt(Millis(1), [&] {
    admitted = server.SubmitQuery(
        QueryType::kLookup, {0},
        QualityContract::Make(QcShape::kStep, 5.0, Millis(100), 5.0, 1.0),
        Millis(5));
  });
  server.sim().ScheduleAt(Millis(2), [&] {
    rejected = server.SubmitQuery(
        QueryType::kLookup, {1},
        QualityContract::Make(QcShape::kStep, 5.0, Millis(100), 5.0, 1.0),
        Millis(5));
  });
  server.Run();
  ASSERT_NE(admitted, nullptr);
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(admitted->state, TxnState::kCommitted);
  EXPECT_EQ(rejected->state, TxnState::kRejected);
  EXPECT_EQ(server.metrics().queries_rejected, 1);
  EXPECT_EQ(server.metrics().queries_committed, 1);
  // The rejected query still counts toward the submitted maximum.
  EXPECT_DOUBLE_EQ(server.ledger().total_max(), 20.0);
  EXPECT_DOUBLE_EQ(server.ledger().total_gained(), 10.0);
  EXPECT_TRUE(server.IsQuiescent());
}

TEST(ServerAdmissionTest, ConservationIncludesRejections) {
  Database db(4);
  FifoScheduler sched;
  QueueCapAdmission controller(2);
  ServerConfig config;
  config.admission = &controller;
  WebDatabaseServer server(&db, &sched, config);
  server.SubmitUpdate(0, 1.0, Millis(50));
  for (int i = 0; i < 10; ++i) {
    server.sim().ScheduleAt(Millis(1 + i), [&server, i] {
      server.SubmitQuery(
          QueryType::kLookup, {static_cast<ItemId>(i % 4)},
          QualityContract::Make(QcShape::kStep, 1.0, Millis(100), 1.0, 1.0),
          Millis(5));
    });
  }
  server.Run();
  const ServerMetrics& metrics = server.metrics();
  EXPECT_EQ(metrics.queries_submitted, 10);
  EXPECT_EQ(metrics.queries_committed + metrics.queries_dropped +
                metrics.queries_rejected,
            metrics.queries_submitted);
  EXPECT_GT(metrics.queries_rejected, 0);
}

}  // namespace
}  // namespace webdb
