#include "audit/invariant_auditor.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/quts_scheduler.h"
#include "db/database.h"
#include "exp/scheduler_factory.h"
#include "qc/qc_generator.h"
#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "server/web_database_server.h"
#include "util/rng.h"

namespace webdb {
namespace {

// --- FNV-1a known-answer vectors --------------------------------------------
// Reference values from the FNV specification (Fowler/Noll/Vo, 64-bit 1a).

TEST(Fnv1aHasherTest, EmptyInputIsOffsetBasis) {
  audit::Fnv1aHasher hasher;
  EXPECT_EQ(hasher.hash(), 0xcbf29ce484222325ULL);
}

TEST(Fnv1aHasherTest, KnownAnswerVectors) {
  {
    audit::Fnv1aHasher hasher;
    hasher.MixBytes("a", 1);
    EXPECT_EQ(hasher.hash(), 0xaf63dc4c8601ec8cULL);
  }
  {
    audit::Fnv1aHasher hasher;
    hasher.MixBytes("foobar", 6);
    EXPECT_EQ(hasher.hash(), 0x85944171f73967e8ULL);
  }
}

TEST(Fnv1aHasherTest, MixU64IsLittleEndianByteSequence) {
  audit::Fnv1aHasher by_word;
  by_word.MixU64(0x0102030405060708ULL);
  audit::Fnv1aHasher by_byte;
  for (uint8_t byte : {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}) {
    by_byte.MixByte(byte);
  }
  EXPECT_EQ(by_word.hash(), by_byte.hash());
}

TEST(Fnv1aHasherTest, MixDoubleCanonicalizesNegativeZero) {
  audit::Fnv1aHasher pos;
  pos.MixDouble(0.0);
  audit::Fnv1aHasher neg;
  neg.MixDouble(-0.0);
  EXPECT_EQ(pos.hash(), neg.hash());

  audit::Fnv1aHasher one;
  one.MixDouble(1.0);
  EXPECT_NE(one.hash(), pos.hash());
}

TEST(Fnv1aHasherTest, OrderSensitive) {
  audit::Fnv1aHasher ab;
  ab.MixU64(1);
  ab.MixU64(2);
  audit::Fnv1aHasher ba;
  ba.MixU64(2);
  ba.MixU64(1);
  EXPECT_NE(ab.hash(), ba.hash());
}

// --- invariant counters ------------------------------------------------------

TEST(InvariantCountersTest, NamesAreStableKebabCase) {
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kSimTimeMonotonic),
               "sim-time-monotonic");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kLockTableConsistent),
               "lock-table-consistent");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kConflictFree),
               "conflict-free");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kDualQueueConservation),
               "dual-queue-conservation");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kRegisterNewestWins),
               "register-newest-wins");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kLedgerConservation),
               "ledger-conservation");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kEventArenaConsistent),
               "event-arena-consistent");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kTxnQueueConsistent),
               "txn-queue-consistent");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kAdmissionConservation),
               "admission-conservation");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kFusionGroup),
               "fusion-group");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kFusionCache),
               "fusion-cache");
  EXPECT_STREQ(audit::InvariantName(audit::Invariant::kRendezvousGroup),
               "rendezvous-group");
}

TEST(InvariantCountersTest, CountAccumulatesPerInvariant) {
  audit::ResetCounters();
  EXPECT_EQ(audit::TotalChecksPerformed(), 0u);
  audit::Count(audit::Invariant::kSimTimeMonotonic);
  audit::Count(audit::Invariant::kSimTimeMonotonic);
  audit::Count(audit::Invariant::kLedgerConservation);
  EXPECT_EQ(audit::ChecksPerformed(audit::Invariant::kSimTimeMonotonic), 2u);
  EXPECT_EQ(audit::ChecksPerformed(audit::Invariant::kLedgerConservation), 1u);
  EXPECT_EQ(audit::ChecksPerformed(audit::Invariant::kConflictFree), 0u);
  EXPECT_EQ(audit::TotalChecksPerformed(), 3u);
  audit::ResetCounters();
  EXPECT_EQ(audit::TotalChecksPerformed(), 0u);
}

TEST(InvariantCountersTest, AuditThatMacroCountsAndPasses) {
  audit::ResetCounters();
  WEBDB_AUDIT_THAT(audit::Invariant::kConflictFree, 1 + 1 == 2, "arithmetic");
  EXPECT_EQ(audit::ChecksPerformed(audit::Invariant::kConflictFree), 1u);
}

TEST(InvariantAuditorDeathTest, FailAbortsWithInvariantName) {
  EXPECT_DEATH(audit::Fail(audit::Invariant::kRegisterNewestWins, "f.cc", 12,
                           "detail text"),
               "register-newest-wins");
}

TEST(InvariantAuditorDeathTest, FusionGroupFailureNamesTheInvariant) {
  EXPECT_DEATH(audit::Fail(audit::Invariant::kFusionGroup, "f.cc", 34,
                           "member settled before its group's scan completed"),
               "fusion-group.*settled before");
}

TEST(InvariantAuditorDeathTest, FusionGroupAuditThatAbortsOnViolation) {
  // The macro the server's fusion-group section is written in terms of:
  // a false condition must abort with the kebab-case name.
  EXPECT_DEATH(
      WEBDB_AUDIT_THAT(audit::Invariant::kFusionGroup, 1 == 2,
                       "membership not disjoint"),
      "fusion-group.*membership not disjoint");
}

TEST(InvariantAuditorDeathTest, FusionCacheFailureNamesTheInvariant) {
  EXPECT_DEATH(audit::Fail(audit::Invariant::kFusionCache, "f.cc", 56,
                           "entry outlived an update to item 3"),
               "fusion-cache.*outlived an update");
}

TEST(InvariantAuditorDeathTest, FusionCacheAuditThatAbortsOnViolation) {
  EXPECT_DEATH(
      WEBDB_AUDIT_THAT(audit::Invariant::kFusionCache, 1 == 2,
                       "hit settled against a later commit time"),
      "fusion-cache.*later commit time");
}

TEST(InvariantAuditorDeathTest, RendezvousGroupFailureNamesTheInvariant) {
  EXPECT_DEATH(audit::Fail(audit::Invariant::kRendezvousGroup, "f.cc", 78,
                           "member shard set differs from its leader's"),
               "rendezvous-group.*shard set differs");
}

TEST(InvariantAuditorDeathTest, RendezvousGroupAuditThatAbortsOnViolation) {
  EXPECT_DEATH(
      WEBDB_AUDIT_THAT(audit::Invariant::kRendezvousGroup, 1 == 2,
                       "group formed with rendezvous disabled"),
      "rendezvous-group.*rendezvous disabled");
}

// --- whole-server audit and end-state hash -----------------------------------

// A small deterministic workload that exercises commits, drops,
// invalidations, restarts and preemptions across two schedulers.
void RunWorkload(WebDatabaseServer& server, uint64_t seed) {
  Rng rng(seed);
  QcGenerator qc_gen(BalancedProfile(QcShape::kStep));
  SimTime t = 0;
  for (int round = 0; round < 300; ++round) {
    t += rng.UniformInt(0, Millis(3));
    const bool is_query = rng.Bernoulli(0.4);
    server.sim().ScheduleAt(t, [&server, &rng, &qc_gen, is_query] {
      if (is_query) {
        server.SubmitQuery(
            QueryType::kLookup,
            {static_cast<ItemId>(rng.UniformInt(0, 5))}, qc_gen.Next(rng),
            rng.UniformInt(Millis(1), Millis(6)));
      } else {
        server.SubmitUpdate(static_cast<ItemId>(rng.UniformInt(0, 5)),
                            rng.Uniform(1.0, 9.0),
                            rng.UniformInt(Millis(1), Millis(4)));
      }
    });
  }
  server.Run();
}

TEST(ServerAuditTest, AuditInvariantsPassesMidRunAndAfterDrain) {
  Database db(6);
  QutsScheduler scheduler{QutsScheduler::Options()};
  WebDatabaseServer server(&db, &scheduler);
  // Mid-run audits (queues non-empty, CPU busy) must hold too.
  for (SimTime t : {Millis(50), Millis(200)}) {
    server.sim().ScheduleAt(t, [&server] { server.AuditInvariants(); });
  }
  audit::ResetCounters();
  RunWorkload(server, 77);
  server.AuditInvariants();
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kDualQueueConservation),
            0u);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kLedgerConservation), 0u);
}

TEST(ServerAuditTest, FusedWorkloadAuditsCleanWithLiveGroups) {
  // The same contended workload with shared execution on: single-item
  // lookups over 6 items fuse heavily, so the mid-run audits walk live
  // groups and the fusion-group invariant actually fires its checks.
  Database db(6);
  QutsScheduler scheduler{QutsScheduler::Options()};
  ServerConfig config;
  config.fusion.enabled = true;
  WebDatabaseServer server(&db, &scheduler, config);
  for (SimTime t : {Millis(50), Millis(200), Millis(400)}) {
    server.sim().ScheduleAt(t, [&server] { server.AuditInvariants(); });
  }
  audit::ResetCounters();
  RunWorkload(server, 77);
  server.AuditInvariants();
  EXPECT_TRUE(server.IsQuiescent());
  EXPECT_TRUE(server.fusion_groups().empty());
  EXPECT_GT(server.metrics().queries_fused, 0);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kFusionGroup), 0u);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kDualQueueConservation),
            0u);
}

TEST(ServerAuditTest, CachedWorkloadAuditsCleanWithLiveEntries) {
  // Same contended workload with the fused-result cache on: lookups over 6
  // items refill and re-hit the cache between updates, so the strided
  // audits walk live entries (seq snapshots intact) and committed hits
  // (settled against their source's commit time).
  Database db(6);
  QutsScheduler scheduler{QutsScheduler::Options()};
  ServerConfig config;
  config.fusion.enabled = true;
  config.fusion.result_cache = true;
  WebDatabaseServer server(&db, &scheduler, config);
  for (SimTime t : {Millis(50), Millis(200), Millis(400)}) {
    server.sim().ScheduleAt(t, [&server] { server.AuditInvariants(); });
  }
  audit::ResetCounters();
  RunWorkload(server, 77);
  server.AuditInvariants();
  EXPECT_TRUE(server.IsQuiescent());
  EXPECT_GT(server.metrics().queries_cache_hits, 0);
  EXPECT_GT(server.metrics().cache_fills, 0);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kFusionCache), 0u);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kLedgerConservation), 0u);
}

TEST(ServerAuditTest, RendezvousWorkloadAuditsCleanWithLiveGroups) {
  // Cross-shard rendezvous on a 4-shard QUTS: two-item comparisons over 6
  // items straddle shards, so look-alike pairs fuse in rendezvous domains
  // and the strided audits walk those groups while they are live.
  Database db(6);
  SchedulerSpec spec;
  spec.kind = SchedulerKind::kQuts;
  spec.topology.num_cpus = 4;
  auto scheduler = MakeScheduler(spec);
  ServerConfig config;
  config.fusion.enabled = true;
  config.fusion.cross_shard_rendezvous = true;
  WebDatabaseServer server(&db, scheduler.get(), config);

  Rng rng(77);
  QcGenerator qc_gen(BalancedProfile(QcShape::kStep));
  SimTime t = 0;
  for (int round = 0; round < 400; ++round) {
    t += rng.UniformInt(0, Millis(1));
    const bool is_query = rng.Bernoulli(0.8);
    server.sim().ScheduleAt(t, [&server, &rng, &qc_gen, is_query] {
      if (is_query) {
        // Two fixed flavors so exact look-alikes pile up in the queue.
        const bool flavor = rng.Bernoulli(0.5);
        const std::vector<ItemId> items =
            flavor ? std::vector<ItemId>{0, 3} : std::vector<ItemId>{1, 4};
        server.SubmitQuery(QueryType::kComparison, items, qc_gen.Next(rng),
                           rng.UniformInt(Millis(3), Millis(9)));
      } else {
        server.SubmitUpdate(static_cast<ItemId>(rng.UniformInt(0, 5)),
                            rng.Uniform(1.0, 9.0),
                            rng.UniformInt(Millis(1), Millis(4)));
      }
    });
  }
  // Dense mid-run audits: rendezvous groups live only while their leader
  // is in flight, so sample well inside the stride.
  for (SimTime at = Millis(5); at < Millis(300); at += Millis(5)) {
    server.sim().ScheduleAt(at, [&server] { server.AuditInvariants(); });
  }
  audit::ResetCounters();
  server.Run();
  server.AuditInvariants();
  EXPECT_TRUE(server.IsQuiescent());
  EXPECT_TRUE(server.fusion_groups().empty());
  EXPECT_GT(server.metrics().queries_fused, 0);
  EXPECT_GT(audit::ChecksPerformed(audit::Invariant::kRendezvousGroup), 0u);
}

TEST(ServerAuditTest, EndStateHashIsDeterministic) {
  uint64_t hashes[2];
  for (uint64_t& hash : hashes) {
    Database db(6);
    auto scheduler = MakeUpdateHigh();
    WebDatabaseServer server(&db, scheduler.get());
    RunWorkload(server, 123);
    hash = server.EndStateHash();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(ServerAuditTest, EndStateHashIsScheduleSensitive) {
  uint64_t by_kind[2];
  const SchedulerKind kinds[] = {SchedulerKind::kFifo,
                                 SchedulerKind::kUpdateHigh};
  for (int i = 0; i < 2; ++i) {
    Database db(6);
    SchedulerSpec spec;
    spec.kind = kinds[i];
    auto scheduler = MakeScheduler(spec);
    WebDatabaseServer server(&db, scheduler.get());
    RunWorkload(server, 123);
    by_kind[i] = server.EndStateHash();
  }
  // Different policies take different schedules on a contended trace, and
  // the hash must see that.
  EXPECT_NE(by_kind[0], by_kind[1]);
}

TEST(ServerAuditTest, EndStateHashSeesWorkloadDifferences) {
  uint64_t by_seed[2];
  const uint64_t seeds[] = {123, 124};
  for (int i = 0; i < 2; ++i) {
    Database db(6);
    FifoScheduler scheduler;
    WebDatabaseServer server(&db, &scheduler);
    RunWorkload(server, seeds[i]);
    by_seed[i] = server.EndStateHash();
  }
  EXPECT_NE(by_seed[0], by_seed[1]);
}

TEST(ServerAuditTest, EmptyServerAuditsCleanAndHashesStably) {
  Database db(2);
  FifoScheduler scheduler;
  WebDatabaseServer server(&db, &scheduler);
  server.AuditInvariants();
  const uint64_t before = server.EndStateHash();
  server.Run();  // nothing scheduled
  EXPECT_EQ(server.EndStateHash(), before);
}

}  // namespace
}  // namespace webdb
