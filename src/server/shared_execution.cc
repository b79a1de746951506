#include "server/shared_execution.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "audit/invariant_auditor.h"
#include "db/database.h"
#include "sched/cpu_set_scheduler.h"
#include "server/metrics.h"
#include "txn/lock_manager.h"
#include "util/logging.h"

namespace webdb {

SharedExecution::SharedExecution(const FusionConfig& config,
                                 CpuSetScheduler* scheduler,
                                 const Database* database,
                                 const LockManager* locks,
                                 ServerMetrics* metrics)
    : config_(config),
      sched_(scheduler),
      db_(database),
      locks_(locks),
      metrics_(metrics) {}

bool SharedExecution::MayShare(const Query& query) const {
  if (!config_.enabled ||
      static_cast<int>(query.items.size()) > kMaxFusionItems) {
    return false;
  }
  if (sched_->FusionDomain(query) >= 0) return true;
  return config_.cross_shard_rendezvous && sched_->RendezvousDomain(query) >= 0;
}

bool SharedExecution::OnSubmit(Query& query, SimTime now) {
  if (!MayShare(query)) return false;
  query.fusion_signature = FusionIndex::Signature(query);
  if (!config_.result_cache) return false;
  const FusionResultCache::Entry* entry = cache_.Lookup(query, now);
  if (entry == nullptr) return false;
  // Zero scan cost: the producing scan's CPU demand was charged once, at
  // its own commit. The answer's age is what this query pays: its commit
  // anchors staleness at the cached commit time.
  query.cache_source = entry->source;
  query.cached_commit_time = entry->commit_time;
  query.fused_result = entry->result;
  query.remaining = 0;
  return true;
}

void SharedExecution::OnEnqueue(Query& query) {
  if (query.state != TxnState::kQueued || !MayShare(query)) return;
  // Preempt-resumed queries carry progress and (under 2PL-HP) locks;
  // fusing one would discard real work or attach a lock holder. Only fresh
  // arrivals and clean restarts are candidates.
  if (query.remaining != query.service_time ||
      locks_->Holds(query.id, query.items)) {
    return;
  }
  index_.Insert(&query);
}

void SharedExecution::OnDequeue(const Query& query) {
  if (config_.enabled) index_.Remove(query);
}

std::span<const TxnId> SharedExecution::OnDispatch(const Query& leader) {
  if (index_.Size() == 0 || !MayShare(leader)) return {};
  auto group = groups_.find(leader.id);
  const int carried =
      group == groups_.end() ? 0 : static_cast<int>(group->second.size());
  joined_.clear();
  index_.CollectCandidates(leader, kMaxFusionGroupSize - carried, &joined_);
  if (joined_.empty()) return {};
  if (group == groups_.end()) {
    group = groups_.emplace(leader.id, std::vector<TxnId>()).first;
    ++metrics_->fusion_groups;
  }
  group->second.insert(group->second.end(), joined_.begin(), joined_.end());
  return joined_;
}

std::vector<TxnId> SharedExecution::TakeGroup(TxnId leader) {
  const auto group = groups_.find(leader);
  if (group == groups_.end()) return {};
  std::vector<TxnId> members = std::move(group->second);
  groups_.erase(group);
  return members;
}

const FusionResult* SharedExecution::Snapshot(const Query& scan, SimTime now) {
  const std::span<double> values = values_.Allocate(scan.items.size());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = db_->Item(scan.items[i]).value;
  }
  // The producer fills its own slot before publishing it.
  // lint:allow(fused-result-mutation)
  FusionResult& result = results_.emplace_back();
  result.leader = scan.id;
  result.items = scan.items;
  result.values = values;
  result.scan_complete = now;
  return &result;
}

void SharedExecution::OnCommit(const Query& scan, SimTime now) {
  if (!config_.result_cache || config_.cache_ttl <= 0 || !MayShare(scan)) {
    return;
  }
  const FusionResult* result =
      scan.fused_result != nullptr ? scan.fused_result : Snapshot(scan, now);
  cache_.Fill(scan, result, now, config_.cache_ttl, *db_);
  ++metrics_->cache_fills;
}

void SharedExecution::OnItemChanged(ItemId item) {
  if (config_.result_cache) cache_.InvalidateItem(item);
}

void SharedExecution::AuditInvariants(
    const StableVector<Query>& queries) const {
  using audit::Invariant;
  const auto query_for = [&queries](TxnId id) -> const Query& {
    WEBDB_CHECK(!IsUpdateTxnId(id) && TxnIndex(id) < queries.size());
    return queries[TxnIndex(id)];
  };

  // --- fusion groups (DESIGN.md §13) ---------------------------------------
  // The kFused population is exactly the union of the live groups' members,
  // membership is disjoint, members are lock-free and unsettled (no member
  // settles before its group's scan completes), and every leader is still
  // in flight (running, or preempted back to queued).
  int64_t fused = 0;
  for (const Query& query : queries) {
    if (query.state == TxnState::kFused) ++fused;
  }
  int64_t group_members = 0;
  std::set<TxnId> seen;
  for (const auto& [leader_id, members] : groups_) {
    const Query& leader = query_for(leader_id);
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                     leader.state == TxnState::kRunning ||
                         leader.state == TxnState::kQueued,
                     "fusion leader " + std::to_string(leader_id) +
                         " is no longer in flight");
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup, leader.fused_into == 0,
                     "fusion leader " + std::to_string(leader_id) +
                         " is itself fused into another group");
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup, !members.empty(),
                     "empty fusion group led by " + std::to_string(leader_id));
    for (TxnId member_id : members) {
      const Query& member = query_for(member_id);
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup, seen.insert(member_id).second,
                       "fusion membership not disjoint: query " +
                           std::to_string(member_id) + " in two groups");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                       member.state == TxnState::kFused,
                       "member " + std::to_string(member_id) +
                           " settled before its group's scan completed");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup, member.fused_into == leader_id,
                       "member " + std::to_string(member_id) +
                           " does not point back at its leader");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                       !locks_->Holds(member_id, member.items),
                       "fused member " + std::to_string(member_id) +
                           " holds locks");
      WEBDB_AUDIT_THAT(Invariant::kFusionGroup, member.fused_result == nullptr,
                       "member " + std::to_string(member_id) +
                           " holds a result before the scan completed");
      ++group_members;
    }
  }
  WEBDB_AUDIT_THAT(Invariant::kFusionGroup, group_members == fused,
                   std::to_string(fused) +
                       " queries in state fused but live groups hold " +
                       std::to_string(group_members) + " members");
  WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                   metrics_->queries_fused <= metrics_->queries_committed,
                   "more fused settlements than commits");
  // The index and the cache key on the signature OnSubmit stored; re-derive
  // it so a path that forgot to set it fails here.
  for (const Query& query : queries) {
    if (!MayShare(query)) continue;
    WEBDB_AUDIT_THAT(Invariant::kFusionGroup,
                     query.fusion_signature == FusionIndex::Signature(query),
                     "query " + std::to_string(query.id) +
                         " carries a stale fusion signature");
  }
  index_.AuditConsistency();

  // --- fused-result cache conservation (DESIGN.md §14) ---------------------
  // Every cache hit maps to exactly one committed scan (its source), is
  // settled against that scan's commit time, and was served within TTL of
  // it; live entries never outlive an update (arrival or apply) to any
  // cached symbol — the per-item sequence snapshots must still match the
  // database exactly.
  int64_t hits = 0;
  for (const Query& query : queries) {
    if (query.cache_source == 0) continue;
    ++hits;
    const std::string who = "cache hit " + std::to_string(query.id);
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     query.state == TxnState::kCommitted,
                     who + " is not committed");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache, query.fused_result != nullptr,
                     who + " carries no shared result");
    const Query& source = query_for(query.cache_source);
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     source.state == TxnState::kCommitted,
                     who + " maps to an uncommitted source");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache, source.cache_source == 0,
                     who + " maps to another cache hit, not a scan");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     query.cached_commit_time == source.commit_time,
                     who + " settled against the wrong commit time");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     query.commit_time >= query.cached_commit_time &&
                         query.commit_time - query.cached_commit_time <=
                             config_.cache_ttl,
                     who + " was served outside the cache TTL");
  }
  WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                   metrics_->queries_cache_hits == hits,
                   "cache-hit counter disagrees with per-query states");
  WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                   metrics_->cache_fills >= cache_.Size(),
                   "more live cache entries than fills");
  cache_.AuditConsistency();
  cache_.ForEachEntry([&](const FusionResultCache::Entry& entry) {
    const std::string which = "cache entry " + std::to_string(entry.signature);
    const Query& source = query_for(entry.source);
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     source.state == TxnState::kCommitted &&
                         source.cache_source == 0,
                     which + " was not produced by a committed scan");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     entry.result != nullptr && MayShare(source),
                     which + " has no shareable result");
    WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                     entry.expiry == entry.commit_time + config_.cache_ttl,
                     which + " has a TTL the config does not explain");
    WEBDB_AUDIT_THAT(
        Invariant::kFusionCache,
        entry.arrival_seqs.size() == entry.sorted_items.size() &&
            entry.applied_seqs.size() == entry.sorted_items.size(),
        which + " sequence snapshot is malformed");
    for (size_t i = 0; i < entry.sorted_items.size(); ++i) {
      const DataItem& item = db_->Item(entry.sorted_items[i]);
      WEBDB_AUDIT_THAT(Invariant::kFusionCache,
                       item.arrival_seq == entry.arrival_seqs[i] &&
                           item.applied_seq == entry.applied_seqs[i],
                       which + " outlived an update to item " +
                           std::to_string(entry.sorted_items[i]));
    }
  });

  // --- rendezvous groups (cross-shard fusion, DESIGN.md §14) ---------------
  // A live group whose leader spans shards only exists under the rendezvous
  // flag, and every member is either an exact look-alike (same class, same
  // sorted items, hence the same shard set) or a single-item lookup the
  // leader's scan covers.
  for (const auto& [leader_id, members] : groups_) {
    const Query& leader = query_for(leader_id);
    if (sched_->FusionDomain(leader) >= 0) continue;  // single-shard group
    const std::string who =
        "rendezvous group led by " + std::to_string(leader_id);
    WEBDB_AUDIT_THAT(Invariant::kRendezvousGroup,
                     config_.cross_shard_rendezvous,
                     who + " exists with rendezvous disabled");
    WEBDB_AUDIT_THAT(Invariant::kRendezvousGroup, MayShare(leader),
                     who + " has no shareable domain");
    std::vector<ItemId> leader_sorted(leader.items.begin(),
                                      leader.items.end());
    std::sort(leader_sorted.begin(), leader_sorted.end());
    for (TxnId member_id : members) {
      const Query& member = query_for(member_id);
      const bool covered_lookup =
          member.items.size() == 1 &&
          std::binary_search(leader_sorted.begin(), leader_sorted.end(),
                             member.items[0]);
      if (covered_lookup) continue;
      std::vector<ItemId> member_sorted(member.items.begin(),
                                        member.items.end());
      std::sort(member_sorted.begin(), member_sorted.end());
      WEBDB_AUDIT_THAT(
          Invariant::kRendezvousGroup,
          ServiceClassOf(member.type) == ServiceClassOf(leader.type) &&
              member_sorted == leader_sorted,
          who + ": member " + std::to_string(member_id) +
              " is neither an exact look-alike nor covered");
    }
  }
}

}  // namespace webdb
