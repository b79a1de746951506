#include "sched/admission.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "audit/invariant_auditor.h"
#include "util/logging.h"

namespace webdb {

// --- TenantSet -------------------------------------------------------------

TenantSet::TenantSet() : tiers_(1) {}

TenantSet::TenantSet(std::vector<TenantTier> tiers) : tiers_(std::move(tiers)) {
  WEBDB_CHECK(!tiers_.empty());
  for (const TenantTier& tier : tiers_) {
    WEBDB_CHECK(tier.admission_weight > 0.0);
    WEBDB_CHECK(tier.traffic_share >= 0.0);
  }
}

std::optional<TenantSet> TenantSet::Parse(const std::string& spec) {
  std::vector<TenantTier> tiers;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    const size_t colon = field.find(':');
    if (field.empty() || colon == std::string::npos || colon == 0) {
      return std::nullopt;
    }
    TenantTier tier;
    tier.name = field.substr(0, colon);
    const std::string weight = field.substr(colon + 1);
    char* end = nullptr;
    tier.admission_weight = std::strtod(weight.c_str(), &end);
    if (weight.empty() || end == nullptr || *end != '\0' ||
        !(tier.admission_weight > 0.0)) {
      return std::nullopt;
    }
    tiers.push_back(std::move(tier));
    pos = comma + 1;
    if (comma == spec.size()) break;
  }
  if (tiers.empty()) return std::nullopt;
  return TenantSet(std::move(tiers));
}

const TenantTier& TenantSet::Tier(TenantId tenant) const {
  WEBDB_CHECK(tenant >= 0 && tenant < NumTiers());
  return tiers_[static_cast<size_t>(tenant)];
}

double TenantSet::WeightFor(TenantId tenant) const {
  if (tenant < 0 || tenant >= NumTiers()) return 1.0;
  return tiers_[static_cast<size_t>(tenant)].admission_weight;
}

std::string TenantSet::Spec() const {
  std::string out;
  char buffer[64];
  for (const TenantTier& tier : tiers_) {
    if (!out.empty()) out += ',';
    std::snprintf(buffer, sizeof(buffer), "%s:%g", tier.name.c_str(),
                  tier.admission_weight);
    out += buffer;
  }
  return out;
}

// --- QueueCapAdmission -----------------------------------------------------

QueueCapAdmission::QueueCapAdmission(int64_t max_queued_queries)
    : max_queued_(max_queued_queries) {
  WEBDB_CHECK(max_queued_queries > 0);
}

bool QueueCapAdmission::Admit(const Query&, const AdmissionContext& context) {
  if (context.queued_queries < max_queued_) return true;
  ++rejected_;
  return false;
}

// --- DbfAdmission ----------------------------------------------------------

DbfAdmission::DbfAdmission(Options options)
    : num_cpus_(options.num_cpus),
      supply_factor_(options.supply_factor),
      tenants_(std::move(options.tenants)) {
  WEBDB_CHECK(num_cpus_ >= 1);
  WEBDB_CHECK(supply_factor_ > 0.0);
  lanes_.resize(static_cast<size_t>(num_cpus_));
}

double DbfAdmission::Worth(const Query& query, SimTime now) {
  const SimDuration best_response = (now - query.arrival) + query.remaining;
  return query.qc.QosProfit(best_response) + query.qc.qod_max();
}

std::optional<DbfAdmission::Entry> DbfAdmission::DemandOf(const Query& query,
                                                          SimTime now) const {
  const SimDuration rt_max = query.qc.rt_max();
  if (rt_max <= 0) return std::nullopt;  // no QoS deadline: best effort
  Entry entry;
  entry.id = query.id;
  entry.deadline = now + rt_max;
  entry.demand = static_cast<SimDuration>(
      std::llround(static_cast<double>(query.service_time) *
                   tenants_.WeightFor(query.tenant)));
  entry.demand = std::max<SimDuration>(entry.demand, 1);
  entry.query = &query;
  return entry;
}

bool DbfAdmission::Fits(const Lane& lane, SimTime deadline, SimDuration demand,
                        SimTime now) const {
  const auto supply = [&](SimTime t) {
    return static_cast<double>(t - now) * supply_factor_;
  };
  // The new demand sits before any node with the same deadline.
  double cum = 0.0;
  bool placed = false;
  for (const Node& node : lane) {
    if (!placed && node.deadline >= deadline) {
      cum += static_cast<double>(demand);
      if (cum > supply(deadline)) return false;
      placed = true;
    }
    cum += static_cast<double>(node.demand);
    // Nodes before the new deadline are unaffected by the new demand; only
    // the new node and later ones need (re)checking.
    if (placed && cum > supply(node.deadline)) return false;
  }
  if (!placed) {
    cum += static_cast<double>(demand);
    if (cum > supply(deadline)) return false;
  }
  return true;
}

std::vector<DbfAdmission::Entry>::const_iterator DbfAdmission::FindEntry(
    TxnId id) const {
  const auto it = std::ranges::lower_bound(entries_, id, {}, &Entry::id);
  return it != entries_.end() && it->id == id ? it : entries_.end();
}

void DbfAdmission::Register(const Entry& entry) {
  const auto it = std::ranges::lower_bound(entries_, entry.id, {}, &Entry::id);
  WEBDB_DCHECK(it == entries_.end() || it->id != entry.id);
  entries_.insert(it, entry);
  Lane& lane = lanes_[static_cast<size_t>(entry.cpu)];
  const auto node =
      std::ranges::lower_bound(lane, entry.deadline, {}, &Node::deadline);
  if (node != lane.end() && node->deadline == entry.deadline) {
    node->demand += entry.demand;
  } else {
    lane.insert(node, Node{entry.deadline, entry.demand});
  }
}

void DbfAdmission::Release(TxnId id) {
  const auto it = FindEntry(id);
  if (it == entries_.end()) return;
  Lane& lane = lanes_[static_cast<size_t>(it->cpu)];
  const auto node =
      std::ranges::lower_bound(lane, it->deadline, {}, &Node::deadline);
  // The node may already be gone: PruneExpired drops past-deadline nodes
  // while their (late) queries are still in flight.
  if (node != lane.end() && node->deadline == it->deadline) {
    node->demand -= it->demand;
    if (node->demand <= 0) lane.erase(node);
  }
  entries_.erase(it);
}

void DbfAdmission::PruneExpired(SimTime now) {
  for (Lane& lane : lanes_) {
    auto live = lane.begin();
    while (live != lane.end() && live->deadline <= now) ++live;
    lane.erase(lane.begin(), live);
  }
}

DbfAdmission::Plan DbfAdmission::PlanEviction(const Query& query,
                                              const Entry& want, SimTime now) {
  const double incoming_worth =
      Worth(query, now) / tenants_.WeightFor(query.tenant);
  candidates_.clear();
  for (const Entry& entry : entries_) {
    const double worth =
        Worth(*entry.query, now) / tenants_.WeightFor(entry.query->tenant);
    if (worth < incoming_worth) {
      candidates_.push_back(
          {worth, entry.id, entry.cpu, entry.deadline, entry.demand});
    }
  }
  // One run per lane, each in (worth, TxnId) order — the id is the
  // deterministic tie-break.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.cpu != b.cpu) return a.cpu < b.cpu;
              if (a.worth != b.worth) return a.worth < b.worth;
              return a.id < b.id;
            });

  // Per lane, shed the cheapest candidates until the newcomer fits; the
  // strictly cheapest plan wins, so the lowest CPU takes ties.
  Plan best;
  double best_cost = 0.0;
  for (size_t begin = 0, end = 0; begin < candidates_.size(); begin = end) {
    const int32_t cpu = candidates_[begin].cpu;
    end = begin;
    while (end < candidates_.size() && candidates_[end].cpu == cpu) ++end;
    const Lane& lane = lanes_[static_cast<size_t>(cpu)];
    residual_.assign(lane.begin(), lane.end());
    double cost = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const Candidate& victim = candidates_[i];
      cost += victim.worth;
      // A late victim's node may have been pruned: nothing to subtract.
      const auto node = std::ranges::lower_bound(residual_, victim.deadline,
                                                 {}, &Node::deadline);
      if (node != residual_.end() && node->deadline == victim.deadline) {
        node->demand -= victim.demand;
        WEBDB_DCHECK(node->demand >= 0);
      }
      if (Fits(residual_, want.deadline, want.demand, now)) {
        if (best.cpu < 0 || cost < best_cost) {
          best = Plan{cpu, begin, i - begin + 1};
          best_cost = cost;
        }
        break;
      }
    }
  }
  return best;
}

bool DbfAdmission::Admit(const Query& query, const AdmissionContext& context) {
  // Checked in every build: a controller with fewer lanes than the server
  // has CPUs would silently admit against a fraction of the real supply.
  WEBDB_CHECK(context.num_cpus == num_cpus_);
  PruneExpired(context.now);
  std::optional<Entry> want = DemandOf(query, context.now);
  if (!want) return true;  // no deadline, no demand: best effort

  for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    if (Fits(lanes_[static_cast<size_t>(cpu)], want->deadline, want->demand,
             context.now)) {
      want->cpu = cpu;
      Register(*want);
      return true;
    }
  }

  // No lane fits. Plan the cheapest eviction set per lane among queued
  // queries whose tier-adjusted worth is strictly below the incoming one,
  // then commit the best plan — or reject without shedding anything.
  if (context.shed_sink == nullptr) {
    ++rejected_;
    return false;
  }
  const Plan plan = PlanEviction(query, *want, context.now);
  if (plan.cpu < 0) {
    ++rejected_;
    return false;
  }

  // The sink calls back OnQueryFinished, releasing the victim's demand; that
  // edits entries_ and the lanes but never candidates_, so the plan stays
  // valid throughout.
  for (size_t i = plan.begin; i < plan.begin + plan.size; ++i) {
    const TxnId id = candidates_[i].id;
    if (context.shed_sink->Shed(id)) {
      ++shed_;
    } else {
      // The server refuses running and fused victims: they keep using CPU
      // (or ride on a scan that does). Their demand is released anyway, so
      // the newcomer is admitted against supply they still consume — a
      // known over-admission, kept because fixing it changes schedules
      // (ROADMAP item 5).
      Release(id);
    }
    WEBDB_DCHECK(FindEntry(id) == entries_.end());
  }
  WEBDB_DCHECK(Fits(lanes_[static_cast<size_t>(plan.cpu)], want->deadline,
                    want->demand, context.now));
  want->cpu = plan.cpu;
  Register(*want);
  return true;
}

void DbfAdmission::OnQueryFinished(const Query& query, SimTime now) {
  (void)now;
  Release(query.id);
}

DbfAdmission::Placement DbfAdmission::PlacementOf(TxnId id) const {
  const auto it = FindEntry(id);
  WEBDB_CHECK(it != entries_.end());
  return Placement{it->cpu, it->deadline, it->demand};
}

SimDuration DbfAdmission::QueuedDemand(int32_t cpu) const {
  WEBDB_CHECK(cpu >= 0 && cpu < num_cpus_);
  SimDuration total = 0;
  for (const Node& node : lanes_[static_cast<size_t>(cpu)]) {
    total += node.demand;
  }
  return total;
}

bool DbfAdmission::DemandFits(int32_t cpu, SimTime from_deadline,
                              SimTime now) const {
  WEBDB_CHECK(cpu >= 0 && cpu < num_cpus_);
  double cum = 0.0;
  for (const Node& node : lanes_[static_cast<size_t>(cpu)]) {
    cum += static_cast<double>(node.demand);
    if (node.deadline < from_deadline) continue;
    if (cum > static_cast<double>(node.deadline - now) * supply_factor_) {
      return false;
    }
  }
  return true;
}

void DbfAdmission::AuditInvariants(SimTime now) const {
  // Per-lane node sums must be reproducible from the tracked entries,
  // modulo nodes dropped by PruneExpired (those only ever shrink a lane).
  std::vector<std::map<SimTime, SimDuration>> rebuilt(
      static_cast<size_t>(num_cpus_));
  TxnId previous_id = 0;
  for (const Entry& entry : entries_) {
    WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                     entry.id > previous_id,
                     "dbf entries not strictly ascending by txn id");
    previous_id = entry.id;
    WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                     entry.cpu >= 0 && entry.cpu < num_cpus_,
                     "dbf entry on unknown cpu lane");
    WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                     entry.demand > 0 && entry.query != nullptr &&
                         entry.query->id == entry.id,
                     "dbf entry with empty demand or dangling query");
    rebuilt[static_cast<size_t>(entry.cpu)][entry.deadline] += entry.demand;
  }
  for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
    const Lane& lane = lanes_[static_cast<size_t>(cpu)];
    const auto& expected = rebuilt[static_cast<size_t>(cpu)];
    for (size_t i = 0; i < lane.size(); ++i) {
      const Node& node = lane[i];
      WEBDB_AUDIT_THAT(audit::Invariant::kAdmissionConservation,
                       i == 0 || lane[i - 1].deadline < node.deadline,
                       "dbf lane not strictly ascending by deadline");
      const auto it = expected.find(node.deadline);
      // Pruning is lazy (runs at the next Admit), so a node may outlive its
      // deadline here — but never its entries.
      (void)now;
      WEBDB_AUDIT_THAT(
          audit::Invariant::kAdmissionConservation,
          it != expected.end() && it->second == node.demand && node.demand > 0,
          "dbf demand node does not match tracked entries");
    }
  }
}

}  // namespace webdb
