// Reference demand-bound admission for differential tests: DbfAdmission's
// planner written the direct way, with one std::map of deadline -> demand per
// CPU lane, a std::map of tracked entries, and a fresh map of the planned
// evictions for every feasibility check. It is slow (the eviction map is
// rebuilt from the whole plan on every check) but easy to read, which is what
// makes it an oracle: sched/admission.cc must make exactly the decisions this
// class makes — same admit/reject, same victims in the same order, same lane
// placement and demand.

#ifndef WEBDB_TESTS_DBF_MAP_REFERENCE_H_
#define WEBDB_TESTS_DBF_MAP_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "sched/admission.h"
#include "txn/transaction.h"
#include "util/logging.h"
#include "util/time.h"

namespace webdb {

class MapDbfReference final : public AdmissionController {
 public:
  MapDbfReference(int32_t num_cpus, double supply_factor, TenantSet tenants)
      : num_cpus_(num_cpus),
        supply_factor_(supply_factor),
        tenants_(std::move(tenants)),
        demand_(static_cast<size_t>(num_cpus)) {
    WEBDB_CHECK(num_cpus_ >= 1);
    WEBDB_CHECK(supply_factor_ > 0.0);
  }

  std::string Name() const override { return "dbf-map-reference"; }

  bool Admit(const Query& query, const AdmissionContext& context) override {
    WEBDB_CHECK(context.num_cpus == num_cpus_);
    PruneExpired(context.now);
    std::optional<Entry> want = DemandOf(query, context.now);
    if (!want) return true;  // no deadline, no demand: best effort

    const std::vector<TxnId> no_evictions;
    for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
      if (FitsWith(cpu, want->deadline, want->demand, context.now,
                   no_evictions)) {
        want->cpu = cpu;
        Register(query, *want);
        return true;
      }
    }

    if (context.shed_sink == nullptr) {
      ++rejected_;
      return false;
    }
    const double incoming_worth =
        Worth(query, context.now) / tenants_.WeightFor(query.tenant);

    struct Candidate {
      double worth = 0.0;
      TxnId id = 0;
      int32_t cpu = -1;
    };
    std::vector<Candidate> candidates;
    for (const auto& [id, entry] : entries_) {
      const double worth = Worth(*entry.query, context.now) /
                           tenants_.WeightFor(entry.query->tenant);
      if (worth < incoming_worth) candidates.push_back({worth, id, entry.cpu});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.worth != b.worth) return a.worth < b.worth;
                return a.id < b.id;
              });

    // First lane with the strictly cheapest feasible plan wins.
    std::vector<TxnId> best_plan;
    double best_cost = 0.0;
    int32_t best_cpu = -1;
    for (int32_t cpu = 0; cpu < num_cpus_; ++cpu) {
      std::vector<TxnId> plan;
      double cost = 0.0;
      bool feasible = false;
      for (const Candidate& candidate : candidates) {
        if (candidate.cpu != cpu) continue;
        plan.push_back(candidate.id);
        cost += candidate.worth;
        if (FitsWith(cpu, want->deadline, want->demand, context.now, plan)) {
          feasible = true;
          break;
        }
      }
      if (feasible && (best_cpu < 0 || cost < best_cost)) {
        best_plan = std::move(plan);
        best_cost = cost;
        best_cpu = cpu;
      }
    }
    if (best_cpu < 0) {
      ++rejected_;
      return false;
    }

    for (TxnId id : best_plan) {
      if (context.shed_sink->Shed(id)) {
        ++shed_;
      } else {
        Release(id);  // refused victims are released all the same
      }
    }
    want->cpu = best_cpu;
    Register(query, *want);
    return true;
  }

  void OnQueryFinished(const Query& query, SimTime now) override {
    (void)now;
    Release(query.id);
  }

  bool IsTracked(TxnId id) const { return entries_.contains(id); }
  DbfAdmission::Placement PlacementOf(TxnId id) const {
    const auto it = entries_.find(id);
    WEBDB_CHECK(it != entries_.end());
    return {it->second.cpu, it->second.deadline, it->second.demand};
  }
  SimDuration QueuedDemand(int32_t cpu) const {
    SimDuration total = 0;
    for (const auto& [deadline, demand] : demand_[static_cast<size_t>(cpu)]) {
      (void)deadline;
      total += demand;
    }
    return total;
  }
  int64_t TrackedCount() const { return static_cast<int64_t>(entries_.size()); }
  int64_t RejectedCount() const { return rejected_; }
  int64_t ShedCount() const { return shed_; }

 private:
  struct Entry {
    int32_t cpu = -1;
    SimTime deadline = 0;
    SimDuration demand = 0;
    const Query* query = nullptr;
  };

  // The eviction ranking: residual expected profit assuming immediate
  // dispatch.
  static double Worth(const Query& query, SimTime now) {
    const SimDuration best_response = (now - query.arrival) + query.remaining;
    return query.qc.QosProfit(best_response) + query.qc.qod_max();
  }

  std::optional<Entry> DemandOf(const Query& query, SimTime now) const {
    const SimDuration rt_max = query.qc.rt_max();
    if (rt_max <= 0) return std::nullopt;
    Entry entry;
    entry.deadline = now + rt_max;
    entry.demand = static_cast<SimDuration>(
        std::llround(static_cast<double>(query.service_time) *
                     tenants_.WeightFor(query.tenant)));
    entry.demand = std::max<SimDuration>(entry.demand, 1);
    entry.query = &query;
    return entry;
  }

  bool FitsWith(int32_t cpu, SimTime deadline, SimDuration demand, SimTime now,
                const std::vector<TxnId>& excluded) const {
    std::map<SimTime, SimDuration> minus;
    for (TxnId id : excluded) {
      const auto it = entries_.find(id);
      WEBDB_CHECK(it != entries_.end());
      if (it->second.cpu == cpu) {
        minus[it->second.deadline] += it->second.demand;
      }
    }
    const auto supply = [&](SimTime t) {
      return static_cast<double>(t - now) * supply_factor_;
    };
    double cum = 0.0;
    bool placed = false;
    for (const auto& [t, d] : demand_[static_cast<size_t>(cpu)]) {
      if (!placed && t >= deadline) {
        cum += static_cast<double>(demand);
        if (cum > supply(deadline)) return false;
        placed = true;
      }
      const auto minus_it = minus.find(t);
      const SimDuration node =
          d - (minus_it == minus.end() ? 0 : minus_it->second);
      WEBDB_CHECK(node >= 0);
      cum += static_cast<double>(node);
      if (placed && cum > supply(t)) return false;
    }
    if (!placed) {
      cum += static_cast<double>(demand);
      if (cum > supply(deadline)) return false;
    }
    return true;
  }

  void Register(const Query& query, const Entry& entry) {
    WEBDB_CHECK(!entries_.contains(query.id));
    entries_[query.id] = entry;
    demand_[static_cast<size_t>(entry.cpu)][entry.deadline] += entry.demand;
  }

  void Release(TxnId id) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) return;
    const Entry& entry = it->second;
    auto& lane = demand_[static_cast<size_t>(entry.cpu)];
    const auto node = lane.find(entry.deadline);
    if (node != lane.end()) {  // pruned nodes are tolerated
      node->second -= entry.demand;
      if (node->second <= 0) lane.erase(node);
    }
    entries_.erase(it);
  }

  void PruneExpired(SimTime now) {
    for (auto& lane : demand_) {
      while (!lane.empty() && lane.begin()->first <= now) {
        lane.erase(lane.begin());
      }
    }
  }

  int32_t num_cpus_;
  double supply_factor_;
  TenantSet tenants_;
  std::vector<std::map<SimTime, SimDuration>> demand_;
  std::map<TxnId, Entry> entries_;
  int64_t rejected_ = 0;
  int64_t shed_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_TESTS_DBF_MAP_REFERENCE_H_
