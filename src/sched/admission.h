// Admission control for incoming queries — the extension the paper points
// to through its UNIT citation [14] (user-centric transaction management):
// under overload it can be more profitable to reject a query outright than
// to let it rot in the queue past its deadline and lifetime.
//
// The server consults the controller (when configured) at submission time;
// rejected queries are dropped immediately, earn nothing, and still count
// against the submitted maximum (rejecting is not free).
//
// Beyond the static queue cap, DbfAdmission implements demand-bound-function
// feasibility in the style of per-worker deadline accounting in serverless
// runtimes: each CPU lane keeps demand nodes keyed by absolute deadline, a
// query is admitted only when its weighted CPU demand fits the remaining
// supply on some lane at every deadline at or after its own, and when it
// does not fit, the controller may shed already-queued lower-worth work
// through the server's ShedSink.
// Tenant tiers make the squeeze deliberately unfair: a tier's
// admission_weight multiplies the demand it is charged, so heavy-weight
// (free) tenants run out of room first while premium traffic still fits.

#ifndef WEBDB_SCHED_ADMISSION_H_
#define WEBDB_SCHED_ADMISSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "txn/transaction.h"
#include "util/time.h"

namespace webdb {

// One tenant tier (QC class). Tenant ids index the TenantSet's tiers.
struct TenantTier {
  std::string name = "default";
  // DBF demand multiplier: a tier charged weight w consumes w seconds of
  // demand budget per second of service time. Higher weight = squeezed out
  // of an overloaded lane first.
  double admission_weight = 1.0;
  // Relative share of trace arrivals assigned to this tier by
  // AssignTenants (src/exp/overload_scenarios.h); not used by admission.
  double traffic_share = 1.0;
};

// The run's tenant tiers. Default-constructed: one "default" tier of
// weight 1, which reproduces tenant-unaware behavior exactly.
class TenantSet {
 public:
  TenantSet();
  explicit TenantSet(std::vector<TenantTier> tiers);

  // Parses "name:weight,name:weight" (e.g. "free:4,premium:1"); tenant ids
  // follow the listed order. Returns nullopt on malformed specs.
  static std::optional<TenantSet> Parse(const std::string& spec);

  int32_t NumTiers() const { return static_cast<int32_t>(tiers_.size()); }
  const TenantTier& Tier(TenantId tenant) const;
  // Admission weight for `tenant`; unknown ids fall back to weight 1.
  double WeightFor(TenantId tenant) const;

  const std::vector<TenantTier>& tiers() const { return tiers_; }

  // Round-trips through Parse ("free:4,premium:1").
  std::string Spec() const;

 private:
  std::vector<TenantTier> tiers_;
};

// Server-side hook through which a controller evicts already-admitted,
// still-queued work. Implemented by WebDatabaseServer.
class ShedSink {
 public:
  virtual ~ShedSink() = default;

  // Evict the queued query `id` (state -> kShed, locks released, traced,
  // counted). Returns false when the query is no longer sheddable (already
  // running or finished). The sink calls the admission controller's
  // OnQueryFinished before returning, so internal demand is released.
  virtual bool Shed(TxnId id) = 0;
};

// Snapshot of the system state offered to the controller.
struct AdmissionContext {
  SimTime now = 0;
  int64_t queued_queries = 0;
  int64_t queued_updates = 0;
  // Number of CPUs in the server's processor pool.
  int32_t num_cpus = 1;
  // Eviction hook for load-shedding controllers; may be null (then
  // controllers must admit or reject without shedding).
  ShedSink* shed_sink = nullptr;
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  virtual std::string Name() const = 0;

  // True to admit `query` given the current state.
  virtual bool Admit(const Query& query, const AdmissionContext& context) = 0;

  // Called when an admitted query leaves the system (commit, lifetime drop,
  // or shed) so stateful controllers can release its resources.
  virtual void OnQueryFinished(const Query& query, SimTime now) {
    (void)query;
    (void)now;
  }

  // WEBDB_AUDIT hook: verify internal bookkeeping; called from the server's
  // strided audit pass.
  virtual void AuditInvariants(SimTime now) const { (void)now; }
};

// Admits everything (the paper's implicit policy).
class AdmitAll final : public AdmissionController {
 public:
  std::string Name() const override { return "admit-all"; }
  bool Admit(const Query&, const AdmissionContext&) override { return true; }
};

// Rejects queries once the query queue exceeds a fixed depth.
class QueueCapAdmission final : public AdmissionController {
 public:
  explicit QueueCapAdmission(int64_t max_queued_queries);

  std::string Name() const override { return "queue-cap"; }
  bool Admit(const Query& query, const AdmissionContext& context) override;

  int64_t RejectedCount() const { return rejected_; }

 private:
  int64_t max_queued_;
  int64_t rejected_ = 0;
};

// Demand-bound-function admission (see the file comment). Each of the
// server's CPUs is a demand lane holding nodes keyed by absolute deadline
// (arrival + rt_max); a node's supply at time t is (t - now) *
// supply_factor. A query fits a lane when, with its weighted demand added,
// cumulative demand at its own deadline and at every later node stays
// within supply. Queries whose contract has no QoS deadline (rt_max <= 0)
// are best-effort: admitted without demand accounting.
//
// When no lane fits, the controller plans the cheapest eviction set per
// lane — queued queries whose tier-adjusted worth (Worth /
// admission_weight) is strictly below the incoming query's — and commits
// the plan through the context's ShedSink only if it actually frees enough
// supply; otherwise the incoming query is rejected and nothing is shed.
//
// Lanes, tracked entries and the planner's buffers are flat vectors that
// keep their capacity, so Admit and OnQueryFinished allocate nothing once
// the buffers have grown to the standing load (DESIGN.md §11).
class DbfAdmission final : public AdmissionController {
 public:
  struct Options {
    // Demand lanes; must match the server topology's num_cpus (which is
    // also QUTS's shard count).
    int32_t num_cpus = 1;
    // Fraction of each lane's wall-clock supply handed out to queries;
    // < 1 reserves headroom for updates and scheduling overhead.
    double supply_factor = 1.0;
    TenantSet tenants;
  };

  // Note: admitted queries are tracked by pointer until OnQueryFinished;
  // the caller must keep them at stable addresses (the server's txn pools
  // do).
  explicit DbfAdmission(Options options);

  std::string Name() const override { return "dbf"; }
  bool Admit(const Query& query, const AdmissionContext& context) override;
  void OnQueryFinished(const Query& query, SimTime now) override;
  void AuditInvariants(SimTime now) const override;

  int64_t RejectedCount() const { return rejected_; }
  int64_t ShedCount() const { return shed_; }
  int64_t TrackedCount() const { return static_cast<int64_t>(entries_.size()); }

  // Where an admitted deadline-bearing query's demand was registered.
  struct Placement {
    int32_t cpu = -1;
    SimTime deadline = 0;
    SimDuration demand = 0;  // weighted
  };
  bool IsTracked(TxnId id) const { return FindEntry(id) != entries_.end(); }
  Placement PlacementOf(TxnId id) const;

  // Total weighted demand currently registered on `cpu`.
  SimDuration QueuedDemand(int32_t cpu) const;

  // True when every demand node at/after `from_deadline` on `cpu` fits its
  // supply at `now` — the exact predicate Admit enforces for the admitted
  // query's lane (test/audit introspection).
  bool DemandFits(int32_t cpu, SimTime from_deadline, SimTime now) const;

  int32_t num_cpus() const { return num_cpus_; }
  const TenantSet& tenants() const { return tenants_; }

 private:
  // Summed weighted demand promised at one absolute deadline.
  struct Node {
    SimTime deadline = 0;
    SimDuration demand = 0;
  };
  // Deadline-sorted nodes of one CPU lane; at most one node per deadline.
  using Lane = std::vector<Node>;

  struct Entry {
    TxnId id = 0;
    int32_t cpu = -1;
    SimTime deadline = 0;
    SimDuration demand = 0;
    const Query* query = nullptr;
  };

  // A queued query the planner may evict for the incoming one.
  struct Candidate {
    double worth = 0.0;  // tier-adjusted
    TxnId id = 0;
    int32_t cpu = -1;
    SimTime deadline = 0;
    SimDuration demand = 0;
  };

  // Victims to shed: candidates_[begin, begin + size), all on lane `cpu`;
  // cpu is -1 when no lane can be made to fit.
  struct Plan {
    int32_t cpu = -1;
    size_t begin = 0;
    size_t size = 0;
  };

  // Eviction ranking, lower is shed first: residual expected profit
  // assuming immediate dispatch — the QoS profit still reachable given the
  // time already spent waiting, plus the QoD potential (which survives a
  // missed deadline under QoS-Independent contracts).
  static double Worth(const Query& query, SimTime now);

  // Weighted demand of `query` at `now`, or nullopt for best-effort
  // (no-deadline) queries.
  std::optional<Entry> DemandOf(const Query& query, SimTime now) const;
  // Feasibility of adding (deadline, demand) to `lane` at `now`.
  bool Fits(const Lane& lane, SimTime deadline, SimDuration demand,
            SimTime now) const;
  // The cheapest eviction plan that fits `want` (the demand of `query`).
  Plan PlanEviction(const Query& query, const Entry& want, SimTime now);
  std::vector<Entry>::const_iterator FindEntry(TxnId id) const;
  void Register(const Entry& entry);
  void Release(TxnId id);
  // Drop demand nodes whose deadline has passed; their queries either
  // already missed QoS (commit with QoD only) or will be lifetime-dropped,
  // and a node with non-positive supply would poison the lane forever.
  void PruneExpired(SimTime now);

  int32_t num_cpus_;
  double supply_factor_;
  TenantSet tenants_;

  std::vector<Lane> lanes_;  // indexed by CPU
  // Tracked queries, ascending by TxnId. Ids grow with submission, so
  // Register appends.
  std::vector<Entry> entries_;
  // Planner buffers, reused across Admit calls: the eviction candidates
  // sorted by (cpu, worth, id), and one lane's demand minus the plan so far.
  std::vector<Candidate> candidates_;
  Lane residual_;

  int64_t rejected_ = 0;
  int64_t shed_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_SCHED_ADMISSION_H_
