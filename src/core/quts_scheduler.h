// QUTS — Query-Update Time-Sharing, the paper's two-level scheduler
// (Section 4, pseudo-code in Table 2), on one CPU or several.
//
// High level: the query CPU share ρ is re-derived every adaptation period ω
// from the QCs submitted during the previous period (Eq. 5) and smoothed
// with aging factor α (Eq. 6). Time is sliced into atoms of length τ; at
// each atom boundary (or whenever the picked queue empties) the query queue
// is chosen with probability ρ, the update queue otherwise.
//
// Low level: each queue orders its transactions independently — VRD for
// queries and FIFO for updates by default, any policy from
// sched/query_policy.h / sched/update_policy.h otherwise.
//
// CPUs: the scheduler runs one shard per CPU, and CPU c's home shard is c.
// Each shard is the whole Table 2 machine — its own dual queues, ρ, atom
// clock, slicing accumulator and ξ stream. The paper's single-CPU scheduler
// is the one-shard case. With several shards three mechanisms sit on top:
//
//   * Placement. The symbol space is hash-partitioned across shards. A
//     transaction's home shard is the shard of its first item (queries) or
//     its item (updates); restarts and preempt-resumes always requeue home.
//
//   * Global ρ allocation. Shard windows share one adaptation clock. At
//     each boundary every shard derives its local Eq. 5 optimum and blends
//     it with the fleet-wide optimum, weighted by the shard's fraction of
//     the window's submitted profit mass: busy shards trust their local
//     demand mix, idle shards inherit the global share. The blend then ages
//     through Eq. 6. With one shard the blend is the local optimum.
//
//   * Pull-based work stealing. A CPU whose home shard is empty on both
//     sides steals from the first non-empty victim, scanning shards in
//     ascending order from a start drawn from a dedicated seeded stream.
//     The steal pops through the victim's own side logic, so the victim's
//     ρ split holds even under stealing.
//
// Seeds: with one CPU the shard draws ξ from options.seed, so the paper
// scheduler's stream is unchanged; with several, shard s draws from
// DeriveSeed(seed, s). The steal stream and the placement salt also derive
// from the base seed (util/seed.h), and the server drives CPUs in fixed
// ascending order, so a (seed, trace) pair determines the schedule at any
// CPU count.
//
// Adaptation is processed lazily: every entry point first folds in the
// adaptation-period boundaries that elapsed since the last call, so the
// scheduler needs no direct handle on the simulator; the server wakes each
// CPU at its shard's atom boundary via NextDecisionTime().

#ifndef WEBDB_CORE_QUTS_SCHEDULER_H_
#define WEBDB_CORE_QUTS_SCHEDULER_H_

#include <string>
#include <utility>
#include <vector>

#include "sched/cpu_set_scheduler.h"
#include "sched/query_policy.h"
#include "sched/txn_queue.h"
#include "sched/update_policy.h"
#include "util/rng.h"
#include "util/time.h"

namespace webdb {

// How the side of each atom is chosen from ρ.
enum class QutsSlicing {
  kRandom,         // Table 2: ξ ~ U[0,1), query side iff ξ < ρ (paper)
  kDeterministic,  // error-accumulator (Bresenham) slicing: same long-run
                   // share, no variance — an ablation of the paper's
                   // randomized choice
};

class QutsScheduler final : public CpuSetScheduler {
 public:
  struct Options {
    SimDuration atom_time = Millis(10);         // τ (paper default)
    SimDuration adaptation_period = Millis(1000);  // ω (paper default)
    double alpha = 0.2;     // aging factor (paper: "a small value")
    double initial_rho = 0.75;
    QutsSlicing slicing = QutsSlicing::kRandom;
    // When true, ρ stays at initial_rho forever (Eq. 5-6 adaptation off).
    // Used to validate the Eq. 3 profit model: sweep a forced ρ and compare
    // the measured profit curve against QOSmax·ρ + QODmax·ρ(1-ρ).
    bool freeze_rho = false;
    // Class-aware atom sizing (DESIGN.md §13): when the query-side head is
    // a scan-class query (moving-average / aggregation), the atom opening
    // on the query side runs for scan_atom_factor * τ, so heavy scans — and
    // the fusion groups riding on them — finish within one atom instead of
    // paying extra preempt/resume switches. 1.0 (the default) disables the
    // scaling bit-for-bit.
    double scan_atom_factor = 1.0;
    QueryPolicy query_policy = QueryPolicy::kVrd;
    UpdatePolicy update_policy = UpdatePolicy::kFifo;
    const std::vector<double>* item_weights = nullptr;
    uint64_t seed = 42;     // base seed of the ξ, steal and placement streams
  };

  // One shard per CPU; num_cpus must be at least 1.
  explicit QutsScheduler(Options options, int num_cpus = 1);

  std::string Name() const override { return "QUTS"; }
  int num_cpus() const override { return num_shards(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  void OnQueryArrival(Query* query, SimTime now) override;
  void OnUpdateArrival(Update* update, SimTime now) override;
  void Requeue(Transaction* txn, SimTime now) override;
  Transaction* PopNext(CpuId cpu, SimTime now) override;
  bool ShouldPreempt(CpuId cpu, const Transaction& running,
                     SimTime now) override;
  SimTime NextDecisionTime(CpuId cpu, SimTime now) override;
  bool HasWork() const override;
  int64_t NumQueuedQueries() const override;
  int64_t NumQueuedUpdates() const override;
  void RemoveQueued(Transaction* txn, SimTime now) override;

  // Fusion is per-shard: the domain is the home shard when every item of
  // the query lives there, -1 (never share) when the item set spans shards.
  int FusionDomain(const Query& query) const override;

  // Cross-shard rendezvous (DESIGN.md §14): FusionDomain's answer, or
  // num_shards() for a query spanning shards, so every query may share.
  int RendezvousDomain(const Query& query) override;

  // Generic queue gauges plus scheduler.quts.{rho, adaptations,
  // atom.redraws, steals, shards} and per-shard scheduler.quts.shard<k>.rho;
  // rho is the plain mean of the shard values.
  void ExportStats(MetricRegistry& registry) const override;

  // Plain mean ρ across shards (the single shard's ρ on one CPU).
  double rho() const;
  double rho(int shard) const { return shards_[shard].rho; }
  // Side owning shard `shard`'s current atom.
  TxnKind current_side(int shard = 0) const { return shards_[shard].side; }
  // (time, mean ρ) at construction and at every adaptation boundary
  // (Figure 9d); frozen runs hold only the initial point.
  const std::vector<std::pair<SimTime, double>>& rho_series() const {
    return rho_series_;
  }
  int64_t steals() const { return steals_; }
  const Options& options() const { return options_; }

  // Home shard of a transaction: shard of its first item (query) or its
  // item (update). Exposed for the determinism tests.
  int ShardOf(const Transaction& txn) const;
  int ShardOfItem(ItemId item) const;

  // Seed of shard `shard`'s ξ stream: the base seed itself when there is
  // one shard, DeriveSeed(base_seed, shard) otherwise.
  static uint64_t ShardSeed(uint64_t base_seed, int shard, int shard_count);

 private:
  // One Table 2 machine: the high-level state and the two low-level queues.
  struct Shard {
    Rng rng;  // ξ draws
    double rho;
    double slice_credit = 0.0;  // deterministic slicing accumulator
    TxnKind side = TxnKind::kQuery;
    SimTime atom_expiry = 0;  // <= now means "no atom in progress"
    double window_qos_max = 0.0;
    double window_qod_max = 0.0;
    int64_t redraws = 0;  // atoms started (side redraws)
    TxnQueue queries;
    TxnQueue updates;

    Shard(uint64_t seed, double initial_rho) : rng(seed), rho(initial_rho) {}

    TxnQueue& QueueFor(TxnKind kind) {
      return kind == TxnKind::kQuery ? queries : updates;
    }
    bool Empty() const { return queries.Empty() && updates.Empty(); }
  };

  // Folds in every adaptation boundary elapsed up to `now` (Eq. 5-6),
  // rebalancing each shard's ρ through the global allocator.
  void MaybeAdapt(SimTime now);
  // Draws the shard's next atom side from its ρ (ξ in random mode, the
  // credit accumulator in deterministic mode) and starts a fresh atom. Does
  // not commit the side: the caller decides how an empty drawn queue falls
  // over (idle CPU vs a running transaction occupying its side).
  TxnKind DrawSide(Shard& shard, SimTime now);
  // Idle-CPU redraw: commits the drawn side, falling over to the other side
  // if the drawn queue is empty and the other is not.
  void Redraw(Shard& shard, SimTime now);
  // Idle-CPU pop from one shard: redraw at an expired atom, then pop the
  // current side, falling over to the other side when it is empty.
  Transaction* PopFromShard(Shard& shard, SimTime now);
  // Home shard dry: pop from another shard's side logic, or nullptr.
  Transaction* Steal(CpuId thief, SimTime now);
  // Atom length for an atom opening on `side`: τ, scaled by
  // scan_atom_factor when a scan-class query heads the shard's query queue.
  SimDuration AtomLength(const Shard& shard, TxnKind side) const;
  SimDuration AtomLengthFor(const Transaction& txn) const;

  Options options_;
  std::vector<Shard> shards_;
  Rng steal_rng_;
  uint64_t shard_salt_;

  SimTime window_start_ = 0;
  int64_t adaptations_ = 0;  // Eq. 5-6 boundaries folded in so far
  int64_t steals_ = 0;
  std::vector<std::pair<SimTime, double>> rho_series_;
};

}  // namespace webdb

#endif  // WEBDB_CORE_QUTS_SCHEDULER_H_
