#include "core/quts_scheduler.h"

#include <algorithm>

#include "core/rho.h"
#include "obs/metric_registry.h"
#include "util/logging.h"
#include "util/seed.h"

namespace webdb {

namespace {

TxnKind Other(TxnKind kind) {
  return kind == TxnKind::kQuery ? TxnKind::kUpdate : TxnKind::kQuery;
}

}  // namespace

QutsScheduler::QutsScheduler(Options options, int num_cpus)
    : options_(options), steal_rng_(DeriveSeed(options.seed, 0xC0DE)) {
  WEBDB_CHECK(num_cpus >= 1);
  WEBDB_CHECK(options_.atom_time > 0);
  WEBDB_CHECK(options_.adaptation_period > 0);
  WEBDB_CHECK(options_.alpha > 0.0 && options_.alpha <= 1.0);
  WEBDB_CHECK(options_.initial_rho >= 0.0 && options_.initial_rho <= 1.0);
  WEBDB_CHECK(options_.scan_atom_factor > 0.0);
  if (options_.update_policy == UpdatePolicy::kDemandWeighted) {
    WEBDB_CHECK(options_.item_weights != nullptr);
  }
  shards_.reserve(num_cpus);
  for (int s = 0; s < num_cpus; ++s) {
    shards_.emplace_back(ShardSeed(options_.seed, s, num_cpus),
                         options_.initial_rho);
  }
  // Item -> shard placement must not correlate with the per-shard ξ
  // streams; salt it with a distinct derived constant.
  uint64_t salt_state = DeriveSeed(options_.seed, 0x5A17);
  shard_salt_ = SplitMix64Next(salt_state);
  rho_series_.emplace_back(0, options_.initial_rho);
}

uint64_t QutsScheduler::ShardSeed(uint64_t base_seed, int shard,
                                  int shard_count) {
  // One CPU keeps the paper scheduler's ξ stream; with several, each
  // shard's stream depends only on (base seed, shard index).
  return shard_count == 1 ? base_seed : DeriveSeed(base_seed, shard);
}

int QutsScheduler::ShardOfItem(ItemId item) const {
  if (shards_.size() == 1) return 0;
  uint64_t state = shard_salt_ ^ (static_cast<uint64_t>(item) + 1);
  return static_cast<int>(SplitMix64Next(state) % shards_.size());
}

int QutsScheduler::ShardOf(const Transaction& txn) const {
  if (txn.kind == TxnKind::kUpdate) {
    return ShardOfItem(static_cast<const Update&>(txn).item);
  }
  const auto& query = static_cast<const Query&>(txn);
  WEBDB_CHECK(!query.items.empty());
  return ShardOfItem(query.items[0]);
}

double QutsScheduler::rho() const {
  double sum = 0.0;
  for (const Shard& shard : shards_) sum += shard.rho;
  return sum / static_cast<double>(shards_.size());
}

void QutsScheduler::MaybeAdapt(SimTime now) {
  const SimDuration period = options_.adaptation_period;
  if (now < window_start_ + period) return;
  if (options_.freeze_rho) {
    // No adaptation; just keep the window anchor moving so the math stays
    // bounded on long runs.
    window_start_ += ((now - window_start_) / period) * period;
    for (Shard& shard : shards_) {
      shard.window_qos_max = 0.0;
      shard.window_qod_max = 0.0;
    }
    return;
  }
  while (now >= window_start_ + period) {
    // Eq. 5 on the window that just closed, fleet-wide and per shard. A
    // window with no QoD demand pushes toward ρ = 1; a window with no
    // submissions at all leaves ρ untouched (nothing to learn).
    double total_qos = 0.0;
    double total_qod = 0.0;
    for (const Shard& shard : shards_) {
      total_qos += shard.window_qos_max;
      total_qod += shard.window_qod_max;
    }
    const double total_mass = total_qos + total_qod;
    if (total_mass > 0.0) {
      const double global_opt =
          total_qod > 0.0 ? OptimalRho(total_qos, total_qod) : 1.0;
      for (Shard& shard : shards_) {
        const double mass = shard.window_qos_max + shard.window_qod_max;
        double local_opt = global_opt;
        if (shard.window_qod_max > 0.0) {
          local_opt = OptimalRho(shard.window_qos_max, shard.window_qod_max);
        } else if (shard.window_qos_max > 0.0) {
          local_opt = 1.0;
        }
        // Trust the local estimate in proportion to the shard's share of
        // the window's profit mass relative to a fair split: a shard
        // carrying at least 1/S of the demand uses its own optimum, an
        // idle shard inherits the global one. One shard: weight 1 exactly.
        const double weight = std::min(
            1.0, mass * static_cast<double>(shards_.size()) / total_mass);
        const double target =
            weight * local_opt + (1.0 - weight) * global_opt;
        shard.rho = SmoothRho(shard.rho, target, options_.alpha);  // Eq. 6
      }
    }
    for (Shard& shard : shards_) {
      shard.window_qos_max = 0.0;
      shard.window_qod_max = 0.0;
    }
    window_start_ += period;
    ++adaptations_;
    rho_series_.emplace_back(window_start_, rho());
  }
}

TxnKind QutsScheduler::DrawSide(Shard& shard, SimTime now) {
  TxnKind drawn;
  if (options_.slicing == QutsSlicing::kRandom) {
    const double xi = shard.rng.NextDouble();
    drawn = xi < shard.rho ? TxnKind::kQuery : TxnKind::kUpdate;
  } else {
    shard.slice_credit += shard.rho;
    if (shard.slice_credit >= 1.0) {
      shard.slice_credit -= 1.0;
      drawn = TxnKind::kQuery;
    } else {
      drawn = TxnKind::kUpdate;
    }
  }
  shard.atom_expiry = now + AtomLength(shard, drawn);
  ++shard.redraws;
  return drawn;
}

SimDuration QutsScheduler::AtomLength(const Shard& shard, TxnKind side) const {
  if (options_.scan_atom_factor == 1.0 || side != TxnKind::kQuery) {
    return options_.atom_time;
  }
  const Transaction* head = shard.queries.Peek();
  if (head == nullptr) return options_.atom_time;
  return AtomLengthFor(*head);
}

SimDuration QutsScheduler::AtomLengthFor(const Transaction& txn) const {
  if (options_.scan_atom_factor == 1.0 || txn.kind != TxnKind::kQuery ||
      ServiceClassOf(static_cast<const Query&>(txn).type) !=
          ServiceClass::kScan) {
    return options_.atom_time;
  }
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(options_.scan_atom_factor *
                                  static_cast<double>(options_.atom_time)));
}

void QutsScheduler::Redraw(Shard& shard, SimTime now) {
  shard.side = DrawSide(shard, now);
  // If the picked queue is empty the state changes immediately (Table 2:
  // "or the current running queue is empty"): fall over to the other side.
  // This is the idle-CPU path (PopNext), so the queues alone decide.
  if (shard.QueueFor(shard.side).Empty() &&
      !shard.QueueFor(Other(shard.side)).Empty()) {
    shard.side = Other(shard.side);
  }
}

Transaction* QutsScheduler::PopFromShard(Shard& shard, SimTime now) {
  if (now >= shard.atom_expiry) Redraw(shard, now);
  Transaction* txn = shard.QueueFor(shard.side).Pop();
  if (txn != nullptr) return txn;
  // The picked queue is empty: immediate state change to the other side.
  const TxnKind other = Other(shard.side);
  txn = shard.QueueFor(other).Pop();
  if (txn != nullptr) {
    shard.side = other;
    shard.atom_expiry = now + AtomLengthFor(*txn);
  }
  return txn;
}

void QutsScheduler::OnQueryArrival(Query* query, SimTime now) {
  MaybeAdapt(now);
  Shard& shard = shards_[ShardOf(*query)];
  shard.window_qos_max += query->qc.qos_max();
  shard.window_qod_max += query->qc.qod_max();
  shard.queries.Push(query, QueryPriority(*query, options_.query_policy));
}

void QutsScheduler::OnUpdateArrival(Update* update, SimTime now) {
  MaybeAdapt(now);
  shards_[ShardOf(*update)].updates.Push(
      update,
      UpdatePriority(*update, options_.update_policy, options_.item_weights));
}

void QutsScheduler::Requeue(Transaction* txn, SimTime now) {
  MaybeAdapt(now);
  Shard& shard = shards_[ShardOf(*txn)];
  if (txn->kind == TxnKind::kQuery) {
    auto* query = static_cast<Query*>(txn);
    shard.queries.Push(query, QueryPriority(*query, options_.query_policy));
  } else {
    auto* update = static_cast<Update*>(txn);
    shard.updates.Push(update, UpdatePriority(*update, options_.update_policy,
                                              options_.item_weights));
  }
}

Transaction* QutsScheduler::PopNext(CpuId cpu, SimTime now) {
  WEBDB_DCHECK(cpu >= 0 && cpu < num_shards());
  MaybeAdapt(now);
  Transaction* txn = PopFromShard(shards_[cpu], now);
  if (txn != nullptr || shards_.size() == 1) return txn;
  return Steal(cpu, now);
}

Transaction* QutsScheduler::Steal(CpuId thief, SimTime now) {
  // The scan start comes from a dedicated stream so victims rotate instead
  // of shard (home+1) absorbing every thief; the scan itself is
  // ascending-with-wraparound, so a (seed, event sequence) pair fully
  // determines the victim.
  const uint64_t count = shards_.size();
  const uint64_t start = steal_rng_.NextU64() % count;
  for (uint64_t i = 0; i < count; ++i) {
    const auto victim = static_cast<CpuId>((start + i) % count);
    if (victim == thief || shards_[victim].Empty()) continue;
    Transaction* txn = PopFromShard(shards_[victim], now);
    if (txn != nullptr) {
      ++steals_;
      return txn;
    }
  }
  return nullptr;
}

bool QutsScheduler::ShouldPreempt(CpuId cpu, const Transaction& running,
                                  SimTime now) {
  WEBDB_DCHECK(cpu >= 0 && cpu < num_shards());
  // Mid-atom the queue priority is fixed: no preemption before the atom
  // expires (that bound on switching frequency is the whole point of τ).
  MaybeAdapt(now);
  Shard& shard = shards_[cpu];
  if (now < shard.atom_expiry) return false;
  // Atom boundary on this CPU's home shard: draw the next atom's side
  // (Table 2 — one draw per atom, consumed here). The running transaction,
  // stolen or not, counts as work on its side, so a draw for the running
  // side, or for a side with an empty queue, keeps the CPU where it is:
  // Table 2's immediate state change on an empty queue falls back to the
  // only non-empty "queue" — the one whose transaction is running.
  const TxnKind drawn = DrawSide(shard, now);
  if (drawn == running.kind || shard.QueueFor(drawn).Empty()) {
    shard.side = running.kind;
    return false;
  }
  shard.side = drawn;
  return true;
}

SimTime QutsScheduler::NextDecisionTime(CpuId cpu, SimTime now) {
  // A wake-up is only useful if some transaction is waiting to take over at
  // the atom boundary.
  if (!HasWork()) return kSimTimeMax;
  // An already-expired atom means the boundary decision is due at the next
  // scheduling event, which ShouldPreempt/PopNext handle by redrawing; a
  // wake-up at `now` would be a zero-delay event that can respin every
  // step without making progress. Clamp to a full atom from now — the
  // redraw that any intervening scheduling event performs moves the expiry
  // to the same point.
  const SimTime expiry = shards_[cpu].atom_expiry;
  if (expiry <= now) return now + options_.atom_time;
  return expiry;
}

bool QutsScheduler::HasWork() const {
  for (const Shard& shard : shards_) {
    if (!shard.Empty()) return true;
  }
  return false;
}

int64_t QutsScheduler::NumQueuedQueries() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<int64_t>(shard.queries.Size());
  }
  return total;
}

int64_t QutsScheduler::NumQueuedUpdates() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<int64_t>(shard.updates.Size());
  }
  return total;
}

void QutsScheduler::RemoveQueued(Transaction* txn, SimTime) {
  shards_[ShardOf(*txn)].QueueFor(txn->kind).Remove(txn);
}

int QutsScheduler::FusionDomain(const Query& query) const {
  WEBDB_CHECK(!query.items.empty());
  const int home = ShardOfItem(query.items[0]);
  for (size_t i = 1; i < query.items.size(); ++i) {
    if (ShardOfItem(query.items[i]) != home) return -1;
  }
  return home;
}

int QutsScheduler::RendezvousDomain(const Query& query) {
  const int domain = FusionDomain(query);
  return domain >= 0 ? domain : num_shards();
}

void QutsScheduler::ExportStats(MetricRegistry& registry) const {
  CpuSetScheduler::ExportStats(registry);
  int64_t redraws = 0;
  for (const Shard& shard : shards_) redraws += shard.redraws;
  registry.GetGauge("scheduler.quts.rho").Set(rho());
  registry.GetGauge("scheduler.quts.adaptations")
      .Set(static_cast<double>(adaptations_));
  registry.GetGauge("scheduler.quts.atom.redraws")
      .Set(static_cast<double>(redraws));
  registry.GetGauge("scheduler.quts.steals")
      .Set(static_cast<double>(steals_));
  registry.GetGauge("scheduler.quts.shards")
      .Set(static_cast<double>(shards_.size()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    registry.GetGauge("scheduler.quts.shard" + std::to_string(s) + ".rho")
        .Set(shards_[s].rho);
  }
}

}  // namespace webdb
