// Scheduler interface between the web-database server and the scheduling
// policies (baselines in src/sched, QUTS in src/core).
//
// The server owns a set of CPUs (sim/processor_pool.h) on one simulator
// clock, the transaction lifecycle and the locks; the scheduler owns the
// waiting queues and decides, per CPU, what runs next and when a running
// transaction yields. Every dispatch-side entry point takes the CpuId it is
// asked about:
//
//   arrival            -> OnQueryArrival / OnUpdateArrival   (CPU-agnostic:
//                         the scheduler routes work to its internal queues
//                         or shards itself)
//   CPU c idle         -> PopNext(c) to pick c's next transaction
//   after any arrival  -> ShouldPreempt(c, running) per busy CPU
//   preempt / restart  -> Requeue puts the transaction back in its queue
//   commit/drop/inval  -> OnTxnFinished
//   NextDecisionTime(c)-> per-CPU wake-up for time-sliced policies
//
// The paper's baselines (FIFO, UH/QH) schedule one CPU (num_cpus() == 1);
// QUTS schedules any number, one shard per CPU.
//
// Determinism contract: the server iterates CPUs in fixed ascending order,
// so any scheduler whose own decisions are seeded-deterministic yields
// bit-identical schedules across runs.

#ifndef WEBDB_SCHED_CPU_SET_SCHEDULER_H_
#define WEBDB_SCHED_CPU_SET_SCHEDULER_H_

#include <string>

#include "txn/transaction.h"
#include "util/time.h"

namespace webdb {

class MetricRegistry;

// Index of a CPU in the server's processor pool, 0 <= cpu < num_cpus.
using CpuId = int32_t;

class CpuSetScheduler {
 public:
  virtual ~CpuSetScheduler() = default;

  virtual std::string Name() const = 0;

  // Number of CPUs this scheduler dispatches for; fixed for its lifetime.
  // The server sizes its processor pool from this.
  virtual int num_cpus() const = 0;

  // A freshly arrived query/update enters the scheduler's queues. The
  // scheduler owns the routing (e.g. symbol-hash sharding).
  virtual void OnQueryArrival(Query* query, SimTime now) = 0;
  virtual void OnUpdateArrival(Update* update, SimTime now) = 0;

  // A preempted or restarted transaction re-enters its queue (its home
  // queue/shard — a transaction stolen by another CPU still requeues home).
  virtual void Requeue(Transaction* txn, SimTime now) = 0;

  // Pops the next transaction for CPU `cpu`, or nullptr when the scheduler
  // has nothing for that CPU.
  virtual Transaction* PopNext(CpuId cpu, SimTime now) = 0;

  // True when `running` (on CPU `cpu`) should be preempted in favor of
  // whatever PopNext(cpu) would return now. Must not pop.
  virtual bool ShouldPreempt(CpuId cpu, const Transaction& running,
                             SimTime now) = 0;

  // Next instant at which CPU `cpu`'s decision must be re-evaluated even
  // without an arrival (e.g. QUTS atom expiry). kSimTimeMax when
  // event-driven only.
  virtual SimTime NextDecisionTime(CpuId /*cpu*/, SimTime /*now*/) {
    return kSimTimeMax;
  }

  // A dispatched transaction left the system. Default: no-op.
  virtual void OnTxnFinished(const Transaction& /*txn*/, SimTime /*now*/) {}

  // Shared-execution domain of `query`. Only its sign is read: a
  // non-negative domain means "may share" (fuse or hit the result cache),
  // a negative one "never shares". The default (one global domain) suits
  // single-queue schedulers; QUTS returns the home shard when the whole
  // item set lives on one shard and -1 otherwise.
  virtual int FusionDomain(const Query& /*query*/) const { return 0; }

  // Consulted for queries FusionDomain rejects when
  // FusionConfig::cross_shard_rendezvous is on: non-negative lets them
  // share too. Default: no rendezvous (-1).
  virtual int RendezvousDomain(const Query& /*query*/) { return -1; }

  // True when at least one transaction is queued on any shard/queue.
  virtual bool HasWork() const = 0;

  // Aggregate queue depths across all internal queues/shards. O(1).
  virtual int64_t NumQueuedQueries() const = 0;
  virtual int64_t NumQueuedUpdates() const = 0;

  // Removes a queued transaction (query lifetime drop, update
  // invalidation) from whichever queue holds it.
  virtual void RemoveQueued(Transaction* txn, SimTime now) = 0;

  // Publishes scheduler state into `registry` under `scheduler.*` names.
  // Idempotent (gauges, last-write-wins): the server calls it at every
  // periodic snapshot and the experiment harness once at the end of a run.
  // The default exports the generic queue depths; policies with internal
  // state (QUTS) extend it.
  virtual void ExportStats(MetricRegistry& registry) const;
};

}  // namespace webdb

#endif  // WEBDB_SCHED_CPU_SET_SCHEDULER_H_
