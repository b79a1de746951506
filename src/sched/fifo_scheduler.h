// Plain FIFO on a single combined queue (Section 3.1): queries and updates
// execute strictly in arrival order, non-preemptively, on one CPU.

#ifndef WEBDB_SCHED_FIFO_SCHEDULER_H_
#define WEBDB_SCHED_FIFO_SCHEDULER_H_

#include <string>

#include "sched/cpu_set_scheduler.h"
#include "sched/txn_queue.h"

namespace webdb {

class FifoScheduler final : public CpuSetScheduler {
 public:
  FifoScheduler() = default;

  std::string Name() const override { return "FIFO"; }
  int num_cpus() const override { return 1; }

  void OnQueryArrival(Query* query, SimTime now) override;
  void OnUpdateArrival(Update* update, SimTime now) override;
  void Requeue(Transaction* txn, SimTime now) override;
  Transaction* PopNext(CpuId cpu, SimTime now) override;
  bool ShouldPreempt(CpuId cpu, const Transaction& running,
                     SimTime now) override;
  bool HasWork() const override;
  int64_t NumQueuedQueries() const override { return queued_queries_; }
  int64_t NumQueuedUpdates() const override { return queued_updates_; }
  void RemoveQueued(Transaction* txn, SimTime now) override;

 private:
  int64_t& CounterFor(const Transaction& txn);

  TxnQueue queue_;
  int64_t queued_queries_ = 0;
  int64_t queued_updates_ = 0;
};

}  // namespace webdb

#endif  // WEBDB_SCHED_FIFO_SCHEDULER_H_
