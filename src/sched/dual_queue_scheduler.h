// Preemptive dual-priority-queue schedulers with a fixed high side
// (Section 3.2): Update-High (UH) and Query-High (QH), plus the naive
// FIFO-UH / FIFO-QH variants used in the paper's introduction (Figure 1).
//
// The high-side queue preempts the low side: whenever a transaction of the
// high kind is waiting, a running low-kind transaction is preempted
// (preempt-resume; 2PL-HP data conflicts, resolved by the server, turn this
// into a restart). Within each queue the configured low-level policy orders
// transactions; the paper's configuration is VRD for queries, FIFO for
// updates. Every configuration schedules one CPU.

#ifndef WEBDB_SCHED_DUAL_QUEUE_SCHEDULER_H_
#define WEBDB_SCHED_DUAL_QUEUE_SCHEDULER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sched/cpu_set_scheduler.h"
#include "sched/query_policy.h"
#include "sched/txn_queue.h"
#include "sched/update_policy.h"

namespace webdb {

class DualQueueScheduler final : public CpuSetScheduler {
 public:
  struct Options {
    TxnKind high_side = TxnKind::kUpdate;
    QueryPolicy query_policy = QueryPolicy::kVrd;
    UpdatePolicy update_policy = UpdatePolicy::kFifo;
    // Required when update_policy == kDemandWeighted; not owned, must
    // outlive the scheduler.
    const std::vector<double>* item_weights = nullptr;
    // Display name; empty derives one from the configuration.
    std::string name;
  };

  explicit DualQueueScheduler(Options options);

  std::string Name() const override { return name_; }
  int num_cpus() const override { return 1; }

  void OnQueryArrival(Query* query, SimTime now) override;
  void OnUpdateArrival(Update* update, SimTime now) override;
  void Requeue(Transaction* txn, SimTime now) override;
  Transaction* PopNext(CpuId cpu, SimTime now) override;
  bool ShouldPreempt(CpuId cpu, const Transaction& running,
                     SimTime now) override;
  bool HasWork() const override;
  int64_t NumQueuedQueries() const override {
    return static_cast<int64_t>(queries_.Size());
  }
  int64_t NumQueuedUpdates() const override {
    return static_cast<int64_t>(updates_.Size());
  }
  void RemoveQueued(Transaction* txn, SimTime now) override;

  size_t QueryQueueSize() const { return queries_.Size(); }
  size_t UpdateQueueSize() const { return updates_.Size(); }

 private:
  void Enqueue(Transaction* txn);
  TxnQueue& HighQueue();
  TxnQueue& LowQueue();

  Options options_;
  std::string name_;
  TxnQueue queries_;
  TxnQueue updates_;
};

// The four named configurations used in the paper.
std::unique_ptr<DualQueueScheduler> MakeUpdateHigh();    // UH
std::unique_ptr<DualQueueScheduler> MakeQueryHigh();     // QH
std::unique_ptr<DualQueueScheduler> MakeFifoUpdateHigh();  // FIFO-UH (Fig. 1)
std::unique_ptr<DualQueueScheduler> MakeFifoQueryHigh();   // FIFO-QH (Fig. 1)

}  // namespace webdb

#endif  // WEBDB_SCHED_DUAL_QUEUE_SCHEDULER_H_
