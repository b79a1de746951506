#include "sched/fifo_scheduler.h"

namespace webdb {

namespace {
// Earlier arrival first; requeued transactions (which only exist after 2PL-HP
// restarts, FIFO itself never preempts) keep their original arrival order.
// Updates order by fifo_rank rather than arrival: the register table has one
// entry per item, so a superseding update keeps the superseded one's
// position in the combined queue too.
double FifoPriority(const Transaction& txn) {
  if (txn.kind == TxnKind::kUpdate) {
    return -static_cast<double>(static_cast<const Update&>(txn).fifo_rank);
  }
  return -static_cast<double>(txn.arrival);
}
}  // namespace

int64_t& FifoScheduler::CounterFor(const Transaction& txn) {
  return txn.kind == TxnKind::kQuery ? queued_queries_ : queued_updates_;
}

void FifoScheduler::OnQueryArrival(Query* query, SimTime) {
  queue_.Push(query, FifoPriority(*query));
  ++queued_queries_;
}

void FifoScheduler::OnUpdateArrival(Update* update, SimTime) {
  queue_.Push(update, FifoPriority(*update));
  ++queued_updates_;
}

void FifoScheduler::Requeue(Transaction* txn, SimTime) {
  queue_.Push(txn, FifoPriority(*txn));
  ++CounterFor(*txn);
}

Transaction* FifoScheduler::PopNext(CpuId, SimTime) {
  Transaction* txn = queue_.Pop();
  if (txn != nullptr) --CounterFor(*txn);
  return txn;
}

bool FifoScheduler::ShouldPreempt(CpuId, const Transaction&, SimTime) {
  return false;  // non-preemptive
}

bool FifoScheduler::HasWork() const { return !queue_.Empty(); }

void FifoScheduler::RemoveQueued(Transaction* txn, SimTime) {
  queue_.Remove(txn);
  --CounterFor(*txn);
}

}  // namespace webdb
