#include "sched/dual_queue_scheduler.h"

#include "util/logging.h"

namespace webdb {

DualQueueScheduler::DualQueueScheduler(Options options)
    : options_(std::move(options)) {
  if (options_.update_policy == UpdatePolicy::kDemandWeighted) {
    WEBDB_CHECK(options_.item_weights != nullptr);
  }
  // One expression: GCC 12's LTO link of the appending form reported a
  // -Wstringop-overflow memcpy bound no path reaches.
  name_ = !options_.name.empty()
              ? options_.name
              : std::string(options_.high_side == TxnKind::kUpdate ? "UH"
                                                                   : "QH") +
                    "(" + ToString(options_.query_policy) + "/" +
                    ToString(options_.update_policy) + ")";
}

void DualQueueScheduler::Enqueue(Transaction* txn) {
  if (txn->kind == TxnKind::kQuery) {
    auto* query = static_cast<Query*>(txn);
    queries_.Push(query, QueryPriority(*query, options_.query_policy));
  } else {
    auto* update = static_cast<Update*>(txn);
    updates_.Push(update, UpdatePriority(*update, options_.update_policy,
                                         options_.item_weights));
  }
}

void DualQueueScheduler::OnQueryArrival(Query* query, SimTime) {
  Enqueue(query);
}

void DualQueueScheduler::OnUpdateArrival(Update* update, SimTime) {
  Enqueue(update);
}

void DualQueueScheduler::Requeue(Transaction* txn, SimTime) { Enqueue(txn); }

TxnQueue& DualQueueScheduler::HighQueue() {
  return options_.high_side == TxnKind::kQuery ? queries_ : updates_;
}

TxnQueue& DualQueueScheduler::LowQueue() {
  return options_.high_side == TxnKind::kQuery ? updates_ : queries_;
}

Transaction* DualQueueScheduler::PopNext(CpuId, SimTime) {
  Transaction* txn = HighQueue().Pop();
  return txn != nullptr ? txn : LowQueue().Pop();
}

bool DualQueueScheduler::ShouldPreempt(CpuId, const Transaction& running,
                                       SimTime) {
  // Preemption only across queues: a waiting high-kind transaction preempts
  // a running low-kind one. Within a queue execution is non-preemptive.
  return running.kind != options_.high_side && !HighQueue().Empty();
}

bool DualQueueScheduler::HasWork() const {
  return !queries_.Empty() || !updates_.Empty();
}

void DualQueueScheduler::RemoveQueued(Transaction* txn, SimTime) {
  (txn->kind == TxnKind::kQuery ? queries_ : updates_).Remove(txn);
}

std::unique_ptr<DualQueueScheduler> MakeUpdateHigh() {
  DualQueueScheduler::Options options;
  options.high_side = TxnKind::kUpdate;
  options.query_policy = QueryPolicy::kVrd;
  options.name = "UH";
  return std::make_unique<DualQueueScheduler>(options);
}

std::unique_ptr<DualQueueScheduler> MakeQueryHigh() {
  DualQueueScheduler::Options options;
  options.high_side = TxnKind::kQuery;
  options.query_policy = QueryPolicy::kVrd;
  options.name = "QH";
  return std::make_unique<DualQueueScheduler>(options);
}

std::unique_ptr<DualQueueScheduler> MakeFifoUpdateHigh() {
  DualQueueScheduler::Options options;
  options.high_side = TxnKind::kUpdate;
  options.query_policy = QueryPolicy::kFifo;
  options.name = "FIFO-UH";
  return std::make_unique<DualQueueScheduler>(options);
}

std::unique_ptr<DualQueueScheduler> MakeFifoQueryHigh() {
  DualQueueScheduler::Options options;
  options.high_side = TxnKind::kQuery;
  options.query_policy = QueryPolicy::kFifo;
  options.name = "FIFO-QH";
  return std::make_unique<DualQueueScheduler>(options);
}

}  // namespace webdb
