// Shared helpers for scheduler unit tests: hand-built queries/updates with
// stable ids, without going through a server.

#ifndef WEBDB_TESTS_TEST_TXNS_H_
#define WEBDB_TESTS_TEST_TXNS_H_

#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "qc/quality_contract.h"
#include "txn/transaction.h"
#include "util/time.h"

namespace webdb {

// Owns the item sets of hand-built queries. Query::items is a view: a
// server keeps its queries' items in its item arena, and a test keeps them
// here, alive as long as the ItemSets.
class ItemSets {
 public:
  std::span<const ItemId> Keep(std::vector<ItemId> items) {
    sets_.push_back(std::move(items));
    return sets_.back();
  }

 private:
  std::deque<std::vector<ItemId>> sets_;
};

// Pool that owns test transactions; returned pointers stay valid for its
// lifetime.
class TxnPool {
 public:
  Query* NewQuery(SimTime arrival, SimDuration service = Millis(5),
                  double qos_max = 10.0, double qod_max = 10.0,
                  SimDuration rt_max = Millis(50)) {
    auto query = std::make_unique<Query>();
    query->id = QueryTxnId(next_query_++);
    query->kind = TxnKind::kQuery;
    query->state = TxnState::kQueued;
    query->arrival = arrival;
    query->service_time = service;
    query->remaining = service;
    query->items = kItemZero;
    query->qc = QualityContract::Make(QcShape::kStep, qos_max, rt_max,
                                      qod_max, 1.0);
    queries_.push_back(std::move(query));
    return queries_.back().get();
  }

  // Points `query` at `items`, kept for the pool's lifetime.
  void SetItems(Query* query, std::vector<ItemId> items) {
    query->items = item_sets_.Keep(std::move(items));
  }

  Update* NewUpdate(SimTime arrival, SimDuration service = Millis(2),
                    ItemId item = 0) {
    auto update = std::make_unique<Update>();
    update->id = UpdateTxnId(next_update_++);
    update->kind = TxnKind::kUpdate;
    update->state = TxnState::kQueued;
    update->arrival = arrival;
    update->service_time = service;
    update->remaining = service;
    update->item = item;
    update->fifo_rank = arrival;
    updates_.push_back(std::move(update));
    return updates_.back().get();
  }

 private:
  static constexpr ItemId kItemZero[] = {0};

  uint64_t next_query_ = 0;
  uint64_t next_update_ = 0;
  std::vector<std::unique_ptr<Query>> queries_;
  std::vector<std::unique_ptr<Update>> updates_;
  ItemSets item_sets_;
};

}  // namespace webdb

#endif  // WEBDB_TESTS_TEST_TXNS_H_
