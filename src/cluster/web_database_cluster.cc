#include "cluster/web_database_cluster.h"

#include <utility>

#include "util/logging.h"

namespace webdb {

WebDatabaseCluster::WebDatabaseCluster(int32_t num_items,
                                       SchedulerFactory scheduler_factory,
                                       ClusterConfig config)
    : config_(std::move(config)), selector_(config_.routing) {
  WEBDB_CHECK(config_.num_replicas >= 1);
  WEBDB_CHECK(scheduler_factory != nullptr);
  replicas_.reserve(static_cast<size_t>(config_.num_replicas));
  for (int i = 0; i < config_.num_replicas; ++i) {
    Replica replica;
    replica.db = std::make_unique<Database>(num_items);
    replica.scheduler = scheduler_factory();
    WEBDB_CHECK(replica.scheduler != nullptr);
    replica.server = std::make_unique<WebDatabaseServer>(
        &sim_, replica.db.get(), replica.scheduler.get(), config_.server);
    if (static_cast<size_t>(i) < config_.replica_delays.size()) {
      replica.delay = config_.replica_delays[static_cast<size_t>(i)];
      WEBDB_CHECK(replica.delay >= 0);
    }
    replicas_.push_back(std::move(replica));
  }
}

std::vector<ReplicaState> WebDatabaseCluster::SnapshotStates() const {
  std::vector<ReplicaState> states;
  states.reserve(replicas_.size());
  for (const Replica& replica : replicas_) {
    ReplicaState state;
    state.queued_queries = replica.scheduler->NumQueuedQueries();
    state.queued_updates = replica.scheduler->NumQueuedUpdates();
    state.cpu_busy = replica.server->IsCpuBusy();
    states.push_back(state);
  }
  return states;
}

Query* WebDatabaseCluster::SubmitQuery(QueryType type,
                                       std::span<const ItemId> items,
                                       QualityContract qc,
                                       SimDuration exec_time) {
  const size_t pick = selector_.Select(qc, exec_time, SnapshotStates());
  Replica& replica = replicas_[pick];
  ++replica.routed;
  return replica.server->SubmitQuery(type, items, std::move(qc), exec_time);
}

void WebDatabaseCluster::SubmitUpdate(ItemId item, double value,
                                      SimDuration exec_time) {
  for (Replica& replica : replicas_) {
    WebDatabaseServer* server = replica.server.get();
    if (replica.delay == 0) {
      server->SubmitUpdate(item, value, exec_time);
    } else {
      sim_.ScheduleAfter(replica.delay, [server, item, value, exec_time] {
        server->SubmitUpdate(item, value, exec_time);
      });
    }
  }
}

void WebDatabaseCluster::ReserveCapacity(size_t num_queries,
                                         size_t num_updates) {
  for (Replica& replica : replicas_) {
    replica.server->ReserveCapacity(num_queries, num_updates);
  }
}

const WebDatabaseServer& WebDatabaseCluster::replica(size_t i) const {
  WEBDB_CHECK(i < replicas_.size());
  return *replicas_[i].server;
}

WebDatabaseServer& WebDatabaseCluster::replica(size_t i) {
  WEBDB_CHECK(i < replicas_.size());
  return *replicas_[i].server;
}

int64_t WebDatabaseCluster::RoutedCount(size_t i) const {
  WEBDB_CHECK(i < replicas_.size());
  return replicas_[i].routed;
}

double WebDatabaseCluster::TotalGained() const {
  double total = 0.0;
  for (const Replica& replica : replicas_) {
    total += replica.server->ledger().total_gained();
  }
  return total;
}

double WebDatabaseCluster::TotalMax() const {
  double total = 0.0;
  for (const Replica& replica : replicas_) {
    total += replica.server->ledger().total_max();
  }
  return total;
}

double WebDatabaseCluster::TotalPct() const {
  const double max = TotalMax();
  return max <= 0.0 ? 0.0 : TotalGained() / max;
}

int64_t WebDatabaseCluster::TotalQueriesCommitted() const {
  int64_t total = 0;
  for (const Replica& replica : replicas_) {
    total += replica.server->metrics().queries_committed;
  }
  return total;
}

int64_t WebDatabaseCluster::TotalUpdatesApplied() const {
  int64_t total = 0;
  for (const Replica& replica : replicas_) {
    total += replica.server->metrics().updates_applied;
  }
  return total;
}

bool WebDatabaseCluster::IsQuiescent() const {
  for (const Replica& replica : replicas_) {
    if (!replica.server->IsQuiescent()) return false;
  }
  return true;
}

}  // namespace webdb
