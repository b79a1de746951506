// A replicated web-database: N replicas on one simulation clock,
// each holding a full copy of the data and applying the full update stream
// independently (the paper's model pushes all updates to all replicas as
// the master changes). Queries are routed to exactly one replica by a
// ReplicaSelector.
//
// Update propagation may carry a per-replica delivery delay, modelling the
// master-to-replica link; within a replica updates still arrive in source
// order (delays are per replica, not per message, so streams never
// reorder).

#ifndef WEBDB_CLUSTER_WEB_DATABASE_CLUSTER_H_
#define WEBDB_CLUSTER_WEB_DATABASE_CLUSTER_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/replica_selector.h"
#include "db/database.h"
#include "qc/quality_contract.h"
#include "sched/cpu_set_scheduler.h"
#include "server/server_config.h"
#include "server/web_database_server.h"
#include "sim/simulator.h"

namespace webdb {

struct ClusterConfig {
  int num_replicas = 2;
  ReplicaSelector::Options routing;
  // Per-replica server configuration (shared by all replicas).
  ServerConfig server;
  // Master-to-replica delivery delay per replica; missing entries default
  // to 0 (update visible to the replica instantly).
  std::vector<SimDuration> replica_delays;
};

class WebDatabaseCluster {
 public:
  // Builds one scheduler per replica. `scheduler_factory` must produce a
  // fresh scheduler on every call.
  using SchedulerFactory = std::function<std::unique_ptr<CpuSetScheduler>()>;

  WebDatabaseCluster(int32_t num_items, SchedulerFactory scheduler_factory,
                     ClusterConfig config);

  WebDatabaseCluster(const WebDatabaseCluster&) = delete;
  WebDatabaseCluster& operator=(const WebDatabaseCluster&) = delete;

  // Routes the query to one replica (per the routing policy) at the current
  // simulation time. Returns the created query on that replica.
  Query* SubmitQuery(QueryType type, std::span<const ItemId> items,
                     QualityContract qc, SimDuration exec_time);
  // Braced item lists, as in SubmitQuery(QueryType::kLookup, {0}, ...).
  Query* SubmitQuery(QueryType type, std::initializer_list<ItemId> items,
                     QualityContract qc, SimDuration exec_time) {
    return SubmitQuery(type, std::span<const ItemId>(items), std::move(qc),
                       exec_time);
  }

  // Fans the update out to every replica (honoring per-replica delays).
  void SubmitUpdate(ItemId item, double value, SimDuration exec_time);

  // Pre-sizes every replica's transaction pools for a workload of known
  // shape. Updates fan out to all replicas, so each
  // replica sees all `num_updates`; queries route to one replica, so
  // `num_queries` is a conservative per-replica bound. Performance hint.
  void ReserveCapacity(size_t num_queries, size_t num_updates);

  Simulator& sim() { return sim_; }
  void Run() { sim_.Run(); }

  size_t NumReplicas() const { return replicas_.size(); }
  const WebDatabaseServer& replica(size_t i) const;
  WebDatabaseServer& replica(size_t i);
  // Queries routed to replica i so far.
  int64_t RoutedCount(size_t i) const;

  // --- aggregates over all replicas ----------------------------------------
  double TotalGained() const;
  double TotalMax() const;
  // Earned fraction of the submitted maximum across the cluster.
  double TotalPct() const;
  int64_t TotalQueriesCommitted() const;
  int64_t TotalUpdatesApplied() const;
  bool IsQuiescent() const;

 private:
  struct Replica {
    std::unique_ptr<Database> db;
    std::unique_ptr<CpuSetScheduler> scheduler;
    std::unique_ptr<WebDatabaseServer> server;
    SimDuration delay = 0;
    int64_t routed = 0;
  };

  std::vector<ReplicaState> SnapshotStates() const;

  ClusterConfig config_;
  Simulator sim_;
  ReplicaSelector selector_;
  std::vector<Replica> replicas_;
};

}  // namespace webdb

#endif  // WEBDB_CLUSTER_WEB_DATABASE_CLUSTER_H_
