// Staleness metrics (Section 2.1) and per-query combiners.
//
// A query touches a set of items; its staleness is a combination of the
// per-item staleness values. The paper measures staleness in number of
// unapplied updates (#uu); time differential and value distance are also
// supported for the ablation benches.

#ifndef WEBDB_DB_STALENESS_H_
#define WEBDB_DB_STALENESS_H_

#include <span>
#include <string>

#include "db/database.h"

namespace webdb {

enum class StalenessMetric {
  // #uu (paper default): unapplied updates still *in the system*. Because a
  // new arrival invalidates any pending update on the same item, at most one
  // live unapplied update exists per item, so the per-item value is 0 or 1.
  // (This is what makes the paper's sub-1.0 average staleness and
  // uu_max = 1 contracts meaningful.)
  kUnappliedUpdates,
  // Raw count of update arrivals not yet reflected in the value, including
  // superseded (dropped) ones — "how many changes did I miss" (ablation).
  kUnappliedArrivals,
  kTimeDifferential,  // td, in milliseconds
  kValueDistance,     // vd
};

enum class StalenessCombiner {
  kMax,  // worst item determines the query's staleness (default)
  kSum,
  kAvg,
};

std::string ToString(StalenessMetric metric);
std::string ToString(StalenessCombiner combiner);

// Per-item staleness under `metric` (td reported in milliseconds so all
// metrics live on comparable human-scale numbers).
double ItemStaleness(const Database& db, ItemId id, StalenessMetric metric,
                     SimTime now);

// Combined staleness of a query over `items`. An empty item set is fresh.
double QueryStaleness(const Database& db, std::span<const ItemId> items,
                      StalenessMetric metric, StalenessCombiner combiner,
                      SimTime now);

}  // namespace webdb

#endif  // WEBDB_DB_STALENESS_H_
