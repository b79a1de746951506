#include "db/staleness.h"

#include <algorithm>

#include "util/logging.h"

namespace webdb {

std::string ToString(StalenessMetric metric) {
  switch (metric) {
    case StalenessMetric::kUnappliedUpdates:
      return "uu";
    case StalenessMetric::kUnappliedArrivals:
      return "uu-raw";
    case StalenessMetric::kTimeDifferential:
      return "td";
    case StalenessMetric::kValueDistance:
      return "vd";
  }
  return "?";
}

std::string ToString(StalenessCombiner combiner) {
  switch (combiner) {
    case StalenessCombiner::kMax:
      return "max";
    case StalenessCombiner::kSum:
      return "sum";
    case StalenessCombiner::kAvg:
      return "avg";
  }
  return "?";
}

double ItemStaleness(const Database& db, ItemId id, StalenessMetric metric,
                     SimTime now) {
  switch (metric) {
    case StalenessMetric::kUnappliedUpdates:
      // At most one unapplied update survives invalidation per item.
      return db.UnappliedCount(id) > 0 ? 1.0 : 0.0;
    case StalenessMetric::kUnappliedArrivals:
      return static_cast<double>(db.UnappliedCount(id));
    case StalenessMetric::kTimeDifferential:
      return ToMillis(db.TimeDifferential(id, now));
    case StalenessMetric::kValueDistance:
      return db.ValueDistance(id);
  }
  WEBDB_CHECK_MSG(false, "unknown staleness metric");
  return 0.0;
}

double QueryStaleness(const Database& db, std::span<const ItemId> items,
                      StalenessMetric metric, StalenessCombiner combiner,
                      SimTime now) {
  if (items.empty()) return 0.0;
  double acc = 0.0;
  for (ItemId id : items) {
    const double s = ItemStaleness(db, id, metric, now);
    acc = combiner == StalenessCombiner::kMax ? std::max(acc, s) : acc + s;
  }
  if (combiner == StalenessCombiner::kAvg) {
    acc /= static_cast<double>(items.size());
  }
  return acc;
}

}  // namespace webdb
