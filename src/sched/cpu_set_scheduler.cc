#include "sched/cpu_set_scheduler.h"

#include "obs/metric_registry.h"

namespace webdb {

void CpuSetScheduler::ExportStats(MetricRegistry& registry) const {
  registry.GetGauge("scheduler.queue.queries")
      .Set(static_cast<double>(NumQueuedQueries()));
  registry.GetGauge("scheduler.queue.updates")
      .Set(static_cast<double>(NumQueuedUpdates()));
}

}  // namespace webdb
