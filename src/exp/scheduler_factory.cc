#include "exp/scheduler_factory.h"

#include "sched/dual_queue_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "util/logging.h"

namespace webdb {

std::string ToString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return "fifo";
    case SchedulerKind::kUpdateHigh:
      return "uh";
    case SchedulerKind::kQueryHigh:
      return "qh";
    case SchedulerKind::kFifoUpdateHigh:
      return "fifo-uh";
    case SchedulerKind::kFifoQueryHigh:
      return "fifo-qh";
    case SchedulerKind::kQuts:
      return "quts";
  }
  return "?";
}

namespace {

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kFifo,           SchedulerKind::kUpdateHigh,
    SchedulerKind::kQueryHigh,      SchedulerKind::kFifoUpdateHigh,
    SchedulerKind::kFifoQueryHigh,  SchedulerKind::kQuts,
};

}  // namespace

std::optional<SchedulerKind> SchedulerKindFromName(const std::string& name) {
  for (SchedulerKind kind : kAllKinds) {
    if (ToString(kind) == name) return kind;
  }
  return std::nullopt;
}

std::vector<std::string> ValidSchedulerNames() {
  std::vector<std::string> names;
  for (SchedulerKind kind : kAllKinds) names.push_back(ToString(kind));
  return names;
}

std::unique_ptr<CpuSetScheduler> MakeScheduler(const SchedulerSpec& spec) {
  const int num_cpus = spec.topology.num_cpus;
  WEBDB_CHECK(num_cpus >= 1);
  WEBDB_CHECK_MSG(num_cpus == 1 || spec.kind == SchedulerKind::kQuts,
                  "only QUTS schedules multi-core");
  switch (spec.kind) {
    case SchedulerKind::kFifo:
      return std::make_unique<FifoScheduler>();
    case SchedulerKind::kUpdateHigh:
      return MakeUpdateHigh();
    case SchedulerKind::kQueryHigh:
      return MakeQueryHigh();
    case SchedulerKind::kFifoUpdateHigh:
      return MakeFifoUpdateHigh();
    case SchedulerKind::kFifoQueryHigh:
      return MakeFifoQueryHigh();
    case SchedulerKind::kQuts:
      return std::make_unique<QutsScheduler>(spec.quts, num_cpus);
  }
  WEBDB_CHECK_MSG(false, "unknown scheduler kind");
  return nullptr;
}

std::string ToString(AdmissionKind kind) {
  switch (kind) {
    case AdmissionKind::kAdmitAll:
      return "admit-all";
    case AdmissionKind::kQueueCap:
      return "queue-cap";
    case AdmissionKind::kDbf:
      return "dbf";
  }
  return "?";
}

namespace {

constexpr AdmissionKind kAllAdmissionKinds[] = {
    AdmissionKind::kAdmitAll,
    AdmissionKind::kQueueCap,
    AdmissionKind::kDbf,
};

}  // namespace

std::optional<AdmissionKind> AdmissionKindFromName(const std::string& name) {
  for (AdmissionKind kind : kAllAdmissionKinds) {
    if (ToString(kind) == name) return kind;
  }
  return std::nullopt;
}

std::vector<std::string> ValidAdmissionNames() {
  std::vector<std::string> names;
  for (AdmissionKind kind : kAllAdmissionKinds) names.push_back(ToString(kind));
  return names;
}

std::unique_ptr<AdmissionController> MakeAdmission(const AdmissionSpec& spec,
                                                   int num_cpus) {
  WEBDB_CHECK(num_cpus >= 1);
  switch (spec.kind) {
    case AdmissionKind::kAdmitAll:
      return nullptr;
    case AdmissionKind::kQueueCap:
      return std::make_unique<QueueCapAdmission>(spec.queue_cap);
    case AdmissionKind::kDbf: {
      DbfAdmission::Options options;
      options.num_cpus = num_cpus;
      options.supply_factor = spec.supply_factor;
      options.tenants = spec.tenants;
      return std::make_unique<DbfAdmission>(std::move(options));
    }
  }
  WEBDB_CHECK_MSG(false, "unknown admission kind");
  return nullptr;
}

std::vector<SchedulerKind> PaperSchedulers() {
  return {SchedulerKind::kFifo, SchedulerKind::kUpdateHigh,
          SchedulerKind::kQueryHigh, SchedulerKind::kQuts};
}

}  // namespace webdb
