// Name-keyed construction of every scheduler in the library, so benches,
// examples and tests can sweep policies uniformly.

#ifndef WEBDB_EXP_SCHEDULER_FACTORY_H_
#define WEBDB_EXP_SCHEDULER_FACTORY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/quts_scheduler.h"
#include "sched/admission.h"
#include "sched/cpu_set_scheduler.h"

namespace webdb {

enum class SchedulerKind {
  kFifo,        // single combined FIFO queue (Sec. 3.1)
  kUpdateHigh,  // UH: dual queue, updates preempt, VRD queries (Sec. 3.2)
  kQueryHigh,   // QH: dual queue, queries preempt, VRD queries (Sec. 3.2)
  kFifoUpdateHigh,  // FIFO-UH (Fig. 1)
  kFifoQueryHigh,   // FIFO-QH (Fig. 1)
  kQuts,        // QUTS (Sec. 4)
};

std::string ToString(SchedulerKind kind);

// Parses "fifo", "uh", "qh", "fifo-uh", "fifo-qh", "quts" (case-sensitive).
// Returns std::nullopt on unknown names; callers own the error message
// (ValidSchedulerNames below feeds a usage line).
std::optional<SchedulerKind> SchedulerKindFromName(const std::string& name);

// Every parseable name, in a stable order — for usage errors and sweeps.
std::vector<std::string> ValidSchedulerNames();

// CPU topology of a scheduler. The default (one CPU) is the paper's
// single-CPU server.
struct SchedulerTopology {
  int num_cpus = 1;
};

// Admission-control policy, declaratively (mirrors SchedulerKind).
enum class AdmissionKind {
  kAdmitAll,  // the paper's implicit policy (no controller at all)
  kQueueCap,  // reject past a fixed queue depth
  kDbf,       // demand-bound-function feasibility + load shedding
};

std::string ToString(AdmissionKind kind);

// Parses "admit-all", "queue-cap", "dbf".
std::optional<AdmissionKind> AdmissionKindFromName(const std::string& name);
std::vector<std::string> ValidAdmissionNames();

// Declarative description of an admission controller. Knobs only apply to
// the kinds that read them.
struct AdmissionSpec {
  AdmissionKind kind = AdmissionKind::kAdmitAll;
  // kQueueCap: maximum queued queries.
  int64_t queue_cap = 256;
  // kDbf: fraction of per-CPU wall-clock supply handed to queries.
  double supply_factor = 1.0;
  // kDbf: tenant tiers (demand weights). Default: one tier, weight 1.
  TenantSet tenants;
};

// Declarative description of a complete scheduler: policy kind + policy
// options + topology + admission. The one struct a bench or experiment
// needs to carry to describe "what schedules, on how many cores, and what
// gets in".
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kQuts;
  // Applies to kQuts, at any CPU count.
  QutsScheduler::Options quts;
  SchedulerTopology topology;
  AdmissionSpec admission;
};

// Constructs the admission controller an AdmissionSpec describes, sized for
// `num_cpus` demand lanes. Returns nullptr for kAdmitAll — the server's
// null-controller fast path is the genuine admit-all policy.
std::unique_ptr<AdmissionController> MakeAdmission(const AdmissionSpec& spec,
                                                   int num_cpus);

// Constructs the scheduler a spec describes, ready for WebDatabaseServer.
// kQuts runs one shard per CPU; every other kind is a single-CPU baseline,
// so num_cpus > 1 requires kQuts.
std::unique_ptr<CpuSetScheduler> MakeScheduler(const SchedulerSpec& spec);

// The four policies compared throughout Section 5.1.
std::vector<SchedulerKind> PaperSchedulers();

}  // namespace webdb

#endif  // WEBDB_EXP_SCHEDULER_FACTORY_H_
