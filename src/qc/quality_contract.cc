#include "qc/quality_contract.h"

#include <sstream>

#include "util/logging.h"

namespace webdb {

std::string ToString(QcShape shape) {
  return shape == QcShape::kStep ? "step" : "linear";
}

std::string ToString(QcCombination combination) {
  return combination == QcCombination::kQosIndependent ? "qos-independent"
                                                       : "qos-dependent";
}

QualityContract::QualityContract()
    : qos_fn_(SharedZeroProfitFunction()),
      qod_fn_(qos_fn_),
      combination_(QcCombination::kQosIndependent) {}

QualityContract::QualityContract(
    std::shared_ptr<const ProfitFunction> qos_fn,
    std::shared_ptr<const ProfitFunction> qod_fn, QcCombination combination)
    : qos_fn_(std::move(qos_fn)),
      qod_fn_(std::move(qod_fn)),
      combination_(combination) {
  WEBDB_CHECK(qos_fn_ != nullptr && qod_fn_ != nullptr);
}

QualityContract QualityContract::Make(QcShape shape, double qos_max,
                                      SimDuration rt_max, double qod_max,
                                      double uu_max,
                                      QcCombination combination) {
  WEBDB_CHECK(rt_max > 0);
  WEBDB_CHECK(uu_max > 0);
  const double rt_max_ms = ToMillis(rt_max);
  std::shared_ptr<const ProfitFunction> qos, qod;
  if (shape == QcShape::kStep) {
    qos = std::make_shared<StepProfitFunction>(qos_max, rt_max_ms);
    qod = std::make_shared<StepProfitFunction>(qod_max, uu_max);
  } else {
    qos = std::make_shared<LinearProfitFunction>(qos_max, rt_max_ms);
    qod = std::make_shared<LinearProfitFunction>(qod_max, uu_max);
  }
  return QualityContract(std::move(qos), std::move(qod), combination);
}

double QualityContract::QosProfit(SimDuration response_time) const {
  WEBDB_CHECK(response_time >= 0);
  return qos_fn_->Profit(ToMillis(response_time));
}

double QualityContract::QodProfit(double staleness) const {
  return qod_fn_->Profit(staleness);
}

QualityContract::Evaluation QualityContract::Evaluate(
    SimDuration response_time, double staleness) const {
  Evaluation eval;
  eval.qos = QosProfit(response_time);
  eval.qod = QodProfit(staleness);
  if (combination_ == QcCombination::kQosDependent && eval.qos <= 0.0) {
    eval.qod = 0.0;
  }
  return eval;
}

SimDuration QualityContract::rt_max() const {
  return static_cast<SimDuration>(qos_fn_->Cutoff() * 1000.0);
}

std::string QualityContract::DebugString() const {
  std::ostringstream out;
  out << "QC{qos=" << qos_fn_->DebugString()
      << ", qod=" << qod_fn_->DebugString() << ", " << ToString(combination_)
      << "}";
  return out.str();
}

}  // namespace webdb
