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
    : QualityContract(SharedZeroProfitFunction(), SharedZeroProfitFunction(),
                      QcCombination::kQosIndependent) {}

QualityContract::QualityContract(
    std::shared_ptr<const ProfitFunction> qos_fn,
    std::shared_ptr<const ProfitFunction> qod_fn, QcCombination combination)
    : qos_fn_(std::move(qos_fn)),
      qod_fn_(std::move(qod_fn)),
      combination_(combination) {
  WEBDB_CHECK(*std::get_if<kSharedFn>(&qos_fn_) != nullptr &&
              *std::get_if<kSharedFn>(&qod_fn_) != nullptr);
}

QualityContract::QualityContract(ByValue, Function qos_fn, Function qod_fn,
                                 QcCombination combination)
    : qos_fn_(std::move(qos_fn)),
      qod_fn_(std::move(qod_fn)),
      combination_(combination) {}

QualityContract QualityContract::Make(QcShape shape, double qos_max,
                                      SimDuration rt_max, double qod_max,
                                      double uu_max,
                                      QcCombination combination) {
  WEBDB_CHECK(rt_max > 0);
  WEBDB_CHECK(uu_max > 0);
  const double rt_max_ms = ToMillis(rt_max);
  if (shape == QcShape::kStep) {
    return QualityContract(ByValue{}, StepProfitFunction(qos_max, rt_max_ms),
                           StepProfitFunction(qod_max, uu_max), combination);
  }
  return QualityContract(ByValue{}, LinearProfitFunction(qos_max, rt_max_ms),
                         LinearProfitFunction(qod_max, uu_max), combination);
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

std::string QualityContract::DebugString() const {
  std::ostringstream out;
  out << "QC{qos=" << qos_fn().DebugString()
      << ", qod=" << qod_fn().DebugString() << ", " << ToString(combination_)
      << "}";
  return out.str();
}

}  // namespace webdb
