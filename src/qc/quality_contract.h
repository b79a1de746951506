// Quality Contracts (Section 2.2 of the paper).
//
// A QC attaches two non-increasing profit functions to a query: one over
// response time (QoS) and one over staleness (QoD). Evaluating the contract
// at commit time yields the profit the server earns from that query.
//
// Two combination modes are supported:
//  - QoS-Independent (paper default): QoD profit is earned regardless of the
//    QoS outcome, as long as the query commits before its lifetime deadline
//    (the deadline itself is enforced by the server, not the contract).
//  - QoS-Dependent: QoD profit is earned only when the QoS profit is > 0.

#ifndef WEBDB_QC_QUALITY_CONTRACT_H_
#define WEBDB_QC_QUALITY_CONTRACT_H_

#include <memory>
#include <string>
#include <type_traits>
#include <variant>

#include "qc/profit_function.h"
#include "util/logging.h"
#include "util/time.h"

namespace webdb {

enum class QcShape { kStep, kLinear };
enum class QcCombination { kQosIndependent, kQosDependent };

std::string ToString(QcShape shape);
std::string ToString(QcCombination combination);

class QualityContract {
 public:
  struct Evaluation {
    double qos = 0.0;
    double qod = 0.0;
    double Total() const { return qos + qod; }
  };

  // Zero contract: no profit on either dimension.
  QualityContract();

  // Contract from arbitrary (immutable) profit functions. The QoS function's
  // domain is response time in milliseconds; the QoD function's domain is the
  // configured staleness metric (#uu by default).
  QualityContract(std::shared_ptr<const ProfitFunction> qos_fn,
                  std::shared_ptr<const ProfitFunction> qod_fn,
                  QcCombination combination);

  // Four-parameter contracts of the paper (Figures 2 and 3).
  static QualityContract Make(QcShape shape, double qos_max,
                              SimDuration rt_max, double qod_max,
                              double uu_max,
                              QcCombination combination =
                                  QcCombination::kQosIndependent);

  // QoS profit for the given response time.
  double QosProfit(SimDuration response_time) const {
    WEBDB_CHECK(response_time >= 0);
    const double ms = ToMillis(response_time);
    return Visit(qos_fn_, [ms](const auto& fn) { return fn.Profit(ms); });
  }
  // QoD profit for the given staleness (ignores the combination mode).
  double QodProfit(double staleness) const {
    return Visit(qod_fn_,
                 [staleness](const auto& fn) { return fn.Profit(staleness); });
  }

  // Combined evaluation honoring the combination mode.
  Evaluation Evaluate(SimDuration response_time, double staleness) const;

  double qos_max() const {
    return Visit(qos_fn_, [](const auto& fn) { return fn.MaxProfit(); });
  }
  double qod_max() const {
    return Visit(qod_fn_, [](const auto& fn) { return fn.MaxProfit(); });
  }
  double total_max() const { return qos_max() + qod_max(); }

  // Relative QC deadline: response time at/after which QoS profit is zero.
  // The cast truncates: Make stores rt_max / 1000.0 milliseconds, and for
  // 0.74% of microsecond values (e.g. 64002) the product comes back 1 us
  // short. The DBF deadline, the EDF and profit-density priorities and the
  // lifetime anchor all read this value, so correcting it moves schedules;
  // it is kept bit-for-bit until a change that re-pins them.
  SimDuration rt_max() const {
    return static_cast<SimDuration>(
        Visit(qos_fn_, [](const auto& fn) { return fn.Cutoff(); }) * 1000.0);
  }
  // Staleness at/after which QoD profit is zero.
  double uu_max() const {
    return Visit(qod_fn_, [](const auto& fn) { return fn.Cutoff(); });
  }

  QcCombination combination() const { return combination_; }

  const ProfitFunction& qos_fn() const { return FunctionOf(qos_fn_); }
  const ProfitFunction& qod_fn() const { return FunctionOf(qod_fn_); }

  std::string DebugString() const;

 private:
  // One dimension's profit function. The paper's two shapes are held by
  // value, so building, copying and evaluating a Make() contract allocates
  // nothing and follows no pointer; every other function (ParseQcSpec's,
  // exp-decay, piecewise, the shared zero function, user subclasses) keeps
  // a shared immutable handle.
  using Function = std::variant<StepProfitFunction, LinearProfitFunction,
                                std::shared_ptr<const ProfitFunction>>;
  enum : size_t { kStepFn = 0, kLinearFn = 1, kSharedFn = 2 };

  // Calls `f` on the function `fn` holds, dispatching on index(): an inline
  // shape as its final class, so the call is direct and inlinable, and a
  // shared handle as a ProfitFunction, through the vtable.
  template <typename F>
  static std::invoke_result_t<F&, const ProfitFunction&> Visit(
      const Function& fn, F&& f) {
    switch (fn.index()) {
      case kStepFn:
        return f(*std::get_if<kStepFn>(&fn));
      case kLinearFn:
        return f(*std::get_if<kLinearFn>(&fn));
      default:
        return f(**std::get_if<kSharedFn>(&fn));
    }
  }
  static const ProfitFunction& FunctionOf(const Function& fn) {
    return Visit(fn, [](const ProfitFunction& f) -> const ProfitFunction& {
      return f;
    });
  }

  // Make's constructor. The tag keeps it out of overload resolution for
  // callers passing shared_ptr<Derived>, which would otherwise find both
  // constructors one user-defined conversion away.
  struct ByValue {};
  QualityContract(ByValue, Function qos_fn, Function qod_fn,
                  QcCombination combination);

  Function qos_fn_;
  Function qod_fn_;
  QcCombination combination_;
};

}  // namespace webdb

#endif  // WEBDB_QC_QUALITY_CONTRACT_H_
