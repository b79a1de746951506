// Non-increasing profit functions, the building block of Quality Contracts
// (Section 2.2 of the paper).
//
// A profit function maps a quality metric value x >= 0 (response time in
// milliseconds for QoS, staleness for QoD) to a dollar profit. The paper
// studies step and linear shapes; arbitrary user-defined non-increasing
// functions are supported through the ProfitFunction interface.
//
// Cutoff semantics: profit is earned strictly below the cutoff. For the
// staleness axis this matches the paper's reading of uu_max = 1 as "QoD
// profit is gained only when no update is missed".

#ifndef WEBDB_QC_PROFIT_FUNCTION_H_
#define WEBDB_QC_PROFIT_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "util/logging.h"

namespace webdb {

class ProfitFunction {
 public:
  virtual ~ProfitFunction() = default;

  // Profit for metric value `x` (>= 0). Must be non-increasing in x and
  // non-negative.
  virtual double Profit(double x) const = 0;

  // Maximum attainable profit (== Profit(0)).
  virtual double MaxProfit() const = 0;

  // Smallest metric value at and beyond which the profit is zero.
  virtual double Cutoff() const = 0;

  virtual std::string DebugString() const = 0;
};

// profit(x) = max_profit for x < cutoff, else 0.
class StepProfitFunction final : public ProfitFunction {
 public:
  // Requires max_profit >= 0 and cutoff > 0.
  StepProfitFunction(double max_profit, double cutoff);

  // Inline: a contract holds this shape by value and calls it directly
  // (QualityContract), so evaluation follows no pointer.
  double Profit(double x) const override {
    WEBDB_CHECK(x >= 0.0);
    return x < cutoff_ ? max_profit_ : 0.0;
  }
  double MaxProfit() const override { return max_profit_; }
  double Cutoff() const override { return cutoff_; }
  std::string DebugString() const override;

 private:
  double max_profit_;
  double cutoff_;
};

// profit(x) = max_profit * (1 - x / cutoff) for x < cutoff, else 0.
class LinearProfitFunction final : public ProfitFunction {
 public:
  // Requires max_profit >= 0 and cutoff > 0.
  LinearProfitFunction(double max_profit, double cutoff);

  // Inline for the same reason as StepProfitFunction::Profit.
  double Profit(double x) const override {
    WEBDB_CHECK(x >= 0.0);
    return x < cutoff_ ? max_profit_ * (1.0 - x / cutoff_) : 0.0;
  }
  double MaxProfit() const override { return max_profit_; }
  double Cutoff() const override { return cutoff_; }
  std::string DebugString() const override;

 private:
  double max_profit_;
  double cutoff_;
};

// Piecewise-linear profit over explicit (metric, profit) control points:
// flat at points.front().profit before the first point, linear between
// consecutive points, 0 after the last. Generalizes both built-in shapes
// and lets service providers publish arbitrary tiered contracts.
class PiecewiseLinearProfitFunction final : public ProfitFunction {
 public:
  struct Point {
    double x;       // metric value
    double profit;  // profit at that value
  };

  // Requires: at least one point; strictly ascending x >= 0; non-increasing
  // non-negative profits.
  explicit PiecewiseLinearProfitFunction(std::vector<Point> points);

  double Profit(double x) const override;
  double MaxProfit() const override;
  double Cutoff() const override;
  std::string DebugString() const override;

 private:
  std::vector<Point> points_;
};

// profit(x) = max_profit * exp(-x / scale) above `floor_profit` share, then
// 0: a smooth "the sooner the better" contract with an explicit cutoff at
// the point where the decayed profit falls below floor_ratio * max_profit.
class ExponentialDecayProfitFunction final : public ProfitFunction {
 public:
  // Requires max_profit >= 0, scale > 0, 0 < floor_ratio < 1.
  ExponentialDecayProfitFunction(double max_profit, double scale,
                                 double floor_ratio = 0.01);

  double Profit(double x) const override;
  double MaxProfit() const override { return max_profit_; }
  double Cutoff() const override { return cutoff_; }
  std::string DebugString() const override;

 private:
  double max_profit_;
  double scale_;
  double cutoff_;
};

// A profit function that is identically zero (used for queries that attach
// no preference on one of the two quality dimensions).
class ZeroProfitFunction final : public ProfitFunction {
 public:
  ZeroProfitFunction() = default;

  double Profit(double) const override { return 0.0; }
  double MaxProfit() const override { return 0.0; }
  double Cutoff() const override { return 0.0; }
  std::string DebugString() const override { return "zero"; }
};

// The one shared ZeroProfitFunction: an immutable static behind a
// non-owning shared_ptr (no control block), so neither this call nor any
// copy of the pointer allocates or touches a reference count.
std::shared_ptr<const ProfitFunction> SharedZeroProfitFunction();

// Validates the non-increasing property by probing `fn` on a uniform grid of
// `samples` points over [0, hi]. Returns true when no increase is found.
// Used by tests and by debug assertions on user-supplied functions.
bool IsNonIncreasing(const ProfitFunction& fn, double hi, int samples);

}  // namespace webdb

#endif  // WEBDB_QC_PROFIT_FUNCTION_H_
