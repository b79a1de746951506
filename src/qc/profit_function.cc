#include "qc/profit_function.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace webdb {

StepProfitFunction::StepProfitFunction(double max_profit, double cutoff)
    : max_profit_(max_profit), cutoff_(cutoff) {
  WEBDB_CHECK(max_profit >= 0.0);
  WEBDB_CHECK(cutoff > 0.0);
}

std::string StepProfitFunction::DebugString() const {
  std::ostringstream out;
  out << "step(max=$" << max_profit_ << ", cutoff=" << cutoff_ << ")";
  return out.str();
}

LinearProfitFunction::LinearProfitFunction(double max_profit, double cutoff)
    : max_profit_(max_profit), cutoff_(cutoff) {
  WEBDB_CHECK(max_profit >= 0.0);
  WEBDB_CHECK(cutoff > 0.0);
}

std::string LinearProfitFunction::DebugString() const {
  std::ostringstream out;
  out << "linear(max=$" << max_profit_ << ", cutoff=" << cutoff_ << ")";
  return out.str();
}

PiecewiseLinearProfitFunction::PiecewiseLinearProfitFunction(
    std::vector<Point> points)
    : points_(std::move(points)) {
  WEBDB_CHECK(!points_.empty());
  WEBDB_CHECK(points_.front().x >= 0.0);
  for (size_t i = 0; i < points_.size(); ++i) {
    WEBDB_CHECK(points_[i].profit >= 0.0);
    if (i > 0) {
      WEBDB_CHECK_MSG(points_[i].x > points_[i - 1].x,
                      "control points must have strictly ascending x");
      WEBDB_CHECK_MSG(points_[i].profit <= points_[i - 1].profit,
                      "profit must be non-increasing");
    }
  }
}

double PiecewiseLinearProfitFunction::Profit(double x) const {
  WEBDB_CHECK(x >= 0.0);
  if (x <= points_.front().x) return points_.front().profit;
  if (x >= points_.back().x) return 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (x <= points_[i].x) {
      const Point& a = points_[i - 1];
      const Point& b = points_[i];
      const double frac = (x - a.x) / (b.x - a.x);
      return a.profit + frac * (b.profit - a.profit);
    }
  }
  return 0.0;
}

double PiecewiseLinearProfitFunction::MaxProfit() const {
  return points_.front().profit;
}

double PiecewiseLinearProfitFunction::Cutoff() const {
  return points_.back().x;
}

std::string PiecewiseLinearProfitFunction::DebugString() const {
  std::ostringstream out;
  out << "piecewise(";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) out << ' ';
    out << points_[i].x << ":" << points_[i].profit;
  }
  out << ")";
  return out.str();
}

ExponentialDecayProfitFunction::ExponentialDecayProfitFunction(
    double max_profit, double scale, double floor_ratio)
    : max_profit_(max_profit), scale_(scale) {
  WEBDB_CHECK(max_profit >= 0.0);
  WEBDB_CHECK(scale > 0.0);
  WEBDB_CHECK(floor_ratio > 0.0 && floor_ratio < 1.0);
  cutoff_ = scale * -std::log(floor_ratio);
}

double ExponentialDecayProfitFunction::Profit(double x) const {
  WEBDB_CHECK(x >= 0.0);
  if (x >= cutoff_) return 0.0;
  return max_profit_ * std::exp(-x / scale_);
}

std::string ExponentialDecayProfitFunction::DebugString() const {
  std::ostringstream out;
  out << "exp-decay(max=$" << max_profit_ << ", scale=" << scale_ << ")";
  return out.str();
}

std::shared_ptr<const ProfitFunction> SharedZeroProfitFunction() {
  static const ZeroProfitFunction zero;
  // Aliasing constructor over an empty owner: the pointer shares no control
  // block, so copies of it cost no allocation and no atomic count.
  return std::shared_ptr<const ProfitFunction>(
      std::shared_ptr<const ProfitFunction>(), &zero);
}

bool IsNonIncreasing(const ProfitFunction& fn, double hi, int samples) {
  WEBDB_CHECK(hi > 0.0 && samples >= 2);
  double prev = fn.Profit(0.0);
  if (prev < 0.0) return false;
  for (int i = 1; i < samples; ++i) {
    const double x = hi * static_cast<double>(i) /
                     static_cast<double>(samples - 1);
    const double p = fn.Profit(x);
    if (p < 0.0 || p > prev + 1e-12) return false;
    prev = p;
  }
  return true;
}

}  // namespace webdb
