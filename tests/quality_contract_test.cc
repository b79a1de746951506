#include "qc/quality_contract.h"

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "qc/profit_function.h"

namespace webdb {
namespace {

TEST(QualityContractTest, DefaultIsZeroContract) {
  QualityContract qc;
  EXPECT_DOUBLE_EQ(qc.qos_max(), 0.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 0.0);
  EXPECT_DOUBLE_EQ(qc.total_max(), 0.0);
  const auto eval = qc.Evaluate(Millis(1), 0.0);
  EXPECT_DOUBLE_EQ(eval.Total(), 0.0);
}

TEST(QualityContractTest, DefaultContractsShareOneNonOwnedZeroFunction) {
  const QualityContract qc;
  const QualityContract other;
  const std::vector<QualityContract> copies(2, qc);
  const QualityContract::Evaluation eval = qc.Evaluate(Millis(7), 3.0);
  EXPECT_EQ(eval.qos, 0.0);
  EXPECT_EQ(eval.qod, 0.0);
  EXPECT_EQ(qc.rt_max(), 0);
  // Both dimensions, every default contract and every copy point at the
  // same function object...
  EXPECT_EQ(&qc.qos_fn(), &qc.qod_fn());
  EXPECT_EQ(&qc.qos_fn(), &other.qos_fn());
  EXPECT_EQ(&copies[1].qod_fn(), &qc.qos_fn());
  EXPECT_EQ(&qc.qos_fn(), SharedZeroProfitFunction().get());
  // ...held without a control block: nothing was allocated for it and no
  // reference count is shared between threads.
  EXPECT_EQ(SharedZeroProfitFunction().use_count(), 0);
}

TEST(QualityContractTest, StepContractFigure2) {
  // Figure 2: qos_max=$1, rt_max=50ms, qod_max=$2, uu_max=1.
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0);
  EXPECT_DOUBLE_EQ(qc.qos_max(), 1.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 2.0);
  EXPECT_EQ(qc.rt_max(), Millis(50));
  EXPECT_DOUBLE_EQ(qc.uu_max(), 1.0);

  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(20)), 1.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(0.0), 2.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1.0), 0.0);
}

TEST(QualityContractTest, LinearContractFigure3) {
  // Figure 3: qos_max=$2, rt_max=50ms, qod_max=$1, uu_max=2.
  const auto qc = QualityContract::Make(QcShape::kLinear, 2.0, Millis(50),
                                        1.0, 2.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(0), 2.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(25)), 1.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(50)), 0.0);
  EXPECT_DOUBLE_EQ(qc.QodProfit(1.0), 0.5);
  EXPECT_DOUBLE_EQ(qc.QodProfit(2.0), 0.0);
}

TEST(QualityContractTest, QosIndependentEarnsQodAfterDeadline) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0, QcCombination::kQosIndependent);
  const auto eval = qc.Evaluate(Millis(200), 0.0);  // late but fresh
  EXPECT_DOUBLE_EQ(eval.qos, 0.0);
  EXPECT_DOUBLE_EQ(eval.qod, 2.0);
  EXPECT_DOUBLE_EQ(eval.Total(), 2.0);
}

TEST(QualityContractTest, QosDependentForfeitsQodAfterDeadline) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0, QcCombination::kQosDependent);
  const auto late = qc.Evaluate(Millis(200), 0.0);
  EXPECT_DOUBLE_EQ(late.qod, 0.0);
  EXPECT_DOUBLE_EQ(late.Total(), 0.0);
  const auto in_time = qc.Evaluate(Millis(20), 0.0);
  EXPECT_DOUBLE_EQ(in_time.Total(), 3.0);
}

TEST(QualityContractTest, StaleQueryEarnsOnlyQos) {
  const auto qc = QualityContract::Make(QcShape::kStep, 1.0, Millis(50), 2.0,
                                        1.0);
  const auto eval = qc.Evaluate(Millis(10), 3.0);
  EXPECT_DOUBLE_EQ(eval.qos, 1.0);
  EXPECT_DOUBLE_EQ(eval.qod, 0.0);
}

TEST(QualityContractTest, MakeAndCopyAllocateNothing) {
  // Make holds the paper's shapes by value: building and copying such a
  // contract never touches the heap.
  for (QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    const int64_t before = AllocationCount();
    const auto a = QualityContract::Make(shape, 5.0, Millis(80), 7.0, 1.0);
    QualityContract b = a;
    const QualityContract c = b;
    b = c;
    EXPECT_EQ(AllocationCount() - before, 0) << ToString(shape);
    EXPECT_DOUBLE_EQ(c.qos_max(), 5.0);
    EXPECT_DOUBLE_EQ(c.qod_max(), 7.0);
  }
}

TEST(QualityContractTest, CopiesEvaluateLikeTheSharedHandleForm) {
  // A copy of a Make() contract, and the same contract built from shared
  // function objects (the virtual-call path), agree bit for bit on a grid
  // of response times and staleness values.
  for (QcShape shape : {QcShape::kStep, QcShape::kLinear}) {
    for (QcCombination mode :
         {QcCombination::kQosIndependent, QcCombination::kQosDependent}) {
      SCOPED_TRACE(ToString(shape) + " " + ToString(mode));
      const auto made =
          QualityContract::Make(shape, 3.0, Millis(64), 2.0, 2.0, mode);
      const QualityContract copy = made;
      std::shared_ptr<const ProfitFunction> qos, qod;
      if (shape == QcShape::kStep) {
        qos = std::make_shared<StepProfitFunction>(3.0, 64.0);
        qod = std::make_shared<StepProfitFunction>(2.0, 2.0);
      } else {
        qos = std::make_shared<LinearProfitFunction>(3.0, 64.0);
        qod = std::make_shared<LinearProfitFunction>(2.0, 2.0);
      }
      const QualityContract shared(qos, qod, mode);
      for (const QualityContract* qc : {&copy, &shared}) {
        EXPECT_EQ(qc->qos_max(), made.qos_max());
        EXPECT_EQ(qc->qod_max(), made.qod_max());
        EXPECT_EQ(qc->rt_max(), made.rt_max());
        EXPECT_EQ(qc->uu_max(), made.uu_max());
        EXPECT_EQ(qc->combination(), mode);
        for (SimDuration rt = 0; rt <= Millis(70); rt += Micros(250)) {
          for (double uu = 0.0; uu <= 3.0; uu += 0.125) {
            const QualityContract::Evaluation want = made.Evaluate(rt, uu);
            const QualityContract::Evaluation got = qc->Evaluate(rt, uu);
            EXPECT_EQ(got.qos, want.qos) << rt << " " << uu;
            EXPECT_EQ(got.qod, want.qod) << rt << " " << uu;
          }
        }
      }
    }
  }
}

TEST(QualityContractTest, CustomFunctionCopiesShareOneObject) {
  // Any other function stays behind its shared handle: copies point at the
  // very object the contract was built from.
  const auto qos = std::make_shared<ExponentialDecayProfitFunction>(4.0, 20.0);
  const auto qod = std::make_shared<PiecewiseLinearProfitFunction>(
      std::vector<PiecewiseLinearProfitFunction::Point>{{0.0, 2.0},
                                                        {4.0, 0.0}});
  const QualityContract a(qos, qod, QcCombination::kQosIndependent);
  const QualityContract b = a;
  EXPECT_EQ(&b.qos_fn(), qos.get());
  EXPECT_EQ(&b.qod_fn(), qod.get());
  EXPECT_EQ(&a.qos_fn(), &b.qos_fn());
  EXPECT_DOUBLE_EQ(b.QosProfit(0), 4.0);
  EXPECT_DOUBLE_EQ(b.QodProfit(2.0), 1.0);
}

TEST(QualityContractTest, DebugStringMentionsShapeAndMode) {
  const auto qc =
      QualityContract::Make(QcShape::kLinear, 1.0, Millis(50), 2.0, 1.0);
  const std::string s = qc.DebugString();
  EXPECT_NE(s.find("linear"), std::string::npos);
  EXPECT_NE(s.find("qos-independent"), std::string::npos);
}

TEST(QualityContractTest, ToStringHelpers) {
  EXPECT_EQ(ToString(QcShape::kStep), "step");
  EXPECT_EQ(ToString(QcShape::kLinear), "linear");
  EXPECT_EQ(ToString(QcCombination::kQosDependent), "qos-dependent");
}

// Property: evaluation never exceeds the contract maxima and is monotone in
// response time and staleness.
class ContractBoundsTest : public ::testing::TestWithParam<QcShape> {};

TEST_P(ContractBoundsTest, BoundedAndMonotone) {
  const auto qc =
      QualityContract::Make(GetParam(), 13.0, Millis(60), 17.0, 3.0);
  double prev_qos = 1e18;
  for (SimDuration rt = 0; rt <= Millis(120); rt += Millis(5)) {
    const double qos = qc.QosProfit(rt);
    EXPECT_GE(qos, 0.0);
    EXPECT_LE(qos, qc.qos_max());
    EXPECT_LE(qos, prev_qos);
    prev_qos = qos;
  }
  double prev_qod = 1e18;
  for (double uu = 0.0; uu <= 6.0; uu += 0.25) {
    const double qod = qc.QodProfit(uu);
    EXPECT_GE(qod, 0.0);
    EXPECT_LE(qod, qc.qod_max());
    EXPECT_LE(qod, prev_qod);
    prev_qod = qod;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ContractBoundsTest,
                         ::testing::Values(QcShape::kStep, QcShape::kLinear));

}  // namespace
}  // namespace webdb
