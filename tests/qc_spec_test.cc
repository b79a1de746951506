#include "qc/qc_spec.h"

#include <ostream>
#include <string>

#include <gtest/gtest.h>

namespace webdb {
namespace {

TEST(QcSpecTest, ParsesFigure2StepContract) {
  QualityContract qc;
  std::string error;
  ASSERT_TRUE(ParseQcSpec("step qos=$1@50ms qod=$2@1", &qc, &error)) << error;
  EXPECT_DOUBLE_EQ(qc.qos_max(), 1.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 2.0);
  EXPECT_EQ(qc.rt_max(), Millis(50));
  EXPECT_DOUBLE_EQ(qc.uu_max(), 1.0);
  EXPECT_EQ(qc.combination(), QcCombination::kQosIndependent);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(10)), 1.0);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(60)), 0.0);
}

TEST(QcSpecTest, ParsesLinearWithSecondsAndMode) {
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("linear qos=2@0.05s qod=1@2 mode=dependent", &qc));
  EXPECT_EQ(qc.rt_max(), Millis(50));
  EXPECT_EQ(qc.combination(), QcCombination::kQosDependent);
  EXPECT_DOUBLE_EQ(qc.QosProfit(Millis(25)), 1.0);  // linear midpoint
}

TEST(QcSpecTest, ParsesExpShape) {
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("exp qos=4@20ms qod=6@1", &qc));
  EXPECT_DOUBLE_EQ(qc.qos_max(), 4.0);
  // exp decay: at x == scale the profit is max/e.
  EXPECT_NEAR(qc.QosProfit(Millis(20)), 4.0 / 2.718281828, 1e-6);
}

TEST(QcSpecTest, OmittedDimensionIsZero) {
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("step qos=10@100ms", &qc));
  EXPECT_DOUBLE_EQ(qc.qos_max(), 10.0);
  EXPECT_DOUBLE_EQ(qc.qod_max(), 0.0);
}

TEST(QcSpecTest, MoneyWithoutDollarSign) {
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("step qos=7.5@10ms", &qc));
  EXPECT_DOUBLE_EQ(qc.qos_max(), 7.5);
}

TEST(QcSpecTest, BareNumberDurationDefaultsToMs) {
  QualityContract qc;
  ASSERT_TRUE(ParseQcSpec("step qos=1@75", &qc));
  EXPECT_EQ(qc.rt_max(), Millis(75));
}

struct BadSpec {
  const char* name;  // the case's test-name suffix
  const char* spec;
  const char* expect_in_error;
};

// CMake's test discovery copies gtest's printout of the parameter into the
// ctest name. Printed by default, a BadSpec is its pointers' bytes, which
// differ from build to build.
void PrintTo(const BadSpec& bad, std::ostream* os) {
  *os << '"' << bad.spec << '"';
}

class QcSpecErrorTest : public ::testing::TestWithParam<BadSpec> {};

TEST_P(QcSpecErrorTest, Rejects) {
  QualityContract qc;
  std::string error;
  EXPECT_FALSE(ParseQcSpec(GetParam().spec, &qc, &error));
  EXPECT_NE(error.find(GetParam().expect_in_error), std::string::npos)
      << "error was: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    BadSpecs, QcSpecErrorTest,
    ::testing::Values(
        BadSpec{"Empty", "", "empty"},
        BadSpec{"UnknownShape", "triangle qos=1@1ms", "unknown shape"},
        BadSpec{"MissingValue", "step qos", "key=value"},
        BadSpec{"MissingCutoff", "step qos=1", "profit@cutoff"},
        BadSpec{"BadProfit", "step qos=abc@50ms", "bad profit"},
        BadSpec{"NegativeResponseTime", "step qos=1@-5ms",
                "bad response-time cutoff"},
        BadSpec{"BadStaleness", "step qod=1@zero", "bad staleness cutoff"},
        BadSpec{"BadMode", "step mode=sometimes", "bad mode"},
        BadSpec{"UnknownField", "step speed=1@1", "unknown field"}),
    [](const ::testing::TestParamInfo<BadSpec>& info) {
      return std::string(info.param.name);
    });

TEST(QcSpecTest, ErrorPointerOptional) {
  QualityContract qc;
  EXPECT_FALSE(ParseQcSpec("nonsense", &qc));  // must not crash
}

}  // namespace
}  // namespace webdb
