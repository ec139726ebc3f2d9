#include <gtest/gtest.h>

#include <stdexcept>

#include "photonics/splitter.hpp"
#include "photonics/wdm.hpp"

namespace oscs::photonics {
namespace {

TEST(SplitterTest, IdealEqualSplit) {
  const Splitter s(4);
  EXPECT_EQ(s.ways(), 4u);
  EXPECT_DOUBLE_EQ(s.per_port_transmission(), 0.25);
  EXPECT_DOUBLE_EQ(s.combine_transmission(), 0.25);
}

TEST(SplitterTest, ExcessLossAttenuatesEveryPort) {
  const Splitter s(2, 3.0);  // 3 dB excess
  EXPECT_NEAR(s.per_port_transmission(), 0.5 * 0.501187, 1e-6);
}

TEST(SplitterTest, SingleWayPassThrough) {
  const Splitter s(1);
  EXPECT_DOUBLE_EQ(s.per_port_transmission(), 1.0);
}

TEST(SplitterTest, Validation) {
  EXPECT_THROW(Splitter(0), std::invalid_argument);
  EXPECT_THROW(Splitter(2, -1.0), std::invalid_argument);
}

TEST(ChannelPlanTest, PaperSecVaGrid) {
  // n = 2, WLspacing = 1 nm, lambda_2 = 1550: channels 1548/1549/1550.
  const ChannelPlan plan = ChannelPlan::for_order(2, 1550.1, 0.1, 1.0);
  ASSERT_EQ(plan.count(), 3u);
  EXPECT_DOUBLE_EQ(plan.channel(0), 1548.0);
  EXPECT_DOUBLE_EQ(plan.channel(1), 1549.0);
  EXPECT_DOUBLE_EQ(plan.channel(2), 1550.0);
  EXPECT_DOUBLE_EQ(plan.spacing_nm(), 1.0);
  EXPECT_DOUBLE_EQ(plan.span_nm(), 2.0);
}

TEST(ChannelPlanTest, Eq5SpacingHoldsBetweenAllNeighbors) {
  const ChannelPlan plan(1550.0, 0.165, 7);
  for (std::size_t i = 1; i < plan.count(); ++i) {
    EXPECT_NEAR(plan.channel(i) - plan.channel(i - 1), 0.165, 1e-12) << i;
  }
}

TEST(ChannelPlanTest, FsrFitCheck) {
  const ChannelPlan plan(1550.0, 1.0, 17);  // span 16 nm
  EXPECT_TRUE(plan.fits_in_fsr(20.0, 0.1));
  EXPECT_FALSE(plan.fits_in_fsr(16.0, 0.1));
}

TEST(ChannelPlanTest, Validation) {
  EXPECT_THROW(ChannelPlan(1550.0, 0.0, 3), std::invalid_argument);
  EXPECT_THROW(ChannelPlan(1550.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(ChannelPlan(-1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(ChannelPlan::for_order(2, 1550.1, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ChannelPlan(2.0, 1.0, 5), std::invalid_argument);  // below 0
}

TEST(ChannelPlanTest, ChannelIndexOutOfRangeThrows) {
  const ChannelPlan plan(1550.0, 1.0, 3);
  EXPECT_THROW((void)plan.channel(3), std::out_of_range);
}

class PlanOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanOrderP, ForOrderBuildsOrderPlusOneChannels) {
  const std::size_t n = GetParam();
  const ChannelPlan plan = ChannelPlan::for_order(n, 1550.1, 0.1, 0.165);
  EXPECT_EQ(plan.count(), n + 1);
  EXPECT_NEAR(plan.channel(n), 1550.0, 1e-12);
  EXPECT_NEAR(plan.span_nm(), 0.165 * static_cast<double>(n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, PlanOrderP,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u, 12u, 16u));

}  // namespace
}  // namespace oscs::photonics
