#include "optsc/link_budget.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "optsc/defaults.hpp"
#include "photonics/photodetector.hpp"

namespace oscs::optsc {
namespace {

TEST(LinkBudget, ChannelEyeIsOpenAtPaperGeometry) {
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  for (std::size_t i = 0; i <= 2; ++i) {
    const ChannelEye eye = budget.channel_eye(i);
    EXPECT_GT(eye.eye(), 0.3) << i;
    EXPECT_GT(eye.one_transmission, eye.zero_transmission) << i;
  }
  EXPECT_THROW((void)budget.channel_eye(3), std::out_of_range);
}

TEST(LinkBudget, PhysicalZeroLevelIsHigherThanEq8) {
  // The own-modulator residue dominates the physical '0' (Fig. 5c shows
  // ~0.09 mW of it); Eq. 8 as printed ignores it.
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget eq8(c, EyeModel::kPaperEq8);
  const LinkBudget phys(c, EyeModel::kPhysical);
  for (std::size_t i = 0; i <= 2; ++i) {
    EXPECT_GT(phys.channel_eye(i).zero_transmission,
              eq8.channel_eye(i).zero_transmission)
        << i;
    EXPECT_LT(phys.channel_eye(i).eye(), eq8.channel_eye(i).eye()) << i;
  }
}

TEST(LinkBudget, AnalysisAggregatesWorstChannel) {
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  const EyeAnalysis a = budget.analyze(1.0);
  ASSERT_EQ(a.per_channel.size(), 3u);
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& eye : a.per_channel) worst = std::min(worst, eye.eye());
  EXPECT_DOUBLE_EQ(a.eye_transmission, worst);
  EXPECT_GT(a.threshold_mw, a.zero_level_mw);
  EXPECT_LT(a.threshold_mw, a.one_level_mw);
}

TEST(LinkBudget, SnrLinearInProbePower) {
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  const double snr1 = budget.analyze(1.0).snr;
  const double snr2 = budget.analyze(2.0).snr;
  EXPECT_NEAR(snr2 / snr1, 2.0, 1e-9);
}

TEST(LinkBudget, BerDecreasesWithProbePower) {
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  double prev = 0.6;
  for (double probe : {0.01, 0.03, 0.1, 0.3, 1.0}) {
    const double ber = budget.analyze(probe).ber;
    EXPECT_LT(ber, prev) << probe;
    prev = ber;
  }
}

TEST(LinkBudget, MinProbePowerHitsTargetExactly) {
  const OpticalScCircuit c(paper_defaults());
  for (EyeModel model : {EyeModel::kPaperEq8, EyeModel::kPhysical}) {
    const LinkBudget budget(c, model);
    for (double target : {1e-2, 1e-4, 1e-6}) {
      const double probe = budget.min_probe_power_mw(target);
      ASSERT_TRUE(std::isfinite(probe));
      const double achieved = budget.analyze(probe).ber;
      EXPECT_NEAR(achieved / target, 1.0, 1e-6)
          << "model=" << static_cast<int>(model) << " target=" << target;
    }
  }
}

TEST(LinkBudget, FiftyPercentSavingBetweenBer2And6) {
  // Fig. 6b: BER 1e-2 needs ~half the probe power of 1e-6 (exactly the
  // SNR ratio, since power is linear in SNR).
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  const double ratio = budget.min_probe_power_mw(1e-2) /
                       budget.min_probe_power_mw(1e-6);
  EXPECT_NEAR(ratio, 0.489, 0.005);
}

TEST(LinkBudget, ClosedEyeGivesInfiniteMinPower) {
  // Squeeze the channels together until crosstalk closes the eye.
  CircuitParams p = paper_defaults(2, 0.05);  // 0.05 nm spacing: hopeless
  const OpticalScCircuit c(p);
  const LinkBudget budget(c, EyeModel::kPhysical);
  EXPECT_TRUE(std::isinf(budget.min_probe_power_mw(1e-6)));
}

TEST(LinkBudget, AnalyzeRejectsNonPositiveProbe) {
  const OpticalScCircuit c(paper_defaults());
  const LinkBudget budget(c);
  EXPECT_THROW(budget.analyze(0.0), std::invalid_argument);
}

TEST(LinkBudget, WiderSpacingOpensTheEye) {
  double prev_eye = 0.0;
  for (double spacing : {0.15, 0.3, 0.6, 1.0}) {
    const OpticalScCircuit c(paper_defaults(2, spacing));
    const LinkBudget budget(c, EyeModel::kPaperEq8);
    const double eye = budget.analyze(1.0).eye_transmission;
    EXPECT_GT(eye, prev_eye) << spacing;
    prev_eye = eye;
  }
}

class LinkBudgetOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinkBudgetOrderP, MiddleChannelsAreWorstCase) {
  // Edge channels have one neighbour, interior channels two: the worst
  // eye never sits on channel 0 or n for uniform grids with n >= 2.
  const std::size_t n = GetParam();
  const OpticalScCircuit c(paper_defaults(n, 0.3));
  const LinkBudget budget(c, EyeModel::kPaperEq8);
  const EyeAnalysis a = budget.analyze(1.0);
  EXPECT_GT(a.worst_channel, 0u);
  EXPECT_LT(a.worst_channel, n);
}

INSTANTIATE_TEST_SUITE_P(Orders, LinkBudgetOrderP,
                         ::testing::Values(2u, 3u, 4u, 6u));

}  // namespace
}  // namespace oscs::optsc
