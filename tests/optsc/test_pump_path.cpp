#include "optsc/pump_path.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/units.hpp"

namespace oscs::optsc {
namespace {

photonics::Mzi paper_mzi() {
  return photonics::Mzi(Decibel(4.5), Decibel(13.22));
}

TEST(PumpPathTest, Validation) {
  EXPECT_THROW(PumpPath(paper_mzi(), 0), std::invalid_argument);
  EXPECT_THROW(PumpPath(paper_mzi(), 2, -1.0), std::invalid_argument);
}

TEST(PumpPathTest, Eq7aLevelsForOrderTwo) {
  const PumpPath path(paper_mzi(), 2);
  const double il = db_to_linear(-4.5);
  const double er = db_to_linear(-13.22);
  // k = 0: both constructive -> IL%.
  EXPECT_NEAR(path.transmission_for_count(0), il, 1e-12);
  // k = 2: both destructive -> IL% * ER%.
  EXPECT_NEAR(path.transmission_for_count(2), il * er, 1e-12);
  // k = 1: average of the two.
  EXPECT_NEAR(path.transmission_for_count(1), il * (1.0 + er) / 2.0, 1e-12);
}

TEST(PumpPathTest, TransmissionDependsOnlyOnOnesCount) {
  const PumpPath path(paper_mzi(), 3);
  EXPECT_DOUBLE_EQ(path.transmission({true, false, false}),
                   path.transmission({false, false, true}));
  EXPECT_DOUBLE_EQ(path.transmission({true, true, false}),
                   path.transmission({false, true, true}));
}

TEST(PumpPathTest, LevelsAreEvenlySpacedAndDecreasing) {
  // Linearity in k is what makes the WDM grid uniform (Eq. 5 <-> Eq. 7).
  const PumpPath path(paper_mzi(), 6);
  const double step = path.level_step();
  for (std::size_t k = 0; k < 6; ++k) {
    const double diff = path.transmission_for_count(k) -
                        path.transmission_for_count(k + 1);
    EXPECT_NEAR(diff, step, 1e-15) << k;
    EXPECT_GT(diff, 0.0);
  }
}

TEST(PumpPathTest, ControlPowerScalesWithPump) {
  const PumpPath path(paper_mzi(), 2);
  const double t0 = path.transmission_for_count(0);
  EXPECT_NEAR(path.control_power_mw(591.86, std::size_t{0}), 591.86 * t0,
              1e-9);
  EXPECT_NEAR(path.control_power_mw(591.86, {false, false}), 591.86 * t0,
              1e-9);
}

TEST(PumpPathTest, SecVaFullPowerReachesLambda0) {
  // 591.86 mW * IL% = 210 mW control power; at OTE 0.01 nm/mW that is
  // the 2.1 nm detuning from lambda_ref = 1550.1 down to lambda_0 = 1548.
  const PumpPath path(paper_mzi(), 2);
  const double control = path.control_power_mw(591.86, std::size_t{0});
  EXPECT_NEAR(control * 0.01, 2.1, 1e-3);
}

TEST(PumpPathTest, ExcessLossAttenuatesAllLevels) {
  const PumpPath ideal(paper_mzi(), 2);
  const PumpPath lossy(paper_mzi(), 2, 1.0);
  for (std::size_t k = 0; k <= 2; ++k) {
    EXPECT_NEAR(lossy.transmission_for_count(k) /
                    ideal.transmission_for_count(k),
                db_to_linear(-1.0), 1e-12)
        << k;
  }
}

TEST(PumpPathTest, BitCountValidation) {
  const PumpPath path(paper_mzi(), 2);
  EXPECT_THROW((void)path.transmission({true}), std::invalid_argument);
  EXPECT_THROW((void)path.transmission_for_count(3), std::invalid_argument);
}

class PumpPathOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PumpPathOrderP, EndLevelsIndependentOfOrder) {
  // T(0) = IL% and T(n) = IL% * ER% for every n: the splitter's 1/n and
  // the n-fold sum cancel at the extremes.
  const std::size_t n = GetParam();
  const PumpPath path(paper_mzi(), n);
  EXPECT_NEAR(path.transmission_for_count(0), db_to_linear(-4.5), 1e-12);
  EXPECT_NEAR(path.transmission_for_count(n),
              db_to_linear(-4.5) * db_to_linear(-13.22), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Orders, PumpPathOrderP,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace oscs::optsc
