#include "photonics/laser.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oscs::photonics {
namespace {

TEST(CwLaserTest, ValidatesParameters) {
  EXPECT_THROW(CwLaser(-1.0, 0.2), std::invalid_argument);
  EXPECT_THROW(CwLaser(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(CwLaser(1.0, 1.5), std::invalid_argument);
  EXPECT_NO_THROW(CwLaser(0.0, 1.0));
}

TEST(CwLaserTest, EnergyPerBitScalesWithPeriodAndEfficiency) {
  // 1 mW at 100% efficiency over 1 ns = 1 pJ.
  EXPECT_DOUBLE_EQ(CwLaser(1.0, 1.0).energy_per_bit_pj(1e-9), 1.0);
  // 20% lasing efficiency (the paper's assumption) costs 5x wall plug.
  EXPECT_DOUBLE_EQ(CwLaser(1.0, 0.2).energy_per_bit_pj(1e-9), 5.0);
  // Twice the bit period, twice the energy.
  EXPECT_DOUBLE_EQ(CwLaser(1.0, 0.2).energy_per_bit_pj(2e-9), 10.0);
  EXPECT_THROW((void)CwLaser(1.0, 0.2).energy_per_bit_pj(0.0),
               std::invalid_argument);
}

TEST(PulsedLaserTest, ValidatesParameters) {
  EXPECT_THROW(PulsedLaser(1.0, 0.0, 0.2), std::invalid_argument);
  EXPECT_THROW(PulsedLaser(1.0, 26e-12, 0.0), std::invalid_argument);
  EXPECT_THROW(PulsedLaser(-1.0, 26e-12, 0.2), std::invalid_argument);
}

TEST(PulsedLaserTest, PaperPumpEnergyAnchor) {
  // Sec. V-A pump (591.86 mW) with 26 ps pulses at 20% efficiency:
  // 591.86e-3 W * 26e-12 s / 0.2 = 76.9 pJ per computed bit.
  const PulsedLaser pump(591.86, 26e-12, 0.2);
  EXPECT_NEAR(pump.energy_per_bit_pj(), 76.94, 0.01);
}

TEST(PulsedLaserTest, DutyCycledAveragePower) {
  const PulsedLaser pump(100.0, 26e-12, 0.2);
  // At 1 Gb/s the duty cycle is 26e-12 / 1e-9 = 2.6%.
  EXPECT_NEAR(pump.average_power_mw(1e-9), 2.6, 1e-12);
  EXPECT_THROW((void)pump.average_power_mw(0.0), std::invalid_argument);
}

TEST(PulsedLaserTest, PulseVsCwEnergyAdvantage) {
  // The whole point of Sec. V-C: a pulsed pump consumes
  // pulse_width/bit_period of the CW energy.
  const double pump_mw = 591.86;
  const double cw = CwLaser(pump_mw, 0.2).energy_per_bit_pj(1e-9);
  const double pulsed = PulsedLaser(pump_mw, 26e-12, 0.2).energy_per_bit_pj();
  EXPECT_NEAR(pulsed / cw, 26e-12 / 1e-9, 1e-12);
}

class PulseWidthP : public ::testing::TestWithParam<double> {};

TEST_P(PulseWidthP, EnergyLinearInPulseWidth) {
  const double width_ps = GetParam();
  const PulsedLaser laser(100.0, width_ps * 1e-12, 0.2);
  EXPECT_NEAR(laser.energy_per_bit_pj(),
              100.0e-3 * width_ps * 1e-12 / 0.2 * 1e12, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, PulseWidthP,
                         ::testing::Values(5.0, 26.0, 50.0, 100.0));

}  // namespace
}  // namespace oscs::photonics
