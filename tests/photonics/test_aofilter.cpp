#include "photonics/aofilter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oscs::photonics {
namespace {

AllOpticalFilter paper_filter() {
  RingSpec spec;
  spec.resonance_nm = 1550.1;
  spec.fsr_nm = 20.0;
  spec.fwhm_nm = 0.182;
  spec.peak_drop = 0.9;
  spec.through_floor = 0.0;
  // OTE = 0.1 nm per 10 mW (Van et al. [14]).
  return AllOpticalFilter(AddDropRing::from_spec(spec), 0.01);
}

TEST(TpaIndex, Eq4LinearInPumpPower) {
  // n_eff = n0 + n2 P / S.
  const double n0 = 3.48;                 // silicon
  const double n2 = 4.5e-18;              // m^2/W
  const double area = 0.25e-12;           // 0.25 um^2
  EXPECT_DOUBLE_EQ(tpa_effective_index(n0, n2, 0.0, area), n0);
  const double shift1 = tpa_effective_index(n0, n2, 0.01, area) - n0;
  const double shift2 = tpa_effective_index(n0, n2, 0.02, area) - n0;
  // The subtraction from n0 ~ 3.48 leaves ~1e-8 relative noise on the
  // ~1e-7 shifts; linearity holds to that accuracy.
  EXPECT_NEAR(shift2 / shift1, 2.0, 1e-6);
  EXPECT_THROW((void)tpa_effective_index(n0, n2, -1.0, area),
               std::invalid_argument);
  EXPECT_THROW((void)tpa_effective_index(n0, n2, 0.01, 0.0),
               std::invalid_argument);
}

TEST(AoFilter, ValidatesOte) {
  RingSpec spec;
  spec.resonance_nm = 1550.1;
  spec.fsr_nm = 20.0;
  const AddDropRing ring = AddDropRing::from_spec(spec);
  EXPECT_THROW(AllOpticalFilter(ring, 0.0), std::invalid_argument);
  EXPECT_THROW(AllOpticalFilter(ring, -0.01), std::invalid_argument);
}

TEST(AoFilter, DetuningIsLinearInPump) {
  const AllOpticalFilter f = paper_filter();
  // The [14] anchor: 10 mW -> 0.1 nm.
  EXPECT_NEAR(f.detuning_nm(10.0), 0.1, 1e-12);
  EXPECT_NEAR(f.detuning_nm(591.86), 5.9186, 1e-4);
  EXPECT_DOUBLE_EQ(f.detuning_nm(0.0), 0.0);
  EXPECT_THROW((void)f.detuning_nm(-1.0), std::invalid_argument);
}

TEST(AoFilter, ResonanceBlueShiftsUnderPump) {
  const AllOpticalFilter f = paper_filter();
  EXPECT_DOUBLE_EQ(f.resonance_nm(0.0), 1550.1);
  EXPECT_NEAR(f.resonance_nm(210.0), 1548.0, 1e-9);
  EXPECT_LT(f.resonance_nm(100.0), f.resonance_nm(50.0));
}

TEST(AoFilter, RequiredPumpInvertsDetuning) {
  const AllOpticalFilter f = paper_filter();
  for (double delta : {0.1, 1.1, 2.1, 5.0}) {
    EXPECT_NEAR(f.detuning_nm(f.required_pump_mw(delta)), delta, 1e-12);
  }
  EXPECT_THROW((void)f.required_pump_mw(-0.1), std::invalid_argument);
}

TEST(AoFilter, DropPeakFollowsThePump) {
  const AllOpticalFilter f = paper_filter();
  // Tune the filter onto 1548.0 (the Sec. V-A lambda_0 case: 2.1 nm shift).
  const double pump = f.required_pump_mw(2.1);
  EXPECT_NEAR(f.drop(1548.0, pump), 0.9, 1e-3);
  // The untuned filter barely drops that wavelength.
  EXPECT_LT(f.drop(1548.0, 0.0), 0.01);
  // And through + drop behave complementarily at the peak.
  EXPECT_LT(f.through(1548.0, pump), 0.1);
}

TEST(AoFilter, SelectsChannelsMutuallyExclusively) {
  const AllOpticalFilter f = paper_filter();
  const double ch[3] = {1548.0, 1549.0, 1550.0};  // Sec. V-A grid
  const double detunings[3] = {2.1, 1.1, 0.1};
  for (int sel = 0; sel < 3; ++sel) {
    const double pump = f.required_pump_mw(detunings[sel]);
    for (int i = 0; i < 3; ++i) {
      const double d = f.drop(ch[i], pump);
      if (i == sel) {
        EXPECT_GT(d, 0.85) << "sel=" << sel << " i=" << i;
      } else {
        EXPECT_LT(d, 0.05) << "sel=" << sel << " i=" << i;
      }
    }
  }
}

class AoFilterPumpP : public ::testing::TestWithParam<double> {};

TEST_P(AoFilterPumpP, DropAtTargetStaysNearPeakAcrossTunings) {
  // Wherever the pump parks the resonance, the dropped wavelength sees
  // (nearly) the same peak transmission: the ring response just shifts.
  const AllOpticalFilter f = paper_filter();
  const double pump = GetParam();
  const double target = f.resonance_nm(pump);
  EXPECT_NEAR(f.drop(target, pump), 0.9, 0.002);
}

INSTANTIATE_TEST_SUITE_P(PumpLevels, AoFilterPumpP,
                         ::testing::Values(10.0, 50.0, 110.0, 210.0, 400.0));

}  // namespace
}  // namespace oscs::photonics
