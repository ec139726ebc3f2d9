#include "photonics/ring.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>

namespace oscs::photonics {
namespace {

RingGeometry nominal() {
  return RingGeometry{1550.0, 10.0, 0.96, 0.98, 0.995};
}

TEST(Ring, ValidatesGeometry) {
  RingGeometry g = nominal();
  g.r1 = 1.5;
  EXPECT_THROW(AddDropRing{g}, std::invalid_argument);
  g = nominal();
  g.a = 0.0;
  EXPECT_THROW(AddDropRing{g}, std::invalid_argument);
  g = nominal();
  g.fsr_nm = -1.0;
  EXPECT_THROW(AddDropRing{g}, std::invalid_argument);
  g = nominal();
  g.fsr_nm = 2000.0;  // FSR >= resonance is unphysical here
  EXPECT_THROW(AddDropRing{g}, std::invalid_argument);
}

TEST(Ring, ModeOrderAndEffectiveFsr) {
  const AddDropRing ring(nominal());
  EXPECT_EQ(ring.mode_order(), 155);
  EXPECT_NEAR(ring.effective_fsr_nm(), 1550.0 / 155.0, 1e-12);
}

TEST(Ring, ResonanceIsTransmissionExtremum) {
  const AddDropRing ring(nominal());
  const double at_res = ring.through(1550.0);
  const double off_res = ring.through(1550.0 + 0.05);
  EXPECT_LT(at_res, off_res);
  const double drop_res = ring.drop(1550.0);
  const double drop_off = ring.drop(1550.0 + 0.05);
  EXPECT_GT(drop_res, drop_off);
}

TEST(Ring, AnalyticExtremaMatchDirectEvaluation) {
  const AddDropRing ring(nominal());
  EXPECT_NEAR(ring.through(1550.0), ring.through_at_resonance(), 1e-12);
  EXPECT_NEAR(ring.drop(1550.0), ring.drop_at_resonance(), 1e-12);
}

TEST(Ring, LosslessRingConservesEnergyExactly) {
  // With a = 1, Eq. (2) + Eq. (3) sum to exactly 1 at every wavelength.
  RingGeometry g = nominal();
  g.a = 1.0;
  const AddDropRing ring(g);
  for (double wl = 1548.0; wl <= 1552.0; wl += 0.01) {
    EXPECT_NEAR(ring.through(wl) + ring.drop(wl), 1.0, 1e-12) << wl;
  }
}

TEST(Ring, LossyRingDissipates) {
  const AddDropRing ring(nominal());
  for (double wl : {1549.8, 1549.95, 1550.0, 1550.05, 1550.2}) {
    EXPECT_LT(ring.through(wl) + ring.drop(wl), 1.0) << wl;
  }
}

TEST(Ring, ResponseIsPeriodicWithEffectiveFsr) {
  const AddDropRing ring(nominal());
  const double fsr = ring.effective_fsr_nm();
  // theta(lambda) = 2 pi m lambda_res / lambda is periodic in 1/lambda;
  // adjacent resonances sit at m lambda_res / (m +/- 1).
  const double next_resonance = 155.0 * 1550.0 / 154.0;
  EXPECT_NEAR(next_resonance - 1550.0, fsr, 0.1);
  EXPECT_NEAR(ring.through(next_resonance), ring.through_at_resonance(),
              1e-6);
}

TEST(Ring, FwhmMatchesNumericalHalfWidth) {
  const AddDropRing ring(nominal());
  const double fwhm = ring.fwhm_nm();
  const double half = 0.5 * ring.drop_at_resonance();
  // Scan outwards for the half-power point.
  double hi = 1550.0;
  while (ring.drop(hi) > half) hi += 1e-5;
  double lo = 1550.0;
  while (ring.drop(lo) > half) lo -= 1e-5;
  EXPECT_NEAR(hi - lo, fwhm, 0.02 * fwhm);
}

TEST(Ring, QFactorConsistentWithFwhm) {
  const AddDropRing ring(nominal());
  EXPECT_NEAR(ring.q_factor(), 1550.0 / ring.fwhm_nm(), 1e-9);
}

TEST(Ring, DetunedResonanceShiftsResponse) {
  const AddDropRing ring(nominal());
  // Blue-shift the resonance by 0.1 nm: the dip follows it.
  const double shifted = 1550.0 - 0.1;
  EXPECT_NEAR(ring.through(shifted, shifted), ring.through_at_resonance(),
              1e-4);
  EXPECT_GT(ring.through(1550.0, shifted), ring.through_at_resonance());
}

TEST(Ring, FromSpecRealizesTargets) {
  RingSpec spec;
  spec.resonance_nm = 1550.1;
  spec.fsr_nm = 20.0;
  spec.fwhm_nm = 0.182;
  spec.peak_drop = 0.9;
  spec.through_floor = 0.0;
  const AddDropRing ring = AddDropRing::from_spec(spec);
  EXPECT_NEAR(ring.drop_at_resonance(), 0.9, 1e-6);
  EXPECT_NEAR(ring.fwhm_nm(), 0.182, 0.01 * 0.182);
  EXPECT_LT(ring.through_at_resonance(), 1e-6);
}

TEST(Ring, FromSpecWithFloorRealizesFloor) {
  RingSpec spec;
  spec.resonance_nm = 1550.0;
  spec.fsr_nm = 10.0;
  spec.fwhm_nm = 0.2;
  spec.peak_drop = 0.6;
  spec.through_floor = 0.102;
  const AddDropRing ring = AddDropRing::from_spec(spec);
  EXPECT_NEAR(ring.through_at_resonance(), 0.102, 1e-6);
  EXPECT_NEAR(ring.drop_at_resonance(), 0.6, 1e-6);
  EXPECT_NEAR(ring.fwhm_nm(), 0.2, 0.01 * 0.2);
}

TEST(Ring, FromSpecRejectsUnrealizable) {
  RingSpec spec;
  spec.fwhm_nm = 0.2;
  spec.peak_drop = 0.999999;  // cannot reach with a finite floor
  spec.through_floor = 0.5;
  EXPECT_THROW((void)AddDropRing::from_spec(spec), std::invalid_argument);
}

TEST(Ring, FromLinewidthRealizesFloorAndFwhm) {
  const AddDropRing ring =
      AddDropRing::from_linewidth(1550.0, 10.0, 0.2, 0.102, 0.995);
  EXPECT_NEAR(ring.through_at_resonance(), 0.102, 1e-9);
  EXPECT_NEAR(ring.fwhm_nm(), 0.2, 0.002);
  EXPECT_DOUBLE_EQ(ring.geometry().a, 0.995);
}

TEST(Ring, SinglePassPhaseRejectsNonPositiveWavelength) {
  const AddDropRing ring(nominal());
  EXPECT_THROW((void)ring.single_pass_phase(0.0, 1550.0), std::domain_error);
}

// Property sweep: transmissions are valid probabilities over a broad
// parameter grid.
class RingRangeP
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(RingRangeP, TransmissionsLieInUnitInterval) {
  const auto [r1, r2, a] = GetParam();
  const AddDropRing ring(RingGeometry{1550.0, 10.0, r1, r2, a});
  for (double wl = 1545.0; wl <= 1555.0; wl += 0.05) {
    const double t = ring.through(wl);
    const double d = ring.drop(wl);
    ASSERT_GE(t, 0.0) << wl;
    ASSERT_LE(t, 1.0) << wl;
    ASSERT_GE(d, 0.0) << wl;
    ASSERT_LE(d, 1.0) << wl;
    ASSERT_LE(t + d, 1.0 + 1e-12) << wl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CouplingGrid, RingRangeP,
    ::testing::Combine(::testing::Values(0.5, 0.9, 0.96, 0.99),
                       ::testing::Values(0.5, 0.9, 0.98),
                       ::testing::Values(0.9, 0.99, 1.0)));

// Symmetry of the resonance in the detuning for small offsets.
class RingSymmetryP : public ::testing::TestWithParam<double> {};

TEST_P(RingSymmetryP, DropIsLocallySymmetricAroundResonance) {
  const AddDropRing ring(nominal());
  const double delta = GetParam();
  const double up = ring.drop(1550.0 + delta);
  const double down = ring.drop(1550.0 - delta);
  EXPECT_NEAR(up / down, 1.0, 0.02) << delta;
}

INSTANTIATE_TEST_SUITE_P(Offsets, RingSymmetryP,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace oscs::photonics
