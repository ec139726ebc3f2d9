#include "photonics/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "photonics/ring.hpp"

namespace oscs::photonics {
namespace {

TEST(SpectrumTest, SamplesGridAndValues) {
  const Spectrum s = sample_spectrum(
      "linear", [](double wl) { return wl - 1548.0; }, 1548.0, 1550.0, 5);
  ASSERT_EQ(s.lambda_nm.size(), 5u);
  EXPECT_DOUBLE_EQ(s.lambda_nm.front(), 1548.0);
  EXPECT_DOUBLE_EQ(s.lambda_nm.back(), 1550.0);
  EXPECT_DOUBLE_EQ(s.transmission[2], 1.0);
  EXPECT_EQ(s.name, "linear");
}

TEST(SpectrumTest, ValidatesArguments) {
  auto f = [](double) { return 1.0; };
  EXPECT_THROW(sample_spectrum("x", f, 1550.0, 1548.0, 5),
               std::invalid_argument);
  EXPECT_THROW(sample_spectrum("x", f, 1548.0, 1550.0, 1),
               std::invalid_argument);
}

TEST(SpectrumTest, CascadeMultipliesStages) {
  auto half = [](double) { return 0.5; };
  auto third = [](double) { return 1.0 / 3.0; };
  const Spectrum a = sample_spectrum("a", half, 1548.0, 1550.0, 3);
  const Spectrum b = sample_spectrum("b", third, 1548.0, 1550.0, 3);
  const Spectrum c = cascade("ab", {a, b});
  for (double t : c.transmission) EXPECT_NEAR(t, 1.0 / 6.0, 1e-15);
  EXPECT_THROW(cascade("bad", {}), std::invalid_argument);
}

TEST(SpectrumTest, CascadeRejectsMismatchedGrids) {
  auto one = [](double) { return 1.0; };
  const Spectrum a = sample_spectrum("a", one, 1548.0, 1550.0, 3);
  const Spectrum b = sample_spectrum("b", one, 1548.0, 1550.0, 4);
  EXPECT_THROW(cascade("bad", {a, b}), std::invalid_argument);
}

TEST(SpectrumTest, PeakFindingOnRingDrop) {
  const AddDropRing ring =
      AddDropRing::from_linewidth(1549.0, 10.0, 0.2, 0.0, 0.995);
  const Spectrum s = sample_spectrum(
      "drop", [&](double wl) { return ring.drop(wl); }, 1548.0, 1550.0,
      2001);
  EXPECT_NEAR(peak_wavelength_nm(s), 1549.0, 1e-3);
}

TEST(SpectrumTest, NumericalFwhmMatchesAnalytic) {
  const AddDropRing ring =
      AddDropRing::from_linewidth(1549.0, 10.0, 0.2, 0.0, 0.995);
  const Spectrum s = sample_spectrum(
      "drop", [&](double wl) { return ring.drop(wl); }, 1547.0, 1551.0,
      8001);
  EXPECT_NEAR(numerical_fwhm_nm(s), ring.fwhm_nm(), 0.02 * ring.fwhm_nm());
}

TEST(SpectrumTest, FwhmZeroWhenHalfLevelNotCrossed) {
  // A flat spectrum never crosses half of its own peak.
  const Spectrum s = sample_spectrum(
      "flat", [](double) { return 0.8; }, 1548.0, 1550.0, 11);
  EXPECT_DOUBLE_EQ(numerical_fwhm_nm(s), 0.0);
}

TEST(SpectrumTest, EmptySpectrumRejected) {
  Spectrum s;
  EXPECT_THROW((void)peak_wavelength_nm(s), std::invalid_argument);
  EXPECT_THROW((void)numerical_fwhm_nm(s), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::photonics
