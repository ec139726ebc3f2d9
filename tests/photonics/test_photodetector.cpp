#include "photonics/photodetector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oscs::photonics {
namespace {

TEST(BerSnr, Eq9KnownAnchors) {
  // BER(0) = 0.5: no eye, coin flip.
  EXPECT_DOUBLE_EQ(ber_from_snr(0.0), 0.5);
  // The Q = SNR/2 convention: BER = 1e-6 needs SNR ~ 9.507
  // (Q ~ 4.7534), the anchor behind all Fig. 6 probe sizing.
  EXPECT_NEAR(ber_from_snr(9.5068), 1e-6, 2e-8);
  // BER = 1e-2 needs SNR ~ 4.652: the 50% power-saving claim of Fig. 6b.
  EXPECT_NEAR(ber_from_snr(4.6527), 1e-2, 2e-4);
  EXPECT_THROW((void)ber_from_snr(-1.0), std::domain_error);
}

TEST(BerSnr, InverseRoundTrip) {
  for (double ber : {0.1, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12}) {
    EXPECT_NEAR(ber_from_snr(snr_for_ber(ber)) / ber, 1.0, 1e-8) << ber;
  }
  EXPECT_THROW((void)snr_for_ber(0.0), std::domain_error);
  EXPECT_THROW((void)snr_for_ber(0.5), std::domain_error);
}

TEST(BerSnr, FiftyPercentPowerClaimOfFig6b) {
  // Targeting 1e-2 instead of 1e-6 halves the required SNR (and the
  // probe power, which is linear in SNR): the paper's Fig. 6b claim.
  EXPECT_NEAR(snr_for_ber(1e-2) / snr_for_ber(1e-6), 0.489, 0.005);
}

TEST(PinDetector, ValidatesParameters) {
  EXPECT_THROW(PinPhotodetector(0.0, 1e-5), std::invalid_argument);
  EXPECT_THROW(PinPhotodetector(1.0, 0.0), std::invalid_argument);
}

TEST(PinDetector, PhotocurrentAndNoiseReferral) {
  const PinPhotodetector det(1.0, 1e-5);
  EXPECT_DOUBLE_EQ(det.photocurrent_a(1.0), 1e-3);  // 1 mW -> 1 mA at 1 A/W
  EXPECT_DOUBLE_EQ(det.noise_power_mw(), 1e-2);     // 10 uA -> 10 uW
}

TEST(PinDetector, SnrLinearInEye) {
  const PinPhotodetector det(1.0, 1e-5);
  EXPECT_NEAR(det.snr(0.02) / det.snr(0.01), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(det.snr(0.0), 0.0);
  EXPECT_THROW((void)det.snr(-0.1), std::domain_error);
}

TEST(PinDetector, RequiredEyeInvertsSnr) {
  const PinPhotodetector det(0.8, 5e-6);
  for (double ber : {1e-2, 1e-4, 1e-6}) {
    const double eye = det.required_eye_mw(ber);
    EXPECT_NEAR(ber_from_snr(det.snr(eye)) / ber, 1.0, 1e-9) << ber;
  }
}

TEST(PinDetector, DetectIsDeterministicFarFromThreshold) {
  const PinPhotodetector det(1.0, 1e-6);  // sigma_P = 1e-3 mW
  Xoshiro256 rng(1);
  int wrong = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!det.detect(0.5, 0.25, rng)) ++wrong;   // '1' 250 sigma above
    if (det.detect(0.0, 0.25, rng)) ++wrong;    // '0' 250 sigma below
  }
  EXPECT_EQ(wrong, 0);
}

TEST(PinDetector, MonteCarloBerMatchesEq9) {
  // Put the eye at SNR ~ 4.653 (BER 1e-2) and measure empirically.
  const PinPhotodetector det(1.0, 1e-5);
  const double eye_mw = det.required_eye_mw(1e-2);
  const double one = eye_mw;       // '0' at 0, '1' at eye
  const double threshold = 0.5 * eye_mw;
  Xoshiro256 rng(42);
  const int n = 200000;
  int errors = 0;
  for (int i = 0; i < n; ++i) {
    const bool bit = (i & 1) != 0;
    const bool decided = det.detect(bit ? one : 0.0, threshold, rng);
    if (decided != bit) ++errors;
  }
  const double ber = static_cast<double>(errors) / n;
  EXPECT_NEAR(ber, 1e-2, 2.5e-3);
}

TEST(ApdDetector, ValidatesParameters) {
  EXPECT_THROW(ApdPhotodetector(1.0, 1e-5, 0.5, 0.3), std::invalid_argument);
  EXPECT_THROW(ApdPhotodetector(1.0, 1e-5, 10.0, 1.5), std::invalid_argument);
  EXPECT_THROW(ApdPhotodetector(0.0, 1e-5, 10.0, 0.3), std::invalid_argument);
}

TEST(ApdDetector, UnityGainReducesTowardPin) {
  const PinPhotodetector pin(1.0, 1e-5);
  const ApdPhotodetector apd(1.0, 1e-5, 1.0, 0.3);
  // With M = 1 and negligible shot noise the SNRs agree.
  const double eye = 0.01;
  EXPECT_NEAR(apd.snr(eye, 0.0, 1e9) / pin.snr(eye), 1.0, 1e-9);
}

TEST(ApdDetector, GainHelpsThermallyLimitedLinks) {
  // The future-work claim (ref. [21]): with the same thermal floor, an
  // APD with moderate excess noise improves the SNR of a weak signal.
  const ApdPhotodetector apd(1.0, 1e-5, 10.0, 0.3);
  const PinPhotodetector pin(1.0, 1e-5);
  const double eye = 0.005;
  EXPECT_GT(apd.snr(eye, 0.01, 1e9), pin.snr(eye));
}

TEST(ApdDetector, ExcessNoiseEventuallyEatsTheGain) {
  // With x = 1 (worst-case excess noise) and a shot-dominated link, more
  // gain stops helping: SNR(M=100) < SNR(M=10) * 10.
  const ApdPhotodetector m10(1.0, 1e-8, 10.0, 1.0);
  const ApdPhotodetector m100(1.0, 1e-8, 100.0, 1.0);
  const double eye = 0.01;
  const double avg = 0.5;
  EXPECT_LT(m100.snr(eye, avg, 1e9), 10.0 * m10.snr(eye, avg, 1e9));
}

TEST(ApdDetector, ExcessNoiseFactorIsPowerLaw) {
  const ApdPhotodetector apd(1.0, 1e-5, 16.0, 0.5);
  EXPECT_NEAR(apd.excess_noise_factor(), 4.0, 1e-12);  // 16^0.5
}

}  // namespace
}  // namespace oscs::photonics
