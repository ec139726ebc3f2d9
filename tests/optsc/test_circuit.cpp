#include "optsc/circuit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "optsc/defaults.hpp"

namespace oscs::optsc {
namespace {

TEST(Circuit, BuildsFromPaperDefaults) {
  const OpticalScCircuit c(paper_defaults());
  EXPECT_EQ(c.order(), 2u);
  EXPECT_EQ(c.channels().count(), 3u);
  EXPECT_DOUBLE_EQ(c.channels().channel(2), 1550.0);
  EXPECT_DOUBLE_EQ(c.modulator(0).channel_nm(), 1548.0);
  EXPECT_DOUBLE_EQ(c.filter().lambda_ref_nm(), 1550.1);
}

TEST(Circuit, FilterDetuningSelectsChannelByOnesCount) {
  // k ones -> filter parks on lambda_k (Sec. III scenarios).
  const OpticalScCircuit c(paper_defaults());
  EXPECT_NEAR(c.filter_resonance_for_count(0), 1548.0, 1e-3);  // x1=x2=0
  EXPECT_NEAR(c.filter_resonance_for_count(1), 1549.0, 1e-3);  // x1 != x2
  EXPECT_NEAR(c.filter_resonance_for_count(2), 1550.0, 1e-3);  // x1=x2=1
}

TEST(Circuit, DetuningFromBitsMatchesDetuningFromCount) {
  const OpticalScCircuit c(paper_defaults());
  EXPECT_DOUBLE_EQ(c.filter_detuning_nm({true, false}),
                   c.filter_detuning_for_count(1));
  EXPECT_DOUBLE_EQ(c.filter_detuning_nm({true, true}),
                   c.filter_detuning_for_count(2));
}

TEST(Circuit, BreakdownFactorsMultiplyToTotal) {
  const OpticalScCircuit c(paper_defaults());
  const std::vector<bool> z{false, true, false};
  const std::vector<bool> x{true, true};
  for (std::size_t i = 0; i <= 2; ++i) {
    const ChannelBreakdown b = c.channel_breakdown(i, z, x);
    EXPECT_NEAR(b.total(), c.channel_transmission(i, z, x), 1e-15);
    EXPECT_GE(b.own_modulator, 0.0);
    EXPECT_LE(b.own_modulator, 1.0);
    EXPECT_GE(b.other_modulators, 0.0);
    EXPECT_LE(b.other_modulators, 1.0);
    EXPECT_GE(b.filter_drop, 0.0);
    EXPECT_LE(b.filter_drop, 1.0);
  }
}

TEST(Circuit, ReceivedPowerIsSumOfChannelPowers) {
  const OpticalScCircuit c(paper_defaults());
  const std::vector<bool> z{true, true, false};
  const std::vector<bool> x{false, false};
  double sum = 0.0;
  for (std::size_t i = 0; i <= 2; ++i) {
    sum += c.channel_transmission(i, z, x);
  }
  EXPECT_NEAR(c.received_power_mw(z, x, 1.0), sum, 1e-15);
  // Default probe power path.
  EXPECT_NEAR(c.received_power_mw(z, x),
              sum * c.params().lasers.probe_power_mw, 1e-12);
}

TEST(Circuit, SelectedOneOutweighsSelectedZero) {
  // For every selection, driving the selected coefficient high must
  // produce more received power than driving it low - otherwise OOK
  // detection is impossible.
  const OpticalScCircuit c(paper_defaults());
  for (std::size_t k = 0; k <= 2; ++k) {
    const double one = c.reference_one_transmission(k, k);
    const double zero = c.reference_zero_transmission(k, k);
    EXPECT_GT(one, 3.0 * zero) << k;
  }
}

TEST(Circuit, BitVectorShapeValidation) {
  const OpticalScCircuit c(paper_defaults());
  EXPECT_THROW((void)c.channel_transmission(0, {true}, {true, false}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)c.channel_transmission(0, {true, false, true}, {true, false, true}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)c.channel_breakdown(5, {true, false, true}, {true, false}),
      std::out_of_range);
}

TEST(Circuit, CrosstalkDecaysWithChannelDistance) {
  // With the filter parked on lambda_2, channel 1 leaks more than
  // channel 0 (Fig. 5a: 0.004 vs 0.0002).
  const OpticalScCircuit c(paper_defaults());
  const std::vector<bool> x{true, true};  // select channel 2
  const std::vector<bool> z{false, true, false};  // the Fig. 5a pattern
  const double leak1 = c.channel_transmission(1, z, x);
  const double leak0 = c.channel_transmission(0, z, x);
  EXPECT_GT(leak1, leak0 * 5.0);
}

TEST(Circuit, WithVariationZeroSigmasReproducesNominal) {
  const CircuitParams p = paper_defaults();
  photonics::VariationSpec none;
  none.sigma_resonance_nm = 0.0;
  none.sigma_coupling = 0.0;
  none.sigma_loss = 0.0;
  none.sigma_il_db = 0.0;
  none.sigma_er_db = 0.0;
  oscs::Xoshiro256 rng(5);
  const OpticalScCircuit nominal(p);
  const OpticalScCircuit varied =
      OpticalScCircuit::with_variation(p, none, rng);
  const std::vector<bool> z{false, true, false};
  const std::vector<bool> x{true, false};
  EXPECT_NEAR(varied.received_power_mw(z, x, 1.0),
              nominal.received_power_mw(z, x, 1.0), 1e-12);
}

TEST(Circuit, WithVariationPerturbsResponse) {
  const CircuitParams p = paper_defaults();
  photonics::VariationSpec spec;
  spec.sigma_resonance_nm = 0.05;
  oscs::Xoshiro256 rng(7);
  const OpticalScCircuit nominal(p);
  const OpticalScCircuit varied =
      OpticalScCircuit::with_variation(p, spec, rng);
  const std::vector<bool> z{false, true, false};
  const std::vector<bool> x{true, false};
  EXPECT_NE(varied.received_power_mw(z, x, 1.0),
            nominal.received_power_mw(z, x, 1.0));
}

TEST(Circuit, CalibrationResidualBoundsResonanceError) {
  const CircuitParams p = paper_defaults();
  photonics::VariationSpec spec;
  spec.sigma_resonance_nm = 0.5;  // massive fabrication scatter
  oscs::Xoshiro256 rng(11);
  const OpticalScCircuit varied = OpticalScCircuit::with_variation(
      p, spec, rng, /*calibration_residual_nm=*/0.002);
  // After calibration every modulator sits within the residual band.
  for (std::size_t i = 0; i <= 2; ++i) {
    EXPECT_NEAR(varied.modulator(i).channel_nm(),
                OpticalScCircuit(p).modulator(i).channel_nm(), 0.002 + 1e-12)
        << i;
  }
}

class CircuitOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CircuitOrderP, AlignmentHoldsForEveryOnesCount) {
  // paper_defaults derives (pump, ER) so that the filter lands exactly on
  // lambda_k for k ones, at any order.
  const std::size_t n = GetParam();
  const OpticalScCircuit c(paper_defaults(n, 0.5));
  for (std::size_t k = 0; k <= n; ++k) {
    EXPECT_NEAR(c.filter_resonance_for_count(k), c.channels().channel(k),
                1e-6)
        << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, CircuitOrderP,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

}  // namespace
}  // namespace oscs::optsc
