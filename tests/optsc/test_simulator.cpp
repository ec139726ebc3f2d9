#include "optsc/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "optsc/defaults.hpp"
#include "stochastic/functions.hpp"

namespace oscs::optsc {
namespace {

stochastic::BernsteinPoly order2_poly() {
  // x^2 in Bernstein form at degree 2: (0, 0, 1) - a clean test kernel.
  return stochastic::BernsteinPoly({0.0, 0.0, 1.0});
}

TEST(Simulator, RejectsOrderMismatchAndEmptyStream) {
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  EXPECT_THROW((void)sim.run(stochastic::paper_f2_bernstein(), 0.5, cfg),
               std::invalid_argument);  // degree 3 on an order-2 circuit
  cfg.stream_length = 0;
  EXPECT_THROW((void)sim.run(order2_poly(), 0.5, cfg), std::invalid_argument);
}

TEST(Simulator, ThresholdSitsInsidePhysicalEye) {
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  // Fig. 5c bands at 1 mW probe: '0' < 0.099, '1' > 0.476.
  EXPECT_GT(sim.threshold_mw(), 0.099);
  EXPECT_LT(sim.threshold_mw(), 0.477);
}

TEST(Simulator, NoiselessOpticalMatchesElectronicExactly) {
  // With noise off and the paper geometry, every optical decision equals
  // the ideal MUX output: zero transmission flips.
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.noise_enabled = false;
  cfg.stream_length = 2048;
  for (double x : {0.1, 0.5, 0.9}) {
    const SimulationResult r = sim.run(order2_poly(), x, cfg);
    EXPECT_EQ(r.transmission_flips, 0u) << x;
    EXPECT_DOUBLE_EQ(r.optical_estimate, r.electronic_estimate) << x;
  }
}

TEST(Simulator, EstimateConvergesToExpectation) {
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 1 << 14;
  const SimulationResult r = sim.run(order2_poly(), 0.5, cfg);
  EXPECT_NEAR(r.expected, 0.25, 1e-12);
  EXPECT_NEAR(r.optical_estimate, 0.25, 0.02);
  EXPECT_LT(r.optical_abs_error, 0.02);
}

TEST(Simulator, PaperF2OnOrder3Circuit) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 1 << 13;
  const SimulationResult r =
      sim.run(stochastic::paper_f2_bernstein(), 0.5, cfg);
  EXPECT_NEAR(r.expected, 0.5, 1e-12);  // Fig. 1b: f2(0.5) = 4/8
  EXPECT_NEAR(r.optical_estimate, 0.5, 0.03);
}

TEST(Simulator, NoiseFlipsAppearAtLowProbePower) {
  CircuitParams p = paper_defaults();
  p.lasers.probe_power_mw = 0.02;  // starve the link
  const OpticalScCircuit c(p);
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 4096;
  const SimulationResult r = sim.run(order2_poly(), 0.5, cfg);
  EXPECT_GT(r.transmission_flips, 0u);
}

TEST(Simulator, AmpleProbePowerSuppressesFlips) {
  CircuitParams p = paper_defaults();
  p.lasers.probe_power_mw = 1.0;  // SNR far beyond the 1e-6 point
  const OpticalScCircuit c(p);
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 4096;
  const SimulationResult r = sim.run(order2_poly(), 0.5, cfg);
  EXPECT_EQ(r.transmission_flips, 0u);
}

TEST(Simulator, DeterministicGivenSeeds) {
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 1024;
  const SimulationResult a = sim.run(order2_poly(), 0.3, cfg);
  const SimulationResult b = sim.run(order2_poly(), 0.3, cfg);
  EXPECT_DOUBLE_EQ(a.optical_estimate, b.optical_estimate);
  EXPECT_EQ(a.transmission_flips, b.transmission_flips);
}

TEST(Simulator, MeasuredBerTracksAnalyticPrediction) {
  // Size the probe for BER 1e-2 (cheap to measure) and compare the Monte
  // Carlo transmission BER against Eq. (9).
  CircuitParams p = paper_defaults();
  {
    const OpticalScCircuit tmp(p);
    const LinkBudget budget(tmp, EyeModel::kPhysical);
    p.lasers.probe_power_mw = budget.min_probe_power_mw(1e-2);
  }
  const OpticalScCircuit c(p);
  const TransientSimulator sim(c);
  const double measured = sim.measure_transmission_ber(200000, 7);
  // The analytic figure is worst-case (worst channel, worst interferers);
  // random data averages lower. Accept the right order of magnitude and
  // the worst-case bound.
  EXPECT_GT(measured, 1e-4);
  EXPECT_LT(measured, 1.5e-2);
  EXPECT_THROW((void)sim.measure_transmission_ber(0, 1), std::invalid_argument);
}

TEST(Simulator, LongerStreamsImproveAccuracy) {
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  auto mean_err = [&](std::size_t len) {
    SimulationConfig cfg;
    cfg.stream_length = len;
    double e = 0.0;
    int cnt = 0;
    for (double x = 0.1; x <= 0.95; x += 0.2, ++cnt) {
      e += sim.run(order2_poly(), x, cfg).optical_abs_error;
    }
    return e / cnt;
  };
  EXPECT_LT(mean_err(1 << 13), mean_err(1 << 5));
}

class SimulatorInputP : public ::testing::TestWithParam<double> {};

TEST_P(SimulatorInputP, TracksSquareFunctionAcrossInputs) {
  const double x = GetParam();
  const OpticalScCircuit c(paper_defaults());
  const TransientSimulator sim(c);
  SimulationConfig cfg;
  cfg.stream_length = 1 << 13;
  const SimulationResult r = sim.run(order2_poly(), x, cfg);
  EXPECT_NEAR(r.optical_estimate, x * x, 0.03) << x;
}

INSTANTIATE_TEST_SUITE_P(Inputs, SimulatorInputP,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace oscs::optsc
