#include "engine/packed_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/functions.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;
using optsc::design_operating_point;
using optsc::OpticalScCircuit;
using optsc::paper_defaults;

sc::BernsteinPoly order2_poly() {
  return sc::BernsteinPoly({0.0, 0.0, 1.0});  // x^2
}

TEST(PackedKernel, SnapshotsThresholdLikeTheSimulatorAndBerComesFromBudget) {
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  const optsc::TransientSimulator sim(c);
  const oscs::OperatingPoint op = design_operating_point(c);
  EXPECT_EQ(kernel.order(), 2u);
  EXPECT_DOUBLE_EQ(kernel.threshold_mw(), sim.threshold_mw());
  EXPECT_DOUBLE_EQ(op.threshold_mw, kernel.threshold_mw());
  // The reference design runs far above the noise floor; the BER lives on
  // the operating point now, not inside the kernel.
  EXPECT_LT(op.ber, 1e-12);
  EXPECT_TRUE(kernel.mux_exact());
}

TEST(PackedKernel, DecisionLutMatchesTheCircuitPhysics) {
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  // Exhaustive over the reachable state space at n = 2: 8 coefficient
  // patterns x 3 adder values.
  for (std::uint32_t p = 0; p < 8; ++p) {
    for (std::size_t k = 0; k <= 2; ++k) {
      const double power = kernel.received_power_mw(p, k);
      EXPECT_EQ(kernel.decision(p, k), power > kernel.threshold_mw())
          << "pattern " << p << " k " << k;
    }
  }
  EXPECT_THROW((void)kernel.decision(8, 0), std::out_of_range);
  EXPECT_THROW((void)kernel.decision(0, 3), std::out_of_range);
}

TEST(PackedKernel, NoiselessPassIsBitIdenticalToPerBitPhysics) {
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  const double probe = c.params().lasers.probe_power_mw;
  // Lengths straddling word boundaries, including a non-multiple of 64.
  for (std::size_t length : {64u, 130u, 1000u}) {
    const sc::ScInputs inputs =
        sc::make_sc_inputs(0.6, {0.1, 0.7, 0.4}, 2, length, {});
    const PackedKernel::Streams streams = kernel.evaluate(inputs);
    ASSERT_EQ(streams.optical.size(), length);
    for (std::size_t t = 0; t < length; ++t) {
      std::vector<bool> x{inputs.x_streams[0].bit(t),
                          inputs.x_streams[1].bit(t)};
      std::vector<bool> z{inputs.z_streams[0].bit(t),
                          inputs.z_streams[1].bit(t),
                          inputs.z_streams[2].bit(t)};
      const bool expected =
          c.received_power_mw(z, x, probe) > kernel.threshold_mw();
      ASSERT_EQ(streams.optical.bit(t), expected) << "bit " << t;
    }
  }
}

TEST(PackedKernel, ElectronicStreamMatchesReSCUnit) {
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  const sc::BernsteinPoly poly = order2_poly();
  const sc::ScInputs inputs =
      sc::make_sc_inputs(0.35, poly.coeffs(), 2, 1000, {});
  const PackedKernel::Streams streams = kernel.evaluate(inputs);
  const sc::ReSCUnit resc(poly);
  EXPECT_EQ(streams.electronic, resc.output_stream(inputs));
}

TEST(PackedKernel, SimulatorEnginesAgreeBitForBitWithNoiseDisabled) {
  // The packed run() and the legacy per-bit loop share stimulus and
  // physics, so with noise off every estimate must match exactly.
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const optsc::TransientSimulator sim(c);
  optsc::SimulationConfig cfg;
  cfg.noise_enabled = false;
  for (std::size_t length : {100u, 4096u}) {
    cfg.stream_length = length;
    for (double x : {0.0, 0.2, 0.5, 0.8, 1.0}) {
      cfg.engine = optsc::SimEngine::kPerBit;
      const auto legacy = sim.run(sc::paper_f2_bernstein(), x, cfg);
      cfg.engine = optsc::SimEngine::kPacked;
      const auto packed = sim.run(sc::paper_f2_bernstein(), x, cfg);
      EXPECT_DOUBLE_EQ(packed.optical_estimate, legacy.optical_estimate) << x;
      EXPECT_DOUBLE_EQ(packed.electronic_estimate, legacy.electronic_estimate)
          << x;
      EXPECT_EQ(packed.transmission_flips, legacy.transmission_flips) << x;
    }
  }
}

TEST(PackedKernel, StrongLinkNoiseIsANoOp) {
  // The design-point BER ~ 0 at the reference probe power: running at the
  // noisy operating point must not alter a single decision.
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  cfg.op = design_operating_point(c).with_stream_length(4096);
  const PackedRunResult noisy = kernel.run(order2_poly(), 0.5, cfg);
  cfg.op = cfg.op.noiseless();
  const PackedRunResult clean = kernel.run(order2_poly(), 0.5, cfg);
  EXPECT_EQ(noisy.noise_flips, 0u);
  EXPECT_DOUBLE_EQ(noisy.optical_estimate, clean.optical_estimate);
}

TEST(NoiseFlips, FlipMaskStatisticsMatchTheOperatingPointBer) {
  // Size the probe for a BER around 2e-2 and check the flip counts are
  // binomial with that rate: mean within 5 sigma over a long stream.
  optsc::CircuitParams params = paper_defaults();
  {
    const OpticalScCircuit tmp(params);
    const optsc::LinkBudget budget(tmp, optsc::EyeModel::kPhysical);
    params.lasers.probe_power_mw = budget.min_probe_power_mw(2e-2);
  }
  const OpticalScCircuit c(params);
  const oscs::OperatingPoint op = design_operating_point(c);
  const double p = op.ber;
  ASSERT_NEAR(p, 2e-2, 1e-3);

  const std::size_t length = 1 << 16;
  sc::Bitstream stream(length);  // all zeros: flips == ones afterwards
  oscs::Xoshiro256 rng(99);
  const std::size_t flips = apply_noise_flips(stream, p, rng);
  EXPECT_EQ(stream.count_ones(), flips);
  const double mean = p * static_cast<double>(length);
  const double sigma = std::sqrt(mean * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(flips), mean, 5.0 * sigma);

  // Deterministic for a fixed RNG seed, and identical to the two-step
  // sample + apply pass the fused mode uses.
  sc::Bitstream again(length);
  oscs::Xoshiro256 rng2(99);
  const std::vector<std::size_t> positions =
      sample_flip_positions(length, p, rng2);
  flip_positions(again, positions);
  EXPECT_EQ(positions.size(), flips);
  EXPECT_EQ(again, stream);
}

TEST(PackedKernel, NoisyEstimateTracksTheAnalyticExpectation) {
  // With flip probability p the decoded value concentrates around
  // B(x) (1-p) + (1-B(x)) p. Check the Monte-Carlo mean against it.
  optsc::CircuitParams params = paper_defaults();
  {
    const OpticalScCircuit tmp(params);
    const optsc::LinkBudget budget(tmp, optsc::EyeModel::kPhysical);
    params.lasers.probe_power_mw = budget.min_probe_power_mw(5e-2);
  }
  const OpticalScCircuit c(params);
  const PackedKernel kernel(c);
  const oscs::OperatingPoint op =
      design_operating_point(c).with_stream_length(8192);
  const double p = op.ber;
  const sc::BernsteinPoly poly = order2_poly();
  const double x = 0.4;
  const double target = poly(x) * (1.0 - p) + (1.0 - poly(x)) * p;

  oscs::Accumulator acc;
  PackedRunConfig cfg;
  cfg.op = op;
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    cfg.stimulus_seed = 1000 + rep;
    cfg.noise_seed = 2000 + rep;
    acc.add(kernel.run(poly, x, cfg).optical_estimate);
  }
  EXPECT_NEAR(acc.mean(), target, acc.ci_halfwidth() + 0.01);
}

TEST(PackedKernel, NoisyEnginesAreStatisticallyConsistent) {
  // The packed noise model (worst-case analytic BER flips) and the legacy
  // Gaussian per-bit model must agree within combined CI bounds plus the
  // worst-case-vs-average BER gap (bounded by the flip probability).
  optsc::CircuitParams params = paper_defaults();
  {
    const OpticalScCircuit tmp(params);
    const optsc::LinkBudget budget(tmp, optsc::EyeModel::kPhysical);
    params.lasers.probe_power_mw = budget.min_probe_power_mw(2e-2);
  }
  const OpticalScCircuit c(params);
  const optsc::TransientSimulator sim(c);

  oscs::Accumulator packed_acc;
  oscs::Accumulator legacy_acc;
  optsc::SimulationConfig cfg;
  cfg.stream_length = 4096;
  for (std::uint64_t rep = 0; rep < 12; ++rep) {
    cfg.stimulus.seed = 300 + rep;
    cfg.noise_seed = 400 + rep;
    cfg.engine = optsc::SimEngine::kPacked;
    packed_acc.add(sim.run(order2_poly(), 0.5, cfg).optical_estimate);
    cfg.engine = optsc::SimEngine::kPerBit;
    legacy_acc.add(sim.run(order2_poly(), 0.5, cfg).optical_estimate);
  }
  const double tolerance = packed_acc.ci_halfwidth() +
                           legacy_acc.ci_halfwidth() +
                           sim.design_point().ber;
  EXPECT_NEAR(packed_acc.mean(), legacy_acc.mean(), tolerance);
}

TEST(PackedKernel, RejectsBadInputs) {
  const OpticalScCircuit c(paper_defaults());
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  EXPECT_THROW((void)kernel.run(sc::paper_f2_bernstein(), 0.5, cfg),
               std::invalid_argument);  // degree 3 on an order-2 circuit
  cfg.op.stream_length = 0;
  EXPECT_THROW((void)kernel.run(order2_poly(), 0.5, cfg),
               std::invalid_argument);
  cfg.op.stream_length = 64;
  cfg.op.ber = 0.75;  // outside [0, 0.5]
  EXPECT_THROW((void)kernel.run(order2_poly(), 0.5, cfg),
               std::invalid_argument);
  EXPECT_THROW(kernel.run_fused({}, {0.5}, PackedRunConfig{}),
               std::invalid_argument);
  // LFSR widths outside the lane loop's range, on both run paths.
  const std::vector<sc::SeparableProgram> programs = {
      sc::SeparableProgram(order2_poly())};
  for (unsigned width : {2u, 17u, 24u, 32u}) {
    PackedRunConfig wide;
    wide.op.sng_width = width;
    EXPECT_THROW((void)kernel.run_nd(programs[0], {0.5}, wide),
                 std::invalid_argument)
        << "width " << width;
    EXPECT_THROW((void)kernel.run_fused(programs, {0.5}, wide),
                 std::invalid_argument)
        << "width " << width;
  }

  sc::ScInputs bad;
  bad.x_streams.assign(2, sc::Bitstream(64));
  bad.z_streams.assign(2, sc::Bitstream(64));  // needs order + 1 = 3
  EXPECT_THROW(kernel.evaluate(bad), std::invalid_argument);
  bad.z_streams.assign(3, sc::Bitstream(32));  // ragged vs x streams
  EXPECT_THROW(kernel.evaluate(bad), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::engine
