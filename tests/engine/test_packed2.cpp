/// Edge-case tests for the bivariate (2D coefficient LUT) packed-kernel
/// path, mirroring the univariate tail-mask regressions: word-boundary
/// stream lengths, degree-0 on one axis, corners of the unit square - all
/// asserting bit-identical agreement with the electronic ReSC2Unit at
/// BER 0 - plus the fused two-bank mode and the arity/order error
/// contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/resc.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

const optsc::OpticalScCircuit& circuit2() {
  static const optsc::OpticalScCircuit instance(optsc::paper_defaults(2));
  return instance;
}

sc::BernsteinPoly2 grid_poly(std::size_t deg_x, std::size_t deg_y,
                             std::uint64_t salt = 0) {
  // Deterministic, non-symmetric coefficient grid in [0, 1].
  std::vector<double> coeffs((deg_x + 1) * (deg_y + 1), 0.0);
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    coeffs[k] =
        static_cast<double>((7 * k + 3 * salt + 1) % 11) / 10.0;
  }
  return sc::BernsteinPoly2(deg_x, deg_y, std::move(coeffs));
}

/// (deg_x, deg_y, stream length): the length sweep crosses every
/// word-boundary regime (sub-word, word-1, exact word, word+1, many
/// words with a partial tail), the degree pairs include a degree-0 axis
/// on either side.
using Case = std::tuple<std::size_t, std::size_t, std::size_t>;

class BivariatePackedEdgeTest : public ::testing::TestWithParam<Case> {};

TEST_P(BivariatePackedEdgeTest, Evaluate2BitIdenticalToReSC2AtBerZero) {
  const auto [deg_x, deg_y, length] = GetParam();
  const sc::BernsteinPoly2 poly = grid_poly(deg_x, deg_y);
  const PackedKernel kernel(circuit2(), deg_x, deg_y);
  const sc::ReSC2Unit unit(poly);

  const sc::ScInputs2 inputs = sc::make_sc_inputs2(
      0.35, 0.8, poly.coeffs(), deg_x, deg_y, length, {.seed = 13});
  const PackedKernel::Streams streams = kernel.evaluate2(inputs);
  const sc::Bitstream reference = unit.output_stream(inputs);
  EXPECT_EQ(streams.electronic, reference);
  // The bivariate decision model is mux-exact: the noiseless optical
  // stream equals the electronic MUX output bit for bit.
  EXPECT_EQ(streams.optical, reference);
}

TEST_P(BivariatePackedEdgeTest, Run2MatchesReSC2EstimateAtBerZero) {
  const auto [deg_x, deg_y, length] = GetParam();
  const sc::BernsteinPoly2 poly = grid_poly(deg_x, deg_y, /*salt=*/5);
  const PackedKernel kernel(circuit2(), deg_x, deg_y);
  const sc::ReSC2Unit unit(poly);

  PackedRunConfig cfg;
  cfg.op.stream_length = length;
  cfg.op.ber = 0.0;
  cfg.stimulus_seed = 99;
  const PackedRunResult result = kernel.run2(poly, 0.6, 0.25, cfg);
  const double reference = unit.evaluate(
      sc::make_sc_inputs2(0.6, 0.25, poly.coeffs(), deg_x, deg_y, length,
                          {.seed = 99}, kernel.stimulus_layout()));
  EXPECT_DOUBLE_EQ(result.optical_estimate, reference);
  EXPECT_DOUBLE_EQ(result.electronic_estimate, reference);
  EXPECT_EQ(result.transmission_flips, 0u);
  EXPECT_EQ(result.noise_flips, 0u);
  EXPECT_EQ(result.length, length);
}

INSTANTIATE_TEST_SUITE_P(
    TailMaskAndDegenerateAxes, BivariatePackedEdgeTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2),
                       ::testing::Values<std::size_t>(0, 1, 3),
                       ::testing::Values<std::size_t>(1, 63, 64, 65, 4095)),
    [](const auto& info) {
      return "dx" + std::to_string(std::get<0>(info.param)) + "_dy" +
             std::to_string(std::get<1>(info.param)) + "_len" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BivariatePackedKernelTest, UnitSquareCornersMatchReSC2) {
  // At the corners of the unit square both data banks are constant
  // streams: the MUX pins one coefficient. Bit-identical to the
  // electronic unit everywhere; exact where the pinned coefficient is 0
  // or 1 (those streams are constant too).
  const sc::BernsteinPoly2 poly(1, 1, {0.0, 0.25, 0.5, 1.0});
  const PackedKernel kernel(circuit2(), 1, 1);
  const sc::ReSC2Unit unit(poly);
  PackedRunConfig cfg;
  cfg.op.stream_length = 4096;
  cfg.stimulus_seed = 77;
  for (double x : {0.0, 1.0}) {
    for (double y : {0.0, 1.0}) {
      const PackedRunResult r = kernel.run2(poly, x, y, cfg);
      const double reference = unit.evaluate(
          sc::make_sc_inputs2(x, y, poly.coeffs(), 1, 1, 4096, {.seed = 77},
                              kernel.stimulus_layout()));
      EXPECT_DOUBLE_EQ(r.optical_estimate, reference)
          << "corner (" << x << ", " << y << ")";
    }
  }
  EXPECT_DOUBLE_EQ(kernel.run2(poly, 0.0, 0.0, cfg).optical_estimate, 0.0);
  EXPECT_DOUBLE_EQ(kernel.run2(poly, 1.0, 1.0, cfg).optical_estimate, 1.0);
}

TEST(BivariatePackedKernelTest, FusedOneProgramBitIdenticalToRun2) {
  const sc::BernsteinPoly2 poly = grid_poly(2, 2);
  const PackedKernel kernel(circuit2(), 2, 2);
  PackedRunConfig cfg;
  cfg.op.stream_length = 1000;
  cfg.op.ber = 0.01;
  cfg.stimulus_seed = 4;
  cfg.noise_seed = 5;
  const PackedRunResult single = kernel.run2(poly, 0.3, 0.7, cfg);
  const std::vector<PackedRunResult> fused =
      kernel.run_fused(std::vector{sc::SeparableProgram(poly)}, {0.3, 0.7},
                       cfg);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_DOUBLE_EQ(fused[0].optical_estimate, single.optical_estimate);
  EXPECT_DOUBLE_EQ(fused[0].electronic_estimate, single.electronic_estimate);
  EXPECT_EQ(fused[0].noise_flips, single.noise_flips);
}

TEST(BivariatePackedKernelTest, FusedSharesBanksAndFlipMask) {
  const std::vector<sc::BernsteinPoly2> polys = {grid_poly(1, 2, 1),
                                                 grid_poly(1, 2, 2),
                                                 grid_poly(1, 2, 3)};
  const PackedKernel kernel(circuit2(), 1, 2);
  PackedRunConfig cfg;
  cfg.op.stream_length = 2048;
  cfg.op.ber = 0.02;
  const std::vector<PackedRunResult> results =
      kernel.run_fused(
          std::vector<sc::SeparableProgram>(polys.begin(), polys.end()),
          {0.45, 0.65}, cfg);
  ASSERT_EQ(results.size(), 3u);
  // One flip-mask pass: every program reports the same injected flips.
  EXPECT_GT(results[0].noise_flips, 0u);
  EXPECT_EQ(results[0].noise_flips, results[1].noise_flips);
  EXPECT_EQ(results[1].noise_flips, results[2].noise_flips);
  // Program 0 is bit-identical to the unfused run on the same seeds.
  const PackedRunResult lone = kernel.run2(polys[0], 0.45, 0.65, cfg);
  EXPECT_DOUBLE_EQ(results[0].optical_estimate, lone.optical_estimate);
}

TEST(BivariatePackedKernelTest, NoiseFlipsScaleWithBer) {
  const sc::BernsteinPoly2 poly = grid_poly(1, 1);
  const PackedKernel kernel(circuit2(), 1, 1);
  PackedRunConfig cfg;
  cfg.op.stream_length = 1 << 14;
  cfg.op.ber = 0.05;
  const PackedRunResult r = kernel.run2(poly, 0.5, 0.5, cfg);
  EXPECT_GT(r.noise_flips, 0u);
  EXPECT_NEAR(static_cast<double>(r.noise_flips) / (1 << 14), 0.05, 0.02);
  EXPECT_EQ(r.transmission_flips, r.noise_flips);
}

TEST(BivariatePackedKernelTest, ArityAndOrderErrorContract) {
  const PackedKernel kernel2(circuit2(), 2, 1);
  const PackedKernel kernel1(circuit2());
  PackedRunConfig cfg;
  cfg.op.stream_length = 64;

  // Univariate entry points on a bivariate kernel and vice versa.
  EXPECT_THROW((void)kernel2.run(sc::BernsteinPoly({0.1, 0.5, 0.9}), 0.5, cfg),
               std::invalid_argument);
  EXPECT_THROW((void)kernel1.run2(grid_poly(2, 1), 0.5, 0.5, cfg),
               std::invalid_argument);
  // Per-axis order mismatches.
  EXPECT_THROW((void)kernel2.run2(grid_poly(1, 1), 0.5, 0.5, cfg),
               std::invalid_argument);
  EXPECT_THROW((void)kernel2.run2(grid_poly(2, 2), 0.5, 0.5, cfg),
               std::invalid_argument);
  // Empty program list and order caps.
  EXPECT_THROW((void)kernel2.run_fused({}, {0.5, 0.5}, cfg),
               std::invalid_argument);
  EXPECT_THROW(PackedKernel(circuit2(), PackedKernel::kMaxOrder + 1, 1),
               std::invalid_argument);
  EXPECT_THROW(PackedKernel(circuit2(), 1, PackedKernel::kMaxOrder + 1),
               std::invalid_argument);
}

TEST(BivariatePackedKernelTest, EmptyStimulusOnDegenerateKernelThrows) {
  // Both orders 0: the stream length comes from the coefficient stream,
  // so an all-empty stimulus must fail the shape check instead of
  // dereferencing a missing stream.
  const PackedKernel kernel(circuit2(), 0, 0);
  EXPECT_THROW((void)kernel.evaluate2(sc::ScInputs2{}),
               std::invalid_argument);
}

TEST(BivariatePackedKernelTest, BivariateAccessorsReportMode) {
  const PackedKernel kernel(circuit2(), 2, 3);
  EXPECT_TRUE(kernel.bivariate());
  EXPECT_EQ(kernel.order(), 2u);
  EXPECT_EQ(kernel.order_y(), 3u);
  EXPECT_TRUE(kernel.mux_exact());

  const PackedKernel uni(circuit2());
  EXPECT_FALSE(uni.bivariate());
  EXPECT_EQ(uni.order_y(), 0u);
}

}  // namespace
}  // namespace oscs::engine
