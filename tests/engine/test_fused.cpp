#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/simd.hpp"
#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/functions.hpp"
#include "stochastic/resc.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;
using optsc::design_operating_point;
using optsc::OpticalScCircuit;
using optsc::paper_defaults;

class ScopedBackend {
 public:
  explicit ScopedBackend(oscs::SimdBackend backend) {
    oscs::set_simd_backend(backend);
  }
  ~ScopedBackend() { oscs::reset_simd_backend(); }
};

std::vector<oscs::SimdBackend> available_backends() {
  std::vector<oscs::SimdBackend> backends = {oscs::SimdBackend::kScalar};
  if (oscs::simd_avx2_compiled() && oscs::simd_avx2_runtime()) {
    backends.push_back(oscs::SimdBackend::kAvx2);
  }
  return backends;
}

std::vector<sc::BernsteinPoly> order3_programs() {
  return {sc::paper_f2_bernstein(), sc::BernsteinPoly({0.0, 0.1, 0.6, 1.0}),
          sc::BernsteinPoly({0.9, 0.3, 0.2, 0.5})};
}

std::vector<sc::SeparableProgram> as_programs(
    const std::vector<sc::BernsteinPoly>& polys) {
  return {polys.begin(), polys.end()};
}

TEST(FusedStimulus, ProgramZeroMatchesTheUnfusedStimulusBitForBit) {
  const auto polys = order3_programs();
  std::vector<std::vector<double>> coeffs;
  for (const auto& p : polys) coeffs.push_back(p.coeffs());
  sc::ScInputConfig config;
  config.seed = 77;
  const sc::FusedScInputs2 fused =
      sc::make_fused_sc_inputs2(0.4, 0.0, coeffs, 3, 0, 640, config);
  const sc::ScInputs single =
      sc::make_sc_inputs(0.4, coeffs[0], 3, 640, config);

  ASSERT_EQ(fused.programs(), 3u);
  ASSERT_EQ(fused.order_x(), 3u);
  ASSERT_EQ(fused.length(), 640u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fused.x_streams[i], single.x_streams[i]) << "x stream " << i;
  }
  for (std::size_t j = 0; j <= 3; ++j) {
    EXPECT_EQ(fused.z_streams[0][j], single.z_streams[j]) << "z stream " << j;
  }
  // Later programs draw fresh salts: their coefficient streams must not
  // repeat program 0's even for equal coefficient values.
  const sc::FusedScInputs2 same_coeffs = sc::make_fused_sc_inputs2(
      0.4, 0.0, {coeffs[0], coeffs[0]}, 3, 0, 640, config);
  EXPECT_NE(same_coeffs.z_streams[1][0], same_coeffs.z_streams[0][0]);

  EXPECT_THROW(sc::make_fused_sc_inputs2(0.4, 0.0, {}, 3, 0, 64, config),
               std::invalid_argument);
  EXPECT_THROW(
      sc::make_fused_sc_inputs2(0.4, 0.0, {{0.5, 0.5}}, 3, 0, 64, config),
      std::invalid_argument);
}

TEST(FusedKernel, EvaluateFusedMatchesPerProgramEvaluate) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  const auto polys = order3_programs();
  std::vector<std::vector<double>> coeffs;
  for (const auto& p : polys) coeffs.push_back(p.coeffs());
  const sc::FusedScInputs2 fused = sc::make_fused_sc_inputs2(
      0.55, 0.0, coeffs, 3, 0, 1000, {}, kernel.stimulus_layout());

  // A noiseless fused run builds exactly this stimulus (default source,
  // width and seed, the kernel's layout) and decodes every program's
  // streams.
  PackedRunConfig cfg;
  cfg.op.stream_length = 1000;
  const std::vector<PackedRunResult> all =
      kernel.run_fused(as_programs(polys), {0.55}, cfg);
  ASSERT_EQ(all.size(), polys.size());
  for (std::size_t k = 0; k < polys.size(); ++k) {
    const sc::ScInputs program_k{fused.x_streams, fused.z_streams[k]};
    const PackedKernel::Streams one = kernel.evaluate(program_k);
    EXPECT_EQ(all[k].optical_estimate, one.optical.probability())
        << "program " << k;
    EXPECT_EQ(all[k].electronic_estimate, one.electronic.probability())
        << "program " << k;
    EXPECT_EQ(all[k].transmission_flips,
              (one.optical ^ one.electronic).count_ones())
        << "program " << k;
    // The ReSC baseline on the same shared stimulus agrees too.
    const sc::ReSCUnit unit(polys[k]);
    EXPECT_EQ(one.electronic, unit.output_stream(program_k))
        << "program " << k;
  }
}

TEST(FusedKernel, OneProgramFusedRunIsBitIdenticalToRun) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  cfg.op = design_operating_point(c).with_stream_length(2048);
  cfg.op.ber = 0.03;  // force a busy flip mask
  cfg.stimulus_seed = 5;
  cfg.noise_seed = 6;
  const sc::BernsteinPoly poly = sc::paper_f2_bernstein();
  const PackedRunResult single = kernel.run(poly, 0.3, cfg);
  const std::vector<PackedRunResult> fused =
      kernel.run_fused(std::vector{sc::SeparableProgram(poly)}, {0.3}, cfg);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_DOUBLE_EQ(fused[0].optical_estimate, single.optical_estimate);
  EXPECT_DOUBLE_EQ(fused[0].electronic_estimate, single.electronic_estimate);
  EXPECT_EQ(fused[0].noise_flips, single.noise_flips);
  EXPECT_EQ(fused[0].transmission_flips, single.transmission_flips);
}

TEST(FusedKernel, ProgramsShareOneFlipMaskPass) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const PackedKernel kernel(c);
  PackedRunConfig cfg;
  cfg.op = design_operating_point(c).with_stream_length(4096);
  cfg.op.ber = 0.05;
  const auto results =
      kernel.run_fused(as_programs(order3_programs()), {0.5}, cfg);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].noise_flips, 0u);
  // One sampled mask applied to every program.
  EXPECT_EQ(results[0].noise_flips, results[1].noise_flips);
  EXPECT_EQ(results[0].noise_flips, results[2].noise_flips);
  for (const PackedRunResult& r : results) {
    EXPECT_GE(r.transmission_flips, 1u);
    EXPECT_EQ(r.length, 4096u);
  }
}

TEST(FusedBatch, CellsMatchRunOrderAndAgreeStatistically) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const BatchRunner runner(c);
  BatchRequest req;
  req.polynomials = order3_programs();
  req.xs = {0.25, 0.5, 0.75};
  req.stream_lengths = {1024, 4096};
  req.repeats = 6;
  req.seed = 9;

  const BatchSummary unfused = runner.run_nd(req, std::size_t{2});
  const BatchSummary fused = runner.run_fused(req, std::size_t{2});
  ASSERT_EQ(fused.cells.size(), unfused.cells.size());
  EXPECT_EQ(fused.tasks, req.xs.size() * req.stream_lengths.size() *
                             req.repeats * req.polynomials.size());
  EXPECT_EQ(fused.total_bits, unfused.total_bits);
  for (std::size_t i = 0; i < fused.cells.size(); ++i) {
    const BatchCell& f = fused.cells[i];
    const BatchCell& u = unfused.cells[i];
    EXPECT_EQ(f.poly_index, u.poly_index);
    EXPECT_DOUBLE_EQ(f.x, u.x);
    EXPECT_EQ(f.stream_length, u.stream_length);
    EXPECT_DOUBLE_EQ(f.expected, u.expected);
    // Different sample layout, same estimator: means agree within the
    // combined confidence intervals (loose factor for the short runs).
    EXPECT_NEAR(f.optical_mean, u.optical_mean,
                3.0 * (f.optical_ci + u.optical_ci) + 0.02);
  }
}

TEST(FusedBatch, DeterministicAcrossThreadCounts) {
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const BatchRunner runner(c);
  BatchRequest req;
  req.polynomials = order3_programs();
  req.xs = {0.3, 0.7};
  req.stream_lengths = {512};
  req.repeats = 4;
  req.seed = 123;
  // Run at a noisy operating point so the flip path is exercised too.
  req.op = runner.design_point();
  req.op->ber = 0.02;

  const BatchSummary one = runner.run_fused(req, std::size_t{1});
  for (std::size_t threads : {2u, 4u}) {
    const BatchSummary many = runner.run_fused(req, threads);
    ASSERT_EQ(many.cells.size(), one.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_DOUBLE_EQ(many.cells[i].optical_mean, one.cells[i].optical_mean);
      EXPECT_DOUBLE_EQ(many.cells[i].flip_rate_mean,
                       one.cells[i].flip_rate_mean);
    }
  }
  EXPECT_DOUBLE_EQ(one.op.ber, 0.02);
}

TEST(FusedBatch, SingleSpellingIsBitIdenticalOnEveryBackend) {
  // Dense programs handed over as programs_nd + inputs fuse exactly like
  // the polynomials + xs spelling: same cells, bit for bit.
  const OpticalScCircuit c(paper_defaults(3, 1.0));
  const BatchRunner runner(c);
  BatchRequest legacy;
  legacy.polynomials = order3_programs();
  legacy.xs = {0.2, 0.55, 0.9};
  legacy.stream_lengths = {63, 1024};
  legacy.repeats = 3;
  legacy.seed = 41;
  legacy.op = runner.design_point();
  legacy.op->ber = 0.02;
  BatchRequest single = legacy;
  single.polynomials.clear();
  for (const sc::BernsteinPoly& poly : legacy.polynomials) {
    single.programs_nd.emplace_back(poly);
  }
  single.inputs = {legacy.xs};
  single.xs.clear();

  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    const BatchSummary a = runner.run_fused(legacy, std::size_t{2});
    const BatchSummary b = runner.run_fused(single, std::size_t{2});
    ASSERT_EQ(a.cells.size(), b.cells.size());
    EXPECT_EQ(a.total_bits, b.total_bits);
    EXPECT_EQ(a.optical_mae, b.optical_mae);
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      EXPECT_EQ(a.cells[i].x, b.cells[i].x) << "cell " << i;
      EXPECT_EQ(a.cells[i].expected, b.cells[i].expected) << "cell " << i;
      EXPECT_EQ(a.cells[i].optical_mean, b.cells[i].optical_mean)
          << "cell " << i;
      EXPECT_EQ(a.cells[i].optical_ci, b.cells[i].optical_ci) << "cell " << i;
      EXPECT_EQ(a.cells[i].flip_rate_mean, b.cells[i].flip_rate_mean)
          << "cell " << i;
    }
  }
}

}  // namespace
}  // namespace oscs::engine
