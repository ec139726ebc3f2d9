/// \file test_separable_nd.cpp
/// \brief Bit-identity and correctness suite for the N-ary separable
///        entry point. run_nd at N=1/N=2 must reproduce the legacy
///        run/run2 and one-program fused results EXACTLY - same streams,
///        same seeds, same flip masks - across word-boundary stream
///        lengths, zero and nonzero BER, and both SIMD backends; the
///        general sum-of-rank-1 path must track its arithmetic
///        expectation, match the per-factor estimator in distribution
///        (its one-pass-per-axis stimulus shares data banks across
///        terms) and reject malformed requests. BatchRunner's unified
///        lattice (run_nd) is pinned against the legacy per-cell
///        decomposition the same way, and its words counter charges one
///        kernel pass per factor axis.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "obs/metrics.hpp"
#include "optsc/defaults.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

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

oscs::OperatingPoint test_op(double ber, std::size_t length) {
  return oscs::OperatingPoint{.probe_power_mw = 1.0,
                              .ber = ber,
                              .snr = 20.0,
                              .threshold_mw = 0.5,
                              .stream_length = length,
                              .sng_width = 16};
}

void expect_same_results(const PackedRunResult& a, const PackedRunResult& b,
                         const char* what, std::size_t length, double ber) {
  ASSERT_EQ(a.length, b.length) << what << " length " << length;
  ASSERT_EQ(a.noise_flips, b.noise_flips)
      << what << " length " << length << " ber " << ber;
  ASSERT_EQ(a.transmission_flips, b.transmission_flips)
      << what << " length " << length << " ber " << ber;
  // Bit-identical streams decode to bit-identical doubles: exact compare.
  ASSERT_EQ(a.optical_estimate, b.optical_estimate)
      << what << " length " << length << " ber " << ber;
  ASSERT_EQ(a.electronic_estimate, b.electronic_estimate)
      << what << " length " << length << " ber " << ber;
}

/// The N=1 dense delegation: run_nd must be bit-identical to run() and to
/// a one-program run_fused() - noise on and off, every word-boundary
/// regime, both backends.
TEST(SeparableRunNdBitIdentity, MatchesUnivariateRunAndFused) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const PackedKernel kernel(circuit);
  const sc::BernsteinPoly poly({0.1, 0.8, 0.3, 0.95});
  const sc::SeparableProgram program(poly);

  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : {1u, 63u, 64u, 65u, 4095u}) {
      for (double ber : {0.0, 1e-2}) {
        PackedRunConfig cfg;
        cfg.op = test_op(ber, length);
        cfg.stimulus_seed = 17;
        cfg.noise_seed = 23;
        const PackedRunResult nd = kernel.run_nd(program, {0.4}, cfg);
        const PackedRunResult legacy = kernel.run(poly, 0.4, cfg);
        const PackedRunResult fused =
            kernel.run_fused(std::vector{program}, {0.4}, cfg).front();
        expect_same_results(nd, legacy, "run_nd vs run", length, ber);
        expect_same_results(nd, fused, "run_nd vs run_fused", length, ber);
      }
    }
  }
}

/// The N=2 dense delegation against run2() and a one-program run_fused().
TEST(SeparableRunNdBitIdentity, MatchesBivariateRun2AndFused) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(2));
  const PackedKernel kernel(circuit, 2, 2);
  const sc::BernsteinPoly2 poly(
      2, 2, std::vector<double>{0.1, 0.5, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6});
  const sc::SeparableProgram program(poly);

  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : {1u, 63u, 64u, 65u, 4095u}) {
      for (double ber : {0.0, 1e-2}) {
        PackedRunConfig cfg;
        cfg.op = test_op(ber, length);
        cfg.stimulus_seed = 29;
        cfg.noise_seed = 31;
        const PackedRunResult nd = kernel.run_nd(program, {0.4, 0.7}, cfg);
        const PackedRunResult legacy = kernel.run2(poly, 0.4, 0.7, cfg);
        const PackedRunResult fused =
            kernel.run_fused(std::vector{program}, {0.4, 0.7}, cfg).front();
        expect_same_results(nd, legacy, "run_nd vs run2", length, ber);
        expect_same_results(nd, fused, "run_nd vs run_fused", length, ber);
      }
    }
  }
}

sc::SeparableProgram rank2_trilinear() {
  // x*(1-z) + y*z as two rank-1 terms of degree-1 factors.
  sc::SeparableTerm t1;
  t1.weight = 1.0;
  t1.factors = {{0, sc::BernsteinPoly({0.0, 1.0})},
                {2, sc::BernsteinPoly({1.0, 0.0})}};
  sc::SeparableTerm t2;
  t2.weight = 1.0;
  t2.factors = {{1, sc::BernsteinPoly({0.0, 1.0})},
                {2, sc::BernsteinPoly({0.0, 1.0})}};
  return sc::SeparableProgram(3, {t1, t2});
}

/// A general 3-ary program's estimate tracks its arithmetic expectation
/// (independent factor streams make the AND an unbiased multiplier).
TEST(SeparableRunNdGeneral, TracksArithmeticExpectation) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const PackedKernel kernel(circuit);
  const sc::SeparableProgram program = rank2_trilinear();

  PackedRunConfig cfg;
  cfg.op = test_op(0.0, 16384);
  cfg.stimulus_seed = 5;
  const std::vector<double> point{0.3, 0.8, 0.6};
  const PackedRunResult result = kernel.run_nd(program, point, cfg);
  // x(1-z) + yz = 0.3*0.4 + 0.8*0.6 = 0.6
  EXPECT_NEAR(result.optical_estimate, program(point), 0.03);
  EXPECT_NEAR(program(point), 0.6, 1e-12);
}

/// The general path is backend-invariant too (scalar and AVX2 share the
/// word-parallel factor passes and the AND/popcount fold).
TEST(SeparableRunNdGeneral, GeneralProgramBitIdenticalAcrossBackends) {
  if (available_backends().size() < 2) {
    GTEST_SKIP() << "AVX2 backend not available";
  }
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const PackedKernel kernel(circuit);
  const sc::SeparableProgram program = rank2_trilinear();
  for (std::size_t length : {1u, 63u, 64u, 65u, 4095u}) {
    for (double ber : {0.0, 1e-2}) {
      PackedRunConfig cfg;
      cfg.op = test_op(ber, length);
      cfg.stimulus_seed = 11;
      cfg.noise_seed = 13;
      PackedRunResult scalar, avx2;
      {
        ScopedBackend scope(oscs::SimdBackend::kScalar);
        scalar = kernel.run_nd(program, {0.3, 0.8, 0.6}, cfg);
      }
      {
        ScopedBackend scope(oscs::SimdBackend::kAvx2);
        avx2 = kernel.run_nd(program, {0.3, 0.8, 0.6}, cfg);
      }
      expect_same_results(scalar, avx2, "general run_nd", length, ber);
    }
  }
}

/// A rank-3 program over all three axes with degree-3 factors: every
/// axis carries one factor per term.
sc::SeparableProgram rank3_cubic() {
  const auto term = [](double weight, std::vector<double> cx,
                       std::vector<double> cy, std::vector<double> cz) {
    sc::SeparableTerm t;
    t.weight = weight;
    t.factors = {{0, sc::BernsteinPoly(std::move(cx))},
                 {1, sc::BernsteinPoly(std::move(cy))},
                 {2, sc::BernsteinPoly(std::move(cz))}};
    return t;
  };
  return sc::SeparableProgram(
      3, {term(0.5, {0.1, 0.6, 0.8, 0.9}, {0.9, 0.4, 0.3, 0.2},
               {0.2, 0.7, 0.5, 1.0}),
          term(0.3, {0.8, 0.2, 0.4, 0.1}, {0.3, 0.9, 0.6, 0.7},
               {1.0, 0.5, 0.2, 0.0}),
          term(0.2, {0.4, 0.4, 0.9, 0.6}, {0.0, 0.3, 0.8, 1.0},
               {0.6, 0.1, 0.9, 0.3})});
}

/// The per-factor estimator, written with public calls: every factor
/// draws its own stimulus (make_sc_inputs, in the kernel's layout) and its
/// own receiver flips (sample_flip_positions) from independent seeds, the
/// factor streams of a term are ANDed, and the weighted term densities are
/// summed.
double per_factor_estimate(const PackedKernel& kernel,
                           const sc::SeparableProgram& program,
                           const std::vector<double>& point,
                           std::size_t length, double ber,
                           std::uint64_t seed) {
  oscs::SplitMix64 seeds(seed);
  double estimate = 0.0;
  for (const sc::SeparableTerm& term : program.terms()) {
    sc::Bitstream product;
    for (const sc::SeparableFactor& factor : term.factors) {
      const sc::ScInputs inputs = sc::make_sc_inputs(
          point[factor.axis], factor.poly.coeffs(), kernel.order(), length,
          {sc::SourceKind::kLfsr, 16, seeds.next()},
          kernel.stimulus_layout());
      sc::Bitstream stream = kernel.evaluate(inputs).optical;
      oscs::Xoshiro256 rng(seeds.next());
      flip_positions(stream, sample_flip_positions(stream.size(), ber, rng));
      product = product.empty() ? std::move(stream) : product & stream;
    }
    estimate += term.weight * product.probability();
  }
  return estimate;
}

/// run_nd on a general program against the per-factor estimator over many
/// seeds: factors within a term are independent either way, so the two
/// estimators must agree in mean, and sharing a data bank across terms
/// must not widen the spread beyond sampling noise (1.15x).
TEST(SeparableRunNdFusion, PerAxisEstimatorMatchesPerFactorInDistribution) {
  constexpr std::size_t kSeeds = 400;
  constexpr std::size_t kLength = 4096;
  struct Case {
    const char* name;
    sc::SeparableProgram program;
    std::size_t order;
    std::vector<double> point;
  };
  const std::vector<Case> cases = {
      {"rank2_trilinear", rank2_trilinear(), 1, {0.3, 0.8, 0.6}},
      {"rank3_cubic", rank3_cubic(), 3, {0.35, 0.6, 0.8}}};
  for (const Case& c : cases) {
    const optsc::OpticalScCircuit circuit(optsc::paper_defaults(c.order));
    const PackedKernel kernel(circuit);
    for (double ber : {0.0, 1e-2}) {
      PackedRunConfig cfg;
      cfg.op = test_op(ber, kLength);
      oscs::Accumulator fused;
      oscs::Accumulator reference;
      for (std::size_t s = 0; s < kSeeds; ++s) {
        cfg.stimulus_seed = derive_task_seed(2024, s, 0);
        cfg.noise_seed = derive_task_seed(2024, s, 1);
        fused.add(kernel.run_nd(c.program, c.point, cfg).optical_estimate);
        reference.add(per_factor_estimate(kernel, c.program, c.point,
                                          kLength, ber,
                                          derive_task_seed(4048, s, 0)));
      }
      const double n = static_cast<double>(kSeeds);
      const double se =
          std::sqrt(fused.variance() / n + reference.variance() / n);
      EXPECT_LE(std::abs(fused.mean() - reference.mean()), 4.0 * se)
          << c.name << " ber " << ber << " fused " << fused.mean()
          << " reference " << reference.mean();
      EXPECT_LE(fused.stddev(), 1.15 * reference.stddev())
          << c.name << " ber " << ber;
    }
  }
}

TEST(SeparableRunNdGeneral, RejectsMalformedRequests) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const PackedKernel kernel(circuit);
  const sc::SeparableProgram program = rank2_trilinear();
  PackedRunConfig cfg;
  cfg.op = test_op(0.0, 256);

  // Point arity mismatch.
  EXPECT_THROW((void)kernel.run_nd(program, {0.3, 0.8}, cfg),
               std::invalid_argument);
  // Factor degree must match the circuit order (kernel is order 1 here;
  // a degree-2 factor cannot run on it).
  sc::SeparableTerm bad;
  bad.factors = {{0, sc::BernsteinPoly({0.1, 0.5, 0.9})}};
  EXPECT_THROW((void)kernel.run_nd(sc::SeparableProgram(3, {bad}),
                                   {0.1, 0.2, 0.3}, cfg),
               std::invalid_argument);
  // General programs need a univariate kernel.
  const optsc::OpticalScCircuit c2(optsc::paper_defaults(1));
  const PackedKernel kernel2(c2, 1, 1);
  EXPECT_THROW((void)kernel2.run_nd(program, {0.3, 0.8, 0.6}, cfg),
               std::invalid_argument);
}

/// BatchRunner::run_nd on a dense-wrapped program list over the legacy
/// point grid must reproduce run_nd on the raw polynomials spelling
/// cell for cell (same task lattice, same derived seeds).
TEST(SeparableBatchRunNd, DenseWrappedBatchMatchesLegacyRun) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(3));
  const BatchRunner runner(circuit);
  const sc::BernsteinPoly poly({0.2, 0.9, 0.4, 0.7});

  BatchRequest legacy;
  legacy.polynomials = {poly};
  legacy.xs = {0.25, 0.5, 0.75};
  legacy.stream_lengths = {255, 256};
  legacy.repeats = 3;
  legacy.seed = 99;

  BatchRequest nd;
  nd.programs_nd = {sc::SeparableProgram(poly)};
  nd.inputs = {legacy.xs};
  nd.stream_lengths = legacy.stream_lengths;
  nd.repeats = legacy.repeats;
  nd.seed = legacy.seed;

  const BatchSummary a = runner.run_nd(legacy, /*threads=*/2);
  const BatchSummary b = runner.run_nd(nd, /*threads=*/2);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].optical_mean, b.cells[i].optical_mean) << i;
    EXPECT_EQ(a.cells[i].optical_abs_error_mean,
              b.cells[i].optical_abs_error_mean)
        << i;
    EXPECT_EQ(a.cells[i].expected, b.cells[i].expected) << i;
  }
  EXPECT_EQ(a.optical_mae, b.optical_mae);
  EXPECT_EQ(a.total_bits, b.total_bits);
}

/// The words counter charges a general program one kernel pass per factor
/// axis (rank2_trilinear reads axes 0, 1 and 2), a dense program one pass
/// unfused, and a fused dense batch one shared pass.
TEST(SeparableBatchRunNd, WordsCounterChargesOnePassPerFactorAxis) {
  obs::Counter& words = obs::Registry::global().counter(
      "oscs_engine_words_processed_total",
      "64-bit stimulus words processed by the packed kernel");
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const BatchRunner runner(circuit);
  // 100 + 256 bits = 2 + 4 words per (point, repeat); 2 points x 3 repeats.
  constexpr std::uint64_t kWordsPerPass = (2 + 4) * 2 * 3;

  BatchRequest nd;
  nd.programs_nd = {rank2_trilinear()};
  nd.inputs = {{0.1, 0.5}, {0.2, 0.6}, {0.3, 0.7}};
  nd.stream_lengths = {100, 256};
  nd.repeats = 3;
  std::uint64_t before = words.value();
  (void)runner.run_nd(nd, 1);
  EXPECT_EQ(words.value() - before, 3 * kWordsPerPass);

  BatchRequest dense;
  dense.polynomials = {sc::BernsteinPoly({0.2, 0.7}),
                       sc::BernsteinPoly({0.9, 0.1})};
  dense.xs = {0.25, 0.75};
  dense.stream_lengths = {100, 256};
  dense.repeats = 3;
  before = words.value();
  (void)runner.run_nd(dense, 1);
  EXPECT_EQ(words.value() - before, 2 * kWordsPerPass);
  before = words.value();
  (void)runner.run_fused(dense, 1);
  EXPECT_EQ(words.value() - before, kWordsPerPass);
}

TEST(SeparableBatchValidation, NdRequestGuardsFire) {
  const optsc::OpticalScCircuit circuit(optsc::paper_defaults(1));
  const BatchRunner runner(circuit);
  const sc::SeparableProgram program = rank2_trilinear();

  // Arity/axis-count mismatch.
  BatchRequest wrong_axes;
  wrong_axes.programs_nd = {program};
  wrong_axes.inputs = {{0.1}, {0.2}};
  EXPECT_THROW(runner.run_nd(wrong_axes, 1), std::invalid_argument);

  // xs is a dense-path member; N-ary points ride in inputs.
  BatchRequest mixed;
  mixed.programs_nd = {program};
  mixed.inputs = {{0.1}, {0.2}, {0.3}};
  mixed.xs = {0.1};
  EXPECT_THROW(runner.run_nd(mixed, 1), std::invalid_argument);

  // Axes must pair element-wise.
  BatchRequest ragged;
  ragged.programs_nd = {program};
  ragged.inputs = {{0.1, 0.4}, {0.2}, {0.3, 0.5}};
  EXPECT_THROW(runner.run_nd(ragged, 1), std::invalid_argument);

  // Out-of-range coordinate on a later axis.
  BatchRequest range;
  range.programs_nd = {program};
  range.inputs = {{0.1}, {0.2}, {1.3}};
  EXPECT_THROW(runner.run_nd(range, 1), std::invalid_argument);

  // The fused path stays dense-only: an otherwise-valid N-ary request is
  // rejected by run_fused itself.
  BatchRequest fused;
  fused.programs_nd = {program};
  fused.inputs = {{0.1}, {0.2}, {0.3}};
  fused.stream_lengths = {64};
  fused.repeats = 1;
  EXPECT_THROW(runner.run_fused(fused, 1), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::engine
