/// \file test_stimulus_v2.cpp
/// \brief Stimulus contract v2 against v1 in distribution, over every
///        registry program.
///
/// v2 draws one comparator per coefficient set instead of one per cell.
/// The MUX reads one cell per cycle, so each output bit keeps
/// P(out = 1 | k) = c_k and the estimator stays unbiased; the leap-16
/// comparator walk keeps its spread at v1's. This suite checks both on
/// the 13 dense and 3 N-ary registry programs: per grid point and BER,
/// over 400 decorrelated seeds at 4096 bits, the v2 run path (run_nd)
/// against the v1 estimator built from public calls (one salt per cell,
/// the same receiver flips), the mean gap must lie within 4 SE, and the
/// standard deviation ratio v2 / v1, pooled per program over its points,
/// must stay at most 1.10. A ratio below 0.9 (less spread) is reported,
/// not failed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "engine/packed_sim.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

constexpr std::size_t kSeeds = 400;
constexpr std::size_t kLength = 4096;

/// The v1 estimate of one evaluation, with public calls: per axis pass
/// (one pass for a dense program) the one-salt-per-cell stimulus through
/// the bit-plane core, per-factor flips, AND per term, weighted sum.
double v1_estimate(const PackedKernel& kernel,
                   const sc::SeparableProgram& program,
                   const std::vector<double>& point,
                   const PackedRunConfig& cfg) {
  const std::size_t length = cfg.op.stream_length;
  const sc::StimulusLayout v1 = sc::StimulusLayout::kPerCell;
  const auto flipped = [&](sc::Bitstream stream, std::uint64_t seed) {
    oscs::Xoshiro256 rng(seed);
    flip_positions(stream,
                   sample_flip_positions(stream.size(), cfg.op.ber, rng));
    return stream;
  };
  if (program.has_dense1() || program.has_dense2()) {
    const sc::ScInputConfig stimulus{cfg.source_kind, cfg.op.sng_width,
                                     cfg.stimulus_seed};
    const std::vector<double>& coeffs = program.has_dense1()
                                            ? program.dense1().coeffs()
                                            : program.dense2().coeffs();
    const sc::ScInputs2 inputs = sc::make_sc_inputs2(
        point[0], point.size() > 1 ? point[1] : 0.0, coeffs, kernel.order(),
        kernel.order_y(), length, stimulus, v1);
    return flipped(kernel.evaluate2(inputs).optical, cfg.noise_seed)
        .probability();
  }
  std::vector<sc::Bitstream> optical;
  for (const sc::SeparableTerm& term : program.terms()) {
    optical.resize(optical.size() + term.factors.size());
  }
  for (std::size_t a = 0; a < program.arity(); ++a) {
    std::vector<std::vector<double>> coeffs;
    std::vector<std::size_t> index;
    std::size_t f = 0;
    for (const sc::SeparableTerm& term : program.terms()) {
      for (const sc::SeparableFactor& factor : term.factors) {
        if (factor.axis == a) {
          coeffs.push_back(factor.poly.coeffs());
          index.push_back(f);
        }
        ++f;
      }
    }
    if (coeffs.empty()) continue;
    const sc::FusedScInputs2 fused = sc::make_fused_sc_inputs2(
        point[a], 0.0, coeffs, kernel.order(), 0, length,
        {cfg.source_kind, cfg.op.sng_width,
         derive_factor_seed(cfg.stimulus_seed, a)},
        v1);
    for (std::size_t s = 0; s < coeffs.size(); ++s) {
      optical[index[s]] = flipped(kernel.evaluate2(fused.program(s)).optical,
                                  derive_factor_seed(cfg.noise_seed, index[s]));
    }
  }
  double estimate = 0.0;
  std::size_t f = 0;
  for (const sc::SeparableTerm& term : program.terms()) {
    sc::Bitstream product = optical[f];
    for (std::size_t j = 1; j < term.factors.size(); ++j) {
      product = product & optical[f + j];
    }
    estimate += term.weight * product.probability();
    f += term.factors.size();
  }
  return estimate;
}

struct Moments {
  double mean = 0.0;
  double var = 0.0;  ///< sample variance
};

Moments moments(const std::vector<double>& v) {
  Moments m;
  for (double x : v) m.mean += x;
  m.mean /= static_cast<double>(v.size());
  for (double x : v) m.var += (x - m.mean) * (x - m.mean);
  m.var /= static_cast<double>(v.size() - 1);
  return m;
}

struct Case {
  std::string id;
  std::shared_ptr<const compile::CompiledProgram> program;
  std::vector<std::vector<double>> points;
};

std::vector<Case> registry_cases() {
  compile::CompileOptions options;
  options.certify = false;
  compile::Compiler compiler(options);
  std::vector<Case> cases;
  for (const compile::RegistryFunction& fn : compile::function_registry()) {
    cases.push_back({fn.id, compiler.compile(fn), {{0.2}, {0.5}, {0.8}}});
  }
  for (const compile::RegistryFunction2& fn : compile::function_registry2()) {
    cases.push_back({fn.id,
                     compiler.compile2(fn),
                     {{0.25, 0.7}, {0.5, 0.5}, {0.8, 0.3}}});
  }
  for (const compile::RegistryFunctionN& fn :
       compile::function_registry_nd()) {
    cases.push_back({fn.id,
                     compiler.compile_nd(fn),
                     {{0.3, 0.6, 0.8}, {0.7, 0.4, 0.2}}});
  }
  return cases;
}

TEST(StimulusV2, MatchesV1InDistribution) {
  const std::vector<Case> cases = registry_cases();
  ASSERT_EQ(cases.size(), 16u);
  oscs::SplitMix64 seeds(0x57D2);
  for (const Case& c : cases) {
    const PackedKernel& kernel = *c.program->kernel();
    const sc::SeparableProgram& program = c.program->program_nd();
    ASSERT_EQ(kernel.stimulus_layout(), sc::StimulusLayout::kPerSet)
        << c.id;
    for (double ber : {0.0, 1e-2}) {
      double var_v1 = 0.0;
      double var_v2 = 0.0;
      for (const std::vector<double>& point : c.points) {
        std::vector<double> v1(kSeeds);
        std::vector<double> v2(kSeeds);
        for (std::size_t i = 0; i < kSeeds; ++i) {
          PackedRunConfig cfg;
          cfg.op = c.program->design_point().with_stream_length(kLength);
          cfg.op.ber = ber;
          cfg.stimulus_seed = seeds.next();
          cfg.noise_seed = seeds.next();
          v2[i] = kernel.run_nd(program, point, cfg).optical_estimate;
          v1[i] = v1_estimate(kernel, program, point, cfg);
        }
        const Moments a = moments(v1);
        const Moments b = moments(v2);
        const double se = std::sqrt((a.var + b.var) / kSeeds);
        EXPECT_LE(std::abs(b.mean - a.mean), 4.0 * se)
            << c.id << " ber " << ber << " point " << point[0]
            << ": v1 mean " << a.mean << ", v2 mean " << b.mean;
        var_v1 += a.var;
        var_v2 += b.var;
      }
      const double ratio = std::sqrt(var_v2 / var_v1);
      EXPECT_LE(ratio, 1.10) << c.id << " ber " << ber;
      std::cout << "[ StimulusV2 ] " << c.id << " ber " << ber
                << " sd ratio v2/v1 " << ratio
                << (ratio < 0.9 ? " (less spread)" : "") << "\n";
    }
  }
}

}  // namespace
}  // namespace oscs::engine
