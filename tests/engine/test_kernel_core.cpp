/// \file test_kernel_core.cpp
/// \brief Pins the packed kernel's one block loop from both sides:
///
///   * DecisionLutBranch - a circuit whose eye is closed in some reachable
///     state (the pump is too weak to tune the filter through every adder
///     value) is NOT mux-exact, so evaluation takes the per-state physics
///     LUT instead of the ideal-MUX fast path. Every paper-default circuit
///     is mux-exact, so nothing else exercises that branch.
///   * EmptyYBankEquivalence - a one-input evaluation is a two-input one
///     with an empty y bank: stimulus, noiseless streams and noisy fused
///     batches agree bit for bit between the one-input spelling and the
///     (order, 0) two-bank spelling.
///
/// Both suites run at word-boundary stream lengths under every SIMD
/// backend the build carries.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/resc.hpp"

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

constexpr std::size_t kLengths[] = {1, 63, 64, 65, 4095};

/// Order-2 reference design with the pump cut to 400 mW: the filter no
/// longer reaches the top channel, so some noiseless decisions differ
/// from the ideal MUX.
const optsc::OpticalScCircuit& weak_pump_circuit() {
  static const optsc::OpticalScCircuit circuit([] {
    optsc::CircuitParams params = optsc::paper_defaults(2);
    params.lasers.pump_power_mw = 400.0;
    return params;
  }());
  return circuit;
}

std::vector<sc::BernsteinPoly> order2_programs() {
  return {sc::BernsteinPoly({0.1, 0.7, 0.4}),
          sc::BernsteinPoly({0.9, 0.2, 0.6}),
          sc::BernsteinPoly({0.3, 0.5, 0.8})};
}

TEST(DecisionLutBranch, WeakPumpCircuitIsNotMuxExact) {
  const PackedKernel kernel(weak_pump_circuit());
  EXPECT_FALSE(kernel.mux_exact());
  EXPECT_FALSE(kernel.bivariate());
}

TEST(DecisionLutBranch, OpticalStreamMatchesPerBitPhysics) {
  const optsc::OpticalScCircuit& c = weak_pump_circuit();
  const PackedKernel kernel(c);
  const double probe = c.params().lasers.probe_power_mw;
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    std::size_t lut_only_bits = 0;
    for (std::size_t length : kLengths) {
      const sc::ScInputs inputs = sc::make_sc_inputs(
          0.6, {0.1, 0.7, 0.4}, 2, length, {.seed = 5});
      const PackedKernel::Streams streams = kernel.evaluate(inputs);
      ASSERT_EQ(streams.optical.size(), length);
      for (std::size_t t = 0; t < length; ++t) {
        const std::vector<bool> x{inputs.x_streams[0].bit(t),
                                  inputs.x_streams[1].bit(t)};
        const std::vector<bool> z{inputs.z_streams[0].bit(t),
                                  inputs.z_streams[1].bit(t),
                                  inputs.z_streams[2].bit(t)};
        const bool expected =
            c.received_power_mw(z, x, probe) > kernel.threshold_mw();
        ASSERT_EQ(streams.optical.bit(t), expected)
            << "bit " << t << " length " << length << " backend "
            << oscs::simd_backend_name(backend);
      }
      lut_only_bits += (streams.optical ^ streams.electronic).count_ones();
    }
    // The LUT really diverges from the MUX here; otherwise this suite
    // would only re-test the fast path.
    EXPECT_GT(lut_only_bits, 0u) << oscs::simd_backend_name(backend);
  }
}

TEST(DecisionLutBranch, FusedProgramZeroMatchesTheSingleRun) {
  const PackedKernel kernel(weak_pump_circuit());
  const std::vector<sc::BernsteinPoly> polys = order2_programs();
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : kLengths) {
      PackedRunConfig cfg;
      cfg.op.stream_length = length;
      cfg.stimulus_seed = 11;
      const PackedRunResult single = kernel.run(polys[0], 0.45, cfg);
      const std::vector<PackedRunResult> fused = kernel.run_fused(
          std::vector<sc::SeparableProgram>(polys.begin(), polys.end()),
          {0.45}, cfg);
      ASSERT_EQ(fused.size(), polys.size());
      EXPECT_EQ(fused[0].optical_estimate, single.optical_estimate)
          << "length " << length;
      EXPECT_EQ(fused[0].electronic_estimate, single.electronic_estimate)
          << "length " << length;
      EXPECT_EQ(fused[0].transmission_flips, single.transmission_flips)
          << "length " << length;
    }
  }
}

TEST(DecisionLutBranch, SimulatorEnginesAgreeWithNoiseOff) {
  const optsc::TransientSimulator sim(weak_pump_circuit());
  const sc::BernsteinPoly poly = order2_programs()[1];
  optsc::SimulationConfig cfg;
  cfg.noise_enabled = false;
  for (std::size_t length : kLengths) {
    cfg.stream_length = length;
    for (double x : {0.0, 0.3, 0.7, 1.0}) {
      cfg.engine = optsc::SimEngine::kPerBit;
      const optsc::SimulationResult per_bit = sim.run(poly, x, cfg);
      cfg.engine = optsc::SimEngine::kPacked;
      const optsc::SimulationResult packed = sim.run(poly, x, cfg);
      EXPECT_EQ(packed.optical_estimate, per_bit.optical_estimate)
          << "x " << x << " length " << length;
      EXPECT_EQ(packed.electronic_estimate, per_bit.electronic_estimate)
          << "x " << x << " length " << length;
      EXPECT_EQ(packed.transmission_flips, per_bit.transmission_flips)
          << "x " << x << " length " << length;
    }
  }
}

constexpr std::size_t kOrders[] = {1, 2, 3, 6};
constexpr sc::SourceKind kSources[] = {sc::SourceKind::kLfsr,
                                       sc::SourceKind::kVanDerCorput};

/// Deterministic coefficient vector of `order` + 1 entries in [0, 1].
std::vector<double> coefficients(std::size_t order, std::size_t salt) {
  std::vector<double> c(order + 1);
  for (std::size_t j = 0; j <= order; ++j) {
    c[j] = static_cast<double>((5 * j + 3 * salt + 2) % 9) / 8.0;
  }
  return c;
}

TEST(EmptyYBankEquivalence, StimulusMatchesTheOneInputBuilder) {
  for (std::size_t order : kOrders) {
    for (sc::SourceKind kind : kSources) {
      for (std::size_t length : kLengths) {
        const sc::ScInputConfig config{kind, 16, 21};
        const std::vector<double> c = coefficients(order, 1);
        const sc::ScInputs one =
            sc::make_sc_inputs(0.35, c, order, length, config);
        const sc::ScInputs2 two =
            sc::make_sc_inputs2(0.35, 0.9, c, order, 0, length, config);
        EXPECT_TRUE(two.y_streams.empty());
        EXPECT_EQ(two.x_streams, one.x_streams)
            << "order " << order << " length " << length;
        EXPECT_EQ(two.z_streams, one.z_streams)
            << "order " << order << " length " << length;
      }
    }
  }
}

TEST(EmptyYBankEquivalence, EvaluateMatchesEvaluate2) {
  for (std::size_t order : kOrders) {
    const optsc::OpticalScCircuit c(optsc::paper_defaults(order));
    const PackedKernel one(c);
    const PackedKernel two(c, order, 0);
    ASSERT_TRUE(one.mux_exact()) << "order " << order;
    for (oscs::SimdBackend backend : available_backends()) {
      ScopedBackend scope(backend);
      for (sc::SourceKind kind : kSources) {
        for (std::size_t length : kLengths) {
          const sc::ScInputConfig config{kind, 16, 8};
          const std::vector<double> coeffs = coefficients(order, 2);
          const PackedKernel::Streams a = one.evaluate(
              sc::make_sc_inputs(0.6, coeffs, order, length, config));
          const PackedKernel::Streams b = two.evaluate2(
              sc::make_sc_inputs2(0.6, 0.0, coeffs, order, 0, length, config));
          EXPECT_EQ(a.optical, b.optical)
              << "order " << order << " length " << length;
          EXPECT_EQ(a.electronic, b.electronic)
              << "order " << order << " length " << length;
        }
      }
    }
  }
}

TEST(EmptyYBankEquivalence, FusedBatchMatchesTheTwoBankRunner) {
  for (std::size_t order : kOrders) {
    const optsc::OpticalScCircuit c(optsc::paper_defaults(order));
    const BatchRunner one(c);
    const BatchRunner two(c, order, 0);
    BatchRequest req1;
    BatchRequest req2;
    for (std::size_t k = 0; k < 3; ++k) {
      req1.polynomials.emplace_back(coefficients(order, k));
      req2.polynomials2.emplace_back(order, 0, coefficients(order, k));
    }
    req1.xs = {0.15, 0.8};
    req2.xs = req1.xs;
    req2.ys = {0.5, 0.5};
    req1.repeats = req2.repeats = 2;
    req1.seed = req2.seed = 77;
    req1.op = one.design_point();
    req1.op->ber = 1e-2;
    req2.op = req1.op;
    for (oscs::SimdBackend backend : available_backends()) {
      ScopedBackend scope(backend);
      for (sc::SourceKind kind : kSources) {
        req1.source_kind = req2.source_kind = kind;
        for (std::size_t length : kLengths) {
          req1.stream_lengths = req2.stream_lengths = {length};
          const BatchSummary a = one.run_fused(req1, std::size_t{1});
          const BatchSummary b = two.run_fused(req2, std::size_t{1});
          ASSERT_EQ(a.cells.size(), b.cells.size());
          for (std::size_t i = 0; i < a.cells.size(); ++i) {
            EXPECT_EQ(a.cells[i].optical_mean, b.cells[i].optical_mean)
                << "order " << order << " length " << length << " cell "
                << i;
            EXPECT_EQ(a.cells[i].flip_rate_mean, b.cells[i].flip_rate_mean)
                << "order " << order << " length " << length << " cell "
                << i;
            EXPECT_EQ(a.cells[i].optical_ci, b.cells[i].optical_ci)
                << "order " << order << " length " << length << " cell "
                << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace oscs::engine
