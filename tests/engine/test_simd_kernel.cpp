/// \file test_simd_kernel.cpp
/// \brief SIMD-vs-scalar equivalence suite for the packed kernel: the
///        AVX2 backend must be bit-identical to the scalar reference at
///        the primitive level (random word blocks, tail counts) and end
///        to end (run/run2 and the fused run across word-boundary
///        stream lengths, fused widths and nonzero BER, pinned seeds).

#include "engine/simd_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "stochastic/bernstein.hpp"
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

bool avx2_available() {
  return oscs::simd_avx2_compiled() && oscs::simd_avx2_runtime();
}

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  oscs::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (std::uint64_t& w : words) w = rng();
  return words;
}

/// Primitive-level equivalence on random blocks, with counts straddling
/// the 4-word vector width (tails of 1..3) and a stride wider than count;
/// product counts across word-boundary lengths and factor counts.
TEST(SimdKernelOps, Avx2PrimitivesMatchScalarOnRandomBlocks) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
  const simd::KernelOps& scalar =
      simd::kernel_ops(oscs::SimdBackend::kScalar);
  const simd::KernelOps& avx2 = simd::kernel_ops(oscs::SimdBackend::kAvx2);

  constexpr std::size_t kStride = 80;
  constexpr std::size_t kPlanes = 3;
  constexpr std::size_t kSel = 6;
  for (std::size_t count : {1u, 3u, 4u, 5u, 63u, 64u, 67u}) {
    // Shared random inputs: 5 "x" streams, kSel coefficient streams.
    std::vector<std::vector<std::uint64_t>> streams;
    std::vector<const std::uint64_t*> stream_ptrs;
    for (std::size_t s = 0; s < 5; ++s) {
      streams.push_back(random_words(kStride, 100 + s));
      stream_ptrs.push_back(streams.back().data());
    }

    std::vector<std::uint64_t> planes_a(kPlanes * kStride, 0);
    std::vector<std::uint64_t> planes_b(kPlanes * kStride, 0);
    scalar.accumulate_planes(stream_ptrs.data(), 5, 0, count,
                             planes_a.data(), kPlanes, kStride);
    avx2.accumulate_planes(stream_ptrs.data(), 5, 0, count, planes_b.data(),
                           kPlanes, kStride);
    ASSERT_EQ(planes_a, planes_b) << "accumulate_planes count " << count;

    std::vector<std::uint64_t> sel_a(kSel * kStride, 0);
    std::vector<std::uint64_t> sel_b(kSel * kStride, 0);
    scalar.select_masks(planes_a.data(), kPlanes, count, kSel, sel_a.data(),
                        kStride);
    avx2.select_masks(planes_a.data(), kPlanes, count, kSel, sel_b.data(),
                      kStride);
    ASSERT_EQ(sel_a, sel_b) << "select_masks count " << count;

    std::vector<std::vector<std::uint64_t>> zs;
    std::vector<const std::uint64_t*> z_ptrs;
    for (std::size_t k = 0; k < kSel; ++k) {
      zs.push_back(random_words(kStride, 200 + k));
      z_ptrs.push_back(zs.back().data());
    }
    std::vector<std::uint64_t> mux_a(kStride, 0);
    std::vector<std::uint64_t> mux_b(kStride, 0);
    scalar.mux_or_reduce(sel_a.data(), kSel, kStride, count, z_ptrs.data(), 0,
                         mux_a.data());
    avx2.mux_or_reduce(sel_a.data(), kSel, kStride, count, z_ptrs.data(), 0,
                       mux_b.data());
    ASSERT_EQ(mux_a, mux_b) << "mux_or_reduce count " << count;

    // 2D reduce: reuse sel_a as a 2x3 select grid over the same z set.
    std::vector<std::uint64_t> mux2_a(kStride, 0);
    std::vector<std::uint64_t> mux2_b(kStride, 0);
    scalar.mux2_or_reduce(sel_a.data(), 2, sel_a.data() + 2 * kStride, 3,
                          kStride, count, z_ptrs.data(), 0, mux2_a.data());
    avx2.mux2_or_reduce(sel_a.data(), 2, sel_a.data() + 2 * kStride, 3,
                        kStride, count, z_ptrs.data(), 0, mux2_b.data());
    ASSERT_EQ(mux2_a, mux2_b) << "mux2_or_reduce count " << count;
  }

  // Product counts over 0..4 factor rows of random words: both backends
  // against a per-bit count. The words past `length` are random too, so
  // only tail masking keeps them out of the counts; an empty product is
  // the constant 1 and counts `length` ones.
  for (std::size_t length : {1u, 63u, 64u, 65u, 4095u, 4096u}) {
    const std::size_t nwords = (length + 63) / 64;
    std::vector<std::vector<std::uint64_t>> rows;
    std::vector<const std::uint64_t*> optical;
    std::vector<const std::uint64_t*> electronic;
    for (std::size_t f = 0; f < 4; ++f) {
      rows.push_back(random_words(nwords, 300 + 2 * f + length));
      optical.push_back(rows.back().data());
      rows.push_back(random_words(nwords, 301 + 2 * f + length));
      electronic.push_back(rows.back().data());
    }
    for (std::size_t factors = 0; factors <= 4; ++factors) {
      simd::ProductCounts want;
      for (std::size_t t = 0; t < length; ++t) {
        bool opt = true;
        bool elec = true;
        for (std::size_t f = 0; f < factors; ++f) {
          opt = opt && ((optical[f][t / 64] >> (t % 64)) & 1u) != 0;
          elec = elec && ((electronic[f][t / 64] >> (t % 64)) & 1u) != 0;
        }
        want.optical += opt ? 1 : 0;
        want.electronic += elec ? 1 : 0;
        want.differ += opt != elec ? 1 : 0;
      }
      if (factors == 0) {
        ASSERT_EQ(want.optical, length);
      }
      for (const simd::KernelOps* ops : {&scalar, &avx2}) {
        const simd::ProductCounts got = ops->count_product(
            optical.data(), electronic.data(), factors, length);
        const char* name = ops == &scalar ? "scalar" : "avx2";
        ASSERT_EQ(got.optical, want.optical)
            << name << " factors " << factors << " length " << length;
        ASSERT_EQ(got.electronic, want.electronic)
            << name << " factors " << factors << " length " << length;
        ASSERT_EQ(got.differ, want.differ)
            << name << " factors " << factors << " length " << length;
      }
    }
  }
}

TEST(SimdKernelOps, DispatchFollowsTheProcessBackend) {
  {
    ScopedBackend scalar(oscs::SimdBackend::kScalar);
    EXPECT_EQ(simd::kernel_backend(), oscs::SimdBackend::kScalar);
    EXPECT_EQ(&simd::kernel_ops(),
              &simd::kernel_ops(oscs::SimdBackend::kScalar));
  }
  if (avx2_available()) {
    ScopedBackend avx2(oscs::SimdBackend::kAvx2);
    EXPECT_EQ(simd::kernel_backend(), oscs::SimdBackend::kAvx2);
    EXPECT_EQ(&simd::kernel_ops(),
              &simd::kernel_ops(oscs::SimdBackend::kAvx2));
    EXPECT_NE(&simd::kernel_ops(oscs::SimdBackend::kAvx2),
              &simd::kernel_ops(oscs::SimdBackend::kScalar));
  }
}

void expect_same_results(const PackedRunResult& a, const PackedRunResult& b,
                         const char* what, std::size_t length) {
  ASSERT_EQ(a.length, b.length) << what << " length " << length;
  ASSERT_EQ(a.noise_flips, b.noise_flips) << what << " length " << length;
  ASSERT_EQ(a.transmission_flips, b.transmission_flips)
      << what << " length " << length;
  // Bit-identical streams decode to bit-identical doubles: exact compare.
  ASSERT_EQ(a.optical_estimate, b.optical_estimate)
      << what << " length " << length;
  ASSERT_EQ(a.electronic_estimate, b.electronic_estimate)
      << what << " length " << length;
}

/// End-to-end equivalence matrix: both arities, fused K in {1, 8}, BER in
/// {0, 1e-2}, stream lengths straddling every word-boundary regime.
TEST(SimdKernelEquivalence, RunsAreBitIdenticalAcrossBackends) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
  const optsc::OpticalScCircuit c1(optsc::paper_defaults(3));
  const PackedKernel kernel1(c1);
  const optsc::OpticalScCircuit c2(optsc::paper_defaults(2));
  const PackedKernel kernel2(c2, 2, 2);

  std::vector<sc::BernsteinPoly> polys1;
  std::vector<sc::BernsteinPoly2> polys2;
  for (std::size_t k = 0; k < 8; ++k) {
    const double a = static_cast<double>(k) / 8.0;
    polys1.emplace_back(
        std::vector<double>{a, 1.0 - a, 0.5 * a, 1.0 - 0.5 * a});
    polys2.emplace_back(
        2, 2,
        std::vector<double>{a, 0.1, 1.0 - a, 0.4, 0.5 * a, 0.9, 0.2,
                            1.0 - 0.5 * a, 0.6});
  }

  for (std::size_t length : {1u, 63u, 64u, 65u, 4095u}) {
    for (double ber : {0.0, 1e-2}) {
      PackedRunConfig cfg;
      cfg.op = oscs::OperatingPoint{.probe_power_mw = 1.0,
                                    .ber = ber,
                                    .snr = 20.0,
                                    .threshold_mw = 0.5,
                                    .stream_length = length,
                                    .sng_width = 16};
      cfg.stimulus_seed = 17;
      cfg.noise_seed = 23;
      for (std::size_t fused_k : {1u, 8u}) {
        const std::vector<sc::SeparableProgram> progs1(
            polys1.begin(), polys1.begin() + fused_k);
        const std::vector<sc::SeparableProgram> progs2(
            polys2.begin(), polys2.begin() + fused_k);
        std::vector<PackedRunResult> scalar1, avx21, scalar2, avx22;
        {
          ScopedBackend scalar(oscs::SimdBackend::kScalar);
          scalar1 = kernel1.run_fused(progs1, {0.4}, cfg);
          scalar2 = kernel2.run_fused(progs2, {0.4, 0.7}, cfg);
        }
        {
          ScopedBackend avx2(oscs::SimdBackend::kAvx2);
          avx21 = kernel1.run_fused(progs1, {0.4}, cfg);
          avx22 = kernel2.run_fused(progs2, {0.4, 0.7}, cfg);
        }
        ASSERT_EQ(scalar1.size(), avx21.size());
        ASSERT_EQ(scalar2.size(), avx22.size());
        for (std::size_t k = 0; k < fused_k; ++k) {
          expect_same_results(scalar1[k], avx21[k], "1D fused", length);
          expect_same_results(scalar2[k], avx22[k], "2D fused", length);
        }
      }
      // Unfused single-program entry points.
      PackedRunResult s1, a1, s2, a2;
      {
        ScopedBackend scalar(oscs::SimdBackend::kScalar);
        s1 = kernel1.run(polys1[0], 0.3, cfg);
        s2 = kernel2.run2(polys2[0], 0.3, 0.6, cfg);
      }
      {
        ScopedBackend avx2(oscs::SimdBackend::kAvx2);
        a1 = kernel1.run(polys1[0], 0.3, cfg);
        a2 = kernel2.run2(polys2[0], 0.3, 0.6, cfg);
      }
      expect_same_results(s1, a1, "1D run", length);
      expect_same_results(s2, a2, "2D run2", length);
    }
  }
}

/// The word-parallel noiseless pass stays bit-identical to the per-bit
/// physics under BOTH backends (the existing per-bit regression pinned
/// only the process default).
TEST(SimdKernelEquivalence, EvaluateMatchesPerBitPhysicsUnderBothBackends) {
  const optsc::OpticalScCircuit c(optsc::paper_defaults());
  const PackedKernel kernel(c);
  const double probe = c.params().lasers.probe_power_mw;
  std::vector<oscs::SimdBackend> backends = {oscs::SimdBackend::kScalar};
  if (avx2_available()) backends.push_back(oscs::SimdBackend::kAvx2);
  for (oscs::SimdBackend backend : backends) {
    ScopedBackend scope(backend);
    const sc::ScInputs inputs =
        sc::make_sc_inputs(0.6, {0.1, 0.7, 0.4}, 2, 1000, {});
    const PackedKernel::Streams streams = kernel.evaluate(inputs);
    for (std::size_t t = 0; t < 1000; ++t) {
      std::vector<bool> x{inputs.x_streams[0].bit(t),
                          inputs.x_streams[1].bit(t)};
      std::vector<bool> z{inputs.z_streams[0].bit(t),
                          inputs.z_streams[1].bit(t),
                          inputs.z_streams[2].bit(t)};
      const bool expected =
          c.received_power_mw(z, x, probe) > kernel.threshold_mw();
      ASSERT_EQ(streams.optical.bit(t), expected)
          << "bit " << t << " backend "
          << oscs::simd_backend_name(backend);
    }
  }
}

}  // namespace
}  // namespace oscs::engine
