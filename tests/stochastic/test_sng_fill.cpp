/// \file test_sng_fill.cpp
/// \brief Equivalence suite for the bulk comparator fills: every
///        word-parallel path (scalar table walk, AVX2 comparator) must be
///        bit-identical to the per-bit reference loop, and interleaving
///        bulk fills with per-bit clocking must stay exact.

#include "stochastic/sng_fill.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/lfsr.hpp"
#include "stochastic/sng.hpp"

namespace oscs::stochastic {
namespace {

/// Forces a backend for one scope; restores env/cpuid resolution on exit.
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

const std::vector<std::size_t> kLengths = {1, 63, 64, 65, 1000};
const std::vector<double> kProbabilities = {0.0, 0.25, 0.3, 0.5, 1.0};

/// generate() through the active backend vs the per-bit reference loop on
/// an identically seeded twin source.
void expect_generate_matches_reference(SourceKind kind, unsigned width) {
  for (double p : kProbabilities) {
    for (std::size_t length : kLengths) {
      Sng bulk(make_source(kind, width, /*salt=*/7));
      Sng reference(make_source(kind, width, /*salt=*/7));
      const Bitstream got = bulk.generate(p, length);
      const Bitstream want = reference.generate_reference(p, length);
      ASSERT_EQ(got, want) << "kind " << static_cast<int>(kind) << " width "
                           << width << " p " << p << " length " << length;
    }
  }
}

TEST(SngFill, ScalarBulkFillMatchesReferenceLoop) {
  ScopedBackend scalar(oscs::SimdBackend::kScalar);
  for (unsigned width : {3u, 8u, 16u}) {
    expect_generate_matches_reference(SourceKind::kLfsr, width);
    expect_generate_matches_reference(SourceKind::kCounter, width);
  }
  // Van der Corput has no bulk path; generate() must fall back cleanly.
  expect_generate_matches_reference(SourceKind::kVanDerCorput, 8);
}

TEST(SngFill, Avx2BulkFillMatchesReferenceLoop) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
  ScopedBackend avx2(oscs::SimdBackend::kAvx2);
  for (unsigned width : {3u, 4u, 5u, 8u, 16u}) {
    expect_generate_matches_reference(SourceKind::kLfsr, width);
    expect_generate_matches_reference(SourceKind::kCounter, width);
  }
}

TEST(SngFill, Avx2AndScalarStreamsAreBitIdentical) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
  for (unsigned width : {3u, 8u, 16u}) {
    for (double p : kProbabilities) {
      for (std::size_t length : kLengths) {
        Bitstream scalar_stream;
        Bitstream avx2_stream;
        {
          ScopedBackend scalar(oscs::SimdBackend::kScalar);
          Sng sng(make_source(SourceKind::kLfsr, width, 11));
          scalar_stream = sng.generate(p, length);
        }
        {
          ScopedBackend avx2(oscs::SimdBackend::kAvx2);
          Sng sng(make_source(SourceKind::kLfsr, width, 11));
          avx2_stream = sng.generate(p, length);
        }
        ASSERT_EQ(scalar_stream, avx2_stream)
            << "width " << width << " p " << p << " length " << length;
      }
    }
  }
}

/// The AVX2 fill against the scalar reference across the cycle wrap.
/// Phases just short of the period make a 64-state word straddle the wrap
/// at every offset the staged copy handles; the short periods of widths
/// 3..5 wrap several times inside one word. Thresholds cover both
/// degenerate exits (0, mask + 1) and the vector loop's edges (1, mask).
TEST(SngFill, Avx2FillMatchesScalarAcrossCycleWrap) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
#if defined(OSCS_HAVE_AVX2)
  for (unsigned width : {3u, 4u, 5u, 8u, 16u}) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const std::size_t period = cycle.states.size();
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    std::vector<std::size_t> phases = {0};
    for (std::size_t back : {1u, 31u, 32u, 33u, 63u, 64u, 65u}) {
      phases.push_back((period - back % period) % period);
    }
    for (std::size_t phase0 : phases) {
      for (std::size_t length :
           {1u, 31u, 32u, 33u, 63u, 64u, 65u, 4095u, 4096u}) {
        const std::size_t nwords = (length + 63) / 64;
        for (std::uint64_t threshold :
             {std::uint64_t{0}, std::uint64_t{1}, mask / 2, mask, mask + 1}) {
          for (std::uint64_t scramble : {0x1u, 0x9E37u, 0xFFFFu}) {
            std::vector<std::uint64_t> want(nwords, 0xA5A5A5A5A5A5A5A5ULL);
            std::vector<std::uint64_t> got(nwords, 0x5A5A5A5A5A5A5A5AULL);
            detail::fill_lfsr_words_scalar(cycle, phase0, scramble, mask,
                                           threshold, length, want.data());
            detail::fill_lfsr_words_avx2(cycle, phase0, scramble, mask,
                                         threshold, length, got.data());
            ASSERT_EQ(got, want)
                << "width " << width << " phase0 " << phase0 << " length "
                << length << " threshold " << threshold << " scramble "
                << scramble;
          }
        }
      }
    }
  }
#endif
}

TEST(SngFill, WideLfsrFallsBackToReferenceLoop) {
  // Width 20 exceeds the cycle-table limit: the bulk fill must decline
  // and generate() must still match the reference bit for bit.
  expect_generate_matches_reference(SourceKind::kLfsr, 20);
}

TEST(SngFill, BulkFillReseatsTheRegisterExactly) {
  // A bulk fill must leave the source exactly where `length` per-bit
  // steps would have, so generate() and next_bit() interleave exactly.
  for (std::size_t length : kLengths) {
    Sng bulk(make_source(SourceKind::kLfsr, 16, 3));
    Sng reference(make_source(SourceKind::kLfsr, 16, 3));
    ASSERT_EQ(bulk.generate(0.3, length),
              reference.generate_reference(0.3, length));
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(bulk.next_bit(0.7), reference.next_bit(0.7))
          << "bit " << i << " after a bulk fill of " << length;
    }
    ASSERT_EQ(bulk.generate(0.9, 77), reference.generate_reference(0.9, 77));
  }
}

TEST(SngFill, LfsrCycleTableIsTheClockedSequence) {
  for (unsigned width : {3u, 4u, 8u, 16u}) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const std::size_t period = (std::size_t{1} << width) - 1;
    ASSERT_EQ(cycle.states.size(), period);
    Lfsr lfsr(width, 1);
    ASSERT_EQ(cycle.states[0], 1u);
    for (std::size_t i = 0; i < period; ++i) {
      // phase[] is the inverse of states[].
      ASSERT_EQ(cycle.phase[cycle.states[i]], i);
      ASSERT_EQ(cycle.states[(i + 1) % period], lfsr.step())
          << "width " << width << " step " << i;
    }
  }
}

TEST(SngFill, CycleTableRejectsUnsupportedWidths) {
  EXPECT_THROW((void)detail::lfsr_cycle(2), std::invalid_argument);
  EXPECT_THROW((void)detail::lfsr_cycle(17), std::invalid_argument);
}

TEST(SngFill, ForcingAvx2WithoutSupportThrows) {
  if (avx2_available()) GTEST_SKIP() << "AVX2 is available here";
  EXPECT_THROW(oscs::set_simd_backend(oscs::SimdBackend::kAvx2),
               std::invalid_argument);
}

TEST(SngFill, BackendNamesAreStable) {
  EXPECT_STREQ(oscs::simd_backend_name(oscs::SimdBackend::kScalar), "scalar");
  EXPECT_STREQ(oscs::simd_backend_name(oscs::SimdBackend::kAvx2), "avx2");
}

}  // namespace
}  // namespace oscs::stochastic
