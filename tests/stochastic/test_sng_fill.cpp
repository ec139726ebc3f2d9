/// \file test_sng_fill.cpp
/// \brief Equivalence suite for the bulk comparator fills: every
///        word-parallel path (scalar table walk, AVX2 comparator) must be
///        bit-identical to the per-bit reference loop, and interleaving
///        bulk fills with per-bit clocking must stay exact.

#include "stochastic/sng_fill.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
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
/// at every offset, reading the row's continuation past the period; the
/// short periods of widths 3..5 wrap several times inside one word.
/// Thresholds cover both degenerate exits (0, mask + 1) and the vector
/// loop's edges (1, mask).
TEST(SngFill, Avx2FillMatchesScalarAcrossCycleWrap) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
#if defined(OSCS_HAVE_AVX2)
  for (unsigned width : {3u, 4u, 5u, 8u, 16u}) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const std::size_t period = cycle.period();
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

/// Every table width against the per-bit LfsrSource::next() loop: the
/// scalar fill evaluates the original comparator over the decoded states
/// and the AVX2 fill the biased-row identity over the row's contiguous
/// windows, so the three must agree word for word. Thresholds take both
/// degenerate exits (0, mask + 1), the identity's edges (1, mask) and
/// random interior values; phases sit in the last 64 before the wrap
/// (windows that read the row's continuation) and at random; lengths run
/// past one and three periods. Guard words pin that nothing past the
/// last word is written.
TEST(SngFill, BiasedRowMatchesReferenceAtEveryWidth) {
  constexpr std::uint64_t kGuard = 0xC3C3C3C3C3C3C3C3ULL;
  oscs::Xoshiro256 rng(0x5EEDF111ULL);
  for (unsigned width = kLfsrWidths.min; width <= kLfsrWidths.max; ++width) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const std::size_t period = cycle.period();
    // The row's 63 entries past the period continue the cycle.
    ASSERT_EQ(cycle.comparator.size(), period + 63);
    for (std::size_t i = period; i < period + 63; ++i) {
      ASSERT_EQ(cycle.state(i), cycle.state(i % period))
          << "width " << width << " entry " << i;
    }
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    const std::vector<std::size_t> lengths = {
        1, 63, 64, 65, 4096, period, period + 1, 3 * period + 1};
    std::vector<std::size_t> phases;
    for (std::size_t back : {1u, 2u, 31u, 32u, 33u, 63u, 64u}) {
      phases.push_back((period - back % period) % period);
    }
    phases.push_back(0);
    for (int r = 0; r < 3; ++r) phases.push_back(rng() % period);
    std::vector<std::uint64_t> thresholds = {0, 1, mask, mask + 1};
    for (int r = 0; r < 3; ++r) thresholds.push_back(1 + rng() % mask);
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t scramble = rng() | 1u;
      for (std::size_t phase0 : phases) {
        // The register one clock before phase0 emits state(phase0) first.
        LfsrSource source(width, cycle.state((phase0 + period - 1) % period),
                          scramble);
        std::vector<std::uint64_t> values(
            *std::max_element(lengths.begin(), lengths.end()));
        for (std::uint64_t& v : values) v = source.next();
        for (std::size_t length : lengths) {
          const std::size_t nwords = (length + 63) / 64;
          for (std::uint64_t threshold : thresholds) {
            std::vector<std::uint64_t> want(nwords, 0);
            for (std::size_t t = 0; t < length; ++t) {
              want[t / 64] |= static_cast<std::uint64_t>(values[t] < threshold)
                              << (t % 64);
            }
            want.push_back(kGuard);
            std::vector<std::uint64_t> got(nwords + 1, kGuard);
            detail::fill_lfsr_words_scalar(cycle, phase0, scramble, mask,
                                           threshold, length, got.data());
            ASSERT_EQ(got, want)
                << "scalar width " << width << " phase0 " << phase0
                << " length " << length << " threshold " << threshold
                << " scramble " << scramble;
#if defined(OSCS_HAVE_AVX2)
            if (avx2_available()) {
              std::fill(got.begin(), got.end(), kGuard);
              detail::fill_lfsr_words_avx2(cycle, phase0, scramble, mask,
                                           threshold, length, got.data());
              ASSERT_EQ(got, want)
                  << "avx2 width " << width << " phase0 " << phase0
                  << " length " << length << " threshold " << threshold
                  << " scramble " << scramble;
            }
#endif
          }
        }
      }
    }
  }
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
    ASSERT_EQ(cycle.period(), period);
    Lfsr lfsr(width, 1);
    ASSERT_EQ(cycle.state(0), 1u);
    for (std::size_t i = 0; i < period; ++i) {
      // phase[] is the inverse of state().
      ASSERT_EQ(cycle.phase[cycle.state(i)], i);
      ASSERT_EQ(cycle.state((i + 1) % period), lfsr.step())
          << "width " << width << " step " << i;
    }
  }
}

TEST(SngFill, LeapRowIsTheCycleDecimatedBy16) {
  for (unsigned width : {3u, 4u, 5u, 8u, 12u, 16u}) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const std::size_t period = cycle.period();
    ASSERT_EQ(cycle.leap.size(), period + 63);
    std::vector<bool> seen(period + 1, false);
    for (std::size_t j = 0; j < cycle.leap.size(); ++j) {
      ASSERT_EQ(cycle.leap[j], cycle.comparator[(16 * j) % period])
          << "width " << width << " entry " << j;
      if (j < period) {
        // 16 is coprime to 2^w - 1: one lap visits every nonzero state.
        const std::uint16_t state = cycle.decode(cycle.leap[j]);
        ASSERT_FALSE(seen[state]) << "width " << width << " entry " << j;
        seen[state] = true;
      }
    }
    for (std::size_t phase = 0; phase < period; ++phase) {
      ASSERT_EQ((16 * cycle.leap_index(phase)) % period, phase)
          << "width " << width;
    }
  }
}

TEST(SngFill, SetStreamsLeapSixteenClocksPerBit) {
  // Per-bit reference: the seeded register clocked once for bit 0 and 16
  // more times per later bit, scrambled and compared against each cell's
  // threshold - the leap row's walk, under both backends.
  const std::vector<double> coeffs = {0.0, 0.3, 0.77, 1.0};
  for (oscs::SimdBackend backend : {oscs::SimdBackend::kScalar,
                                    oscs::SimdBackend::kAvx2}) {
    if (backend == oscs::SimdBackend::kAvx2 && !avx2_available()) continue;
    ScopedBackend scope(backend);
    for (unsigned width : {3u, 8u, 16u}) {
      for (std::size_t length : kLengths) {
        const std::uint64_t salt = 40 + width + length;
        // make_source's register: its first next() is bit 0's value.
        std::unique_ptr<RandomSource> source =
            make_source(SourceKind::kLfsr, width, salt);
        std::vector<std::uint64_t> values(length);
        for (std::size_t t = 0; t < length; ++t) {
          values[t] = source->next();
          for (std::size_t c = 1; t > 0 && c < 16; ++c) {
            values[t] = source->next();
          }
        }
        std::vector<std::vector<std::uint64_t>> got(
            coeffs.size(), std::vector<std::uint64_t>((length + 63) / 64, ~0ULL));
        std::vector<std::uint64_t*> rows;
        for (auto& row : got) rows.push_back(row.data());
        fill_set_streams(SourceKind::kLfsr, width, salt, coeffs, length,
                         rows.data());
        for (std::size_t c = 0; c < coeffs.size(); ++c) {
          const std::uint64_t threshold =
              comparator_threshold(coeffs[c], width);
          std::vector<std::uint64_t> want((length + 63) / 64, 0);
          for (std::size_t t = 0; t < length; ++t) {
            want[t / 64] |= static_cast<std::uint64_t>(values[t] < threshold)
                            << (t % 64);
          }
          ASSERT_EQ(got[c], want)
              << "width " << width << " length " << length << " cell " << c
              << " backend " << oscs::simd_backend_name(backend);
        }
      }
    }
  }
}

TEST(SngFill, SetStreamsOfOtherSourcesMatchFillStream) {
  // Sources without a leap: the set's sequence is the source's own, so
  // every cell's row is that cell's one-salt stream.
  const std::vector<double> coeffs = {0.0, 0.3, 0.77, 1.0};
  for (SourceKind kind : {SourceKind::kCounter, SourceKind::kVanDerCorput,
                          SourceKind::kChaoticLaser}) {
    for (std::size_t length : kLengths) {
      const std::uint64_t salt = 7 + length;
      const std::size_t nwords = (length + 63) / 64;
      std::vector<std::vector<std::uint64_t>> got(
          coeffs.size(), std::vector<std::uint64_t>(nwords, ~0ULL));
      std::vector<std::uint64_t*> rows;
      for (auto& row : got) rows.push_back(row.data());
      fill_set_streams(kind, 16, salt, coeffs, length, rows.data());
      for (std::size_t c = 0; c < coeffs.size(); ++c) {
        std::vector<std::uint64_t> want(nwords, ~0ULL);
        fill_stream(kind, 16, salt, coeffs[c], length, want.data());
        ASSERT_EQ(got[c], want) << "kind " << static_cast<int>(kind)
                                << " length " << length << " cell " << c;
      }
    }
  }
}

TEST(SngFill, CycleTableRejectsUnsupportedWidths) {
  EXPECT_THROW((void)detail::lfsr_cycle(2), std::invalid_argument);
  EXPECT_THROW((void)detail::lfsr_cycle(17), std::invalid_argument);
  // Every LFSR entry point serves only the cycle table's widths.
  const std::vector<double> coeffs = {0.3, 0.7};
  std::vector<std::uint64_t> words(2 * 2);
  std::uint64_t* rows[] = {words.data(), words.data() + 2};
  for (unsigned width : {17u, 20u, 32u}) {
    EXPECT_THROW((void)make_source(SourceKind::kLfsr, width, 1),
                 std::invalid_argument)
        << "width " << width;
    EXPECT_THROW(
        fill_stream(SourceKind::kLfsr, width, 1, 0.5, 100, words.data()),
        std::invalid_argument)
        << "width " << width;
    EXPECT_THROW(
        fill_set_streams(SourceKind::kLfsr, width, 1, coeffs, 100, rows),
        std::invalid_argument)
        << "width " << width;
  }
}

/// The backends this build and CPU can run, scalar first.
std::vector<oscs::SimdBackend> available_backends() {
  std::vector<oscs::SimdBackend> backends = {oscs::SimdBackend::kScalar};
  if (avx2_available()) backends.push_back(oscs::SimdBackend::kAvx2);
  return backends;
}

/// fill_stream computes the LFSR start phase itself instead of building a
/// source; every kind and width must still produce exactly the words of
/// Sng(make_source(...)).generate, writing nothing past the last word.
TEST(FillStream, MatchesSngGenerate) {
  constexpr std::uint64_t kGuard = 0x3C3C3C3C3C3C3C3CULL;
  struct Case {
    SourceKind kind;
    unsigned width;
  };
  std::vector<Case> cases;
  for (unsigned width = 3; width <= 16; ++width) {
    cases.push_back({SourceKind::kLfsr, width});
  }
  for (unsigned width : {3u, 8u, 16u}) {
    cases.push_back({SourceKind::kCounter, width});
    cases.push_back({SourceKind::kVanDerCorput, width});
    cases.push_back({SourceKind::kChaoticLaser, width});
  }
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (const Case& c : cases) {
      for (std::uint64_t salt : {0u, 1u, 7u, 123456789u}) {
        for (double p : {0.0, 0.3, 0.5, 0.77, 1.0}) {
          for (std::size_t length : {0u, 1u, 63u, 64u, 65u, 4096u}) {
            const Bitstream want =
                Sng(make_source(c.kind, c.width, salt)).generate(p, length);
            std::vector<std::uint64_t> got(want.word_count() + 1, kGuard);
            fill_stream(c.kind, c.width, salt, p, length, got.data());
            std::vector<std::uint64_t> expected(
                want.words_data(), want.words_data() + want.word_count());
            expected.push_back(kGuard);
            ASSERT_EQ(got, expected)
                << oscs::simd_backend_name(backend) << " kind "
                << static_cast<int>(c.kind) << " width " << c.width
                << " salt " << salt << " p " << p << " length " << length;
          }
        }
      }
    }
  }
  std::uint64_t word = 0;
  EXPECT_THROW(fill_stream(SourceKind::kLfsr, 2, 1, 0.5, 64, &word),
               std::invalid_argument);
  EXPECT_THROW(fill_stream(SourceKind::kLfsr, 33, 1, 0.5, 64, &word),
               std::invalid_argument);
}

/// The comparator threshold is round(clamp01(p) * 2^w) with halves
/// rounded away from zero - llround's rule - at every grid point and
/// half point of every table width.
TEST(SngThreshold, RoundsHalfAwayFromZero) {
  for (unsigned width = 3; width <= 16; ++width) {
    const Sng sng(make_source(SourceKind::kLfsr, width, 1));
    const std::uint64_t full = std::uint64_t{1} << width;
    const double scale = static_cast<double>(full);
    for (std::uint64_t k = 0; k <= full; ++k) {
      ASSERT_EQ(sng.threshold_for(static_cast<double>(k) / scale), k)
          << "width " << width << " k " << k;
      if (k < full) {
        ASSERT_EQ(sng.threshold_for((static_cast<double>(k) + 0.5) / scale),
                  k + 1)
            << "width " << width << " half above k " << k;
      }
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double below : {-kInf, -1.0, -0.5, -1e-300}) {
      EXPECT_EQ(sng.threshold_for(below), 0u) << "width " << width;
    }
    for (double above : {1.0 + 1e-15, 2.0, kInf}) {
      EXPECT_EQ(sng.threshold_for(above), full) << "width " << width;
    }
  }
  oscs::Xoshiro256 rng(0x7E5E0D1DULL);
  std::vector<Sng> sngs;
  for (unsigned width = 3; width <= 16; ++width) {
    sngs.emplace_back(make_source(SourceKind::kLfsr, width, 1));
  }
  for (int i = 0; i < 1000000; ++i) {
    const Sng& sng = sngs[static_cast<std::size_t>(rng() % sngs.size())];
    const double p = rng.uniform01();
    const auto want = static_cast<std::uint64_t>(
        std::llround(std::ldexp(p, static_cast<int>(sng.width()))));
    ASSERT_EQ(sng.threshold_for(p), want)
        << "width " << sng.width() << " p " << p;
  }
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
