#pragma once
/// \file sng_fill.hpp
/// \brief Bulk comparator fill for SNG stream generation - the dominant
///        cost of a packed evaluation (profiling: ~95% of run() at 4096
///        bits went through the per-bit virtual RandomSource::next()
///        loop).
///
/// Two ideas make the LFSR path word-parallel:
///
///   1. *Canonical cycle table.* A maximal-length LFSR of width w visits
///      every nonzero state exactly once per period 2^w - 1, and
///      different seeds are just phase shifts of the SAME sequence. One
///      lazily built table per width therefore serves every stream: the
///      forward cycle from state 1 plus the inverse map state -> phase.
///      A seeded source is a starting offset into that table - no
///      register clocking on the hot path at all.
///
///   2. *SIMD comparator.* The emitted bit is
///      ((state * scramble) & mask) < threshold, and with width <= 16 the
///      masked product only depends on the low 16 bits of each operand -
///      exactly `_mm256_mullo_epi16`. The AVX2 backend compares 16 lanes
///      per instruction and packs comparator decisions into 64-bit words
///      32 bits at a time (one pack + permute + movemask per 32 lanes),
///      advancing the cycle index by subtraction rather than a division
///      per word.
///
/// Both fills are bit-identical to the per-bit reference loop
/// (`Sng::generate_reference`) by construction; the equivalence suite
/// pins that across widths, probabilities and tail lengths. The active
/// implementation follows `oscs::simd_backend()` (see common/simd.hpp).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oscs::stochastic::detail {

/// Largest LFSR width served by the canonical cycle table. At 16 bits the
/// two tables cost ~256 KiB per width; wider registers fall back to the
/// per-bit reference loop (they are not used by any operating point the
/// link budget produces - sng_width is capped at 16 by default configs).
constexpr unsigned kMaxLfsrTableWidth = 16;

/// Canonical state cycle of the width-w maximal-length LFSR.
struct LfsrCycle {
  /// states[i] = register state after i clocks from state 1; length
  /// 2^w - 1 (the full nonzero-state cycle).
  std::vector<std::uint16_t> states;
  /// phase[s] = i with states[i] == s, for every nonzero s < 2^w.
  std::vector<std::uint16_t> phase;
};

/// The (lazily built, immutable, thread-safe) cycle table for a width.
/// \throws std::invalid_argument if width is outside 3..kMaxLfsrTableWidth.
[[nodiscard]] const LfsrCycle& lfsr_cycle(unsigned width);

/// Fill ceil(length/64) packed words: bit t of the stream is
/// ((states[(phase0 + t) mod period] * scramble) & mask) < threshold.
/// Padding bits past `length` in the last word are left zero. `words`
/// must hold ceil(length/64) entries.
void fill_lfsr_words_scalar(const LfsrCycle& cycle, std::size_t phase0,
                            std::uint64_t scramble, std::uint64_t mask,
                            std::uint64_t threshold, std::size_t length,
                            std::uint64_t* words);

#if defined(OSCS_HAVE_AVX2)
/// AVX2 variant of fill_lfsr_words_scalar; bit-identical output.
void fill_lfsr_words_avx2(const LfsrCycle& cycle, std::size_t phase0,
                          std::uint64_t scramble, std::uint64_t mask,
                          std::uint64_t threshold, std::size_t length,
                          std::uint64_t* words);
#endif

/// Dispatched entry point (scalar or AVX2 per the active backend).
void fill_lfsr_words(const LfsrCycle& cycle, std::size_t phase0,
                     std::uint64_t scramble, std::uint64_t mask,
                     std::uint64_t threshold, std::size_t length,
                     std::uint64_t* words);

/// Bulk comparator fill for the counter source: bit t is
/// ((start + t) & mask) < threshold. Scalar on every backend (the
/// counter is a test/diagnostic source, not the serving default).
void fill_counter_words(std::uint64_t start, std::uint64_t mask,
                        std::uint64_t threshold, std::size_t length,
                        std::uint64_t* words);

}  // namespace oscs::stochastic::detail
