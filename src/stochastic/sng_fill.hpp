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
///   2. *Biased SIMD comparator.* The emitted bit is
///      ((state * a) & mask) < T for an odd scramble a and a threshold T
///      in 1..mask (T = 0 and T = mask + 1 are constant streams). The
///      table stores each state as the biased 16-bit comparator value
///      c = (state << (16 - w)) ^ 0x8000, and for odd a
///
///        ((state * a) & mask) < T  <=>
///            int16(c * a) < int16((T << (16 - w)) ^ 0x8000)
///
///      because c * a = ((state * a) << (16 - w)) + 0x8000 * a modulo
///      2^16, 0x8000 * a = 0x8000 modulo 2^16 when a is odd, and flipping
///      the top bit maps unsigned 16-bit order onto signed order. The
///      shift drops the bits above the mask, so the AVX2 backend needs
///      one `vpmullw` and one `vpcmpgtw` per 16 comparators - no mask,
///      no unsigned-compare emulation. It packs decisions into 64-bit
///      words 32 bits at a time (one pack + permute + movemask). The row
///      continues the cycle for 63 entries past the period, so every
///      word's 64 phases are one contiguous run of the row, across the
///      cycle wrap too: the loop never stages or splits a word, and it
///      masks the stream's tail once, on the last word.
///
/// The scalar fill evaluates the original formula over the decoded
/// states (`LfsrCycle::state`), so it checks the identity independently;
/// both fills are bit-identical to the per-bit reference loop
/// (`Sng::generate_reference`), and the equivalence suite pins that
/// across widths, thresholds, scrambles, phases and tail lengths. The
/// active implementation follows `oscs::simd_backend()` (see
/// common/simd.hpp).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oscs::stochastic::detail {

/// Largest LFSR width served by the canonical cycle table. At 16 bits the
/// two rows cost ~256 KiB. Wider registers (the wire accepts
/// `sng_width` up to 32) take the per-bit reference loop; the design
/// operating point and the registry run at 16.
constexpr unsigned kMaxLfsrTableWidth = 16;

/// Canonical state cycle of the width-w maximal-length LFSR.
struct LfsrCycle {
  /// Register width w in bits (3..kMaxLfsrTableWidth).
  unsigned width = 0;
  /// comparator[i] = (state_i << (16 - w)) ^ 0x8000, where state_i is the
  /// register state after i clocks from state 1 (the biased form feeds
  /// the signed comparator identity in the file comment). The full
  /// nonzero-state cycle of period() entries is followed by 63 more that
  /// continue it (state_i repeats with the period), so any 64 phases
  /// starting below period() are contiguous.
  std::vector<std::uint16_t> comparator;
  /// phase[s] = i < period() with state(i) == s, for every nonzero
  /// s < 2^w.
  std::vector<std::uint16_t> phase;

  /// Cycle length 2^w - 1.
  [[nodiscard]] std::size_t period() const noexcept {
    return (std::size_t{1} << width) - 1;
  }
  /// Register state after i clocks from state 1 (i < period() + 63).
  [[nodiscard]] std::uint16_t state(std::size_t i) const noexcept {
    return static_cast<std::uint16_t>((comparator[i] ^ 0x8000u) >>
                                      (16 - width));
  }
};

/// The (lazily built, immutable, thread-safe) cycle table for a width.
/// \throws std::invalid_argument if width is outside 3..kMaxLfsrTableWidth.
[[nodiscard]] const LfsrCycle& lfsr_cycle(unsigned width);

/// Fill ceil(length/64) packed words: bit t of the stream is
/// ((state((phase0 + t) mod period) * scramble) & mask) < threshold, with
/// phase0 < period(), mask = 2^w - 1 and an odd scramble (the AVX2
/// identity needs it; every LFSR source forces it). Padding bits past
/// `length` in the last word are left zero, and nothing past that word is
/// written. `words` must hold ceil(length/64) entries.
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
