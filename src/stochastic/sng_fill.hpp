#pragma once
/// \file sng_fill.hpp
/// \brief Word-parallel LFSR comparator fill: the LFSR streams of the
///        materialized path (v1 rows, v2 set rows) and of fill_stream,
///        drawn from a cycle table instead of a per-bit
///        RandomSource::next() loop. Served evaluations draw no fill: the
///        lane loop (engine/simd_kernel.hpp) walks the same biased rows
///        directly.
///
/// Four ideas make the LFSR path word-parallel:
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
///      shift drops the bits above the mask, so a vector of comparators
///      costs one 16-bit multiply and one signed compare (`vpmullw` +
///      `vpcmpgtw` per 16 under AVX2) - no mask, no unsigned-compare
///      emulation - before its lane masks are packed into stream bits.
///      The row continues the cycle for 63 entries past the period, so
///      every word's 64 phases are one contiguous run of the row, across
///      the cycle wrap too: the loop never stages or splits a word, and
///      it masks the stream's tail once, on the last word.
///
///   3. *Leap row.* Stimulus contract v2 (stochastic/resc.hpp) draws one
///      comparator per coefficient set and compares it against the
///      threshold of whichever cell the adders select, so consecutive
///      comparator values must not correlate. One clock maps the
///      scrambled value as u(t+1) = 2u(t) + a*b (mod 2^w), which ties
///      consecutive decisions together, so the set comparator walks a
///      second row: the cycle decimated by 16, a leap-forward LFSR that
///      clocks 16 times per bit. 16 is coprime to every 2^w - 1, so the
///      decimated row is again a full-period permutation of the nonzero
///      states (at width 16 it costs another ~128 KiB). It is biased and
///      continued exactly like the one-clock row, so both fills walk it
///      unchanged. The data banks keep the one-clock row.
///
///   4. *Inclusive bound.* A v2 cell (and every fill, its threshold
///      clamped to 2^w) decides NOT (c * a > bias(T - 1))
///      with bias(T - 1) = ((T - 1) << (16 - w)) ^ 0x8000 and
///      bias(-1) = 0x8000: the same signed identity, taken as u <= T - 1.
///      Unlike bias(T), it encodes every threshold 0..2^w with no branch:
///      T = 2^w maps to the row's largest biased value, and T = 0 to
///      int16 minimum, which no scrambled state reaches (state != 0 and
///      an odd a keep u != 0).
///
/// The fill is one source (sng_lanes.hpp, which also holds the comparator
/// step the lane loop shares) compiled twice: 8-lane vectors in the
/// baseline translation unit, 16-lane ones in the -mavx2 one. Both are
/// bit-identical to the per-bit comparator loop (`Sng::generate`), which
/// evaluates the original formula on the clocked register and so checks
/// the identity independently; the equivalence suite pins that
/// across widths, thresholds, scrambles, phases and tail lengths. The
/// active instantiation follows `oscs::simd_backend()` (see
/// common/simd.hpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stochastic/lfsr.hpp"

namespace oscs::stochastic::detail {

/// Clocks the leap row advances per entry (see the file comment).
constexpr std::size_t kLeapClocks = 16;

/// Which biased row of the cycle table a fill walks.
enum class LfsrWalk {
  kClock,  ///< one clock per bit (`LfsrCycle::comparator`)
  kLeap,   ///< kLeapClocks clocks per bit (`LfsrCycle::leap`)
};

/// Canonical state cycle of the width-w maximal-length LFSR. Every width
/// in kLfsrWidths has one; at 16 bits its three rows cost ~384 KiB.
struct LfsrCycle {
  /// Register width w in bits (kLfsrWidths).
  unsigned width = 0;
  /// comparator[i] = (state_i << (16 - w)) ^ 0x8000, where state_i is the
  /// register state after i clocks from state 1 (the biased form feeds
  /// the signed comparator identity in the file comment). The full
  /// nonzero-state cycle of period() entries is followed by 63 more that
  /// continue it (state_i repeats with the period), so any 64 phases
  /// starting below period() are contiguous.
  std::vector<std::uint16_t> comparator;
  /// leap[j] = comparator[(kLeapClocks * j) mod period()]: the cycle
  /// decimated by kLeapClocks, continued for 63 entries past the period
  /// like `comparator`.
  std::vector<std::uint16_t> leap;
  /// phase[s] = i < period() with state(i) == s, for every nonzero
  /// s < 2^w.
  std::vector<std::uint16_t> phase;

  /// Cycle length 2^w - 1.
  [[nodiscard]] std::size_t period() const noexcept {
    return (std::size_t{1} << width) - 1;
  }
  /// Register state after i clocks from state 1 (i < period() + 63).
  [[nodiscard]] std::uint16_t state(std::size_t i) const noexcept {
    return decode(comparator[i]);
  }
  /// The register state a biased row entry holds.
  [[nodiscard]] std::uint16_t decode(std::uint16_t biased) const noexcept {
    return static_cast<std::uint16_t>((biased ^ 0x8000u) >> (16 - width));
  }
  /// The biased row a walk reads. Defined out of line, so the -mavx2 fill
  /// (sng_fill_avx2.cpp) calls the baseline copy instead of emitting its
  /// own (see sng_lanes.hpp).
  [[nodiscard]] const std::uint16_t* row(LfsrWalk walk) const noexcept;
  /// Index into `leap` of the one-clock phase `phase0` (< period()): the
  /// j with kLeapClocks * j == phase0 (mod period()). kLeapClocks = 2^4
  /// and 2^w == 1 (mod 2^w - 1), so its inverse is 2^(-4 mod w), and
  /// multiplying a w-bit value by 2^s modulo 2^w - 1 rotates it left by s
  /// (a value below the period is not all ones, nor is its rotation).
  [[nodiscard]] std::size_t leap_index(std::size_t phase0) const noexcept {
    const unsigned shift = (width - 4 % width) % width;
    return ((phase0 << shift) | (phase0 >> (width - shift))) & period();
  }
};

/// The (lazily built, immutable, thread-safe) cycle table for a width.
/// \throws std::invalid_argument if width is outside kLfsrWidths.
[[nodiscard]] const LfsrCycle& lfsr_cycle(unsigned width);

/// Fill ceil(length/64) packed words: bit t of the stream is
/// ((state_walk((phase0 + t) mod period) * scramble) & mask) < threshold,
/// where state_walk(i) is the state `walk`'s row holds at index i, with
/// phase0 < period(), mask = 2^w - 1 and an odd scramble (the biased
/// identity needs it; every LFSR source forces it). Padding bits past
/// `length` in the last word are left zero, and nothing past that word is
/// written. `words` must hold ceil(length/64) entries. This entry point
/// runs the baseline-ISA instantiation.
void fill_lfsr_words_scalar(const LfsrCycle& cycle, std::size_t phase0,
                            std::uint64_t scramble, std::uint64_t mask,
                            std::uint64_t threshold, std::size_t length,
                            std::uint64_t* words,
                            LfsrWalk walk = LfsrWalk::kClock);

#if defined(OSCS_HAVE_AVX2)
/// The -mavx2 instantiation of the same body; bit-identical output.
void fill_lfsr_words_avx2(const LfsrCycle& cycle, std::size_t phase0,
                          std::uint64_t scramble, std::uint64_t mask,
                          std::uint64_t threshold, std::size_t length,
                          std::uint64_t* words,
                          LfsrWalk walk = LfsrWalk::kClock);
#endif

/// Dispatched entry point (the instantiation of the active backend).
void fill_lfsr_words(const LfsrCycle& cycle, std::size_t phase0,
                     std::uint64_t scramble, std::uint64_t mask,
                     std::uint64_t threshold, std::size_t length,
                     std::uint64_t* words, LfsrWalk walk = LfsrWalk::kClock);

/// bias(threshold - 1) of the file comment as int16: a v2 cell with
/// comparator threshold T (0..2^width) emits 1 iff
/// int16(row * scramble) <= inclusive_bound(T, width). Internal linkage:
/// the -mavx2 instantiations call it, and an inline function they call
/// would be emitted there as a weak copy the linker may pick for
/// baseline callers.
[[nodiscard]] static constexpr std::int16_t inclusive_bound(
    std::uint64_t threshold, unsigned width) noexcept {
  const std::uint64_t below = threshold == 0 ? 0 : threshold - 1;
  return static_cast<std::int16_t>(
      static_cast<std::uint16_t>((below << (16 - width)) ^ 0x8000u));
}

}  // namespace oscs::stochastic::detail
