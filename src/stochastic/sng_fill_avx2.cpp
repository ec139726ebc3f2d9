// AVX2 comparator fill for LFSR-driven SNG streams. This translation unit
// is compiled with -mavx2 (CMake gates it behind OSCS_ENABLE_AVX2 +
// compiler support) and is only entered after a runtime cpuid check, so
// the rest of the library stays baseline-ISA clean.
//
// Output is bit-identical to fill_lfsr_words_scalar: the cycle table's
// biased comparator row turns ((state * scramble) & mask) < threshold
// into one signed 16-bit compare of row * scramble against the biased
// threshold (the identity and its odd-scramble precondition are stated
// in sng_fill.hpp).

#include "stochastic/sng_fill.hpp"

#if defined(OSCS_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace oscs::stochastic::detail {

namespace {

/// 16-lane comparator masks for 16 consecutive row entries: lane i is
/// 0xFFFF iff int16(row[i] * scramble) < int16(bound).
inline __m256i comparator_lanes16(const std::uint16_t* row,
                                  __m256i scramble16, __m256i bound16) {
  const __m256i v = _mm256_mullo_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)), scramble16);
  return _mm256_cmpgt_epi16(bound16, v);
}

/// 32 comparator bits (stream order, bit 0 = lane 0) for 32 consecutive
/// row entries. One pack compacts both 16-lane masks to bytes; it
/// interleaves them per 128-bit lane as (a0-7, b0-7 | a8-15, b8-15), the
/// 64-bit permute restores stream order, and one movemask emits all 32
/// bits.
inline std::uint32_t comparator_bits32(const std::uint16_t* row,
                                       __m256i scramble16, __m256i bound16) {
  const __m256i packed = _mm256_permute4x64_epi64(
      _mm256_packs_epi16(comparator_lanes16(row, scramble16, bound16),
                         comparator_lanes16(row + 16, scramble16, bound16)),
      0xD8);
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(packed));
}

/// One output word from 64 consecutive row entries.
inline std::uint64_t comparator_word(const std::uint16_t* row,
                                     __m256i scramble16, __m256i bound16) {
  return comparator_bits32(row, scramble16, bound16) |
         static_cast<std::uint64_t>(
             comparator_bits32(row + 32, scramble16, bound16))
             << 32;
}

}  // namespace

void fill_lfsr_words_avx2(const LfsrCycle& cycle, std::size_t phase0,
                          std::uint64_t scramble, std::uint64_t mask,
                          std::uint64_t threshold, std::size_t length,
                          std::uint64_t* words, LfsrWalk walk) {
  const std::size_t nwords = (length + 63) / 64;
  const std::size_t tail_bits = length % 64;

  // Degenerate thresholds (p == 0 / p == 1 after comparator quantization)
  // never reach the vector loop; the biased bound only covers 1..mask.
  if (threshold == 0) {
    std::memset(words, 0, nwords * sizeof(std::uint64_t));
    return;
  }
  if (threshold > mask) {
    std::memset(words, 0xFF, nwords * sizeof(std::uint64_t));
  } else {
    const __m256i scramble16 =
        _mm256_set1_epi16(static_cast<short>(scramble & 0xFFFFu));
    const __m256i bound16 = _mm256_set1_epi16(static_cast<short>(
        (threshold << (16 - cycle.width)) ^ 0x8000u));

    // The row continues the cycle for 63 entries past the period, so the
    // 64 phases of a word are one contiguous run even across the cycle
    // wrap: no word is staged. A word advances the phase by 64 mod
    // period, so one conditional subtraction keeps it below the period.
    const std::uint16_t* row = cycle.row(walk);
    const std::size_t period = cycle.period();
    const std::size_t step = period > 64 ? 64 : 64 % period;
    std::size_t idx = phase0;
    for (std::size_t w = 0; w < nwords; ++w) {
      words[w] = comparator_word(row + idx, scramble16, bound16);
      idx += step;
      if (idx >= period) idx -= period;
    }
  }
  // Comparator decisions past `length` are masked once, on the last word.
  if (tail_bits != 0) {
    words[nwords - 1] &= ~std::uint64_t{0} >> (64 - tail_bits);
  }
}

}  // namespace oscs::stochastic::detail

#endif  // OSCS_HAVE_AVX2
