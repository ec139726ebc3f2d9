// AVX2 comparator fill for LFSR-driven SNG streams. This translation unit
// is compiled with -mavx2 (CMake gates it behind OSCS_ENABLE_AVX2 +
// compiler support) and is only entered after a runtime cpuid check, so
// the rest of the library stays baseline-ISA clean.
//
// Output is bit-identical to fill_lfsr_words_scalar: with width <= 16 the
// comparator value ((state * scramble) & mask) only depends on the low 16
// bits of each operand, so a 16-lane _mm256_mullo_epi16 computes exactly
// the masked product the scalar 64-bit multiply produces.

#include "stochastic/sng_fill.hpp"

#if defined(OSCS_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace oscs::stochastic::detail {

namespace {

/// 16-lane comparator masks for 16 consecutive states: lane i is 0xFFFF
/// iff ((state * scramble) & mask) < threshold, threshold in 1..mask.
inline __m256i comparator_lanes16(const std::uint16_t* states,
                                  __m256i scramble16, __m256i mask16,
                                  __m256i threshold_minus_1) {
  const __m256i v = _mm256_and_si256(
      _mm256_mullo_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states)),
          scramble16),
      mask16);
  // Unsigned v < t  <=>  min(v, t-1) == v.
  return _mm256_cmpeq_epi16(_mm256_min_epu16(v, threshold_minus_1), v);
}

/// 32 comparator bits (stream order, bit 0 = lane 0) for 32 consecutive
/// states. One pack compacts both 16-lane masks to bytes; it interleaves
/// them per 128-bit lane as (a0-7, b0-7 | a8-15, b8-15), the 64-bit
/// permute restores stream order, and one movemask emits all 32 bits.
inline std::uint32_t comparator_bits32(const std::uint16_t* states,
                                       __m256i scramble16, __m256i mask16,
                                       __m256i threshold_minus_1) {
  const __m256i packed = _mm256_permute4x64_epi64(
      _mm256_packs_epi16(
          comparator_lanes16(states, scramble16, mask16, threshold_minus_1),
          comparator_lanes16(states + 16, scramble16, mask16,
                             threshold_minus_1)),
      0xD8);
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(packed));
}

}  // namespace

void fill_lfsr_words_avx2(const LfsrCycle& cycle, std::size_t phase0,
                          std::uint64_t scramble, std::uint64_t mask,
                          std::uint64_t threshold, std::size_t length,
                          std::uint64_t* words) {
  const std::size_t nwords = (length + 63) / 64;
  const std::size_t tail_bits = length % 64;

  // Degenerate thresholds (p == 0 / p == 1 after comparator quantization)
  // never reach the vector loop.
  if (threshold == 0) {
    std::memset(words, 0, nwords * sizeof(std::uint64_t));
    return;
  }
  if (threshold > mask) {
    std::memset(words, 0xFF, nwords * sizeof(std::uint64_t));
    if (tail_bits != 0) words[nwords - 1] = (~std::uint64_t{0}) >> (64 - tail_bits);
    return;
  }

  const __m256i scramble16 =
      _mm256_set1_epi16(static_cast<short>(scramble & 0xFFFFu));
  const __m256i mask16 = _mm256_set1_epi16(static_cast<short>(mask));
  const __m256i tm1 =
      _mm256_set1_epi16(static_cast<short>(threshold - 1));

  const std::uint16_t* states = cycle.states.data();
  const std::size_t period = cycle.states.size();
  std::size_t idx = phase0 % period;

  // 64 staged states per output word; the copy only happens on cycle
  // wrap-around (once per 65535 bits at width 16).
  alignas(32) std::uint16_t staged[64];

  std::size_t bit = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint16_t* src;
    if (idx + 64 <= period) {
      src = states + idx;
    } else {
      // Wrap (possibly several times for the short periods of widths
      // 3..5, where period < 64).
      std::size_t pos = idx;
      std::size_t filled = 0;
      while (filled < 64) {
        const std::size_t n =
            64 - filled < period - pos ? 64 - filled : period - pos;
        std::memcpy(staged + filled, states + pos, n * sizeof(std::uint16_t));
        filled += n;
        pos += n;
        if (pos == period) pos = 0;
      }
      src = staged;
    }
    std::uint64_t word =
        comparator_bits32(src, scramble16, mask16, tm1) |
        static_cast<std::uint64_t>(
            comparator_bits32(src + 32, scramble16, mask16, tm1))
            << 32;
    const std::size_t limit = length - bit < 64 ? length - bit : 64;
    if (limit < 64) word &= (~std::uint64_t{0}) >> (64 - limit);
    words[w] = word;
    bit += limit;
    // Advance by subtraction: limit <= 64, so this is at most one step
    // once period >= 64 and a few for the short periods of widths 3..5 -
    // no 64-bit division per word.
    idx += limit;
    while (idx >= period) idx -= period;
  }
}

}  // namespace oscs::stochastic::detail

#endif  // OSCS_HAVE_AVX2
