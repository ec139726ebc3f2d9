#pragma once
/// \file sng_lanes.hpp
/// \brief The biased comparator step of sng_fill.hpp over GCC vector
///        extensions, and the LFSR comparator fill built from it. One
///        source compiles in every backend translation unit that includes
///        it: vectors hold kLanes int16 lanes, 16 (one ymm register) under
///        -mavx2 and 8 (16 bytes, the baseline width of every 64-bit
///        target) elsewhere. Everything here has internal linkage, so the
///        linker can never substitute the -mavx2 copy into the baseline
///        path. Include it only from backend translation units
///        (sng_fill.cpp, sng_fill_avx2.cpp) and from headers only they
///        include (engine/simd_kernel_body.hpp).
///
/// The step: load kLanes row entries, multiply by the odd scramble,
/// compare signed against the lanes' bounds, and pack the lane masks of
/// 64 entries into one stream word. Packing is the one place the AVX2
/// instantiation uses intrinsics (pack + permute + movemask); the
/// baseline one ORs weighted lanes together through shuffles, which needs
/// no byte shuffle or movemask instruction.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "stochastic/sng_fill.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace oscs::stochastic::lanes {
namespace {

#if defined(__AVX2__)
constexpr std::size_t kLanes = 16;
#else
constexpr std::size_t kLanes = 8;
#endif
/// Vectors per 64-bit stream word.
constexpr std::size_t kWordVectors = 64 / kLanes;

typedef std::int16_t I16 __attribute__((vector_size(2 * kLanes)));
typedef std::uint16_t U16 __attribute__((vector_size(2 * kLanes)));

/// Every lane set to `value`.
inline I16 splat(std::int16_t value) { return I16{} + value; }
inline U16 splat(std::uint16_t value) { return U16{} + value; }

/// kLanes row entries from an unaligned address.
inline U16 load(const std::uint16_t* row) {
  U16 v;
  std::memcpy(&v, row, sizeof v);
  return v;
}

/// Lane masks of kLanes comparator steps: lane t is -1 iff
/// int16(row[t] * scramble) > bound[t], else 0.
inline I16 above(const std::uint16_t* row, U16 scramble, I16 bound) {
  return std::bit_cast<I16>(load(row) * scramble) > bound;
}

/// The stream word of 64 lane masks (each lane 0 or -1): bit
/// kLanes * q + t is lane t of masks[q].
inline std::uint64_t pack_bits(const I16 (&masks)[kWordVectors]) {
#if defined(__AVX2__)
  // One pack compacts two 16-lane masks to bytes, interleaved per 128-bit
  // lane as (a0-7, b0-7 | a8-15, b8-15); the 64-bit permute restores
  // stream order, and one movemask emits all 32 bits.
  const auto bits32 = [](I16 a, I16 b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_permute4x64_epi64(
            _mm256_packs_epi16(std::bit_cast<__m256i>(a),
                               std::bit_cast<__m256i>(b)),
            0xD8)));
  };
  return bits32(masks[0], masks[1]) |
         std::uint64_t{bits32(masks[2], masks[3])} << 32;
#else
  static_assert(kLanes == 8, "the generic packing folds 8-lane vectors");
  // Lane t of masks[2c + h] keeps bit 8h + t of 16-bit chunk c, so the
  // chunk is the OR of its vector's lanes. Two interleave-OR folds
  // (punpck{l,h}wd, then punpck{l,h}dq) leave every chunk's lanes spread
  // over lane c of the two 64-bit halves, whose OR is the word.
  const U16 low = {1, 2, 4, 8, 16, 32, 64, 128};
  U16 chunk[4];
  for (std::size_t c = 0; c < 4; ++c) {
    chunk[c] = (std::bit_cast<U16>(masks[2 * c]) & low) |
               (std::bit_cast<U16>(masks[2 * c + 1]) & (low << 8));
  }
  const auto fold = [](U16 a, U16 b, U16 first, U16 second) {
    return __builtin_shuffle(a, b, first) | __builtin_shuffle(a, b, second);
  };
  const U16 words_lo = {0, 8, 1, 9, 2, 10, 3, 11};
  const U16 words_hi = {4, 12, 5, 13, 6, 14, 7, 15};
  const U16 fold01 = fold(chunk[0], chunk[1], words_lo, words_hi);
  const U16 fold23 = fold(chunk[2], chunk[3], words_lo, words_hi);
  const U16 spread = fold(fold01, fold23, U16{0, 1, 8, 9, 2, 3, 10, 11},
                          U16{4, 5, 12, 13, 6, 7, 14, 15});
  std::uint64_t half[2];
  std::memcpy(half, &spread, sizeof half);
  return half[0] | half[1];
#endif
}

/// The comparator step over one stream word: bit t is
/// int16(row[t] * scramble) > bound for the 64 consecutive row entries
/// from `row`, where `bound(q)` gives the bounds of vector q's lanes.
template <class Bound>
inline std::uint64_t above_word(const std::uint16_t* row, U16 scramble,
                                const Bound& bound) {
  I16 masks[kWordVectors];
  for (std::size_t q = 0; q < kWordVectors; ++q) {
    masks[q] = above(row + kLanes * q, scramble, bound(q));
  }
  return pack_bits(masks);
}

/// The body of fill_lfsr_words (see sng_fill.hpp for the contract). Bit t
/// is u <= T - 1, i.e. NOT (int16(c * a) > b) for the inclusive bound b of
/// the threshold (clamped to 2^w, where the stream is all ones), which
/// encodes every threshold, so constant streams take no branch. Negation
/// is exact on every scrambled value (none is int16 minimum, as u != 0),
/// so the bit is also int16(c * -a) > ~b (= -b - 1): the comparator step
/// itself, with no complement per word. The row continues the cycle for
/// 63 entries past the period, so a word's 64 phases are one contiguous
/// run even across the cycle wrap; a word advances the phase by 64 mod
/// period, which one conditional subtraction keeps below the period.
/// Decisions past `length` are masked once, on the last word.
inline void fill_lfsr_body(const detail::LfsrCycle& cycle, std::size_t phase0,
                           std::uint64_t scramble, std::uint64_t mask,
                           std::uint64_t threshold, std::size_t length,
                           std::uint64_t* words, detail::LfsrWalk walk) {
  const std::size_t nwords = (length + 63) / 64;
  const U16 negated = splat(static_cast<std::uint16_t>(0 - scramble));
  const I16 bound = splat(static_cast<std::int16_t>(~detail::inclusive_bound(
      std::min(threshold, mask + 1), cycle.width)));
  const auto same_bound = [bound](std::size_t) { return bound; };
  const std::uint16_t* row = cycle.row(walk);
  const std::size_t period = cycle.period();
  const std::size_t step = period > 64 ? 64 : 64 % period;
  std::size_t idx = phase0;
  for (std::size_t w = 0; w < nwords; ++w) {
    words[w] = above_word(row + idx, negated, same_bound);
    idx += step;
    if (idx >= period) idx -= period;
  }
  if (length % 64 != 0) {
    words[nwords - 1] &= ~std::uint64_t{0} >> (64 - length % 64);
  }
}

}  // namespace
}  // namespace oscs::stochastic::lanes
