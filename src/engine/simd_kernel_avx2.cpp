// AVX2 backend of the packed kernel's word-parallel primitives. This
// translation unit is compiled with -mavx2 (gated by OSCS_ENABLE_AVX2 +
// compiler support) and entered only after a runtime cpuid check through
// the common/simd.hpp seam, keeping the rest of the library baseline-ISA.
//
// Every primitive is pure bitwise logic over 64-bit lanes, so processing
// four words per __m256i yields output bit-identical to the scalar
// reference in simd_kernel.cpp; the equivalence suite pins that. The
// product count and the lane loop's count sink compile the scalar TU's
// bodies here, where -mavx2 turns std::popcount into the hardware
// instruction.

#include "engine/simd_kernel.hpp"

#if defined(OSCS_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "engine/simd_kernel_count.hpp"

namespace oscs::engine::simd::detail {

void accumulate_planes_avx2(const std::uint64_t* const* streams,
                            std::size_t n_streams, std::size_t w0,
                            std::size_t count, std::uint64_t* planes,
                            std::size_t plane_count, std::size_t stride) {
  const std::size_t vec = count & ~std::size_t{3};
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::uint64_t* src = streams[s] + w0;
    for (std::size_t i = 0; i < vec; i += 4) {
      __m256i carry =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      for (std::size_t j = 0; j < plane_count; ++j) {
        if (_mm256_testz_si256(carry, carry)) break;
        std::uint64_t* p = planes + j * stride + i;
        const __m256i plane =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
        const __m256i overflow = _mm256_and_si256(plane, carry);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                            _mm256_xor_si256(plane, carry));
        carry = overflow;
      }
    }
    for (std::size_t i = vec; i < count; ++i) {
      std::uint64_t carry = src[i];
      for (std::size_t j = 0; j < plane_count && carry != 0; ++j) {
        std::uint64_t& plane = planes[j * stride + i];
        const std::uint64_t overflow = plane & carry;
        plane ^= carry;
        carry = overflow;
      }
    }
  }
}

void select_masks_avx2(const std::uint64_t* planes, std::size_t plane_count,
                       std::size_t count, std::size_t n_values,
                       std::uint64_t* sel, std::size_t stride) {
  const std::size_t vec = count & ~std::size_t{3};
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (std::size_t k = 0; k < n_values; ++k) {
    std::uint64_t* dst = sel + k * stride;
    for (std::size_t i = 0; i < vec; i += 4) {
      __m256i mask = ones;
      for (std::size_t j = 0; j < plane_count; ++j) {
        const __m256i plane = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(planes + j * stride + i));
        mask = ((k >> j) & 1u) ? _mm256_and_si256(mask, plane)
                               : _mm256_andnot_si256(plane, mask);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), mask);
    }
    for (std::size_t i = vec; i < count; ++i) {
      std::uint64_t mask = ~std::uint64_t{0};
      for (std::size_t j = 0; j < plane_count; ++j) {
        const std::uint64_t plane = planes[j * stride + i];
        mask &= ((k >> j) & 1u) ? plane : ~plane;
      }
      dst[i] = mask;
    }
  }
}

void mux_or_reduce_avx2(const std::uint64_t* sel, std::size_t n_sel,
                        std::size_t stride, std::size_t count,
                        const std::uint64_t* const* z_words, std::size_t w0,
                        std::uint64_t* mux) {
  const std::size_t vec = count & ~std::size_t{3};
  for (std::size_t i = 0; i < vec; i += 4) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mux + i));
    for (std::size_t k = 0; k < n_sel; ++k) {
      const __m256i sk = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sel + k * stride + i));
      const __m256i zk = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(z_words[k] + w0 + i));
      acc = _mm256_or_si256(acc, _mm256_and_si256(sk, zk));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mux + i), acc);
  }
  for (std::size_t i = vec; i < count; ++i) {
    std::uint64_t acc = mux[i];
    for (std::size_t k = 0; k < n_sel; ++k) {
      acc |= sel[k * stride + i] & z_words[k][w0 + i];
    }
    mux[i] = acc;
  }
}

void mux2_or_reduce_avx2(const std::uint64_t* sel_x, std::size_t nx,
                         const std::uint64_t* sel_y, std::size_t ny,
                         std::size_t stride, std::size_t count,
                         const std::uint64_t* const* z_words, std::size_t w0,
                         std::uint64_t* mux) {
  const std::size_t vec = count & ~std::size_t{3};
  for (std::size_t w = 0; w < vec; w += 4) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mux + w));
    for (std::size_t i = 0; i < nx; ++i) {
      const __m256i sx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sel_x + i * stride + w));
      if (_mm256_testz_si256(sx, sx)) continue;
      for (std::size_t j = 0; j < ny; ++j) {
        const __m256i sy = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(sel_y + j * stride + w));
        const __m256i s = _mm256_and_si256(sx, sy);
        const __m256i z = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(z_words[i * ny + j] + w0 + w));
        acc = _mm256_or_si256(acc, _mm256_and_si256(s, z));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mux + w), acc);
  }
  for (std::size_t w = vec; w < count; ++w) {
    std::uint64_t acc = mux[w];
    for (std::size_t i = 0; i < nx; ++i) {
      const std::uint64_t sx = sel_x[i * stride + w];
      if (sx == 0) continue;
      for (std::size_t j = 0; j < ny; ++j) {
        acc |= (sx & sel_y[j * stride + w]) & z_words[i * ny + j][w0 + w];
      }
    }
    mux[w] = acc;
  }
}

ProductCounts count_product_avx2(const std::uint64_t* const* optical,
                                 const std::uint64_t* const* electronic,
                                 std::size_t factors, std::size_t length) {
  return count_product_body(optical, electronic, factors, length);
}

namespace {

/// Counts one bank over a word's 64 lanes (4 groups of 16): acc[g] starts
/// at the bank order and drops by one per walk above `bound` (vpcmpgtw
/// yields -1 there).
inline void count_bank(const std::uint16_t* row, const LaneWalk* walks,
                       std::size_t order, std::size_t offset,
                       std::size_t period, __m256i bound, __m256i acc[4]) {
  for (std::size_t g = 0; g < 4; ++g) {
    acc[g] = _mm256_set1_epi16(static_cast<short>(order));
  }
  for (std::size_t i = 0; i < order; ++i) {
    std::size_t start = walks[i].start + offset;
    if (start >= period) start -= period;
    const std::uint16_t* lanes = row + start;
    const __m256i scramble =
        _mm256_set1_epi16(static_cast<short>(walks[i].scramble));
    for (std::size_t g = 0; g < 4; ++g) {
      const __m256i v = _mm256_mullo_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 16 * g)),
          scramble);
      acc[g] = _mm256_add_epi16(acc[g], _mm256_cmpgt_epi16(v, bound));
    }
  }
}

/// Sets whose scramble vectors the loop keeps on the stack; further sets
/// broadcast theirs per word.
constexpr std::size_t kCachedSets = 32;

/// The word loop, specialized on whether the grid spans more than one
/// 8-cell gather chunk (the single-table loop unrolls fully) and on
/// whether the job is one pass deciding one set (its table, scramble and
/// bank bounds then stay in registers; a single-program dense run is the
/// common case). Per word, every pass counts its banks once and decides
/// each of its sets into the block; a full block goes to the sink. The
/// job's fields are read into locals once.
template <bool kChunked, bool kSingle>
void select_compare_words(const SelectCompareJob& job) {
  const std::size_t n = job.order_x;
  const std::size_t m = job.order_y;
  const std::size_t cells = (n + 1) * (m + 1);
  const std::size_t chunks = (cells + 7) / 8;
  const std::size_t stride = lane_bound_stride(cells);
  const std::size_t nwords = (job.length + 63) / 64;
  const std::size_t period = job.period;
  const std::uint16_t* const clock_row = job.clock_row;
  const std::uint16_t* const leap_row = job.leap_row;
  const LanePass* const passes = job.passes;
  const std::size_t pass_count = kSingle ? 1 : job.pass_count;
  const LaneWalk* const sets = job.sets;
  const std::int16_t* const bounds = job.bounds;
  std::uint64_t* const decisions = job.decisions;
  // Every walk advances one row entry per bit, so all of them move by the
  // same 64 mod period per word: one shared offset locates each walk, and
  // the 63 continuation entries keep a word's 64 lanes contiguous.
  const std::size_t step = period > 64 ? 64 : 64 % period;
  const std::uint64_t tail =
      job.length % 64 == 0 ? ~std::uint64_t{0}
                           : ~std::uint64_t{0} >> (64 - job.length % 64);
  const __m256i row_cells = _mm256_set1_epi16(static_cast<short>(m + 1));
  const __m256i seven = _mm256_set1_epi16(7);
  // vpshufb operand of cell c: the byte pair (2(c mod 8), 2(c mod 8) + 1)
  // of its chunk's table, i.e. (c mod 8) * 0x0202 + 0x0100 per lane.
  const __m256i pair_scale = _mm256_set1_epi16(0x0202);
  const __m256i pair_base = _mm256_set1_epi16(0x0100);
  // A gather row's chunk q as a vpshufb table: its 16 bytes broadcast to
  // both 128-bit lanes (vpshufb looks up within a lane).
  const auto table = [](const std::int16_t* row, std::size_t q) {
    return _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 8 * q)));
  };
  const auto broadcast = [](std::int16_t v) {
    return _mm256_set1_epi16(static_cast<short>(v));
  };
  std::size_t set_count = 0;
  for (std::size_t p = 0; p < pass_count; ++p) set_count += passes[p].sets;
  __m256i scrambles[kCachedSets];
  for (std::size_t g = 0; g < set_count && g < kCachedSets; ++g) {
    scrambles[g] = broadcast(static_cast<std::int16_t>(sets[g].scramble));
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i single_table = kSingle ? table(bounds, 0) : zero;
  const __m256i single_x = kSingle ? broadcast(passes[0].x_bound) : zero;
  const __m256i single_y = kSingle ? broadcast(passes[0].y_bound) : zero;

  LaneSink sink(job);
  std::size_t offset = 0;
  for (std::size_t w0 = 0; w0 < nwords; w0 += kLaneBlockWords) {
    const std::size_t words = std::min(kLaneBlockWords, nwords - w0);
    for (std::size_t j = 0; j < words; ++j) {
      const std::size_t w = w0 + j;
      std::size_t g = 0;
      for (std::size_t p = 0; p < pass_count; ++p) {
        const LanePass& pass = passes[p];
        __m256i cell[4];
        count_bank(clock_row, pass.x, n, offset, period,
                   kSingle ? single_x : broadcast(pass.x_bound), cell);
        if (m > 0) {
          __m256i ky[4];
          count_bank(clock_row, pass.y, m, offset, period,
                     kSingle ? single_y : broadcast(pass.y_bound), ky);
          for (std::size_t q = 0; q < 4; ++q) {
            cell[q] =
                _mm256_add_epi16(_mm256_mullo_epi16(cell[q], row_cells), ky[q]);
          }
        }
        __m256i index[4];
        __m256i chunk[4];
        for (std::size_t q = 0; q < 4; ++q) {
          __m256i within = cell[q];
          if constexpr (kChunked) {
            chunk[q] = _mm256_srli_epi16(cell[q], 3);
            within = _mm256_and_si256(cell[q], seven);
          }
          index[q] = _mm256_add_epi16(_mm256_mullo_epi16(within, pair_scale),
                                      pair_base);
        }
        for (const std::size_t end = kSingle ? 1 : g + pass.sets; g < end;
             ++g) {
          std::size_t start = sets[g].start + offset;
          if (start >= period) start -= period;
          const std::uint16_t* lanes = leap_row + start;
          const __m256i scramble =
              kSingle || g < kCachedSets
                  ? scrambles[g]
                  : broadcast(static_cast<std::int16_t>(sets[g].scramble));
          const std::int16_t* row = bounds + g * stride;
          const __m256i first = kSingle ? single_table : table(row, 0);
          __m256i above[4];
          for (std::size_t q = 0; q < 4; ++q) {
            __m256i bound = _mm256_shuffle_epi8(first, index[q]);
            if constexpr (kChunked) {
              for (std::size_t c = 1; c < chunks; ++c) {
                bound = _mm256_blendv_epi8(
                    bound, _mm256_shuffle_epi8(table(row, c), index[q]),
                    _mm256_cmpeq_epi16(chunk[q],
                                       broadcast(static_cast<std::int16_t>(c))));
              }
            }
            const __m256i v = _mm256_mullo_epi16(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(lanes + 16 * q)),
                scramble);
            above[q] = _mm256_cmpgt_epi16(v, bound);
          }
          // One pack + permute + movemask turns two 16-lane masks into 32
          // stream-order bits; a decision is NOT above.
          const auto low = static_cast<std::uint32_t>(
              _mm256_movemask_epi8(_mm256_permute4x64_epi64(
                  _mm256_packs_epi16(above[0], above[1]), 0xD8)));
          const auto high = static_cast<std::uint32_t>(
              _mm256_movemask_epi8(_mm256_permute4x64_epi64(
                  _mm256_packs_epi16(above[2], above[3]), 0xD8)));
          std::uint64_t bits = ~(static_cast<std::uint64_t>(high) << 32 | low);
          if (w + 1 == nwords) bits &= tail;
          decisions[g * kLaneBlockWords + j] = bits;
        }
      }
      offset += step;
      if (offset >= period) offset -= period;
    }
    sink.block(w0, words, decisions);
  }
  sink.finish();
}

}  // namespace

void select_compare_avx2(const SelectCompareJob& job) {
  const bool chunked = (job.order_x + 1) * (job.order_y + 1) > 8;
  const bool single = job.pass_count == 1 && job.passes[0].sets == 1;
  if (chunked) {
    if (single) {
      select_compare_words<true, true>(job);
    } else {
      select_compare_words<true, false>(job);
    }
  } else if (single) {
    select_compare_words<false, true>(job);
  } else {
    select_compare_words<false, false>(job);
  }
}

}  // namespace oscs::engine::simd::detail

#endif  // OSCS_HAVE_AVX2
