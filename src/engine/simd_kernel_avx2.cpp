// AVX2 backend of the packed kernel's word-parallel primitives. This
// translation unit is compiled with -mavx2 (gated by OSCS_ENABLE_AVX2 +
// compiler support) and entered only after a runtime cpuid check through
// the common/simd.hpp seam, keeping the rest of the library baseline-ISA.
//
// Every primitive is pure bitwise logic over 64-bit lanes, so processing
// four words per __m256i yields output bit-identical to the scalar
// reference in simd_kernel.cpp; the equivalence suite pins that. The
// product count compiles the scalar TU's loop body here, where -mavx2
// turns std::popcount into the hardware instruction.

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

/// Sets whose gather tables one pass over the words keeps; more sets take
/// further passes, each recounting the banks.
constexpr std::size_t kSetGroup = 8;
/// 8-cell gather chunks of the largest grid.
constexpr std::size_t kMaxChunks =
    ((kMaxLaneOrder + 1) * (kMaxLaneOrder + 1) + 7) / 8;

/// A set's bounds as vpshufb tables: chunk q holds cells 8q..8q+7 as
/// int16, its 16 bytes broadcast to both 128-bit lanes (vpshufb looks up
/// within a lane).
struct GatherTable {
  __m256i chunk[kMaxChunks];
};

void build_gather_table(const std::int16_t* bounds, std::size_t cells,
                        GatherTable& table) {
  for (std::size_t q = 0; q * 8 < cells; ++q) {
    alignas(16) std::int16_t entries[8] = {};
    for (std::size_t i = 0; i < 8 && q * 8 + i < cells; ++i) {
      entries[i] = bounds[q * 8 + i];
    }
    table.chunk[q] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(entries)));
  }
}

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

/// The word loop for one group of sets (at most kSetGroup), specialized
/// on whether the grid spans more than one 8-cell gather chunk: the
/// single-table loop unrolls fully.
template <bool kChunked>
void select_compare_group(const SelectCompareJob& job, std::size_t s0,
                          std::size_t group, const GatherTable* tables,
                          const __m256i* set_scramble) {
  const std::size_t n = job.order_x;
  const std::size_t m = job.order_y;
  const std::size_t chunks = ((n + 1) * (m + 1) + 7) / 8;
  const std::size_t nwords = (job.length + 63) / 64;
  const std::size_t period = job.period;
  // Every walk advances one row entry per bit, so all of them move by the
  // same 64 mod period per word: one shared offset locates each walk, and
  // the 63 continuation entries keep a word's 64 lanes contiguous.
  const std::size_t step = period > 64 ? 64 : 64 % period;
  const std::uint64_t tail =
      job.length % 64 == 0 ? ~std::uint64_t{0}
                           : ~std::uint64_t{0} >> (64 - job.length % 64);
  const __m256i x_bound = _mm256_set1_epi16(job.x_bound);
  const __m256i y_bound = _mm256_set1_epi16(job.y_bound);
  const __m256i row_cells = _mm256_set1_epi16(static_cast<short>(m + 1));
  const __m256i seven = _mm256_set1_epi16(7);
  // vpshufb operand of cell c: the byte pair (2(c mod 8), 2(c mod 8) + 1)
  // of its chunk's table, i.e. (c mod 8) * 0x0202 + 0x0100 per lane.
  const __m256i pair_scale = _mm256_set1_epi16(0x0202);
  const __m256i pair_base = _mm256_set1_epi16(0x0100);

  std::size_t offset = 0;
  for (std::size_t w = 0; w < nwords; ++w) {
    __m256i cell[4];
    count_bank(job.clock_row, job.x, n, offset, period, x_bound, cell);
    if (m > 0) {
      __m256i ky[4];
      count_bank(job.clock_row, job.y, m, offset, period, y_bound, ky);
      for (std::size_t g = 0; g < 4; ++g) {
        cell[g] =
            _mm256_add_epi16(_mm256_mullo_epi16(cell[g], row_cells), ky[g]);
      }
    }
    __m256i index[4];
    __m256i chunk[4];
    for (std::size_t g = 0; g < 4; ++g) {
      __m256i within = cell[g];
      if constexpr (kChunked) {
        chunk[g] = _mm256_srli_epi16(cell[g], 3);
        within = _mm256_and_si256(cell[g], seven);
      }
      index[g] =
          _mm256_add_epi16(_mm256_mullo_epi16(within, pair_scale), pair_base);
    }
    for (std::size_t s = 0; s < group; ++s) {
      const GatherTable& table = tables[s];
      std::size_t start = job.sets[s0 + s].start + offset;
      if (start >= period) start -= period;
      const std::uint16_t* lanes = job.leap_row + start;
      __m256i above[4];
      for (std::size_t g = 0; g < 4; ++g) {
        __m256i bound = _mm256_shuffle_epi8(table.chunk[0], index[g]);
        if constexpr (kChunked) {
          for (std::size_t q = 1; q < chunks; ++q) {
            bound = _mm256_blendv_epi8(
                bound, _mm256_shuffle_epi8(table.chunk[q], index[g]),
                _mm256_cmpeq_epi16(chunk[g],
                                   _mm256_set1_epi16(static_cast<short>(q))));
          }
        }
        const __m256i v = _mm256_mullo_epi16(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(lanes + 16 * g)),
            set_scramble[s]);
        above[g] = _mm256_cmpgt_epi16(v, bound);
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
      job.electronic[s0 + s][w] = bits;
      job.optical[s0 + s][w] = bits;
    }
    offset += step;
    if (offset >= period) offset -= period;
  }
}

}  // namespace

void select_compare_avx2(const SelectCompareJob& job) {
  const std::size_t cells = (job.order_x + 1) * (job.order_y + 1);
  GatherTable tables[kSetGroup];
  __m256i set_scramble[kSetGroup];
  for (std::size_t s0 = 0; s0 < job.set_count; s0 += kSetGroup) {
    const std::size_t group = std::min(kSetGroup, job.set_count - s0);
    for (std::size_t g = 0; g < group; ++g) {
      build_gather_table(job.bounds + (s0 + g) * cells, cells, tables[g]);
      set_scramble[g] =
          _mm256_set1_epi16(static_cast<short>(job.sets[s0 + g].scramble));
    }
    if (cells > 8) {
      select_compare_group<true>(job, s0, group, tables, set_scramble);
    } else {
      select_compare_group<false>(job, s0, group, tables, set_scramble);
    }
  }
}

}  // namespace oscs::engine::simd::detail

#endif  // OSCS_HAVE_AVX2
