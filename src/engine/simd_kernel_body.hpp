#pragma once
/// \file simd_kernel_body.hpp
/// \brief The body of every `KernelOps` primitive, written once and
///        compiled into both backend translation units: simd_kernel.cpp
///        (baseline ISA) and simd_kernel_avx2.cpp (-mavx2). Each TU builds
///        its primitive set from `kBodyOps`.
///
/// The bit-plane primitives are branch-free loops over vectors of packed
/// words (4 under -mavx2, 2 in the baseline TU). The lane loop runs over
/// the int16 vectors of stochastic/sng_lanes.hpp (16 lanes under -mavx2,
/// 8 in the baseline TU) and shares the biased comparator step with the
/// SNG fill.
/// Intrinsics appear only in two holdouts of the AVX2 instantiation, each
/// beside the generic version the baseline TU compiles: the vpshufb bound
/// gather (BoundGather, here) and the bit packing (lanes::pack_bits). The
/// counting bodies come from simd_kernel_count.hpp. Everything has
/// internal linkage and calls only internal-linkage helpers, builtins and
/// out-of-line functions (see stochastic/sng_lanes.hpp), so the linker
/// can never substitute the -mavx2 copy into the baseline path. Include
/// it from those two files only.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "engine/simd_kernel.hpp"
#include "engine/simd_kernel_count.hpp"
#include "stochastic/sng_lanes.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace oscs::engine::simd {
namespace {

namespace lanes = oscs::stochastic::lanes;
using lanes::I16;
using lanes::kLanes;
using lanes::kWordVectors;

/// Packed words as one vector of the lanes' width: 4 words under -mavx2,
/// 2 in the baseline TU.
typedef std::uint64_t Words __attribute__((vector_size(2 * kLanes)));
constexpr std::size_t kVectorWords = sizeof(Words) / sizeof(std::uint64_t);

/// The first `n` (at most kVectorWords) words at `p`, zero-padded.
inline Words load_words(const std::uint64_t* p, std::size_t n) {
  Words v{};
  std::memcpy(&v, p, n * sizeof(std::uint64_t));
  return v;
}

/// Store the first `n` words of `v` at `p`.
inline void store_words(std::uint64_t* p, Words v, std::size_t n) {
  std::memcpy(p, &v, n * sizeof(std::uint64_t));
}

/// A word count known at compile time.
template <std::size_t N>
struct WordCount {
  constexpr operator std::size_t() const noexcept { return N; }
};

/// Run op(i, n) over words [0, count): n words from word i, n a
/// compile-time kVectorWords for every whole vector and 1 for each word of
/// the tail.
template <class Op>
inline void for_each_vector(std::size_t count, const Op& op) {
  std::size_t i = 0;
  for (; i + kVectorWords <= count; i += kVectorWords) {
    op(i, WordCount<kVectorWords>{});
  }
  for (; i < count; ++i) op(i, WordCount<1>{});
}

void accumulate_planes_body(const std::uint64_t* const* streams,
                            std::size_t n_streams, std::size_t w0,
                            std::size_t count, std::uint64_t* planes,
                            std::size_t plane_count, std::size_t stride) {
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::uint64_t* src = streams[s] + w0;
    for_each_vector(count, [&](std::size_t i, auto n) {
      Words carry = load_words(src + i, n);
      for (std::size_t j = 0; j < plane_count; ++j) {
        std::uint64_t* p = planes + j * stride + i;
        const Words plane = load_words(p, n);
        store_words(p, plane ^ carry, n);
        carry &= plane;
      }
    });
  }
}

void select_masks_body(const std::uint64_t* planes, std::size_t plane_count,
                       std::size_t count, std::size_t n_values,
                       std::uint64_t* sel, std::size_t stride) {
  for (std::size_t k = 0; k < n_values; ++k) {
    for_each_vector(count, [&](std::size_t i, auto n) {
      Words mask = ~Words{};
      for (std::size_t j = 0; j < plane_count; ++j) {
        const Words plane = load_words(planes + j * stride + i, n);
        mask &= ((k >> j) & 1u) ? plane : ~plane;
      }
      store_words(sel + k * stride + i, mask, n);
    });
  }
}

void mux_or_reduce_body(const std::uint64_t* sel, std::size_t n_sel,
                        std::size_t stride, std::size_t count,
                        const std::uint64_t* const* z_words, std::size_t w0,
                        std::uint64_t* mux) {
  for_each_vector(count, [&](std::size_t i, auto n) {
    Words acc = load_words(mux + i, n);
    for (std::size_t k = 0; k < n_sel; ++k) {
      acc |= load_words(sel + k * stride + i, n) &
             load_words(z_words[k] + w0 + i, n);
    }
    store_words(mux + i, acc, n);
  });
}

void mux2_or_reduce_body(const std::uint64_t* sel_x, std::size_t nx,
                         const std::uint64_t* sel_y, std::size_t ny,
                         std::size_t stride, std::size_t count,
                         const std::uint64_t* const* z_words, std::size_t w0,
                         std::uint64_t* mux) {
  for_each_vector(count, [&](std::size_t w, auto n) {
    Words acc = load_words(mux + w, n);
    for (std::size_t i = 0; i < nx; ++i) {
      const Words sx = load_words(sel_x + i * stride + w, n);
      for (std::size_t j = 0; j < ny; ++j) {
        acc |= sx & load_words(sel_y + j * stride + w, n) &
               load_words(z_words[i * ny + j] + w0 + w, n);
      }
    }
    store_words(mux + w, acc, n);
  });
}

/// One bank's counts over a word's 64 lanes: acc[q] starts at the bank
/// order and drops by one per walk above `bound` (a mask lane is -1
/// there).
inline void count_bank(const std::uint16_t* row, const LaneWalk* walks,
                       std::size_t order, std::size_t offset,
                       std::size_t period, I16 bound,
                       I16 (&acc)[kWordVectors]) {
  for (I16& a : acc) a = lanes::splat(static_cast<std::int16_t>(order));
  for (std::size_t i = 0; i < order; ++i) {
    std::size_t start = walks[i].start + offset;
    if (start >= period) start -= period;
    const lanes::U16 scramble = lanes::splat(walks[i].scramble);
    for (std::size_t q = 0; q < kWordVectors; ++q) {
      acc[q] += lanes::above(row + start + kLanes * q, scramble, bound);
    }
  }
}

#if defined(__AVX2__)
/// The bounds a coefficient set's lanes compare against: lane t of vector
/// q reads the set's gather row at the lane's cell. Built once per pass
/// and word from the cells, read once per set. This is the vpshufb
/// holdout: each 8-cell chunk of a gather row is one 16-byte table per
/// 128-bit lane, looked up by byte pairs, and a grid of several chunks
/// (kChunked) blends in each chunk's lookup where the lane's cell lies.
template <bool kChunked>
class BoundGather {
 public:
  explicit BoundGather(const I16 (&cell)[kWordVectors]) {
    for (std::size_t q = 0; q < kWordVectors; ++q) {
      I16 within = cell[q];
      if constexpr (kChunked) {
        chunk_[q] = cell[q] >> 3;
        within = cell[q] & 7;
      }
      // The vpshufb operand of cell c: the byte pair (2(c mod 8),
      // 2(c mod 8) + 1) of its chunk's table.
      index_[q] = __builtin_bit_cast(__m256i, within * 0x0202 + 0x0100);
    }
  }

  /// Vector q's bounds from the gather row `row` of `chunks` chunks.
  I16 operator()(const std::int16_t* row, std::size_t chunks,
                 std::size_t q) const {
    __m256i bound = _mm256_shuffle_epi8(table(row, 0), index_[q]);
    if constexpr (kChunked) {
      for (std::size_t c = 1; c < chunks; ++c) {
        const I16 in_chunk = chunk_[q] == static_cast<std::int16_t>(c);
        bound = _mm256_blendv_epi8(
            bound, _mm256_shuffle_epi8(table(row, c), index_[q]),
            __builtin_bit_cast(__m256i, in_chunk));
      }
    }
    return __builtin_bit_cast(I16, bound);
  }

 private:
  /// Chunk c of a gather row, broadcast to both 128-bit lanes (vpshufb
  /// looks up within a lane).
  static __m256i table(const std::int16_t* row, std::size_t c) {
    return _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 8 * c)));
  }

  __m256i index_[kWordVectors];
  I16 chunk_[kWordVectors];
};
#else
/// The generic gather: one row lookup per lane, from the cells it was
/// built from (which outlive it).
template <bool kChunked>
class BoundGather {
 public:
  explicit BoundGather(const I16 (&cell)[kWordVectors]) : cell_(cell) {}

  I16 operator()(const std::int16_t* row, std::size_t /*chunks*/,
                 std::size_t q) const {
    I16 bound;
    for (std::size_t t = 0; t < kLanes; ++t) bound[t] = row[cell_[q][t]];
    return bound;
  }

 private:
  const I16 (&cell_)[kWordVectors];
};
#endif

/// The word loop of KernelOps::select_compare, specialized on whether the
/// grid spans more than one 8-cell gather chunk and on whether the job is
/// one pass deciding one set (a single-program dense run, the common
/// case). Per word, every pass counts its banks once and decides each of
/// its sets into the block; a full block goes to the sink. The job's
/// fields are read into locals once.
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
  const auto row_cells = static_cast<std::int16_t>(m + 1);
  // Every walk advances one row entry per bit, so all of them move by the
  // same 64 mod period per word: one shared offset locates each walk, and
  // the 63 continuation entries keep a word's 64 lanes contiguous.
  const std::size_t step = period > 64 ? 64 : 64 % period;
  const std::uint64_t tail =
      job.length % 64 == 0 ? ~std::uint64_t{0}
                           : ~std::uint64_t{0} >> (64 - job.length % 64);

  LaneSink sink(job);
  std::size_t offset = 0;
  for (std::size_t w0 = 0; w0 < nwords; w0 += kLaneBlockWords) {
    const std::size_t words =
        nwords - w0 < kLaneBlockWords ? nwords - w0 : kLaneBlockWords;
    for (std::size_t j = 0; j < words; ++j) {
      const std::size_t w = w0 + j;
      std::size_t g = 0;
      for (std::size_t p = 0; p < pass_count; ++p) {
        const LanePass& pass = passes[p];
        I16 cell[kWordVectors];
        count_bank(clock_row, pass.x, n, offset, period,
                   lanes::splat(pass.x_bound), cell);
        if (m > 0) {
          I16 ky[kWordVectors];
          count_bank(clock_row, pass.y, m, offset, period,
                     lanes::splat(pass.y_bound), ky);
          for (std::size_t q = 0; q < kWordVectors; ++q) {
            cell[q] = cell[q] * row_cells + ky[q];
          }
        }
        const BoundGather<kChunked> gather(cell);
        for (const std::size_t end = kSingle ? 1 : g + pass.sets; g < end;
             ++g) {
          std::size_t start = sets[g].start + offset;
          if (start >= period) start -= period;
          const std::int16_t* row = bounds + g * stride;
          // A decision is NOT above.
          std::uint64_t bits = ~lanes::above_word(
              leap_row + start, lanes::splat(sets[g].scramble),
              [&](std::size_t q) { return gather(row, chunks, q); });
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

void select_compare_body(const SelectCompareJob& job) {
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

/// This translation unit's instantiation of the primitive set.
constexpr KernelOps kBodyOps{
    accumulate_planes_body, select_masks_body,  mux_or_reduce_body,
    mux2_or_reduce_body,    count_product_body, select_compare_body,
};

}  // namespace
}  // namespace oscs::engine::simd
