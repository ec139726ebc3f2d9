#pragma once
/// \file simd_kernel.hpp
/// \brief Runtime-dispatched word-parallel primitives behind the packed
///        kernel: carry-save bit-plane accumulation, select-mask
///        extraction, MUX OR-reduce (1D and 2D), product counting, and
///        the fused select-then-compare lane loop of stimulus v2, which
///        counts its decisions as it makes them.
///
/// The packed evaluation walks streams in plane-major *blocks* of packed
/// words rather than one word at a time, so each primitive sees a
/// contiguous run it can vectorize. Every primitive is written once
/// (simd_kernel_body.hpp) and compiled twice: into the baseline-ISA
/// translation unit (the scalar backend) and, when the toolchain supports
/// -mavx2, into the `*_avx2.cpp` one, entered only after a runtime cpuid
/// check. The lane loop's vectors are as wide as the TU's ISA allows (8
/// or 16 int16 lanes), and two steps of the AVX2 instantiation use
/// intrinsics (the bound gather, the bit packing) beside generic
/// versions. The bit planes are bitwise logic and the lane loop exact
/// 16-bit integer arithmetic, so both instantiations produce the same
/// bits; the equivalence suites pin that.
///
/// Backend selection rides the process-wide seam in common/simd.hpp:
/// `set_simd_backend()` > `OSCS_KERNEL_BACKEND` env (scalar|avx2|auto) >
/// cpuid.

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace oscs::engine::simd {

/// The backend the packed kernel's primitives will dispatch to.
[[nodiscard]] inline oscs::SimdBackend kernel_backend() noexcept {
  return oscs::simd_backend();
}

/// Ones counts of one product over a stream's bits (count_product, and
/// the per-term output of the select-then-compare loop).
struct ProductCounts {
  std::size_t optical = 0;     ///< ones of the AND of the optical rows
  std::size_t electronic = 0;  ///< ones of the AND of the electronic rows
  std::size_t differ = 0;      ///< bits where the two products differ
};

/// Eq. 9 receiver flips of one decision stream, drawn lazily: independent
/// per-bit flips by geometric gap sampling, where the next flipped bit
/// lies 1 + floor(log1p(-u) / log1p(-BER)) bits past the last one for a
/// fresh uniform u. A consumer takes `next`, then advance()s; the draw
/// makes the same uniform draws in the same order as sampling every
/// position up front, so the positions are identical, but it holds one
/// position at a time. At a BER so small that the first gap passes the
/// stream's end, start() already ends the draw.
struct FlipDraw {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  oscs::Xoshiro256 rng;
  double log_keep = 0.0;  ///< log1p(-BER); flips only when negative
  std::size_t length = 0;
  std::size_t next = kNone;  ///< next flipped bit, or kNone once ended
  std::size_t count = 0;     ///< flips consumed by advance()

  /// Begin a `length`-bit stream's draw from the current `rng` state and
  /// draw its first flip (none unless log_keep < 0).
  void start(double log_keep_in, std::size_t length_in);
  /// Count the flip at `next` and draw the one after it.
  void advance();
};

/// Largest bank order the select-then-compare loop takes (the packed
/// kernel's order limit): a grid has at most 13 * 13 cells.
inline constexpr std::size_t kMaxLaneOrder = 12;

/// Words of each set's decisions the lane loop holds before its count
/// sink counts them: the block a SelectCompareJob's scratch holds.
inline constexpr std::size_t kLaneBlockWords = 64;

/// int16 entries of one coefficient set's gather row: the set's cell
/// bounds, row-major, zero-padded to whole 8-cell chunks (one 16-byte
/// vpshufb table each).
[[nodiscard]] constexpr std::size_t lane_bound_stride(
    std::size_t cells) noexcept {
  return (cells + 7) / 8 * 8;
}

/// One LFSR comparator walk of the select-then-compare loop: lane t reads
/// entry start + t of a biased cycle row (stochastic/sng_fill.hpp), whose
/// 63 entries past the period continue the cycle.
struct LaneWalk {
  std::size_t start = 0;       ///< first row index, below the period
  std::uint16_t scramble = 1;  ///< low 16 bits of the odd scramble
};

/// The data banks of one lane-loop pass - a dense evaluation, or one axis
/// of an N-ary program - and how many coefficient sets they select for.
struct LanePass {
  const LaneWalk* x = nullptr;  ///< order_x walks
  std::int16_t x_bound = 0;
  const LaneWalk* y = nullptr;  ///< order_y walks
  std::int16_t y_bound = 0;
  std::size_t sets = 0;  ///< the next `sets` coefficient sets of the job
};

/// One select-then-compare evaluation (stimulus v2, LFSR of at most 16
/// bits), counted as it is decided. Every pass has an x bank, a y bank
/// and its coefficient sets, all given as cycle-table walks instead of
/// stream rows. With
///
///   above(row, walk, t, b) = int16(row[walk.start + t] * walk.scramble) > b
///
/// (row index taken modulo the period), lane t of pass p counts
/// k(t) = order_x - #{i : above(clock_row, p.x[i], t, p.x_bound)} and
/// k_y(t) likewise over y, selects cell c(t) = k(t) * (order_y + 1) +
/// k_y(t), and bit t of set s's decision stream is
///
///   NOT above(leap_row, sets[s], t, bounds[s * stride + c(t)])
///
/// with stride = lane_bound_stride(cells). The bounds are
/// stochastic::detail::inclusive_bound(T, width), so the data-bank bits
/// are exactly the v1 bank streams and each set's bits the materialized
/// v2 cells the adders select.
///
/// Factors are decision streams, numbered term-major: factor f is set
/// factor_set[f]'s stream (set f when factor_set is null), and every set
/// is exactly one factor. A factor's optical stream is its decision
/// stream with the flips of its draw toggled: the one draw flips[0] when
/// flip_count == 1, else flips[f]. Term t is the AND of the factors from
/// term_end[t - 1] (0 for the first term) up to term_end[t] (factor t
/// alone when term_end is null), and counts[t] receives the ones of its
/// electronic and optical products and the bits where they differ. The
/// loop holds kLaneBlockWords words of each set's decisions at a time and
/// counts each block as it fills: no full-length row exists unless the
/// caller asks for one.
struct SelectCompareJob {
  const std::uint16_t* clock_row = nullptr;  ///< data banks' row
  const std::uint16_t* leap_row = nullptr;   ///< coefficient sets' row
  std::size_t period = 0;  ///< cycle length (rows hold period + 63 entries)
  std::size_t order_x = 0;  ///< at most kMaxLaneOrder
  std::size_t order_y = 0;  ///< at most kMaxLaneOrder
  const LanePass* passes = nullptr;
  std::size_t pass_count = 0;
  /// Every pass's coefficient sets, pass-major: one walk each.
  const LaneWalk* sets = nullptr;
  /// One gather row of lane_bound_stride(cells) bounds per set.
  const std::int16_t* bounds = nullptr;
  std::size_t length = 0;  ///< stream bits
  const std::uint32_t* factor_set = nullptr;
  std::size_t factor_count = 0;
  const std::uint32_t* term_end = nullptr;
  std::size_t term_count = 0;
  /// Advanced in place; their `count`s read the flips applied.
  FlipDraw* flips = nullptr;
  std::size_t flip_count = 0;  ///< 1 (shared) or factor_count
  ProductCounts* counts = nullptr;  ///< term_count entries, overwritten
  /// Scratch of kLaneBlockWords words per set and per flip draw.
  std::uint64_t* decisions = nullptr;
  /// Optional, per factor, ceil(length/64) words: the decision stream
  /// (padding bits zero) and the optical stream. Null: no rows written.
  std::uint64_t* const* electronic = nullptr;
  std::uint64_t* const* optical = nullptr;
};

/// Word-parallel primitive set for one backend. All buffers are plain
/// uint64 word arrays; plane/select buffers are plane-major with a caller
/// chosen `stride` (entry (j, i) lives at j*stride + i) so one block's
/// planes stay contiguous per plane.
struct KernelOps {
  /// Carry-save accumulate words [w0, w0+count) of each of `n_streams`
  /// packed streams into `plane_count` bit planes: afterwards, bit t of
  /// planes[j*stride + i] is bit j of the ones count over the streams at
  /// lane t of word w0+i. Requires n_streams < 2^plane_count; the planes
  /// region must be zeroed by the caller.
  void (*accumulate_planes)(const std::uint64_t* const* streams,
                            std::size_t n_streams, std::size_t w0,
                            std::size_t count, std::uint64_t* planes,
                            std::size_t plane_count, std::size_t stride);

  /// Equality masks against the count planes: bit t of sel[k*stride + i]
  /// is set iff the lane-t count of plane word i equals k, for every
  /// k < n_values (each value must be < 2^plane_count).
  void (*select_masks)(const std::uint64_t* planes, std::size_t plane_count,
                       std::size_t count, std::size_t n_values,
                       std::uint64_t* sel, std::size_t stride);

  /// MUX OR-reduce: mux[i] |= sel[k*stride + i] & z_words[k][w0 + i] over
  /// all k < n_sel. The caller owns mux's initial contents (zero for a
  /// fresh block).
  void (*mux_or_reduce)(const std::uint64_t* sel, std::size_t n_sel,
                        std::size_t stride, std::size_t count,
                        const std::uint64_t* const* z_words, std::size_t w0,
                        std::uint64_t* mux);

  /// 2D MUX OR-reduce: mux[w] |= (sel_x[i*stride+w] & sel_y[j*stride+w]) &
  /// z_words[i*ny + j][w0 + w] over the full (i, j) coefficient grid.
  void (*mux2_or_reduce)(const std::uint64_t* sel_x, std::size_t nx,
                         const std::uint64_t* sel_y, std::size_t ny,
                         std::size_t stride, std::size_t count,
                         const std::uint64_t* const* z_words, std::size_t w0,
                         std::uint64_t* mux);

  /// Count the AND of `factors` optical rows against the AND of the
  /// matching electronic rows over the first `length` bits (one row each
  /// for a dense program). An empty product is the constant 1; bits past
  /// `length` in the last word are masked off, whatever they hold.
  ProductCounts (*count_product)(const std::uint64_t* const* optical,
                                 const std::uint64_t* const* electronic,
                                 std::size_t factors, std::size_t length);

  /// Run one SelectCompareJob: count every term, advance the flip draws
  /// to the stream's end and, when the job names rows, write them.
  void (*select_compare)(const SelectCompareJob& job);
};

/// The primitive set for an explicit backend (tests pin both sides of the
/// equivalence suite through this).
[[nodiscard]] const KernelOps& kernel_ops(oscs::SimdBackend backend) noexcept;

/// The primitive set for the active backend.
[[nodiscard]] inline const KernelOps& kernel_ops() noexcept {
  return kernel_ops(kernel_backend());
}

#if defined(OSCS_HAVE_AVX2)
namespace detail {
/// The primitive set compiled with -mavx2 (simd_kernel_avx2.cpp).
[[nodiscard]] const KernelOps& avx2_kernel_ops() noexcept;
}  // namespace detail
#endif

}  // namespace oscs::engine::simd
