#include "engine/simd_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "engine/simd_kernel_count.hpp"

namespace oscs::engine::simd {

namespace {

/// Draw the first flip at or after bit `pos` (< draw.length) by the
/// geometric gap rule of FlipDraw, or end the draw when the gap passes
/// the stream's last bit.
void draw_flip(FlipDraw& draw, std::size_t pos) {
  const double u = draw.rng.uniform01();
  const double remaining = static_cast<double>(draw.length - pos);
  // |log1p(-u)| >= u, so when u > 4 * remaining * |log_keep| the gap
  // floor(log1p(-u) / log_keep) exceeds `remaining`, with a factor of ~4
  // to spare for rounding: the draw ends without the logarithm. At the
  // design BER (~1e-76) this holds for every u > 0.
  if (u > -4.0 * remaining * draw.log_keep) {
    draw.next = FlipDraw::kNone;
    return;
  }
  const double gap = std::floor(std::log1p(-u) / draw.log_keep);
  draw.next = gap >= remaining ? FlipDraw::kNone
                               : pos + static_cast<std::size_t>(gap);
}

void accumulate_planes_scalar(const std::uint64_t* const* streams,
                              std::size_t n_streams, std::size_t w0,
                              std::size_t count, std::uint64_t* planes,
                              std::size_t plane_count, std::size_t stride) {
  for (std::size_t s = 0; s < n_streams; ++s) {
    const std::uint64_t* src = streams[s] + w0;
    for (std::size_t i = 0; i < count; ++i) {
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

void select_masks_scalar(const std::uint64_t* planes, std::size_t plane_count,
                         std::size_t count, std::size_t n_values,
                         std::uint64_t* sel, std::size_t stride) {
  for (std::size_t k = 0; k < n_values; ++k) {
    std::uint64_t* dst = sel + k * stride;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t mask = ~std::uint64_t{0};
      for (std::size_t j = 0; j < plane_count; ++j) {
        const std::uint64_t plane = planes[j * stride + i];
        mask &= ((k >> j) & 1u) ? plane : ~plane;
      }
      dst[i] = mask;
    }
  }
}

void mux_or_reduce_scalar(const std::uint64_t* sel, std::size_t n_sel,
                          std::size_t stride, std::size_t count,
                          const std::uint64_t* const* z_words, std::size_t w0,
                          std::uint64_t* mux) {
  for (std::size_t k = 0; k < n_sel; ++k) {
    const std::uint64_t* sk = sel + k * stride;
    const std::uint64_t* zk = z_words[k] + w0;
    for (std::size_t i = 0; i < count; ++i) mux[i] |= sk[i] & zk[i];
  }
}

void mux2_or_reduce_scalar(const std::uint64_t* sel_x, std::size_t nx,
                           const std::uint64_t* sel_y, std::size_t ny,
                           std::size_t stride, std::size_t count,
                           const std::uint64_t* const* z_words, std::size_t w0,
                           std::uint64_t* mux) {
  for (std::size_t i = 0; i < nx; ++i) {
    const std::uint64_t* sx = sel_x + i * stride;
    for (std::size_t j = 0; j < ny; ++j) {
      const std::uint64_t* sy = sel_y + j * stride;
      const std::uint64_t* z = z_words[i * ny + j] + w0;
      for (std::size_t w = 0; w < count; ++w) {
        const std::uint64_t sel = sx[w] & sy[w];
        if (sel != 0) mux[w] |= sel & z[w];
      }
    }
  }
}

/// int16(row[index] * scramble) > bound, the comparator test of
/// SelectCompareJob (a 1 decision is NOT this).
inline bool above(const std::uint16_t* row, std::size_t index,
                  std::uint16_t scramble, std::int16_t bound) {
  const auto v = static_cast<std::uint16_t>(std::uint32_t{row[index]} *
                                            std::uint32_t{scramble});
  return static_cast<std::int16_t>(v) > bound;
}

void select_compare_scalar(const SelectCompareJob& job) {
  const std::size_t ny = job.order_y + 1;
  const std::size_t stride = lane_bound_stride((job.order_x + 1) * ny);
  const std::size_t nwords = (job.length + 63) / 64;
  const std::size_t period = job.period;
  // Every walk advances one row entry per bit, so all of them move by the
  // same 64 mod period per word: one shared offset locates each walk.
  const std::size_t step = period > 64 ? 64 : 64 % period;
  std::size_t offset = 0;
  const auto at = [&](const LaneWalk& walk) {
    const std::size_t i = walk.start + offset;
    return i >= period ? i - period : i;
  };
  LaneSink sink(job);
  std::size_t cell[64];
  for (std::size_t w0 = 0; w0 < nwords; w0 += kLaneBlockWords) {
    const std::size_t words = std::min(kLaneBlockWords, nwords - w0);
    for (std::size_t j = 0; j < words; ++j) {
      const std::size_t w = w0 + j;
      const std::size_t lanes = std::min<std::size_t>(64, job.length - 64 * w);
      std::size_t g = 0;
      for (std::size_t p = 0; p < job.pass_count; ++p) {
        const LanePass& pass = job.passes[p];
        std::fill_n(cell, lanes, job.order_x * ny + job.order_y);
        for (std::size_t i = 0; i < job.order_x; ++i) {
          const std::size_t q = at(pass.x[i]);
          for (std::size_t t = 0; t < lanes; ++t) {
            if (above(job.clock_row, q + t, pass.x[i].scramble,
                      pass.x_bound)) {
              cell[t] -= ny;
            }
          }
        }
        for (std::size_t i = 0; i < job.order_y; ++i) {
          const std::size_t q = at(pass.y[i]);
          for (std::size_t t = 0; t < lanes; ++t) {
            if (above(job.clock_row, q + t, pass.y[i].scramble,
                      pass.y_bound)) {
              --cell[t];
            }
          }
        }
        for (const std::size_t end = g + pass.sets; g < end; ++g) {
          const LaneWalk& set = job.sets[g];
          const std::int16_t* bound = job.bounds + g * stride;
          const std::size_t q = at(set);
          std::uint64_t bits = 0;
          for (std::size_t t = 0; t < lanes; ++t) {
            if (!above(job.leap_row, q + t, set.scramble, bound[cell[t]])) {
              bits |= std::uint64_t{1} << t;
            }
          }
          job.decisions[g * kLaneBlockWords + j] = bits;
        }
      }
      offset += step;
      if (offset >= period) offset -= period;
    }
    sink.block(w0, words, job.decisions);
  }
  sink.finish();
}

constexpr KernelOps kScalarOps{
    accumulate_planes_scalar, select_masks_scalar, mux_or_reduce_scalar,
    mux2_or_reduce_scalar,    count_product_body,  select_compare_scalar,
};

#if defined(OSCS_HAVE_AVX2)
constexpr KernelOps kAvx2Ops{
    detail::accumulate_planes_avx2, detail::select_masks_avx2,
    detail::mux_or_reduce_avx2,     detail::mux2_or_reduce_avx2,
    detail::count_product_avx2,     detail::select_compare_avx2,
};
#endif

}  // namespace

void FlipDraw::start(double log_keep_in, std::size_t length_in) {
  log_keep = log_keep_in;
  length = length_in;
  count = 0;
  next = kNone;
  if (log_keep < 0.0 && length > 0) draw_flip(*this, 0);
}

void FlipDraw::advance() {
  ++count;
  const std::size_t pos = next + 1;
  next = kNone;
  if (pos < length) draw_flip(*this, pos);
}

const KernelOps& kernel_ops(oscs::SimdBackend backend) noexcept {
#if defined(OSCS_HAVE_AVX2)
  if (backend == oscs::SimdBackend::kAvx2) return kAvx2Ops;
#else
  (void)backend;
#endif
  return kScalarOps;
}

}  // namespace oscs::engine::simd
