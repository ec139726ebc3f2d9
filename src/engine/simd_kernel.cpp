#include "engine/simd_kernel.hpp"

#include <cmath>

#include "engine/simd_kernel_body.hpp"

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
  if (backend == oscs::SimdBackend::kAvx2) return detail::avx2_kernel_ops();
#else
  (void)backend;
#endif
  return kBodyOps;
}

}  // namespace oscs::engine::simd
