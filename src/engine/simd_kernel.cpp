#include "engine/simd_kernel.hpp"

#include "engine/simd_kernel_count.hpp"

namespace oscs::engine::simd {

namespace {

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

constexpr KernelOps kScalarOps{
    accumulate_planes_scalar, select_masks_scalar,
    mux_or_reduce_scalar,     mux2_or_reduce_scalar,
    count_product_body,
};

#if defined(OSCS_HAVE_AVX2)
constexpr KernelOps kAvx2Ops{
    detail::accumulate_planes_avx2, detail::select_masks_avx2,
    detail::mux_or_reduce_avx2,     detail::mux2_or_reduce_avx2,
    detail::count_product_avx2,
};
#endif

}  // namespace

const KernelOps& kernel_ops(oscs::SimdBackend backend) noexcept {
#if defined(OSCS_HAVE_AVX2)
  if (backend == oscs::SimdBackend::kAvx2) return kAvx2Ops;
#else
  (void)backend;
#endif
  return kScalarOps;
}

}  // namespace oscs::engine::simd
