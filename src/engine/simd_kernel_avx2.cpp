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

}  // namespace oscs::engine::simd::detail

#endif  // OSCS_HAVE_AVX2
