#pragma once
/// \file simd_kernel_count.hpp
/// \brief The loop body behind `KernelOps::count_product`. Both backend
///        translation units include it, so one source compiles twice: to
///        libgcc's software popcount in the baseline-ISA scalar TU and to
///        the hardware `popcnt` that -mavx2 enables in the AVX2 TU. The
///        body has internal linkage, so neither copy can stand in for the
///        other at link time. Include it from those two files only.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "engine/simd_kernel.hpp"

namespace oscs::engine::simd {
namespace {

inline ProductCounts count_product_body(
    const std::uint64_t* const* optical,
    const std::uint64_t* const* electronic, std::size_t factors,
    std::size_t length) {
  ProductCounts counts;
  const std::size_t nwords = (length + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t opt = ~std::uint64_t{0};
    std::uint64_t elec = ~std::uint64_t{0};
    for (std::size_t f = 0; f < factors; ++f) {
      opt &= optical[f][w];
      elec &= electronic[f][w];
    }
    if (w + 1 == nwords && length % 64 != 0) {
      const std::uint64_t tail = (std::uint64_t{1} << (length % 64)) - 1;
      opt &= tail;
      elec &= tail;
    }
    counts.optical += static_cast<std::size_t>(std::popcount(opt));
    counts.electronic += static_cast<std::size_t>(std::popcount(elec));
    counts.differ += static_cast<std::size_t>(std::popcount(opt ^ elec));
  }
  return counts;
}

}  // namespace
}  // namespace oscs::engine::simd
