#pragma once
/// \file simd.hpp
/// \brief Process-wide SIMD backend selection for the word-parallel hot
///        paths (SNG comparator fill, the packed kernel's bit-plane
///        primitives and lane loop).
///
/// One seam, two instantiations: every vectorized routine is one source
/// over GCC vector types, compiled into a baseline-ISA translation unit
/// and an -mavx2 one. Both compute the same bits: the bit-plane kernels
/// are 64-bit logic and the comparator kernels (SNG fill, lane loop)
/// exact 16-bit integer arithmetic, with no floating point. The active
/// backend is resolved once from, in priority order:
///
///   1. `set_simd_backend()` (tests, benches),
///   2. the `OSCS_KERNEL_BACKEND` environment variable
///      (`scalar` | `avx2` | `auto`; empty means `auto`, and any other
///      value, or `avx2` where it is unavailable, falls back to scalar),
///   3. CPU detection (`auto`): AVX2 when both the build and the machine
///      support it, scalar otherwise.
///
/// AVX2 translation units are only compiled when the toolchain accepts
/// `-mavx2` (CMake option `OSCS_ENABLE_AVX2`, default ON); requesting the
/// AVX2 backend through set_simd_backend on a build or CPU without it
/// throws instead of faulting.

namespace oscs {

/// Implementation flavour of the word-parallel kernels.
enum class SimdBackend {
  kScalar,  ///< baseline-ISA instantiation (always available)
  kAvx2,    ///< -mavx2 instantiation (256-bit vectors)
};

/// The backend every dispatched routine currently uses.
[[nodiscard]] SimdBackend simd_backend() noexcept;

/// Force a backend (overrides the environment and CPU detection).
/// \throws std::invalid_argument if AVX2 is requested but either the
///         build (no -mavx2 TU) or the CPU lacks it.
void set_simd_backend(SimdBackend backend);

/// Drop a `set_simd_backend` override: back to env/CPU resolution.
void reset_simd_backend() noexcept;

/// True when the AVX2 translation units were compiled into this binary.
[[nodiscard]] bool simd_avx2_compiled() noexcept;

/// True when the running CPU reports AVX2.
[[nodiscard]] bool simd_avx2_runtime() noexcept;

/// Stable lower-case name ("scalar" / "avx2") for logs and bench JSON.
[[nodiscard]] const char* simd_backend_name(SimdBackend backend) noexcept;

}  // namespace oscs
