// The -mavx2 instantiation of the packed kernel's primitives. CMake
// compiles this translation unit with -mavx2 (gated by OSCS_ENABLE_AVX2 +
// compiler support), and it is entered only after a runtime cpuid check
// through the common/simd.hpp seam, keeping the rest of the library
// baseline-ISA. The bodies live in simd_kernel_body.hpp, which the
// baseline TU (simd_kernel.cpp) compiles too.

#include "engine/simd_kernel.hpp"

#if defined(OSCS_HAVE_AVX2)

#include "engine/simd_kernel_body.hpp"

namespace oscs::engine::simd::detail {

const KernelOps& avx2_kernel_ops() noexcept { return kBodyOps; }

}  // namespace oscs::engine::simd::detail

#endif  // OSCS_HAVE_AVX2
