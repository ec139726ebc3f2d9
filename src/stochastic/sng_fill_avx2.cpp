// The -mavx2 instantiation of the LFSR comparator fill. CMake compiles
// this translation unit with -mavx2 (gated by OSCS_ENABLE_AVX2 + compiler
// support), and it is entered only after a runtime cpuid check, so the
// rest of the library stays baseline-ISA. The body lives in
// sng_lanes.hpp, which the baseline TU (sng_fill.cpp) compiles too.

#include "stochastic/sng_fill.hpp"

#if defined(OSCS_HAVE_AVX2)

#include "stochastic/sng_lanes.hpp"

namespace oscs::stochastic::detail {

void fill_lfsr_words_avx2(const LfsrCycle& cycle, std::size_t phase0,
                          std::uint64_t scramble, std::uint64_t mask,
                          std::uint64_t threshold, std::size_t length,
                          std::uint64_t* words, LfsrWalk walk) {
  lanes::fill_lfsr_body(cycle, phase0, scramble, mask, threshold, length,
                        words, walk);
}

}  // namespace oscs::stochastic::detail

#endif  // OSCS_HAVE_AVX2
