#include "stochastic/sng_fill.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"
#include "stochastic/lfsr.hpp"
#include "stochastic/sng_lanes.hpp"

namespace oscs::stochastic::detail {

namespace {

LfsrCycle build_cycle(unsigned width) {
  LfsrCycle cycle;
  cycle.width = width;
  const std::size_t period = (std::size_t{1} << width) - 1;
  cycle.comparator.resize(period + 63);
  cycle.phase.assign(std::size_t{1} << width, 0);
  Lfsr lfsr(width, 1);
  std::uint16_t state = 1;
  for (std::size_t i = 0; i < period; ++i) {
    cycle.comparator[i] =
        static_cast<std::uint16_t>((state << (16 - width)) ^ 0x8000u);
    cycle.phase[state] = static_cast<std::uint16_t>(i);
    state = static_cast<std::uint16_t>(lfsr.step());
  }
  // The 63 entries past the period continue the cycle (several laps for
  // the periods under 63 of widths 3..5).
  for (std::size_t i = period; i < cycle.comparator.size(); ++i) {
    cycle.comparator[i] = cycle.comparator[i - period];
  }
  cycle.leap.resize(cycle.comparator.size());
  std::size_t clock = 0;  // kLeapClocks * j mod period, kept without a divide
  for (std::uint16_t& entry : cycle.leap) {
    entry = cycle.comparator[clock];
    clock += kLeapClocks;
    while (clock >= period) clock -= period;
  }
  // Maximal-length taps close the cycle back at the start state; a table
  // that does not would silently desynchronize the bulk fill from the
  // clocked register.
  if (state != 1) {
    throw std::logic_error("lfsr_cycle: width " + std::to_string(width) +
                           " did not close its full-period cycle");
  }
  return cycle;
}

}  // namespace

const LfsrCycle& lfsr_cycle(unsigned width) {
  if (width < 3 || width > kMaxLfsrTableWidth) {
    throw std::invalid_argument(
        "lfsr_cycle: width " + std::to_string(width) + " outside 3.." +
        std::to_string(kMaxLfsrTableWidth));
  }
  // One immutable table per width, built on first use. A function-local
  // static array of once-initialized slots keeps later lookups lock-free.
  static std::once_flag flags[kMaxLfsrTableWidth + 1];
  static std::unique_ptr<const LfsrCycle> tables[kMaxLfsrTableWidth + 1];
  std::call_once(flags[width], [width] {
    tables[width] = std::make_unique<const LfsrCycle>(build_cycle(width));
  });
  return *tables[width];
}

void fill_lfsr_words_scalar(const LfsrCycle& cycle, std::size_t phase0,
                            std::uint64_t scramble, std::uint64_t mask,
                            std::uint64_t threshold, std::size_t length,
                            std::uint64_t* words, LfsrWalk walk) {
  lanes::fill_lfsr_body(cycle, phase0, scramble, mask, threshold, length,
                        words, walk);
}

void fill_lfsr_words(const LfsrCycle& cycle, std::size_t phase0,
                     std::uint64_t scramble, std::uint64_t mask,
                     std::uint64_t threshold, std::size_t length,
                     std::uint64_t* words, LfsrWalk walk) {
#if defined(OSCS_HAVE_AVX2)
  if (oscs::simd_backend() == oscs::SimdBackend::kAvx2) {
    fill_lfsr_words_avx2(cycle, phase0, scramble, mask, threshold, length,
                         words, walk);
    return;
  }
#endif
  fill_lfsr_words_scalar(cycle, phase0, scramble, mask, threshold, length,
                         words, walk);
}

void fill_counter_words(std::uint64_t start, std::uint64_t mask,
                        std::uint64_t threshold, std::size_t length,
                        std::uint64_t* words) {
  const std::size_t nwords = (length + 63) / 64;
  std::size_t bit = 0;
  std::uint64_t state = start;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t word = 0;
    const std::size_t limit = length - bit < 64 ? length - bit : 64;
    for (std::size_t i = 0; i < limit; ++i) {
      word |= static_cast<std::uint64_t>((state & mask) < threshold) << i;
      ++state;
    }
    words[w] = word;
    bit += limit;
  }
}

}  // namespace oscs::stochastic::detail
