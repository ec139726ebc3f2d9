#include "stochastic/lfsr.hpp"

#include <bit>
#include <iterator>
#include <stdexcept>
#include <string>

namespace oscs::stochastic {

void check_lfsr_width(std::uint64_t width, std::string_view who) {
  if (!kLfsrWidths.contains(width)) {
    throw std::invalid_argument(
        std::string(who) + ": LFSR width " + std::to_string(width) +
        " outside [" + std::to_string(kLfsrWidths.min) + ", " +
        std::to_string(kLfsrWidths.max) + "]");
  }
}

std::uint32_t Lfsr::taps_for_width(unsigned width) {
  check_lfsr_width(width, "Lfsr");
  // Primitive polynomials (Fibonacci tap masks, bit w-1 = x^w term source),
  // from the standard XAPP052 table, indexed by width. Each yields period
  // 2^w - 1.
  static constexpr std::uint32_t kTaps[] = {
      0x6,     // 3: 3,2
      0xC,     // 4: 4,3
      0x14,    // 5: 5,3
      0x30,    // 6: 6,5
      0x60,    // 7: 7,6
      0xB8,    // 8: 8,6,5,4
      0x110,   // 9: 9,5
      0x240,   // 10: 10,7
      0x500,   // 11: 11,9
      0xE08,   // 12: 12,11,10,4
      0x1C80,  // 13: 13,12,11,8
      0x3802,  // 14: 14,13,12,2
      0x6000,  // 15: 15,14
      0xD008,  // 16: 16,15,13,4
  };
  static_assert(std::size(kTaps) == kLfsrWidths.max - kLfsrWidths.min + 1,
                "one tap mask per supported width");
  return kTaps[width - kLfsrWidths.min];
}

Lfsr::Lfsr(unsigned width, std::uint32_t seed)
    : width_(width),
      taps_(taps_for_width(width)),
      mask_((1u << width) - 1u),
      state_(seed & mask_) {
  if (state_ == 0) state_ = 1;  // the all-zero state is a fixed point
}

std::uint32_t Lfsr::step() noexcept {
  // Left-shift Fibonacci form: the XOR of the tap bits (tap t -> state
  // bit t-1) feeds the new LSB. Maximal-length for primitive taps.
  const auto feedback =
      static_cast<std::uint32_t>(std::popcount(state_ & taps_) & 1);
  state_ = ((state_ << 1) | feedback) & mask_;
  return state_;
}

}  // namespace oscs::stochastic
