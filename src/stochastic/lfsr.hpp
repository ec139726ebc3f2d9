#pragma once
/// \file lfsr.hpp
/// \brief Maximal-length Fibonacci LFSR - the classic stochastic number
///        generator randomness source (paper Fig. 1, SNG blocks). Tap
///        polynomials are primitive for every supported width, so the
///        state sequence has period 2^w - 1 and visits every nonzero
///        state exactly once - the property SC accuracy bounds rely on.

#include <cstdint>
#include <string_view>

namespace oscs::stochastic {

/// An inclusive range of register widths [bits].
struct WidthRange {
  unsigned min;
  unsigned max;

  [[nodiscard]] constexpr bool contains(std::uint64_t width) const noexcept {
    return width >= min && width <= max;
  }
};

/// The LFSR widths every layer runs: the register, the SNG fills, the
/// packed engine, the batch runner and the wire all check against this
/// one range. Every width in it is served from a precomputed cycle table
/// (sng_fill.hpp). Wider registers buy no accuracy: a 16-bit comparator
/// resolves 1.5e-5, far below the SC sampling noise of any admissible
/// stream length.
inline constexpr WidthRange kLfsrWidths{3, 16};

/// \throws std::invalid_argument, naming `who`, unless kLfsrWidths holds
///         `width`.
void check_lfsr_width(std::uint64_t width, std::string_view who);

/// Fibonacci linear-feedback shift register of a width in kLfsrWidths.
class Lfsr {
 public:
  /// \param width  register width in bits (kLfsrWidths)
  /// \param seed   initial state; forced nonzero (all-zero locks the LFSR)
  /// \throws std::invalid_argument on a width outside kLfsrWidths.
  explicit Lfsr(unsigned width, std::uint32_t seed = 1);

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  /// Current register state (never 0).
  [[nodiscard]] std::uint32_t state() const noexcept { return state_; }
  /// Period of the maximal-length sequence: 2^width - 1.
  [[nodiscard]] std::uint64_t period() const noexcept { return mask_; }

  /// Advance one clock; returns the new state.
  std::uint32_t step() noexcept;

  /// The feedback tap mask for a width (primitive polynomial, XAPP052 set).
  /// \throws std::invalid_argument on a width outside kLfsrWidths.
  [[nodiscard]] static std::uint32_t taps_for_width(unsigned width);

 private:
  unsigned width_;
  std::uint32_t taps_;   // feedback taps (initialized first: validates)
  std::uint32_t mask_;   // width-bit mask
  std::uint32_t state_;
};

}  // namespace oscs::stochastic
