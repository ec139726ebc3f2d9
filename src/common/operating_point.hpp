#pragma once
/// \file operating_point.hpp
/// \brief The operating point of the optical SC link: the one value type
///        that carries the noise model from the physics layer to every
///        consumer. The paper's accuracy story (Eqs. 8-9, Figs. 5-6) makes
///        circuit error a function of probe power, receiver noise and
///        stream length; `OperatingPoint` bundles exactly that so the link
///        budget derives it once and the engine, batch runner and
///        certification stages consume it unchanged - no layer re-derives
///        a BER on its own.
///
/// Producers: `optsc::LinkBudget::operating_point` (probe power -> BER via
/// Eqs. 8-9) and `optsc::design_operating_point` (a circuit's built-in
/// probe power). Consumers: `engine::PackedRunConfig`, `engine::
/// BatchRequest`, `compile::certify_program_at` / `certify_grid` /
/// `auto_tune`.

#include <cstddef>

namespace oscs {

class JsonWriter;

/// One operating point of the optical SC link. An aggregate value type:
/// copy freely, tweak with the with_* helpers, compare member-wise.
struct OperatingPoint {
  /// Per-channel probe power [mW] the BER was derived at.
  double probe_power_mw = 1.0;
  /// Per-bit decision-flip probability (paper Eq. 9 transmission BER),
  /// clamped to [0, 0.5]. Zero means a noiseless link.
  double ber = 0.0;
  /// Link SNR at the probe power (paper Eq. 8); diagnostic.
  double snr = 0.0;
  /// Mid-eye slicer threshold [mW] at the probe power; diagnostic.
  double threshold_mw = 0.0;
  /// Bits per evaluation.
  std::size_t stream_length = 1024;
  /// SNG comparator resolution [bits].
  unsigned sng_width = 16;

  /// True when the link injects decision flips at this point.
  [[nodiscard]] bool noisy() const noexcept { return ber > 0.0; }

  /// Same point with the noise model switched off (ber = 0).
  [[nodiscard]] OperatingPoint noiseless() const noexcept {
    OperatingPoint p = *this;
    p.ber = 0.0;
    return p;
  }

  /// Same point at a different stream length.
  [[nodiscard]] OperatingPoint with_stream_length(
      std::size_t length) const noexcept {
    OperatingPoint p = *this;
    p.stream_length = length;
    return p;
  }

  /// Same point at a different SNG resolution.
  [[nodiscard]] OperatingPoint with_sng_width(unsigned width) const noexcept {
    OperatingPoint p = *this;
    p.sng_width = width;
    return p;
  }

  bool operator==(const OperatingPoint&) const = default;

  /// \throws std::invalid_argument on a non-positive probe power, a BER
  ///         outside [0, 0.5], a zero stream length or an SNG width
  ///         outside [1, 62].
  void validate() const;
};

/// Emit an operating point as a JSON object value (shared by the batch
/// export, bench roll-ups and the grid-certification export).
void operating_point_json(JsonWriter& json, const OperatingPoint& op);

}  // namespace oscs
