#pragma once
/// \file resc.hpp
/// \brief The electronic ReSC unit of Qian et al. (paper Fig. 1) - the
///        baseline architecture the optical circuit transposes. n SNGs
///        encode the input x, n+1 SNGs encode the Bernstein coefficients,
///        an adder counts the ones among the x bits and selects one
///        coefficient stream through a MUX; a counter de-randomizes.
///
/// Stimulus contract v2. The data banks are independent SNG streams, one
/// salt each. The coefficient streams take one of two layouts:
///
///   * v1 (StimulusLayout::kPerCell): one salt, so one independent
///     comparator, per cell - what a decision that reads the whole
///     coefficient pattern needs (the packed kernel's physics LUT).
///   * v2 (StimulusLayout::kPerSet): one salt per coefficient set (a
///     dense program's grid, or one N-ary factor), and cell c compares
///     the set's ONE comparator sequence v(t) against its own threshold
///     T_c. The MUX reads one cell per cycle and is insensitive to
///     correlation among its data inputs, so out(t) = [v(t) < T_k(t)]
///     keeps P(out = 1 | k) = c_k; it only needs v independent of the
///     data banks. An LFSR comparator leaps 16 clocks per bit
///     (fill_set_streams), so consecutive values do not correlate.
///
/// A mux-exact packed kernel runs v2, a physics-LUT kernel v1
/// (engine::PackedKernel::stimulus_layout()). Salt order is the x bank,
/// the y bank, then one salt per cell (v1) or per set (v2), so program 0
/// of a fused stimulus keeps its unfused salts under either layout.

#include <cstdint>
#include <span>
#include <vector>

#include "stochastic/bernstein.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/sng.hpp"

namespace oscs::stochastic {

/// The per-cycle stimulus shared by the electronic baseline and the
/// optical simulator: data streams x_1..x_n and coefficient streams
/// z_0..z_n, all of equal length.
struct ScInputs {
  std::vector<Bitstream> x_streams;  ///< n independent encodings of x
  std::vector<Bitstream> z_streams;  ///< stream j encodes coefficient b_j

  [[nodiscard]] std::size_t order() const noexcept { return x_streams.size(); }
  /// Stream length; for an order-0 stimulus (no data streams) the
  /// coefficient streams define it.
  [[nodiscard]] std::size_t length() const noexcept {
    if (!x_streams.empty()) return x_streams.front().size();
    return z_streams.empty() ? 0 : z_streams.front().size();
  }
  /// Number of ones among the x bits at cycle t (the adder output, which
  /// selects coefficient k).
  [[nodiscard]] std::size_t select(std::size_t t) const;
};

/// Coefficient-stream layout of a stimulus (file comment).
enum class StimulusLayout {
  kPerCell,  ///< v1: one independent comparator per cell
  kPerSet,   ///< v2: one comparator per coefficient set
};

/// Version of the stimulus contract the engine's run paths implement
/// (exported as build information; see the file comment).
inline constexpr unsigned kStimulusVersion = 2;

/// Configuration for stimulus generation.
struct ScInputConfig {
  SourceKind kind = SourceKind::kLfsr;
  unsigned width = 16;        ///< SNG resolution in bits
  std::uint64_t seed = 1;     ///< base seed; streams are decorrelated per-index
};

/// Generate the shared stimulus for evaluating a Bernstein polynomial of
/// order `order` at input `x` with the given coefficients: the one-program
/// make_fused_sc_inputs2() stimulus with an empty y bank.
/// \throws std::invalid_argument if coeffs.size() != order + 1.
[[nodiscard]] ScInputs make_sc_inputs(
    double x, const std::vector<double>& coeffs, std::size_t order,
    std::size_t length, const ScInputConfig& config = {},
    StimulusLayout layout = StimulusLayout::kPerCell);

/// Per-cycle stimulus of the two-input (tensor-product) ReSC unit: n
/// encodings of x, m encodings of y, and (n+1)*(m+1) coefficient streams
/// in row-major order (stream i*(m+1)+j encodes c_{i,j}), all of equal
/// length. Either input order may be zero (that axis degenerates).
struct ScInputs2 {
  std::vector<Bitstream> x_streams;  ///< n independent encodings of x
  std::vector<Bitstream> y_streams;  ///< m independent encodings of y
  /// Row-major coefficient streams: index i*(order_y()+1)+j is c_{i,j}.
  std::vector<Bitstream> z_streams;

  [[nodiscard]] std::size_t order_x() const noexcept {
    return x_streams.size();
  }
  [[nodiscard]] std::size_t order_y() const noexcept {
    return y_streams.size();
  }
  /// Stream length; when both input banks are empty the coefficient
  /// streams define it.
  [[nodiscard]] std::size_t length() const noexcept {
    if (!x_streams.empty()) return x_streams.front().size();
    if (!y_streams.empty()) return y_streams.front().size();
    return z_streams.empty() ? 0 : z_streams.front().size();
  }
  /// Ones among the x bits at cycle t (selects coefficient row i).
  [[nodiscard]] std::size_t select_x(std::size_t t) const;
  /// Ones among the y bits at cycle t (selects coefficient column j).
  [[nodiscard]] std::size_t select_y(std::size_t t) const;
};

/// Generate the shared stimulus for evaluating a tensor-product Bernstein
/// polynomial of per-axis orders (order_x, order_y) at (x, y). `coeffs` is
/// the flat row-major grid, (order_x+1)*(order_y+1) long. The one-program
/// make_fused_sc_inputs2() stimulus.
/// \throws std::invalid_argument on a coefficient-count mismatch.
[[nodiscard]] ScInputs2 make_sc_inputs2(
    double x, double y, const std::vector<double>& coeffs,
    std::size_t order_x, std::size_t order_y, std::size_t length,
    const ScInputConfig& config = {},
    StimulusLayout layout = StimulusLayout::kPerCell);

/// Fused stimulus for K programs on one circuit: the x and y banks are
/// generated once and shared by every program; only the K coefficient-grid
/// stream sets are per-program. This is where the fused engine mode gets
/// its stimulus amortization from. A one-input stimulus has an empty y
/// bank.
struct FusedScInputs2 {
  std::vector<Bitstream> x_streams;  ///< n shared encodings of x
  std::vector<Bitstream> y_streams;  ///< m shared encodings of y
  /// z_streams[k] is program k's flat row-major coefficient streams.
  std::vector<std::vector<Bitstream>> z_streams;

  [[nodiscard]] std::size_t order_x() const noexcept {
    return x_streams.size();
  }
  [[nodiscard]] std::size_t order_y() const noexcept {
    return y_streams.size();
  }
  [[nodiscard]] std::size_t programs() const noexcept {
    return z_streams.size();
  }
  [[nodiscard]] std::size_t length() const noexcept {
    if (!x_streams.empty()) return x_streams.front().size();
    if (!y_streams.empty()) return y_streams.front().size();
    if (z_streams.empty() || z_streams.front().empty()) return 0;
    return z_streams.front().front().size();
  }

  /// View of program k as a single-program stimulus (copies streams).
  /// \throws std::out_of_range on a bad program index.
  [[nodiscard]] ScInputs2 program(std::size_t k) const;
};

/// Fill a fused stimulus for K coefficient grids sharing one (x, y) into
/// caller rows - the one salt sequence behind make_fused_sc_inputs2 and
/// the packed kernel's materialized run paths. Salt sequence: the x bank,
/// the y bank, then per program one salt per cell, row-major (v1), or one
/// salt for the whole grid (v2), so program 0 receives exactly the
/// make_sc_inputs2 streams and, with order_y = 0 (y unused), the
/// make_sc_inputs streams; later programs draw fresh decorrelated salts.
/// `rows` holds order_x + order_y + K*(order_x+1)*(order_y+1) pointers,
/// each to ceil(length/64) words: the banks, then each program's cells
/// row-major; `coeff_sets[k]` points at program k's
/// (order_x+1)*(order_y+1) row-major coefficients. Every stream comes
/// from fill_stream / fill_set_streams, so LFSR stimulus of at most 16
/// bits fills without allocating.
/// \throws std::invalid_argument on a width the source kind cannot run.
void fill_fused_stimulus(double x, double y,
                         std::span<const double* const> coeff_sets,
                         std::size_t order_x, std::size_t order_y,
                         std::size_t length, const ScInputConfig& config,
                         StimulusLayout layout, std::uint64_t* const* rows);

namespace detail {

/// Salt of stream `i` of a fused stimulus (fill_fused_stimulus): the x
/// bank, the y bank, then one per cell (v1) or per set (v2).
[[nodiscard]] constexpr std::uint64_t stimulus_salt(const ScInputConfig& config,
                                                    std::size_t i) noexcept {
  return config.seed * 2u + 1u + i;
}

/// Where walk `i` of a v2 LFSR stimulus with `banks` data-bank streams
/// (order_x + order_y) starts on `cycle` (lfsr_cycle(config.width)): a
/// bank (i < banks) walks the one-clock row, set i - banks the leap row,
/// each from stimulus_salt(config, i). These are the streams
/// fill_fused_stimulus(kPerSet) writes for an LFSR the table serves, so a
/// walk-based evaluation reads the same bits.
[[nodiscard]] LfsrStart v2_walk_start(const LfsrCycle& cycle,
                                      const ScInputConfig& config,
                                      std::size_t banks, std::size_t i);

}  // namespace detail

/// Generate fused stimulus for K coefficient grids sharing one (x, y) as
/// streams: fill_fused_stimulus into freshly allocated rows.
/// \throws std::invalid_argument if coeffs is empty or any grid's size is
///         not (order_x+1)*(order_y+1).
[[nodiscard]] FusedScInputs2 make_fused_sc_inputs2(
    double x, double y, const std::vector<std::vector<double>>& coeffs,
    std::size_t order_x, std::size_t order_y, std::size_t length,
    const ScInputConfig& config = {},
    StimulusLayout layout = StimulusLayout::kPerCell);

/// Electronic ReSC evaluation unit.
class ReSCUnit {
 public:
  /// \param poly Bernstein polynomial; must be SC-compatible (all
  ///        coefficients in [0,1]) up to a small tolerance.
  explicit ReSCUnit(BernsteinPoly poly);

  [[nodiscard]] const BernsteinPoly& poly() const noexcept { return poly_; }
  [[nodiscard]] std::size_t order() const noexcept { return poly_.degree(); }

  /// The raw output stream: out[t] = z_{k(t)}[t] with k(t) the adder value.
  [[nodiscard]] Bitstream output_stream(const ScInputs& inputs) const;

  /// De-randomized estimate: fraction of ones in the output stream.
  [[nodiscard]] double evaluate(const ScInputs& inputs) const;

  /// Convenience: generate stimulus internally and evaluate at x.
  [[nodiscard]] double evaluate(double x, std::size_t length,
                                const ScInputConfig& config = {}) const;

  /// Exact expected output for ideal (independent, exact-probability)
  /// streams: sum_k C(n,k) x^k (1-x)^(n-k) b_k - algebraically equal to
  /// the Bernstein polynomial value itself.
  [[nodiscard]] double exact_expectation(double x) const;

 private:
  BernsteinPoly poly_;
};

/// Electronic two-input ReSC evaluation unit - the tensor-product
/// generalization of Qian et al.'s architecture: one adder counts the
/// ones among the n x bits (row select i), a second adder counts the m y
/// bits (column select j), and the MUX routes coefficient stream c_{i,j}
/// to the output. E[out] = sum_{i,j} c_{i,j} B_{i,n}(x) B_{j,m}(y).
class ReSC2Unit {
 public:
  /// \param poly Tensor-product Bernstein polynomial; must be
  ///        SC-compatible (all coefficients in [0,1]) up to a small
  ///        tolerance.
  explicit ReSC2Unit(BernsteinPoly2 poly);

  [[nodiscard]] const BernsteinPoly2& poly() const noexcept { return poly_; }
  [[nodiscard]] std::size_t order_x() const noexcept { return poly_.deg_x(); }
  [[nodiscard]] std::size_t order_y() const noexcept { return poly_.deg_y(); }

  /// The raw output stream: out[t] = z_{i(t),j(t)}[t] with i(t)/j(t) the
  /// two adder values.
  /// \throws std::invalid_argument on stimulus shape mismatch.
  [[nodiscard]] Bitstream output_stream(const ScInputs2& inputs) const;

  /// De-randomized estimate: fraction of ones in the output stream.
  [[nodiscard]] double evaluate(const ScInputs2& inputs) const;

  /// Convenience: generate stimulus internally and evaluate at (x, y).
  [[nodiscard]] double evaluate(double x, double y, std::size_t length,
                                const ScInputConfig& config = {}) const;

  /// Exact expected output for ideal streams - algebraically the
  /// tensor-product Bernstein value itself.
  [[nodiscard]] double exact_expectation(double x, double y) const;

 private:
  BernsteinPoly2 poly_;
};

}  // namespace oscs::stochastic
