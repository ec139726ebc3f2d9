#pragma once
/// \file separable.hpp
/// \brief N-ary program model: a short sum of rank-1 (separable) terms,
///        each term a nonnegative weight times a product of per-axis
///        univariate Bernstein factors,
///
///          f(x_0..x_{N-1}) ~= sum_t w_t * prod_j g_{t,j}(x_{axis_j})
///
///        with every factor g in [0,1] Bernstein form. Stochastically a
///        factor is one 1D ReSC pass (its coefficients become SNG
///        probabilities), a product is the AND of independent factor
///        streams, and the weighted sum folds arithmetically in the
///        engine - so arbitrary arity runs on the existing fused 1D
///        kernels instead of an exponential N-D LUT.
///
/// The N=1 and N=2 programs keep their exact legacy representation (a
/// dense BernsteinPoly / tensor-product BernsteinPoly2) inside the same
/// type: `PackedKernel::run_nd` runs those as one-program fused runs of
/// the dense coefficients, bit-identical to the run/run2 adapters.

#include <cstddef>
#include <optional>
#include <vector>

#include "stochastic/bernstein.hpp"

namespace oscs::stochastic {

/// One univariate Bernstein factor bound to an input axis.
struct SeparableFactor {
  std::size_t axis = 0;  ///< input axis this factor reads (0-based)
  BernsteinPoly poly{std::vector<double>{1.0}};  ///< factor g(x_axis)
};

/// One rank-1 term: weight * product of factors over distinct axes.
/// Axes a term omits contribute the constant 1 (the AND identity).
struct SeparableTerm {
  double weight = 1.0;  ///< nonnegative; folded arithmetically
  std::vector<SeparableFactor> factors;  ///< strictly increasing axes
};

/// N-ary program as a sum of separable terms, with dense N=1/N=2
/// delegation forms. Immutable after construction.
class SeparableProgram {
 public:
  /// General sum-of-rank-1 form over `arity` inputs.
  /// \throws std::invalid_argument on zero arity, no terms, a negative or
  ///         non-finite weight, a factor axis >= arity, or axes within a
  ///         term that are not strictly increasing.
  SeparableProgram(std::size_t arity, std::vector<SeparableTerm> terms);

  /// Dense univariate form (N=1): the legacy BernsteinPoly program. Also
  /// representable as one rank-1 term (weight 1, one factor), and the
  /// terms() view reflects that; run_nd runs the dense coefficients.
  explicit SeparableProgram(BernsteinPoly dense);

  /// Dense bivariate form (N=2): the legacy tensor-product program. A
  /// general surface is not a short rank-1 sum, so this form has no
  /// terms() view; run_nd runs the dense coefficient grid.
  explicit SeparableProgram(BernsteinPoly2 dense);

  /// Number of inputs the program reads.
  [[nodiscard]] std::size_t arity() const noexcept { return arity_; }

  /// True when the program carries the dense univariate / bivariate
  /// legacy representation (run_nd runs it as a dense fused program).
  [[nodiscard]] bool has_dense1() const noexcept {
    return dense1_.has_value();
  }
  [[nodiscard]] bool has_dense2() const noexcept {
    return dense2_.has_value();
  }
  /// \throws std::logic_error when the form is absent.
  [[nodiscard]] const BernsteinPoly& dense1() const;
  [[nodiscard]] const BernsteinPoly2& dense2() const;

  /// The rank-1 terms (empty only for the dense bivariate form).
  [[nodiscard]] const std::vector<SeparableTerm>& terms() const noexcept {
    return terms_;
  }
  [[nodiscard]] std::size_t term_count() const noexcept {
    return terms_.size();
  }
  /// Sum of term weights (the estimator's scale).
  [[nodiscard]] double weight_sum() const noexcept;
  /// Largest factor degree across terms (dense forms: the dense degree /
  /// max per-axis degree).
  [[nodiscard]] std::size_t factor_degree() const noexcept;

  /// Exact arithmetic evaluation at a point (point.size() must equal
  /// arity()). Dense forms evaluate the dense polynomial - the identical
  /// arithmetic the legacy expected-value paths use.
  /// \throws std::invalid_argument on a point arity mismatch.
  [[nodiscard]] double operator()(const std::vector<double>& point) const;

  /// True iff every factor coefficient lies in [0,1] (SNG-implementable)
  /// and every weight is nonnegative. Dense forms defer to the dense
  /// polynomial's check.
  [[nodiscard]] bool is_sc_compatible(double tolerance = 0.0) const noexcept;

  /// Copy with every factor degree-elevated to the common `degree` (the
  /// kernel order all factors must share). Value-preserving. Dense forms
  /// are returned unchanged (their kernels are built at their own
  /// orders).
  /// \throws std::invalid_argument if any factor degree exceeds `degree`.
  [[nodiscard]] SeparableProgram elevated_to(std::size_t degree) const;

 private:
  std::size_t arity_ = 1;
  std::vector<SeparableTerm> terms_;
  std::optional<BernsteinPoly> dense1_;
  std::optional<BernsteinPoly2> dense2_;
};

}  // namespace oscs::stochastic
