#pragma once
/// \file program.hpp
/// \brief Codegen stage of the function compiler: a CompiledProgram binds
///        the quantized coefficient vector to an order-matched optical
///        circuit with a prebuilt packed kernel, ready to run through
///        PackedKernel::run / BatchRunner with no further setup. Programs
///        are immutable once certified and shared by const pointer out of
///        the program cache.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/operating_point.hpp"
#include "compile/fit.hpp"
#include "compile/quantize.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/circuit.hpp"

namespace oscs::compile {

/// Cache identity of a compiled program: the function's registry id, the
/// requested degree cap(s) and the SNG resolution, plus a digest of the
/// remaining pipeline options (projection tolerances, certification
/// settings) so a cache hit is only ever served for a request that would
/// compile the identical program. Bivariate programs key on
/// (id, degree, degree_y, width) with `degree` carrying the x-axis cap;
/// N-ary separable programs key on (id, factor degree, width). The
/// explicit `arity` field - and the matching arity salt inside
/// options_digest - keeps programs of different arity from ever colliding
/// even when every degree/width field coincides.
struct ProgramKey {
  std::string function_id;
  std::size_t degree = 6;  ///< requested degree cap (projection max_degree;
                           ///< x-axis / per-factor cap for wider arities)
  std::size_t degree_y = 0;  ///< bivariate y-axis cap; 0 otherwise
  unsigned width = 16;     ///< SNG resolution [bits]
  std::uint64_t options_digest = 0;  ///< hash of the remaining options
  std::size_t arity = 1;   ///< program input count

  bool operator==(const ProgramKey&) const = default;

  /// Portable 64-bit identity: FNV-1a over the key's canonical fixed-width
  /// little-endian byte encoding (arity salt first, then the id
  /// length-prefixed, then degree/degree_y/width/options_digest). Unlike
  /// std::hash this value is identical across processes, standard
  /// libraries and platforms, so it is safe to address on-disk cache
  /// records by it. Pinned by a regression test - changing the encoding
  /// is a cache-file format break.
  [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Hash for unordered containers keyed by ProgramKey.
struct ProgramKeyHash {
  [[nodiscard]] std::size_t operator()(const ProgramKey& key) const noexcept;
};

/// Empirical accuracy certificate: a BatchRunner Monte-Carlo run of the
/// program compared against the double-precision reference function.
struct Certification {
  /// Link operating point the MC run evaluated at (probe power, BER,
  /// stream length, SNG width) - produced by optsc::LinkBudget.
  oscs::OperatingPoint op{};
  std::size_t stream_length = 0;  ///< bits per evaluation (== op.stream_length)
  std::size_t repeats = 0;        ///< MC repeats per grid point
  std::size_t grid_points = 0;    ///< x grid size
  bool noise_enabled = true;      ///< receiver noise applied (op.noisy())
  // The mc_* figures are per-draw statistics averaged over
  // compile::kCertificationDraws independent draws of the grid.
  double mc_mae = 0.0;     ///< mean over grid of |optical mean - f(x)|
  double mc_mae_ci = 0.0;  ///< 95% CI half-width on one draw's mc_mae
  double mc_worst = 0.0;   ///< worst grid point |optical mean - f(x)|
  double electronic_mae = 0.0;  ///< ReSC baseline on the same streams
  /// Deterministic pipeline error |program poly - f| sup estimate
  /// (projection + quantization, no sampling).
  double approx_max_error = 0.0;
};

/// A ready-to-run compiled function.
class CompiledProgram {
 public:
  /// Codegen: build the order-matched circuit (paper reference design) and
  /// the packed kernel. A degree-0 fit is degree-elevated to order 1 -
  /// value-preserving, and the minimum the circuit supports.
  /// \throws std::invalid_argument if the quantized degree exceeds the
  ///         packed-kernel order limit.
  CompiledProgram(ProgramKey key, ProjectionResult projection,
                  QuantizationResult quantization);

  /// Bivariate codegen: the circuit is order-matched to the x axis (the
  /// paper reference design drives one MZI chain) and the packed kernel
  /// is built in its two-input tensor-product mode. A degree-0 axis is
  /// elevated to 1 - value-preserving, and the minimum per input bank.
  /// \throws std::invalid_argument if either quantized degree exceeds the
  ///         packed-kernel order limit.
  CompiledProgram(ProgramKey key, ProjectionResult2 projection,
                  QuantizationResult2 quantization);

  /// N-ary separable codegen: every factor of the quantized sum-of-rank-1
  /// program runs through ONE univariate circuit order-matched to the
  /// (shared) factor degree, so codegen stays the paper reference design.
  /// `factor_quantizations` carries the per-factor quantization outcomes
  /// in term-major factor order; `quantized` is the program rebuilt from
  /// those quantized factors.
  /// \throws std::invalid_argument if the factor degree exceeds the
  ///         packed-kernel order limit, factor degrees disagree, or the
  ///         program is a dense delegation form.
  CompiledProgram(ProgramKey key, ProjectionResultN projection,
                  std::vector<QuantizationResult> factor_quantizations,
                  stochastic::SeparableProgram quantized);

  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  /// True for programs compiled from a two-input function (tensor-product
  /// Bernstein surface). The univariate accessors (poly/projection/
  /// quantization) are only meaningful when this is false, and vice
  /// versa.
  [[nodiscard]] bool is_bivariate() const noexcept {
    return program_.has_dense2();
  }

  /// True for N-ary sum-of-separable programs (compile_nd). The separable
  /// accessors (projection_nd/factor_quantizations) are only meaningful
  /// when this is true.
  [[nodiscard]] bool is_nd() const noexcept {
    return !program_.has_dense1() && !program_.has_dense2();
  }

  /// Program input count: 1 (univariate), 2 (bivariate) or the separable
  /// program's arity.
  [[nodiscard]] std::size_t arity() const noexcept { return key_.arity; }

  [[nodiscard]] const ProgramKey& key() const noexcept { return key_; }
  [[nodiscard]] const std::string& function_id() const noexcept {
    return key_.function_id;
  }
  /// The polynomial a univariate program runs: quantized coefficients,
  /// elevated to the circuit order when the fit came out degree 0.
  /// \throws std::logic_error on a bivariate or N-ary program.
  [[nodiscard]] const stochastic::BernsteinPoly& poly() const {
    return program_.dense1();
  }
  /// The tensor-product surface a bivariate program runs.
  /// \throws std::logic_error on a univariate or N-ary program.
  [[nodiscard]] const stochastic::BernsteinPoly2& poly2() const {
    return program_.dense2();
  }
  /// X-bank order of the program's kernel shape (engine::kernel_shape).
  [[nodiscard]] std::size_t circuit_order() const noexcept {
    return engine::kernel_shape(program_).order_x;
  }
  /// Y-bank order of the same shape (0 for univariate and N-ary programs).
  [[nodiscard]] std::size_t circuit_order_y() const noexcept {
    return engine::kernel_shape(program_).order_y;
  }
  /// True when a degree-0 fit (either axis for bivariate programs) was
  /// elevated to meet the order-1 circuit minimum. Separable programs fit
  /// at a fixed factor degree >= 1 and never elevate.
  [[nodiscard]] bool elevated() const noexcept {
    if (is_nd()) return false;
    return is_bivariate() ? (projection2_->degree_x == 0 ||
                             projection2_->degree_y == 0)
                          : projection_.degree == 0;
  }
  [[nodiscard]] const ProjectionResult& projection() const noexcept {
    return projection_;
  }
  [[nodiscard]] const QuantizationResult& quantization() const noexcept {
    return quantization_;
  }
  /// Bivariate projection outcome.
  /// \throws std::bad_optional_access on a univariate program.
  [[nodiscard]] const ProjectionResult2& projection2() const {
    return projection2_.value();
  }
  /// Bivariate quantization outcome.
  /// \throws std::bad_optional_access on a univariate program.
  [[nodiscard]] const QuantizationResult2& quantization2() const {
    return quantization2_.value();
  }
  [[nodiscard]] const optsc::OpticalScCircuit& circuit() const noexcept {
    return *backend_.circuit;
  }
  /// Prebuilt kernel; shared so BatchRunner can reuse it without
  /// re-deriving the decision LUT.
  [[nodiscard]] const std::shared_ptr<const engine::PackedKernel>& kernel()
      const noexcept {
    return backend_.kernel;
  }
  /// The program's design operating point: the circuit's built-in probe
  /// power mapped through the link budget (physical eye), with the
  /// program's SNG width. Certification and serving default to this.
  [[nodiscard]] const oscs::OperatingPoint& design_point() const noexcept {
    return backend_.design_point;
  }
  /// Circuit, kernel and design point together, as engine::make_backend
  /// built them for the program's kernel shape.
  [[nodiscard]] const engine::KernelBackend& backend() const noexcept {
    return backend_;
  }

  [[nodiscard]] const std::optional<Certification>& certification()
      const noexcept {
    return cert_;
  }
  /// The program's certified error budget: mc_mae + mc_mae_ci, i.e. the
  /// upper edge of the certificate's 95% confidence band. This is the
  /// number the serving layer's accuracy SLOs compare live observed error
  /// against; nullopt when the program was compiled without certification.
  [[nodiscard]] std::optional<double> certified_error_budget() const noexcept {
    if (!cert_.has_value()) return std::nullopt;
    return cert_->mc_mae + cert_->mc_mae_ci;
  }
  /// Attach the MC certificate (compiler-internal, before the program is
  /// shared out of the cache).
  void attach_certification(Certification cert) { cert_ = cert; }

  /// One evaluation through the packed kernel.
  /// \throws std::logic_error on a bivariate or N-ary program.
  [[nodiscard]] engine::PackedRunResult run(
      double x, const engine::PackedRunConfig& config) const {
    return backend_.kernel->run(poly(), x, config);
  }

  /// One bivariate evaluation through the packed kernel's two-input mode.
  /// \throws std::logic_error on a univariate or N-ary program.
  [[nodiscard]] engine::PackedRunResult run2(
      double x, double y, const engine::PackedRunConfig& config) const {
    return backend_.kernel->run2(poly2(), x, y, config);
  }

  /// The program the hardware runs, every arity: the dense univariate /
  /// bivariate delegation form behind poly()/poly2(), or the quantized
  /// sum-of-separable program of an N-ary compile.
  [[nodiscard]] const stochastic::SeparableProgram& program_nd()
      const noexcept {
    return program_;
  }
  /// Separable projection outcome.
  /// \throws std::bad_optional_access on a dense (uni/bivariate) program.
  [[nodiscard]] const ProjectionResultN& projection_nd() const {
    return projection_nd_.value();
  }
  /// Per-factor quantization outcomes, term-major factor order (empty for
  /// dense programs).
  [[nodiscard]] const std::vector<QuantizationResult>& factor_quantizations()
      const noexcept {
    return factor_quantizations_;
  }

  /// One evaluation at a point of arity() coordinates (N-ary programs:
  /// every term's factor streams through the packed kernel,
  /// AND-multiplied and weight-accumulated; dense forms take run/run2).
  [[nodiscard]] engine::PackedRunResult run_nd(
      const std::vector<double>& point,
      const engine::PackedRunConfig& config) const {
    return backend_.kernel->run_nd(program_, point, config);
  }

 private:
  /// Shared tail of every constructor: the backend for `program_`'s kernel
  /// shape at the key's SNG width.
  void build_backend();

  ProgramKey key_;
  ProjectionResult projection_;
  QuantizationResult quantization_;
  std::optional<ProjectionResult2> projection2_;
  std::optional<QuantizationResult2> quantization2_;
  std::optional<ProjectionResultN> projection_nd_;
  std::vector<QuantizationResult> factor_quantizations_;
  stochastic::SeparableProgram program_;  ///< dense 1D, dense 2D or general
  engine::KernelBackend backend_;
  std::optional<Certification> cert_;
};

}  // namespace oscs::compile
