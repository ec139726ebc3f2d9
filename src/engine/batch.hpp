#pragma once
/// \file batch.hpp
/// \brief Multi-threaded batch evaluation of the optical SC circuit over a
///        grid of (polynomial x input x stream length) cells with Monte-
///        Carlo repeats - the heavy-workload front end of the engine.
///
/// Determinism contract: every task derives its stimulus and noise seeds
/// from the request seed and its own grid coordinates alone, and writes
/// into a preallocated slot; results are therefore bit-identical for any
/// thread count (including 1) and any slab grain. Tasks are scheduled in
/// contiguous-index SLABS (see BatchRequest::slab_tasks) through
/// ThreadPool::run_range, where the calling thread computes beside the
/// pool's helpers and a one-slab request never touches the queue.
///
/// Noise model: the runner evaluates at an `oscs::OperatingPoint` - either
/// the one the request carries or the runner's design point (derived from
/// the circuit through `optsc::LinkBudget` at construction). The engine
/// itself never computes a BER.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/operating_point.hpp"
#include "engine/packed_sim.hpp"
#include "engine/thread_pool.hpp"
#include "optsc/circuit.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"
#include "stochastic/sng.hpp"

namespace oscs::engine {

/// A grid of evaluations: every polynomial at every evaluation point at
/// every stream length, each repeated `repeats` times with decorrelated
/// streams.
///
/// Three arities, selected by which program list is populated:
///   * univariate - `polynomials` set, `ys` empty: the grid crosses every
///     polynomial with every x in `xs`;
///   * bivariate  - `polynomials2` set (tensor-product programs): `ys`
///     must pair element-wise with `xs`, so the evaluation points are the
///     (xs[i], ys[i]) PAIRS, not a cross product;
///   * N-ary      - `programs_nd` set (sum-of-separable programs):
///     `inputs` carries one column per input axis, all element-wise
///     paired, so the evaluation points are the tuples
///     (inputs[0][i], ..., inputs[N-1][i]).
/// Exactly one of `polynomials`/`polynomials2`/`programs_nd` may be
/// nonempty; `ys` is only legal (and then mandatory, same length as
/// `xs`) in the bivariate form, and `inputs` only in the N-ary form -
/// `validate()` rejects every other combination (through the shared
/// oscs::arity guard), run(), run_fused() and run_nd() all call it
/// before submitting any task.
struct BatchRequest {
  std::vector<stochastic::BernsteinPoly> polynomials;
  /// Bivariate (tensor-product) programs; mutually exclusive with
  /// `polynomials`.
  std::vector<stochastic::BernsteinPoly2> polynomials2;
  /// N-ary sum-of-separable programs; mutually exclusive with both
  /// polynomial lists. Every program's arity must equal inputs.size().
  std::vector<stochastic::SeparableProgram> programs_nd;
  std::vector<double> xs;
  /// Second input coordinate, paired element-wise with `xs` (bivariate
  /// requests only; must match xs.size()).
  std::vector<double> ys;
  /// N-ary evaluation points, one column per axis, element-wise paired
  /// (N-ary requests only; every column must match inputs[0].size()).
  std::vector<std::vector<double>> inputs;
  std::vector<std::size_t> stream_lengths;
  std::size_t repeats = 8;

  std::uint64_t seed = 1;  ///< master seed; every task seed derives from it
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;

  /// Scheduling grain: tasks per pool slab. 0 (the default) auto-sizes
  /// from the request's stream work so one slab carries on the order of a
  /// millisecond of kernel time while keeping several slabs per worker
  /// for load balance. Results are bit-identical for ANY value (each
  /// task's seeds and output slot derive from its global task index
  /// alone); exposed for tests and benches.
  std::size_t slab_tasks = 0;

  /// Link operating point to evaluate at (BER + SNG width; the per-cell
  /// stream length comes from `stream_lengths`). Leave unset to run at the
  /// runner's design point. Use `op->noiseless()` to switch noise off.
  std::optional<oscs::OperatingPoint> op;

  /// True when the request carries tensor-product programs.
  [[nodiscard]] bool bivariate() const noexcept {
    return !polynomials2.empty();
  }
  /// True when the request carries N-ary sum-of-separable programs.
  [[nodiscard]] bool nd() const noexcept { return !programs_nd.empty(); }
  /// Programs in the request, whichever arity is populated.
  [[nodiscard]] std::size_t program_count() const noexcept {
    if (nd()) return programs_nd.size();
    return bivariate() ? polynomials2.size() : polynomials.size();
  }
  /// Evaluation points in the request (xs entries, or N-ary tuples).
  [[nodiscard]] std::size_t points() const noexcept {
    if (nd()) return inputs.empty() ? 0 : inputs.front().size();
    return xs.size();
  }
  /// The i-th evaluation point as a coordinate tuple (any arity).
  [[nodiscard]] std::vector<double> point(std::size_t i) const;
  /// Evaluations in the request (cells() * repeats).
  [[nodiscard]] std::size_t tasks() const noexcept;
  /// Grid cells in the request.
  [[nodiscard]] std::size_t cells() const noexcept;
  /// \throws std::invalid_argument on an empty dimension, zero
  ///         repeats/length, an input value outside [0, 1] (or NaN), a
  ///         program-list population that is not exactly one of
  ///         polynomials/polynomials2/programs_nd, a `ys` whose length
  ///         does not match `xs` (bivariate) or a nonempty `ys` on a
  ///         univariate request, ragged or arity-mismatched `inputs`
  ///         columns (N-ary), or an invalid operating point. The arity
  ///         rules and their error strings come from the shared
  ///         common/arity_guard helper.
  void validate() const;
};

/// Aggregated statistics for one grid cell (over the MC repeats).
struct BatchCell {
  std::size_t poly_index = 0;
  double x = 0.0;
  double y = 0.0;  ///< second input coordinate (bivariate cells; else 0)
  /// Full coordinate tuple of the evaluation point (every arity; x and y
  /// mirror point[0] / point[1] for the legacy consumers).
  std::vector<double> point;
  std::size_t stream_length = 0;
  std::size_t repeats = 0;

  double expected = 0.0;  ///< exact Bernstein value B(x)
  double optical_mean = 0.0;
  double optical_ci = 0.0;  ///< 95% CI half-width of the mean estimate
  double optical_abs_error_mean = 0.0;
  double optical_abs_error_ci = 0.0;
  double electronic_abs_error_mean = 0.0;
  double flip_rate_mean = 0.0;  ///< transmission flips per bit
};

/// Per-program accuracy roll-up over one batch, in request program order.
/// The error here is |optical_mean - expected| per cell - the estimator's
/// deviation from the exact Bernstein value of the program actually run,
/// matching the error definition MC certification uses (certify.hpp), so
/// runtime series and certified budgets compare apples to apples. (This
/// differs from BatchCell::optical_abs_error_mean, which averages the
/// per-repeat deviations and therefore includes the estimator's variance.)
struct ProgramAccuracy {
  std::size_t cells = 0;     ///< grid cells contributing to this program
  double mean_error = 0.0;   ///< mean over cells of |optical_mean - B(x)|
  double worst_error = 0.0;  ///< max over cells of the same
  double ci_mean = 0.0;      ///< mean per-cell 95% CI half-width
};

/// Whole-batch outcome.
struct BatchSummary {
  std::vector<BatchCell> cells;  ///< polynomial-major, then x, then length
  /// One entry per requested program (request order): the certification-
  /// aligned error roll-up the serving layer's accuracy plane consumes.
  std::vector<ProgramAccuracy> program_accuracy;
  std::size_t tasks = 0;
  std::size_t total_bits = 0;      ///< stream bits evaluated end to end
  double optical_mae = 0.0;        ///< mean of per-cell optical error means
  double electronic_mae = 0.0;     ///< same for the ReSC baseline
  double worst_cell_error = 0.0;   ///< max per-cell optical error mean
  /// Operating point the batch ran at (probe power, BER, SNG width).
  /// `op.stream_length` is the request's single stream length, or 0 when
  /// the grid mixed lengths - read the per-cell values in that case.
  oscs::OperatingPoint op{};
};

/// Batch driver: owns the packed kernel snapshot plus the design operating
/// point and fans tasks across a thread pool.
class BatchRunner {
 public:
  /// Build a fresh kernel snapshot from the circuit; the design operating
  /// point comes from the circuit's link budget (physical eye).
  /// \throws std::invalid_argument if the circuit order exceeds the packed
  ///         kernel limit.
  explicit BatchRunner(const optsc::OpticalScCircuit& circuit);

  /// Two-bank runner: builds the tensor-product kernel at per-axis orders
  /// (order_x, order_y); the circuit supplies the eye geometry and design
  /// operating point exactly as in the univariate constructor. Only
  /// programs of kernel shape (order_x, order_y) run on this runner.
  /// \throws std::invalid_argument if either order exceeds the packed
  ///         kernel limit.
  BatchRunner(const optsc::OpticalScCircuit& circuit, std::size_t order_x,
              std::size_t order_y);

  /// Share an externally prebuilt kernel (e.g. the one a CompiledProgram
  /// carries) instead of re-deriving the decision LUT. `design_point` is
  /// the operating point requests without an explicit one run at.
  /// \throws std::invalid_argument on a null kernel or invalid point.
  BatchRunner(std::shared_ptr<const PackedKernel> kernel,
              oscs::OperatingPoint design_point);

  [[nodiscard]] const PackedKernel& kernel() const noexcept {
    return *kernel_;
  }
  /// The operating point used when a request does not carry its own.
  [[nodiscard]] const oscs::OperatingPoint& design_point() const noexcept {
    return design_point_;
  }

  /// N-ary entry point: one task per (cell, repeat), each with its own
  /// stimulus, accepting every request arity. Legacy requests are
  /// wrapped into the separable view (dense N=1/N=2 delegation), which
  /// keeps the task lattice, the per-task seeds and the kernel calls -
  /// and therefore every output bit - identical to the historical run()
  /// behavior; N-ary requests evaluate their input tuples through
  /// `PackedKernel::run_nd`, folding each program's weighted term
  /// estimates into the same `BatchSummary` shape.
  /// \throws std::invalid_argument per `BatchRequest::validate()`, when
  ///         a program does not run on the kernel
  ///         (`PackedKernel::check_program`: kernel shape or factor order
  ///         mismatch) or on an LFSR width outside
  ///         `stochastic::kLfsrWidths` - all raised before any task is
  ///         submitted.
  [[nodiscard]] BatchSummary run_nd(const BatchRequest& request,
                                    ThreadPool& pool) const;

  /// Convenience overload of run_nd on a temporary pool.
  [[nodiscard]] BatchSummary run_nd(const BatchRequest& request,
                                    std::size_t threads = 0) const;

  /// Thin wrapper over run_nd(), kept as the legacy entry point: one
  /// task per (cell, repeat), each with its own stimulus. Accepts the
  /// univariate and bivariate arities (a bivariate request evaluates its
  /// (xs[i], ys[i]) pairs through the two-input kernel mode); bit-
  /// identical to the pre-run_nd implementation.
  /// \throws std::invalid_argument per `BatchRequest::validate()` (empty
  ///         grids, zero repeats, out-of-range x/y, mismatched x/y vector
  ///         lengths, invalid operating point), or when a program's
  ///         kernel shape does not match the kernel (a polynomial order
  ///         mismatch, a bivariate request on a univariate runner and vice
  ///         versa) - all raised before any task is submitted. run_fused()
  ///         shares this exact contract.
  [[nodiscard]] BatchSummary run(const BatchRequest& request,
                                 ThreadPool& pool) const;

  /// Convenience: run on a temporary pool of `threads` workers (0 picks
  /// the hardware concurrency).
  [[nodiscard]] BatchSummary run(const BatchRequest& request,
                                 std::size_t threads = 0) const;

  /// Fused mode: one task per (x, length, repeat) evaluates ALL requested
  /// polynomials on one shared SNG stimulus with one flip-mask pass,
  /// amortizing stimulus generation and the adder/select pass across
  /// programs. Statistically equivalent to run() per program (identical
  /// marginal estimator distribution; programs within a task share data
  /// streams and flip positions); not bit-identical to run() for K > 1
  /// because the sample layout differs. Cells come back in the same
  /// polynomial-major order as run(). Dense programs fuse in either
  /// spelling - `polynomials`/`polynomials2` with `xs`/`ys`, or their
  /// dense delegation forms in `programs_nd` with `inputs` - bit-
  /// identically.
  /// \throws std::invalid_argument with the same error contract as run():
  ///         `BatchRequest::validate()` plus the order check, raised
  ///         before any task is submitted; also on a general sum-of-rank-1
  ///         program (those run unfused through run_nd()).
  [[nodiscard]] BatchSummary run_fused(const BatchRequest& request,
                                       ThreadPool& pool) const;

  /// Convenience overload of run_fused on a temporary pool.
  [[nodiscard]] BatchSummary run_fused(const BatchRequest& request,
                                       std::size_t threads = 0) const;

 private:
  struct TaskOut {
    double optical = 0.0;
    double electronic = 0.0;
    std::size_t flips = 0;
  };

  /// Aggregate per-task outputs into program-major cells. `slot` maps
  /// (program, point, length, repeat) indices to a TaskOut slot;
  /// `programs` is the unified separable view used for the exact
  /// expected values (dense forms evaluate the identical legacy
  /// arithmetic) and `points` the request's evaluation points.
  template <typename SlotFn>
  [[nodiscard]] BatchSummary aggregate(
      const BatchRequest& request,
      const std::vector<stochastic::SeparableProgram>& programs,
      const std::vector<std::vector<double>>& points,
      const std::vector<TaskOut>& outs, const oscs::OperatingPoint& op,
      SlotFn&& slot) const;

  /// The one task-lattice body behind run_nd() (one program per task) and
  /// run_fused() (every program per task on shared stimulus).
  [[nodiscard]] BatchSummary run_lattice(const BatchRequest& request,
                                         ThreadPool& pool, bool fused) const;

  std::shared_ptr<const PackedKernel> kernel_;
  oscs::OperatingPoint design_point_;
};

/// Deterministic per-task seed stream: expands (master seed, task index,
/// lane) through SplitMix64. Exposed for tests.
[[nodiscard]] std::uint64_t derive_task_seed(std::uint64_t master,
                                             std::size_t task_index,
                                             std::uint64_t lane);

}  // namespace oscs::engine
