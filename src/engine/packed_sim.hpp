#pragma once
/// \file packed_sim.hpp
/// \brief Word-parallel evaluation kernel for the optical SC circuit.
///
/// The paper's datapath is one ReSC MUX: an adder over the data streams
/// selects one coefficient stream (Eqs. 5-7). The two-input tensor-product
/// form only adds a second adder, so the kernel has ONE core over an x
/// bank, a y bank and K coefficient sets, and a one-input program is a
/// two-input one whose y bank is empty. Per block of packed words the
/// core
///
///   1. computes each adder value k(t) for all 64 lanes of a word at once
///      with a carry-save bit-plane accumulation over the bank's words,
///   2. turns the planes into per-value select masks (k(t) == k) with
///      bitwise equality tests - once per block, shared by all K programs,
///   3. ORs select & coefficient words into the ideal MUX output (with a
///      y bank the select is the AND of the row and column masks),
///   4. takes the optical decision words from the kernel's decision
///      model: the MUX words themselves when the model is mux-exact, else
///      the per-state physics LUT.
///
/// Decision models. The legacy TransientSimulator re-evaluates the Eq. (6)
/// transmission physics per cycle, but the physics only depends on the
/// discrete circuit state: the n+1 coefficient bits z and the number of
/// ones k among the n data bits (identical MZIs make the pump level a
/// function of k alone, Eq. 7). The one-input constructor therefore
/// precomputes the noiseless slicer decision for every reachable state -
/// 2^(n+1) * (n+1) received-power evaluations - and is mux-exact when the
/// eye is open in every state. The two-input constructor uses the ideal
/// MUX, since its per-state table would have 2^((n+1)(m+1)) entries.
///
/// Receiver noise is applied after the core as sparse decision flips at
/// the BER the caller's `oscs::OperatingPoint` carries (geometric gap
/// sampling) instead of one Gaussian per bit. The kernel holds NO noise
/// model of its own: `optsc::LinkBudget` (the one place that owns the
/// physics-to-BER mapping) produced the operating point. The fused mode
/// evaluates K programs on one shared stimulus with one flip pass.
///
/// Stimulus. A mux-exact kernel runs stimulus contract v2
/// (stochastic/resc.hpp): one comparator per coefficient set, so the MUX
/// output is [v(t) < T_k(t)] and no coefficient stream needs to exist.
/// With an LFSR source the run paths evaluate it in one fused lane loop
/// (simd::KernelOps::select_compare): per 16 lanes the data-bank
/// comparators count k (and k_y) in 16-bit lanes, a vpshufb
/// gathers the set's bound for the selected cell, and one vpmullw +
/// vpcmpgtw against the set's leap-row comparator decides - no x/y/z
/// rows, carry-save planes or select masks. Every other source
/// materializes the same v2 rows (fill_fused_stimulus) for the bit-plane
/// core above, which also serves as the lane loop's bit-identity oracle.
/// A physics-LUT kernel keeps v1, one comparator per cell, because its
/// decisions read the whole coefficient pattern (stimulus_layout()).
///
/// Run paths vs streams-out API. run_fused()/run_nd() (and the run/run2
/// adapters) need only three counts per product - optical ones after
/// noise, electronic ones, and the bits where they differ. The lane loop
/// is their count sink: it advances every axis pass of an N-ary program
/// word by word, holds each set's decisions for one 64-word block and
/// counts the block as soon as it is full - a term's factor AND runs
/// along the block's rows - and only a block that holds flips consults
/// the lazy geometric-gap draws (simd::FlipDraw). No full-length decision
/// row exists, so stream length costs no memory. The materialized path
/// writes decision rows into per-thread scratch, toggles flips in place
/// and counts the rows (count_product); a thread keeps at most 256 KiB of
/// that scratch between evaluations. Either way a warm evaluation with an
/// LFSR source makes no heap allocation. An LFSR width outside
/// stochastic::kLfsrWidths is rejected when the cell is set up.
/// evaluate()/evaluate2() are the streams-out reference over the
/// bit-plane core. PackedCell splits a run into its seed-independent
/// setup and the per-repeat evaluation, so a batch prepares each grid
/// cell once.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/operating_point.hpp"
#include "common/rng.hpp"
#include "optsc/circuit.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {

/// Per-evaluation controls. The operating point carries everything the
/// physics decided (BER, stream length, SNG resolution); the seeds and
/// source flavour are the evaluation's own randomness plumbing.
struct PackedRunConfig {
  /// Link operating point; obtain from optsc::LinkBudget::operating_point
  /// or optsc::design_operating_point. The default is a noiseless
  /// 1024-bit / 16-bit-SNG point for kernel-only experiments.
  oscs::OperatingPoint op{};
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  std::uint64_t stimulus_seed = 1;    ///< SNG stream seed
  std::uint64_t noise_seed = 0x5EED;  ///< flip-mask RNG seed
};

/// Raw outcome of one packed evaluation.
struct PackedRunResult {
  double optical_estimate = 0.0;     ///< decoded from the optical stream
  double electronic_estimate = 0.0;  ///< ReSC baseline on the same streams
  std::size_t transmission_flips = 0;  ///< bits where the (noisy) optical
                                       ///< decision differs from the ideal
                                       ///< MUX output
  std::size_t noise_flips = 0;  ///< flips injected by the noise model
  std::size_t length = 0;
};

/// Decorrelated seed stream for run_nd's axis passes (stimulus, indexed by
/// axis) and factor flips (noise, indexed by factor), mirroring the
/// engine's task-seed derivation: factors ANDed in one term must be
/// mutually independent for the AND to multiply probabilities, so each
/// index expands its own SplitMix64 state instead of taking consecutive
/// source salts.
[[nodiscard]] std::uint64_t derive_factor_seed(std::uint64_t master,
                                               std::size_t index);

/// Sample the positions of independent per-bit decision flips with
/// probability `flip_p` over a stream of `length` bits, by geometric gap
/// sampling: cost scales with the number of flips (~flip_p * length), not
/// the stream length. Returns strictly increasing positions.
[[nodiscard]] std::vector<std::size_t> sample_flip_positions(
    std::size_t length, double flip_p, oscs::Xoshiro256& rng);

/// Toggle the given bit positions in `stream`.
void flip_positions(stochastic::Bitstream& stream,
                    const std::vector<std::size_t>& positions);

/// Flip each bit independently with probability `flip_p` (one sample +
/// apply pass). Returns the number of flips applied.
std::size_t apply_noise_flips(stochastic::Bitstream& stream, double flip_p,
                              oscs::Xoshiro256& rng);

/// The packed kernel a program runs on: the x-bank order and the y-bank
/// order (0 = no y bank).
struct KernelShape {
  std::size_t order_x = 0;
  std::size_t order_y = 0;
  friend bool operator==(const KernelShape&, const KernelShape&) = default;
};

/// A program's kernel shape: (deg_x, deg_y) for a dense two-input program,
/// (degree, 0) otherwise - dense one-input programs and every factor of a
/// general separable program run on a kernel without a y bank.
[[nodiscard]] KernelShape kernel_shape(
    const stochastic::SeparableProgram& program) noexcept;

/// Kernel passes one run_nd() evaluation of `program` makes: 1 for a dense
/// program, else one per distinct factor axis (see run_nd()).
[[nodiscard]] std::size_t kernel_passes(
    const stochastic::SeparableProgram& program);

/// Word-parallel evaluation kernel bound to one circuit. Construction
/// snapshots the eye geometry the hot loop needs (decision model, slicer
/// threshold); evaluation is const and safe to share across threads.
class PackedKernel {
 public:
  /// Highest circuit order the LUT precomputation supports: the table has
  /// 2^(order+1) coefficient patterns, each evaluated through the O(n^2)
  /// Eq. (6) physics, so the build cost doubles per order step.
  static constexpr std::size_t kMaxOrder = 12;

  /// One-input kernel at the circuit's order, with the per-state physics
  /// decision LUT.
  /// \throws std::invalid_argument if circuit.order() > kMaxOrder.
  explicit PackedKernel(const optsc::OpticalScCircuit& circuit);

  /// Two-bank (tensor-product ReSC) kernel: an x adder over `order_x`
  /// data streams and a y adder over `order_y` select one of the
  /// (order_x+1)*(order_y+1) coefficient streams. The circuit supplies the
  /// eye geometry (threshold) exactly as in the one-input constructor; the
  /// decision model is the ideal MUX (mux-exact by construction), and
  /// receiver noise still arrives as Eq. 9 flip masks from the caller's
  /// `oscs::OperatingPoint`. Either order may be 0 (that bank is empty).
  /// \throws std::invalid_argument if either order exceeds kMaxOrder.
  PackedKernel(const optsc::OpticalScCircuit& circuit, std::size_t order_x,
               std::size_t order_y);

  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  /// Y-bank order (column select range 0..order_y()); 0 without a y bank.
  [[nodiscard]] std::size_t order_y() const noexcept { return order_y_; }
  [[nodiscard]] KernelShape shape() const noexcept {
    return {order_, order_y_};
  }
  /// True when the kernel was built by the two-bank constructor.
  [[nodiscard]] bool bivariate() const noexcept { return decisions_.empty(); }
  /// Mid-eye decision threshold [mW], physical-eye semantics (identical to
  /// the legacy TransientSimulator placement).
  [[nodiscard]] double threshold_mw() const noexcept { return threshold_mw_; }
  /// True when every noiseless decision equals the ideal MUX output (the
  /// eye is open in every reachable state), enabling the fast path.
  [[nodiscard]] bool mux_exact() const noexcept { return mux_exact_; }
  /// Coefficient-stream layout the run paths draw (stochastic/resc.hpp):
  /// v2, one comparator per coefficient set, when mux-exact; else v1, one
  /// per cell, because a physics-LUT decision reads the whole coefficient
  /// pattern. Reference stimulus for a run path takes this layout.
  [[nodiscard]] stochastic::StimulusLayout stimulus_layout() const noexcept;

  /// Noiseless decision for coefficient pattern `z_pattern` (bit j = z_j)
  /// and adder value `ones`.
  [[nodiscard]] bool decision(std::uint32_t z_pattern, std::size_t ones) const;
  /// Received power [mW] in the same state, recomputed from the circuit
  /// snapshot (diagnostics/tests; not on the hot path).
  [[nodiscard]] double received_power_mw(std::uint32_t z_pattern,
                                         std::size_t ones) const;

  /// Throws unless `program` runs on this kernel: its kernel_shape()
  /// equals shape(), and every factor of a separable program sits at the
  /// kernel order.
  /// \throws std::invalid_argument otherwise.
  void check_program(const stochastic::SeparableProgram& program) const;

  /// Noiseless word-parallel pass over shared stimulus.
  struct Streams {
    stochastic::Bitstream optical;     ///< slicer decisions
    stochastic::Bitstream electronic;  ///< ideal MUX output (ReSC baseline)
  };
  /// One-input stimulus (an empty y bank). Bit-identical to
  /// ReSCUnit::output_stream on the same stimulus when mux-exact.
  /// \throws std::invalid_argument on stimulus shape mismatch.
  [[nodiscard]] Streams evaluate(const stochastic::ScInputs& inputs) const;
  /// Two-bank stimulus. Bit-identical to ReSC2Unit::output_stream on the
  /// same stimulus when mux-exact.
  /// \throws std::invalid_argument on stimulus shape mismatch.
  [[nodiscard]] Streams evaluate2(const stochastic::ScInputs2& inputs) const;

  /// Full evaluation: generate SNG stimulus, run the packed pass, apply
  /// decision flips at config.op.ber. Equivalent to the legacy per-bit
  /// simulation loop, word-wise. Adapter over run_nd().
  /// \throws std::invalid_argument if the polynomial order mismatches or
  ///         the operating point is invalid.
  [[nodiscard]] PackedRunResult run(const stochastic::BernsteinPoly& poly,
                                    double x,
                                    const PackedRunConfig& config) const;

  /// Full two-input evaluation at (x, y). Adapter over run_nd().
  /// \throws std::invalid_argument if the polynomial orders mismatch the
  ///         kernel shape or the operating point is invalid.
  [[nodiscard]] PackedRunResult run2(const stochastic::BernsteinPoly2& poly,
                                     double x, double y,
                                     const PackedRunConfig& config) const;

  /// Fused full evaluation of K dense programs at one point: the programs
  /// share one SNG stimulus (data banks generated once) and one flip pass
  /// (positions sampled once at config.op.ber, applied to every program's
  /// decision stream). Program 0 is bit-identical to a one-program run.
  /// Allocates only the returned vector.
  /// \throws std::invalid_argument on an empty program list, a general
  ///         separable program, a point arity or kernel shape mismatch, an
  ///         invalid operating point or an LFSR width outside
  ///         stochastic::kLfsrWidths.
  [[nodiscard]] std::vector<PackedRunResult> run_fused(
      std::span<const stochastic::SeparableProgram> programs,
      const std::vector<double>& point, const PackedRunConfig& config) const;

  /// N-ary entry point: evaluate a separable program at a point of
  /// point.size() == program.arity() coordinates.
  ///
  /// A dense program is a one-program run_fused(). A general
  /// sum-of-rank-1 program makes one fused pass per axis that carries
  /// factors, on this kernel's one-input shape: the axis's x bank is
  /// generated once (seed decorrelated per axis from
  /// config.stimulus_seed) and every factor on that axis, in term-major
  /// order, is one coefficient set over it - the factor's coefficients
  /// are its SNG probabilities. run_nd then ANDs the factor streams of
  /// every term (stochastic multiply) and folds the weighted term
  /// estimates arithmetically:
  ///
  ///   estimate = sum_t w_t * popcount(AND_j stream_{t,j}) / length.
  ///
  /// Independence: the AND needs independent operands, and a term's
  /// factors sit on strictly increasing axes, so they come from distinct
  /// axis passes with decorrelated seeds. The shared x bank only
  /// correlates factors of different terms, whose estimates are summed
  /// arithmetically, so the estimator stays unbiased.
  ///
  /// Per-factor receiver noise: each factor stream gets its own Eq. 9
  /// flips at config.op.ber (seeds decorrelated per factor, in term-major
  /// order, from config.noise_seed); noise_flips totals the injected
  /// flips and transmission_flips counts, per term, the bits where the
  /// noisy optical product differs from the ideal electronic product.
  /// \throws std::invalid_argument on a point arity mismatch, a program
  ///         that does not run on this kernel (check_program), an invalid
  ///         operating point or an LFSR width outside
  ///         stochastic::kLfsrWidths.
  [[nodiscard]] PackedRunResult run_nd(
      const stochastic::SeparableProgram& program,
      const std::vector<double>& point, const PackedRunConfig& config) const;

 private:
  friend class PackedCell;

  /// The one block loop, over raw word rows of `nwords` words: an x bank
  /// (order() rows), a y bank (order_y() rows; unused without one) and
  /// `programs` coefficient sets of (order()+1)*(order_y()+1) rows each,
  /// back to back in `z`. Writes every word of each program's optical and
  /// electronic row. `scratch` holds core_scratch_words(nwords) words.
  void evaluate_core(const std::uint64_t* const* x,
                     const std::uint64_t* const* y,
                     const std::uint64_t* const* z, std::size_t programs,
                     std::size_t nwords, std::uint64_t* const* optical,
                     std::uint64_t* const* electronic,
                     std::uint64_t* scratch) const;

  /// Block scratch evaluate_core needs for `nwords`-word rows [words].
  [[nodiscard]] std::size_t core_scratch_words(
      std::size_t nwords) const noexcept;

  /// evaluate()/evaluate2(): validate borrowed streams, run the core,
  /// wrap its rows as streams.
  [[nodiscard]] Streams evaluate_streams(
      const std::vector<stochastic::Bitstream>& x_streams,
      const std::vector<stochastic::Bitstream>& y_streams,
      const std::vector<stochastic::Bitstream>& z_streams) const;

  const optsc::OpticalScCircuit* circuit_;
  std::size_t order_ = 0;
  std::size_t order_y_ = 0;  ///< 0 without a y bank
  double threshold_mw_ = 0.0;
  bool mux_exact_ = true;
  /// decisions_[p] bit k = noiseless decision for pattern p, adder k
  /// (one-input constructor only; empty for the ideal-MUX model).
  std::vector<std::uint32_t> decisions_;
};

/// One grid cell of packed evaluations: run_nd() or run_fused() split into
/// the setup that does not depend on a task's seeds - the shape and
/// operating-point checks, the coefficient sets' gather rows, the data
/// banks' bounds, log1p(-BER), the term layout and the scratch buffers -
/// done once here, and run(), which derives the seeds' walk starts and
/// flip draws and evaluates. A cell's results equal the run path's for
/// the same seeds bit for bit; BatchRunner builds one per grid cell and
/// runs it once per repeat.
///
/// A cell borrows its kernel, programs and point, which must outlive it,
/// and the calling thread's run-path scratch: it runs on the thread that
/// built it, and a thread holds one cell (or run-path call) at a time.
class PackedCell {
 public:
  /// run_nd() of `program` at `point`: a dense program runs as a
  /// one-program fused run, a general one makes its axis passes.
  /// \throws std::invalid_argument as run_nd() does.
  /// \throws std::logic_error if the thread already holds a cell.
  PackedCell(const PackedKernel& kernel,
             const stochastic::SeparableProgram& program,
             std::span<const double> point, const oscs::OperatingPoint& op,
             stochastic::SourceKind source_kind);
  /// run_fused() of dense `programs` at `point` on one shared stimulus.
  /// \throws std::invalid_argument as run_fused() does.
  /// \throws std::logic_error if the thread already holds a cell.
  PackedCell(const PackedKernel& kernel,
             std::span<const stochastic::SeparableProgram> programs,
             std::span<const double> point, const oscs::OperatingPoint& op,
             stochastic::SourceKind source_kind);
  PackedCell(const PackedCell&) = delete;
  PackedCell& operator=(const PackedCell&) = delete;

  /// One evaluation with PackedRunConfig's seeds into `results`: one
  /// entry per program of a fused cell, else one.
  void run(std::uint64_t stimulus_seed, std::uint64_t noise_seed,
           PackedRunResult* results);

 private:
  struct Scratch;
  /// Holds the thread's scratch for the cell's lifetime, so a throwing
  /// constructor still hands it back.
  class Lease {
   public:
    Lease();
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Scratch& scratch;
  };

  void prepare_dense(std::span<const stochastic::SeparableProgram> programs,
                     std::span<const double> point,
                     const oscs::OperatingPoint& op,
                     stochastic::SourceKind source_kind);
  void prepare_terms(const stochastic::SeparableProgram& program,
                     std::span<const double> point,
                     const oscs::OperatingPoint& op,
                     stochastic::SourceKind source_kind);
  void run_materialized(std::uint64_t stimulus_seed, std::uint64_t noise_seed,
                        PackedRunResult* results);
  void fold(PackedRunResult* results) const;

  const PackedKernel& kernel_;
  Lease lease_;
};

/// Everything a kernel shape runs on: the circuit, the kernel built over
/// it and the circuit's design operating point. The kernel handle shares
/// ownership of the circuit (the kernel reads it on its diagnostics path),
/// so a kernel copied out on its own keeps its circuit alive.
struct KernelBackend {
  std::shared_ptr<const optsc::OpticalScCircuit> circuit;
  std::shared_ptr<const PackedKernel> kernel;
  oscs::OperatingPoint design_point{};
};

/// The kernel factory: the paper reference circuit at order shape.order_x,
/// the one-input kernel (with its physics decision LUT) when
/// shape.order_y == 0 and the two-bank kernel otherwise, and the circuit's
/// design operating point at 1024 bits and `sng_width`.
/// \throws std::invalid_argument if either order exceeds
///         PackedKernel::kMaxOrder.
[[nodiscard]] KernelBackend make_backend(KernelShape shape,
                                         unsigned sng_width);

}  // namespace oscs::engine
