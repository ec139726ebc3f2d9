#include "engine/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/simd_kernel.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/sng.hpp"
#include "stochastic/sng_fill.hpp"

namespace oscs::engine {

namespace sc = oscs::stochastic;

namespace {

/// Most words per packed-evaluation block. The plane-major scratch buffers
/// stay small enough to live in L1/L2 (a full select set at kMaxOrder is
/// at most 13 * 256 * 8 B = 26 KiB) while giving the SIMD primitives
/// contiguous runs long enough to amortize dispatch.
constexpr std::size_t kBlockWords = 256;

/// Run-path scratch a thread keeps between evaluations [bytes]. A longer
/// materialized evaluation's buffers are released when it ends, so one
/// admissible 2^26-bit order-6 request cannot pin ~120 MiB in a pooled
/// thread.
constexpr std::size_t kScratchKeepBytes = std::size_t{256} << 10;

static_assert(simd::kMaxLaneOrder == PackedKernel::kMaxOrder,
              "the lane loop must take every kernel order");

std::vector<bool> pattern_bits(std::uint32_t pattern, std::size_t count) {
  std::vector<bool> bits(count, false);
  for (std::size_t j = 0; j < count; ++j) bits[j] = (pattern >> j) & 1u;
  return bits;
}

std::vector<bool> ones_prefix(std::size_t ones, std::size_t count) {
  std::vector<bool> bits(count, false);
  for (std::size_t j = 0; j < ones; ++j) bits[j] = true;
  return bits;
}

void check_point(const sc::SeparableProgram& program,
                 std::span<const double> point) {
  if (point.size() != program.arity()) {
    throw std::invalid_argument(
        "PackedKernel: point arity " + std::to_string(point.size()) +
        " does not match the program arity " +
        std::to_string(program.arity()));
  }
}

bool is_dense(const sc::SeparableProgram& program) {
  return program.has_dense1() || program.has_dense2();
}

/// Toggle every remaining flip of `draw` in each of `rows` (positions lie
/// below the stream length, so padding stays untouched).
void toggle_flips(simd::FlipDraw& draw, std::uint64_t* const* rows,
                  std::size_t row_count) {
  for (; draw.next != simd::FlipDraw::kNone; draw.advance()) {
    const std::uint64_t bit = std::uint64_t{1} << (draw.next % 64);
    for (std::size_t r = 0; r < row_count; ++r) rows[r][draw.next / 64] ^= bit;
  }
}

double density(std::size_t ones, std::size_t length) {
  return static_cast<double>(ones) / static_cast<double>(length);
}

/// True when a stimulus-v2 evaluation runs the lane loop: an LFSR source
/// the cycle table serves. Every other source or width materializes the
/// same v2 rows (fill_fused_stimulus) for the bit-plane core.
bool lane_stimulus(sc::SourceKind kind, unsigned width) {
  return kind == sc::SourceKind::kLfsr && width >= 3 &&
         width <= sc::detail::kMaxLfsrTableWidth;
}

/// The lane loop's bound for probability p (SelectCompareJob).
std::int16_t lane_bound(double p, unsigned width) {
  return sc::detail::inclusive_bound(sc::comparator_threshold(p, width),
                                     width);
}

}  // namespace

/// The calling thread's run-path state: buffers that grow to an
/// evaluation's shape and length and are reused by the next one, and the
/// cell they are prepared for. Each buffer is taken once per cell (a
/// later take may move it).
struct PackedCell::Scratch {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t*> rows;
  std::vector<const double*> coeffs;
  std::vector<simd::LaneWalk> walks;
  std::vector<std::int16_t> bounds;
  std::vector<simd::LanePass> passes;
  std::vector<std::uint32_t> index;
  std::vector<simd::FlipDraw> flips;
  std::vector<simd::ProductCounts> counts;
  bool leased = false;

  // The prepared cell. Sets are the coefficient sets of every pass,
  // pass-major; factors are numbered term-major (a dense cell's program p
  // is set and factor p, one term each).
  const sc::SeparableProgram* program = nullptr;  ///< general; null: dense
  std::span<const double> point;
  std::size_t length = 0;
  std::size_t nwords = 0;
  sc::ScInputConfig stimulus;  ///< kind and width; the seed is per run
  sc::StimulusLayout layout = sc::StimulusLayout::kPerSet;
  double ber = std::numeric_limits<double>::quiet_NaN();
  double log_keep = 0.0;       ///< log1p(-ber), kept while ber repeats
  bool lanes = false;          ///< the lane loop runs (else materialized)
  std::size_t sets = 0;
  std::size_t banks = 0;       ///< data-bank walks per pass
  simd::SelectCompareJob job;  ///< passes, sets, terms, flips, counts
  const double** set_coeffs = nullptr;
  const std::uint32_t* pass_axis = nullptr;
  const sc::detail::LfsrCycle* cycle = nullptr;
  // Materialized rows: stimulus rows, then per factor its optical and
  // electronic decision row, and per set its factor's rows.
  std::uint64_t** stimulus_rows = nullptr;
  std::uint64_t* const* optical = nullptr;
  std::uint64_t* const* electronic = nullptr;
  std::uint64_t** set_optical = nullptr;
  std::uint64_t** set_electronic = nullptr;
  std::uint64_t* core = nullptr;

  template <typename T>
  static T* take(std::vector<T>& buffer, std::size_t n) {
    if (buffer.size() < n) buffer.resize(n);
    return buffer.data();
  }

  [[nodiscard]] std::size_t bytes() const noexcept {
    return words.capacity() * sizeof(std::uint64_t) +
           rows.capacity() * sizeof(std::uint64_t*) +
           coeffs.capacity() * sizeof(const double*) +
           walks.capacity() * sizeof(simd::LaneWalk) +
           bounds.capacity() * sizeof(std::int16_t) +
           passes.capacity() * sizeof(simd::LanePass) +
           index.capacity() * sizeof(std::uint32_t) +
           flips.capacity() * sizeof(simd::FlipDraw) +
           counts.capacity() * sizeof(simd::ProductCounts);
  }

  /// The cell fields every shape shares.
  void begin(const PackedKernel& kernel, std::span<const double> at,
             const oscs::OperatingPoint& op, sc::SourceKind kind) {
    point = at;
    length = op.stream_length;
    nwords = (length + 63) / 64;
    stimulus = {kind, op.sng_width, 0};
    layout = kernel.stimulus_layout();
    if (!(op.ber == ber)) {
      ber = op.ber;
      log_keep = std::log1p(-ber);
    }
    lanes = kernel.mux_exact() && lane_stimulus(kind, op.sng_width);
    cycle = lanes ? &sc::detail::lfsr_cycle(op.sng_width) : nullptr;
  }

  /// The lane loop's seed-free half: bank walk slots and bounds per pass,
  /// one gather row per set, and the job around them. The job's layout,
  /// passes[p].sets and set_coeffs must be set; `axis_of(p)` names pass
  /// p's point coordinate (and the y bank reads point[1] when there is
  /// one).
  template <typename AxisOf>
  void prepare_lanes(std::size_t order_x, std::size_t order_y,
                     AxisOf&& axis_of) {
    const std::size_t pass_count = job.pass_count;
    const std::size_t cells = (order_x + 1) * (order_y + 1);
    const std::size_t stride = simd::lane_bound_stride(cells);
    banks = order_x + order_y;
    simd::LaneWalk* walk = take(walks, pass_count * banks + sets);
    simd::LanePass* pass = passes.data();
    const unsigned width = stimulus.width;
    for (std::size_t p = 0; p < pass_count; ++p, walk += banks) {
      pass[p].x = walk;
      pass[p].x_bound = lane_bound(point[axis_of(p)], width);
      pass[p].y = walk + order_x;
      pass[p].y_bound = lane_bound(order_y > 0 ? point[1] : 0.0, width);
    }
    std::int16_t* row = take(bounds, sets * stride);
    for (std::size_t g = 0; g < sets; ++g, row += stride) {
      for (std::size_t c = 0; c < cells; ++c) {
        row[c] = lane_bound(set_coeffs[g][c], width);
      }
      std::fill(row + cells, row + stride, std::int16_t{0});
    }
    job.clock_row = cycle->row(sc::detail::LfsrWalk::kClock);
    job.leap_row = cycle->row(sc::detail::LfsrWalk::kLeap);
    job.period = cycle->period();
    job.order_x = order_x;
    job.order_y = order_y;
    job.passes = pass;
    job.sets = walk;
    job.bounds = bounds.data();
    job.length = length;
    job.flips = take(flips, job.flip_count);
    job.counts = take(counts, job.term_count);
    job.decisions =
        take(words, (sets + job.flip_count) * simd::kLaneBlockWords);
    job.electronic = nullptr;
    job.optical = nullptr;
  }

  /// Seed and start the flip draws: the one draw a dense cell's programs
  /// share from `noise_seed`, else factor f's from its decorrelated seed.
  void start_flips(std::uint64_t noise_seed) {
    for (std::size_t f = 0; f < job.flip_count; ++f) {
      job.flips[f].rng = oscs::Xoshiro256(
          program != nullptr ? derive_factor_seed(noise_seed, f) : noise_seed);
      job.flips[f].start(log_keep, length);
    }
  }

  /// The materialized path's rows: `stimulus_count` stimulus rows, one
  /// optical and one electronic row per factor, and per set views of its
  /// factor's rows; `set_factor` maps sets to factors (null: identity).
  void prepare_rows(const PackedKernel& kernel, std::size_t stimulus_count,
                    const std::uint32_t* set_factor) {
    const std::size_t factors = job.factor_count;
    const std::size_t row_count = stimulus_count + 2 * factors;
    std::uint64_t* base = take(
        words, row_count * nwords + kernel.core_scratch_words(nwords));
    std::uint64_t** table = take(rows, row_count + 2 * sets);
    for (std::size_t r = 0; r < row_count; ++r) table[r] = base + r * nwords;
    stimulus_rows = table;
    optical = table + stimulus_count;
    electronic = optical + factors;
    set_optical = table + row_count;
    set_electronic = set_optical + sets;
    for (std::size_t g = 0; g < sets; ++g) {
      const std::size_t f = set_factor != nullptr ? set_factor[g] : g;
      set_optical[g] = optical[f];
      set_electronic[g] = electronic[f];
    }
    core = base + row_count * nwords;
    job.flips = take(flips, job.flip_count);
    job.counts = take(counts, job.term_count);
  }
};

std::uint64_t derive_factor_seed(std::uint64_t master, std::size_t index) {
  oscs::SplitMix64 sm(master ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return sm.next();
}

std::vector<std::size_t> sample_flip_positions(std::size_t length,
                                               double flip_p,
                                               oscs::Xoshiro256& rng) {
  std::vector<std::size_t> positions;
  simd::FlipDraw draw;
  draw.rng = rng;
  draw.start(std::log1p(-flip_p), length);
  for (; draw.next != simd::FlipDraw::kNone; draw.advance()) {
    positions.push_back(draw.next);
  }
  rng = draw.rng;
  return positions;
}

void flip_positions(sc::Bitstream& stream,
                    const std::vector<std::size_t>& positions) {
  for (std::size_t pos : positions) stream.set_bit(pos, !stream.bit(pos));
}

std::size_t apply_noise_flips(sc::Bitstream& stream, double flip_p,
                              oscs::Xoshiro256& rng) {
  const std::vector<std::size_t> positions =
      sample_flip_positions(stream.size(), flip_p, rng);
  flip_positions(stream, positions);
  return positions.size();
}

KernelShape kernel_shape(const sc::SeparableProgram& program) noexcept {
  if (program.has_dense2()) {
    return {program.dense2().deg_x(), program.dense2().deg_y()};
  }
  return {program.factor_degree(), 0};
}

std::size_t kernel_passes(const sc::SeparableProgram& program) {
  if (program.has_dense1() || program.has_dense2()) return 1;
  std::vector<bool> read(program.arity(), false);
  for (const sc::SeparableTerm& term : program.terms()) {
    for (const sc::SeparableFactor& factor : term.factors) {
      read[factor.axis] = true;
    }
  }
  return static_cast<std::size_t>(std::count(read.begin(), read.end(), true));
}

KernelBackend make_backend(KernelShape shape, unsigned sng_width) {
  if (shape.order_x > PackedKernel::kMaxOrder ||
      shape.order_y > PackedKernel::kMaxOrder) {
    throw std::invalid_argument(
        "make_backend: kernel shape (" + std::to_string(shape.order_x) +
        ", " + std::to_string(shape.order_y) +
        ") exceeds the packed-kernel order limit " +
        std::to_string(PackedKernel::kMaxOrder));
  }
  KernelBackend backend;
  backend.circuit = std::make_shared<const optsc::OpticalScCircuit>(
      optsc::paper_defaults(shape.order_x));
  const PackedKernel* kernel =
      shape.order_y == 0
          ? new PackedKernel(*backend.circuit)
          : new PackedKernel(*backend.circuit, shape.order_x, shape.order_y);
  backend.kernel = std::shared_ptr<const PackedKernel>(
      kernel, [circuit = backend.circuit](const PackedKernel* k) { delete k; });
  backend.design_point = optsc::design_operating_point(
      *backend.circuit, /*stream_length=*/1024, sng_width);
  return backend;
}

PackedKernel::PackedKernel(const optsc::OpticalScCircuit& circuit,
                           std::size_t order_x, std::size_t order_y)
    : circuit_(&circuit), order_(order_x), order_y_(order_y) {
  if (order_ > kMaxOrder || order_y_ > kMaxOrder) {
    throw std::invalid_argument(
        "PackedKernel: order (" + std::to_string(order_) + ", " +
        std::to_string(order_y_) + ") exceeds the LUT limit " +
        std::to_string(kMaxOrder));
  }
  // Eye geometry only: the slicer threshold sits mid-eye, and since every
  // transmission scales linearly with probe power the decision model is
  // invariant to the operating point. The noise model (BER) is NOT
  // derived here - it arrives per run inside oscs::OperatingPoint.
  const optsc::LinkBudget budget(circuit, optsc::EyeModel::kPhysical);
  threshold_mw_ =
      budget.analyze(circuit.params().lasers.probe_power_mw).threshold_mw;
}

PackedKernel::PackedKernel(const optsc::OpticalScCircuit& circuit)
    : PackedKernel(circuit, circuit.order(), 0) {
  // Decision LUT: one noiseless slicer decision per reachable circuit
  // state. The received power is evaluated through the very same
  // OpticalScCircuit entry point the per-bit simulator uses, so the packed
  // path is decision-for-decision identical with noise disabled.
  const std::size_t patterns = std::size_t{1} << (order_ + 1);
  decisions_.assign(patterns, 0);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t k = 0; k <= order_; ++k) {
      const bool bit = received_power_mw(static_cast<std::uint32_t>(p), k) >
                       threshold_mw_;
      if (bit) decisions_[p] |= 1u << k;
      if (bit != (((p >> k) & 1u) != 0)) mux_exact_ = false;
    }
  }
}

sc::StimulusLayout PackedKernel::stimulus_layout() const noexcept {
  return mux_exact_ ? sc::StimulusLayout::kPerSet
                    : sc::StimulusLayout::kPerCell;
}

bool PackedKernel::decision(std::uint32_t z_pattern, std::size_t ones) const {
  if (z_pattern >= decisions_.size() || ones > order_) {
    throw std::out_of_range("PackedKernel::decision: state out of range");
  }
  return (decisions_[z_pattern] >> ones) & 1u;
}

double PackedKernel::received_power_mw(std::uint32_t z_pattern,
                                       std::size_t ones) const {
  if (z_pattern >= (std::size_t{1} << (order_ + 1)) || ones > order_) {
    throw std::out_of_range("PackedKernel::received_power_mw: out of range");
  }
  return circuit_->received_power_mw(
      pattern_bits(z_pattern, order_ + 1), ones_prefix(ones, order_),
      circuit_->params().lasers.probe_power_mw);
}

void PackedKernel::check_program(const sc::SeparableProgram& program) const {
  const KernelShape want = kernel_shape(program);
  if (want != shape()) {
    throw std::invalid_argument(
        "PackedKernel: program shape (" + std::to_string(want.order_x) +
        ", " + std::to_string(want.order_y) +
        ") does not match the kernel shape (" + std::to_string(order_) +
        ", " + std::to_string(order_y_) + ")");
  }
  for (const sc::SeparableTerm& term : program.terms()) {
    for (const sc::SeparableFactor& factor : term.factors) {
      if (factor.poly.degree() != order_) {
        throw std::invalid_argument(
            "PackedKernel: factor order does not match the circuit");
      }
    }
  }
}

PackedKernel::Streams PackedKernel::evaluate(
    const sc::ScInputs& inputs) const {
  return evaluate_streams(inputs.x_streams, {}, inputs.z_streams);
}

PackedKernel::Streams PackedKernel::evaluate2(
    const sc::ScInputs2& inputs) const {
  return evaluate_streams(inputs.x_streams, inputs.y_streams,
                          inputs.z_streams);
}

PackedKernel::Streams PackedKernel::evaluate_streams(
    const std::vector<sc::Bitstream>& x_streams,
    const std::vector<sc::Bitstream>& y_streams,
    const std::vector<sc::Bitstream>& z_streams) const {
  const std::size_t n = order_;
  const std::size_t m = order_y_;
  // Shape before length: with both banks empty the stream length comes
  // from the first coefficient stream, so its presence must be validated
  // before it is dereferenced.
  if (x_streams.size() != n || y_streams.size() != m ||
      z_streams.size() != (n + 1) * (m + 1)) {
    throw std::invalid_argument("PackedKernel: stimulus shape mismatch");
  }
  const std::size_t length =
      !x_streams.empty()   ? x_streams.front().size()
      : !y_streams.empty() ? y_streams.front().size()
                           : z_streams.front().size();
  std::vector<const std::uint64_t*> rows;
  rows.reserve(n + m + z_streams.size());
  const auto add_bank = [&](const std::vector<sc::Bitstream>& bank,
                            const char* name) {
    for (const sc::Bitstream& s : bank) {
      if (s.size() != length) {
        throw std::invalid_argument(std::string("PackedKernel: ragged ") +
                                    name + " streams");
      }
      rows.push_back(s.words_data());
    }
  };
  add_bank(x_streams, "x");
  add_bank(y_streams, "y");
  add_bank(z_streams, "z");

  const std::size_t nwords = (length + 63) / 64;
  std::vector<std::uint64_t> optical(nwords);
  std::vector<std::uint64_t> electronic(nwords);
  std::vector<std::uint64_t> scratch(core_scratch_words(nwords));
  std::uint64_t* opt = optical.data();
  std::uint64_t* elec = electronic.data();
  evaluate_core(rows.data(), rows.data() + n, rows.data() + n + m, 1, nwords,
                &opt, &elec, scratch.data());
  return {sc::Bitstream::from_words(std::move(optical), length),
          sc::Bitstream::from_words(std::move(electronic), length)};
}

std::size_t PackedKernel::core_scratch_words(
    std::size_t nwords) const noexcept {
  const std::size_t stride = std::min(kBlockWords, nwords);
  const auto planes =
      static_cast<std::size_t>(std::bit_width(std::max(order_, order_y_)));
  return stride *
         (planes + (order_ + 1) + (order_y_ > 0 ? order_y_ + 1 : 0));
}

void PackedKernel::evaluate_core(const std::uint64_t* const* x,
                                 const std::uint64_t* const* y,
                                 const std::uint64_t* const* z,
                                 std::size_t programs, std::size_t nwords,
                                 std::uint64_t* const* optical,
                                 std::uint64_t* const* electronic,
                                 std::uint64_t* scratch) const {
  const std::size_t n = order_;
  const std::size_t m = order_y_;
  const std::size_t cells = (n + 1) * (m + 1);
  const simd::KernelOps& ops = simd::kernel_ops();

  // Plane-major block scratch: entry (j, i) at j*stride + i. Sized to this
  // kernel's banks and to the stream (a block never exceeds the stream's
  // words), so short streams and low orders touch little memory; the
  // planes rows are reused per bank, and the y bank's select masks exist
  // only when the kernel has a y bank.
  const std::size_t stride = std::min(kBlockWords, nwords);
  const auto plane_rows =
      static_cast<std::size_t>(std::bit_width(std::max(n, m)));
  std::uint64_t* planes = scratch;
  std::uint64_t* sel_x = planes + plane_rows * stride;
  std::uint64_t* sel_y = sel_x + (n + 1) * stride;

  for (std::size_t w0 = 0; w0 < nwords; w0 += stride) {
    const std::size_t count = std::min(stride, nwords - w0);

    // 1-2. Per bank: a carry-save adder over the shared data words leaves
    //      bit j of the per-lane ones count in plane (j, i) for word w0+i;
    //      bitwise equality k(t) == k then gives the select masks.
    //      Computed once per block and reused by every fused program.
    const auto select = [&](const std::uint64_t* const* words,
                            std::size_t order, std::uint64_t* sel) {
      const auto plane_count = static_cast<std::size_t>(std::bit_width(order));
      std::fill_n(planes, plane_count * stride, 0);
      ops.accumulate_planes(words, order, w0, count, planes, plane_count,
                            stride);
      ops.select_masks(planes, plane_count, count, order + 1, sel, stride);
    };
    select(x, n, sel_x);
    if (m > 0) select(y, m, sel_y);

    // 3. Per program: ideal MUX words (with a y bank the (i, j) select is
    //    the AND of the row and column masks), then the optical decision
    //    words.
    for (std::size_t prog = 0; prog < programs; ++prog) {
      const std::uint64_t* const* zs = z + prog * cells;
      std::uint64_t* mux = electronic[prog] + w0;
      std::fill_n(mux, count, 0);
      if (m == 0) {
        ops.mux_or_reduce(sel_x, n + 1, stride, count, zs, w0, mux);
      } else {
        ops.mux2_or_reduce(sel_x, n + 1, sel_y, m + 1, stride, count, zs, w0,
                           mux);
      }
      if (mux_exact_) {
        std::copy_n(mux, count, optical[prog] + w0);
        continue;
      }
      // Physics LUT path (one-input kernels whose eye is closed in some
      // reachable state): per-word scan over the coefficient patterns,
      // reusing the block's select masks.
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t w = w0 + i;
        std::uint64_t opt = 0;
        for (std::size_t p = 0; p < decisions_.size(); ++p) {
          const std::uint32_t dmask = decisions_[p];
          if (dmask == 0) continue;
          std::uint64_t zmask = ~std::uint64_t{0};
          for (std::size_t j = 0; j <= n && zmask != 0; ++j) {
            const std::uint64_t zj = zs[j][w];
            zmask &= ((p >> j) & 1u) ? zj : ~zj;
          }
          if (zmask == 0) continue;
          std::uint64_t decided = 0;
          for (std::size_t k = 0; k <= n; ++k) {
            if ((dmask >> k) & 1u) decided |= sel_x[k * stride + i];
          }
          opt |= zmask & decided;
        }
        optical[prog][w] = opt;
      }
    }
  }
}

PackedRunResult PackedKernel::run(const sc::BernsteinPoly& poly, double x,
                                  const PackedRunConfig& config) const {
  return run_nd(sc::SeparableProgram(poly), {x}, config);
}

PackedRunResult PackedKernel::run2(const sc::BernsteinPoly2& poly, double x,
                                   double y,
                                   const PackedRunConfig& config) const {
  return run_nd(sc::SeparableProgram(poly), {x, y}, config);
}

std::vector<PackedRunResult> PackedKernel::run_fused(
    std::span<const sc::SeparableProgram> programs,
    const std::vector<double>& point, const PackedRunConfig& config) const {
  PackedCell cell(*this, programs, point, config.op, config.source_kind);
  std::vector<PackedRunResult> results(programs.size());
  cell.run(config.stimulus_seed, config.noise_seed, results.data());
  return results;
}

PackedRunResult PackedKernel::run_nd(const sc::SeparableProgram& program,
                                     const std::vector<double>& point,
                                     const PackedRunConfig& config) const {
  PackedCell cell(*this, program, point, config.op, config.source_kind);
  PackedRunResult result;
  cell.run(config.stimulus_seed, config.noise_seed, &result);
  return result;
}

PackedCell::Lease::Lease()
    : scratch([]() -> Scratch& {
        thread_local Scratch state;
        return state;
      }()) {
  if (scratch.leased) {
    throw std::logic_error(
        "PackedCell: this thread already holds a packed evaluation");
  }
  scratch.leased = true;
}

PackedCell::Lease::~Lease() {
  // Buffers past kScratchKeepBytes (long materialized streams) go back to
  // the heap; the rest serve the thread's next evaluation.
  if (scratch.bytes() > kScratchKeepBytes) scratch = Scratch{};
  scratch.leased = false;
}

PackedCell::PackedCell(const PackedKernel& kernel,
                       const sc::SeparableProgram& program,
                       std::span<const double> point,
                       const oscs::OperatingPoint& op,
                       sc::SourceKind source_kind)
    : kernel_(kernel) {
  check_point(program, point);
  if (is_dense(program)) {
    prepare_dense({&program, 1}, point, op, source_kind);
  } else {
    prepare_terms(program, point, op, source_kind);
  }
}

PackedCell::PackedCell(const PackedKernel& kernel,
                       std::span<const sc::SeparableProgram> programs,
                       std::span<const double> point,
                       const oscs::OperatingPoint& op,
                       sc::SourceKind source_kind)
    : kernel_(kernel) {
  prepare_dense(programs, point, op, source_kind);
}

void PackedCell::prepare_dense(std::span<const sc::SeparableProgram> programs,
                               std::span<const double> point,
                               const oscs::OperatingPoint& op,
                               sc::SourceKind source_kind) {
  if (programs.empty()) {
    throw std::invalid_argument("PackedKernel: no programs to run");
  }
  for (const sc::SeparableProgram& program : programs) {
    if (!is_dense(program)) {
      throw std::invalid_argument(
          "PackedKernel: fused mode takes dense programs");
    }
    check_point(program, point);
    kernel_.check_program(program);
  }
  op.validate();

  // One pass over the x bank, the y bank and K coefficient grids; each
  // program is one set, one factor and one term, and the programs share
  // one flip draw the way fused hardware shares the receiver.
  Scratch& s = lease_.scratch;
  const std::size_t n = kernel_.order();
  const std::size_t m = kernel_.order_y();
  const std::size_t k = programs.size();
  s.begin(kernel_, point, op, source_kind);
  s.program = nullptr;
  s.sets = k;
  s.set_coeffs = Scratch::take(s.coeffs, k);
  for (std::size_t p = 0; p < k; ++p) {
    s.set_coeffs[p] = programs[p].has_dense1()
                          ? programs[p].dense1().coeffs().data()
                          : programs[p].dense2().coeffs().data();
  }
  Scratch::take(s.passes, 1)->sets = k;
  s.pass_axis = nullptr;
  s.job.pass_count = 1;
  s.job.factor_set = nullptr;
  s.job.factor_count = k;
  s.job.term_end = nullptr;
  s.job.term_count = k;
  s.job.flip_count = 1;
  if (s.lanes) {
    s.prepare_lanes(n, m, [](std::size_t) { return std::size_t{0}; });
  } else {
    s.prepare_rows(kernel_, n + m + k * (n + 1) * (m + 1), nullptr);
  }
}

void PackedCell::prepare_terms(const sc::SeparableProgram& program,
                               std::span<const double> point,
                               const oscs::OperatingPoint& op,
                               sc::SourceKind source_kind) {
  kernel_.check_program(program);
  op.validate();

  // One pass per axis that carries factors: every factor on axis a, in
  // term-major order, is one coefficient set over the axis's x bank.
  Scratch& s = lease_.scratch;
  const std::vector<sc::SeparableTerm>& terms = program.terms();
  std::size_t factors = 0;
  for (const sc::SeparableTerm& term : terms) factors += term.factors.size();
  s.begin(kernel_, point, op, source_kind);
  s.program = &program;
  s.sets = factors;
  s.set_coeffs = Scratch::take(s.coeffs, factors);
  simd::LanePass* pass = Scratch::take(s.passes, program.arity());
  std::uint32_t* index =
      Scratch::take(s.index, 2 * factors + terms.size() + program.arity());
  std::uint32_t* set_factor = index;
  std::uint32_t* factor_set = set_factor + factors;
  std::uint32_t* term_end = factor_set + factors;
  std::uint32_t* pass_axis = term_end + terms.size();
  std::size_t passes = 0;
  std::size_t widest = 0;
  std::uint32_t set = 0;
  for (std::size_t a = 0; a < program.arity(); ++a) {
    const std::uint32_t first = set;
    std::uint32_t f = 0;
    for (const sc::SeparableTerm& term : terms) {
      for (const sc::SeparableFactor& factor : term.factors) {
        if (factor.axis == a) {
          s.set_coeffs[set] = factor.poly.coeffs().data();
          set_factor[set] = f;
          factor_set[f] = set;
          ++set;
        }
        ++f;
      }
    }
    if (set == first) continue;
    pass[passes].sets = set - first;
    pass_axis[passes] = static_cast<std::uint32_t>(a);
    widest = std::max<std::size_t>(widest, set - first);
    ++passes;
  }
  std::uint32_t end = 0;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    end += static_cast<std::uint32_t>(terms[t].factors.size());
    term_end[t] = end;
  }
  s.pass_axis = pass_axis;
  s.job.pass_count = passes;
  s.job.factor_set = factor_set;
  s.job.factor_count = factors;
  s.job.term_end = term_end;
  s.job.term_count = terms.size();
  s.job.flip_count = factors;
  const std::size_t n = kernel_.order();
  if (s.lanes) {
    s.prepare_lanes(n, 0, [pass_axis](std::size_t p) { return pass_axis[p]; });
  } else {
    s.prepare_rows(kernel_, n + widest * (n + 1), set_factor);
  }
}

void PackedCell::run(std::uint64_t stimulus_seed, std::uint64_t noise_seed,
                     PackedRunResult* results) {
  Scratch& s = lease_.scratch;
  if (!s.lanes) {
    run_materialized(stimulus_seed, noise_seed, results);
    return;
  }
  // Each walk starts where fill_fused_stimulus(kPerSet) starts the same
  // stream for the pass's seed (sc::detail::v2_walk_start), so the lane
  // loop decides exactly the materialized v2 rows.
  simd::SelectCompareJob& job = s.job;
  simd::LaneWalk* bank = s.walks.data();
  simd::LaneWalk* set = bank + job.pass_count * s.banks;
  sc::ScInputConfig stimulus = s.stimulus;
  for (std::size_t p = 0; p < job.pass_count; ++p) {
    stimulus.seed = s.program != nullptr
                        ? derive_factor_seed(stimulus_seed, s.pass_axis[p])
                        : stimulus_seed;
    const std::size_t walks = s.banks + job.passes[p].sets;
    for (std::size_t i = 0; i < walks; ++i) {
      const sc::detail::LfsrStart start =
          sc::detail::v2_walk_start(*s.cycle, stimulus, s.banks, i);
      simd::LaneWalk& walk = i < s.banks ? *bank++ : *set++;
      walk = {start.index, static_cast<std::uint16_t>(start.scramble)};
    }
  }
  s.start_flips(noise_seed);
  simd::kernel_ops().select_compare(job);
  fold(results);
}

void PackedCell::run_materialized(std::uint64_t stimulus_seed,
                                  std::uint64_t noise_seed,
                                  PackedRunResult* results) {
  Scratch& s = lease_.scratch;
  const std::size_t n = kernel_.order();
  const std::size_t m = kernel_.order_y();
  simd::SelectCompareJob& job = s.job;
  sc::ScInputConfig stimulus = s.stimulus;
  if (s.program == nullptr) {
    stimulus.seed = stimulus_seed;
    const double y = s.point.size() > 1 ? s.point[1] : 0.0;
    sc::fill_fused_stimulus(s.point[0], y, {s.set_coeffs, s.sets}, n, m,
                            s.length, stimulus, s.layout, s.stimulus_rows);
    kernel_.evaluate_core(s.stimulus_rows, s.stimulus_rows + n,
                          s.stimulus_rows + n + m, s.sets, s.nwords,
                          s.optical, s.electronic, s.core);
  } else {
    // One stimulus pass per axis, seeded by the axis index. A term's
    // factors sit on strictly increasing axes, so they still come from
    // distinct passes with decorrelated seeds; the shared bank only
    // correlates terms, which fold arithmetically.
    std::size_t first = 0;
    for (std::size_t p = 0; p < job.pass_count; ++p) {
      const std::size_t a = s.pass_axis[p];
      const std::size_t sets = s.passes[p].sets;
      stimulus.seed = derive_factor_seed(stimulus_seed, a);
      sc::fill_fused_stimulus(s.point[a], 0.0, {s.set_coeffs + first, sets},
                              n, 0, s.length, stimulus, s.layout,
                              s.stimulus_rows);
      kernel_.evaluate_core(s.stimulus_rows, nullptr, s.stimulus_rows + n,
                            sets, s.nwords, s.set_optical + first,
                            s.set_electronic + first, s.core);
      first += sets;
    }
  }
  // Eq. 9 receiver noise toggled into the optical rows: one draw shared by
  // a dense cell's programs, else one per factor.
  s.start_flips(noise_seed);
  for (std::size_t f = 0; f < job.flip_count; ++f) {
    if (job.flip_count == 1) {
      toggle_flips(job.flips[f], s.optical, job.factor_count);
    } else {
      toggle_flips(job.flips[f], s.optical + f, 1);
    }
  }
  // Term product: AND of the term's independent factor rows, whose
  // pointers sit together because factors are numbered term-major.
  const simd::KernelOps& ops = simd::kernel_ops();
  std::size_t f = 0;
  for (std::size_t t = 0; t < job.term_count; ++t) {
    const std::size_t end = job.term_end != nullptr ? job.term_end[t] : t + 1;
    job.counts[t] =
        ops.count_product(s.optical + f, s.electronic + f, end - f, s.length);
    f = end;
  }
  fold(results);
}

void PackedCell::fold(PackedRunResult* results) const {
  const Scratch& s = lease_.scratch;
  const simd::SelectCompareJob& job = s.job;
  const std::size_t length = s.length;
  if (s.program == nullptr) {
    for (std::size_t p = 0; p < job.term_count; ++p) {
      PackedRunResult& r = results[p];
      r.length = length;
      r.noise_flips = job.flips[0].count;
      r.optical_estimate = density(job.counts[p].optical, length);
      r.electronic_estimate = density(job.counts[p].electronic, length);
      r.transmission_flips = job.counts[p].differ;
    }
    return;
  }
  // Weighted term estimates fold arithmetically, in term order; an omitted
  // axis contributes the constant 1 (the AND identity).
  PackedRunResult& r = results[0];
  r = PackedRunResult{};
  r.length = length;
  for (std::size_t f = 0; f < job.flip_count; ++f) {
    r.noise_flips += job.flips[f].count;
  }
  const std::vector<sc::SeparableTerm>& terms = s.program->terms();
  double optical_sum = 0.0;
  double electronic_sum = 0.0;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    optical_sum += terms[t].weight * density(job.counts[t].optical, length);
    electronic_sum +=
        terms[t].weight * density(job.counts[t].electronic, length);
    r.transmission_flips += job.counts[t].differ;
  }
  r.optical_estimate = optical_sum;
  r.electronic_estimate = electronic_sum;
}

}  // namespace oscs::engine
