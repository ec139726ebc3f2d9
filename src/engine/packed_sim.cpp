#include "engine/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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
/// evaluation's buffers are released when it ends, so one admissible
/// 2^26-bit order-6 request cannot pin ~120 MiB in a pooled thread.
constexpr std::size_t kArenaKeepBytes = std::size_t{256} << 10;

static_assert(simd::kMaxLaneOrder == PackedKernel::kMaxOrder,
              "the lane loop must take every kernel order");

/// Per-thread buffers of the run paths: word rows (stimulus, decisions,
/// block scratch), row pointer tables, coefficient pointers and the lane
/// loop's walks and bounds. They grow to an evaluation's shape and length
/// and are reused by the next one.
struct Arena {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t*> rows;
  std::vector<const double*> coeffs;
  std::vector<simd::LaneWalk> walks;
  std::vector<std::int16_t> bounds;
};

/// The calling thread's arena for one evaluation. Each buffer is taken
/// once per evaluation (a later take may move it); on the way out, by
/// return or throw, buffers past kArenaKeepBytes are released.
class ArenaLease {
 public:
  ArenaLease() : arena_(thread_arena()) {}
  ~ArenaLease() {
    const std::size_t bytes =
        arena_.words.capacity() * sizeof(std::uint64_t) +
        arena_.rows.capacity() * sizeof(std::uint64_t*) +
        arena_.coeffs.capacity() * sizeof(const double*) +
        arena_.walks.capacity() * sizeof(simd::LaneWalk) +
        arena_.bounds.capacity() * sizeof(std::int16_t);
    if (bytes > kArenaKeepBytes) arena_ = Arena{};
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  std::uint64_t* words(std::size_t n) { return take(arena_.words, n); }
  std::uint64_t** rows(std::size_t n) { return take(arena_.rows, n); }
  const double** coeffs(std::size_t n) { return take(arena_.coeffs, n); }
  simd::LaneWalk* walks(std::size_t n) { return take(arena_.walks, n); }
  std::int16_t* bounds(std::size_t n) { return take(arena_.bounds, n); }

 private:
  static Arena& thread_arena() {
    thread_local Arena arena;
    return arena;
  }
  template <typename T>
  static T* take(std::vector<T>& buffer, std::size_t n) {
    if (buffer.size() < n) buffer.resize(n);
    return buffer.data();
  }

  Arena& arena_;
};

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
                 const std::vector<double>& point) {
  if (point.size() != program.arity()) {
    throw std::invalid_argument(
        "PackedKernel: point arity " + std::to_string(point.size()) +
        " does not match the program arity " +
        std::to_string(program.arity()));
  }
}

/// Geometric gap sampling of independent per-bit flips with probability
/// `flip_p` over `length` bits: on_flip(pos) sees strictly increasing
/// positions. The index of the next flipped bit advances by
/// 1 + Geometric(p), so the cost scales with the number of flips
/// (~p * N) rather than the stream length.
template <typename OnFlip>
void for_each_flip(std::size_t length, double flip_p, oscs::Xoshiro256& rng,
                   OnFlip&& on_flip) {
  if (flip_p <= 0.0 || length == 0) return;
  const double log_keep = std::log1p(-flip_p);
  std::size_t pos = 0;
  for (;;) {
    const double u = rng.uniform01();
    const double gap = std::floor(std::log1p(-u) / log_keep);
    if (gap >= static_cast<double>(length - pos)) break;
    pos += static_cast<std::size_t>(gap);
    on_flip(pos);
    ++pos;
    if (pos >= length) break;
  }
}

/// Eq. 9 receiver noise on decision rows: flip positions sampled at the
/// operating point's BER from `noise_seed`, each toggled in place in
/// every one of `rows` (positions are below the stream length, so
/// padding stays untouched). Returns the number of positions.
std::size_t apply_receiver_flips(const oscs::OperatingPoint& op,
                                 std::uint64_t noise_seed,
                                 std::uint64_t* const* rows,
                                 std::size_t row_count) {
  if (!op.noisy()) return 0;
  oscs::Xoshiro256 rng(noise_seed);
  std::size_t flips = 0;
  for_each_flip(op.stream_length, op.ber, rng, [&](std::size_t pos) {
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    for (std::size_t r = 0; r < row_count; ++r) rows[r][pos / 64] ^= bit;
    ++flips;
  });
  return flips;
}

double density(std::size_t ones, std::size_t length) {
  return static_cast<double>(ones) / static_cast<double>(length);
}

/// True when a stimulus-v2 evaluation runs the lane loop: an LFSR source
/// the cycle table serves. Every other source or width materializes the
/// same v2 rows (fill_fused_stimulus) for the bit-plane core.
bool lane_stimulus(const PackedRunConfig& config) {
  return config.source_kind == sc::SourceKind::kLfsr &&
         config.op.sng_width >= 3 &&
         config.op.sng_width <= sc::detail::kMaxLfsrTableWidth;
}

/// Stimulus v2 through KernelOps::select_compare: the walks start where
/// the streams fill_fused_stimulus(kPerSet) draws for `stimulus` start
/// (sc::detail::v2_walk_start), so the decision rows equal the
/// materialized v2 rows run through the bit-plane core.
void run_select_compare(std::size_t n, std::size_t m, double x, double y,
                        std::span<const double* const> coeff_sets,
                        const sc::ScInputConfig& stimulus, std::size_t length,
                        ArenaLease& arena, std::uint64_t* const* optical,
                        std::uint64_t* const* electronic) {
  const sc::detail::LfsrCycle& cycle = sc::detail::lfsr_cycle(stimulus.width);
  const std::size_t k = coeff_sets.size();
  const std::size_t cells = (n + 1) * (m + 1);
  simd::LaneWalk* walks = arena.walks(n + m + k);
  std::int16_t* bounds = arena.bounds(k * cells);
  for (std::size_t i = 0; i < n + m + k; ++i) {
    const sc::detail::LfsrStart start =
        sc::detail::v2_walk_start(cycle, stimulus, n + m, i);
    walks[i] = {start.index, static_cast<std::uint16_t>(start.scramble)};
  }
  const auto bound = [width = stimulus.width](double p) {
    return sc::detail::inclusive_bound(sc::comparator_threshold(p, width),
                                       width);
  };
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t c = 0; c < cells; ++c) {
      bounds[s * cells + c] = bound(coeff_sets[s][c]);
    }
  }
  simd::SelectCompareJob job;
  job.clock_row = cycle.row(sc::detail::LfsrWalk::kClock);
  job.leap_row = cycle.row(sc::detail::LfsrWalk::kLeap);
  job.period = cycle.period();
  job.x = walks;
  job.order_x = n;
  job.x_bound = bound(x);
  job.y = walks + n;
  job.order_y = m;
  job.y_bound = bound(y);
  job.sets = walks + n + m;
  job.set_count = k;
  job.bounds = bounds;
  job.length = length;
  job.electronic = electronic;
  job.optical = optical;
  simd::kernel_ops().select_compare(job);
}

}  // namespace

std::uint64_t derive_factor_seed(std::uint64_t master, std::size_t index) {
  oscs::SplitMix64 sm(master ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return sm.next();
}

std::vector<std::size_t> sample_flip_positions(std::size_t length,
                                               double flip_p,
                                               oscs::Xoshiro256& rng) {
  std::vector<std::size_t> positions;
  for_each_flip(length, flip_p, rng,
                [&positions](std::size_t pos) { positions.push_back(pos); });
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

void PackedKernel::run_dense(std::span<const sc::SeparableProgram> programs,
                             const std::vector<double>& point,
                             const PackedRunConfig& config,
                             PackedRunResult* results) const {
  for (const sc::SeparableProgram& program : programs) {
    if (!program.has_dense1() && !program.has_dense2()) {
      throw std::invalid_argument(
          "PackedKernel: fused mode takes dense programs");
    }
    check_point(program, point);
    check_program(program);
  }
  config.op.validate();

  const std::size_t n = order_;
  const std::size_t m = order_y_;
  const std::size_t k = programs.size();
  const std::size_t length = config.op.stream_length;
  const std::size_t nwords = (length + 63) / 64;
  const bool lanes = mux_exact_ && lane_stimulus(config);
  // Rows: unless the lane loop runs, the x bank, the y bank and K
  // coefficient grids (stimulus, in salt order); then K optical and K
  // electronic decision rows.
  const std::size_t stimulus_rows = lanes ? 0 : n + m + k * (n + 1) * (m + 1);
  const std::size_t row_count = stimulus_rows + 2 * k;
  ArenaLease arena;
  std::uint64_t* words = arena.words(
      row_count * nwords + (lanes ? 0 : core_scratch_words(nwords)));
  std::uint64_t** rows = arena.rows(row_count);
  for (std::size_t r = 0; r < row_count; ++r) rows[r] = words + r * nwords;
  const double** coeff_sets = arena.coeffs(k);
  for (std::size_t p = 0; p < k; ++p) {
    coeff_sets[p] = programs[p].has_dense1()
                        ? programs[p].dense1().coeffs().data()
                        : programs[p].dense2().coeffs().data();
  }
  const double x = point[0];
  const double y = point.size() > 1 ? point[1] : 0.0;
  const sc::ScInputConfig stimulus{config.source_kind, config.op.sng_width,
                                   config.stimulus_seed};
  std::uint64_t* const* optical = rows + stimulus_rows;
  std::uint64_t* const* electronic = optical + k;
  if (lanes) {
    run_select_compare(n, m, x, y, {coeff_sets, k}, stimulus, length, arena,
                       optical, electronic);
  } else {
    sc::fill_fused_stimulus(x, y, {coeff_sets, k}, n, m, length, stimulus,
                            stimulus_layout(), rows);
    evaluate_core(rows, rows + n, rows + n + m, k, nwords, optical,
                  electronic, words + row_count * nwords);
  }

  // One flip pass: positions are sampled once at the operating point's BER
  // and toggled in every program's decision row. Marginal per-program
  // statistics are unchanged; programs share the flip pattern the way
  // fused hardware would share the receiver.
  const std::size_t flips =
      apply_receiver_flips(config.op, config.noise_seed, optical, k);
  const simd::KernelOps& ops = simd::kernel_ops();
  for (std::size_t p = 0; p < k; ++p) {
    const simd::ProductCounts counts =
        ops.count_product(optical + p, electronic + p, 1, length);
    PackedRunResult& r = results[p];
    r.length = length;
    r.noise_flips = flips;
    r.optical_estimate = density(counts.optical, length);
    r.electronic_estimate = density(counts.electronic, length);
    r.transmission_flips = counts.differ;
  }
}

std::vector<PackedRunResult> PackedKernel::run_fused(
    std::span<const sc::SeparableProgram> programs,
    const std::vector<double>& point, const PackedRunConfig& config) const {
  if (programs.empty()) {
    throw std::invalid_argument("PackedKernel: no programs to run");
  }
  std::vector<PackedRunResult> results(programs.size());
  run_dense(programs, point, config, results.data());
  return results;
}

PackedRunResult PackedKernel::run_nd(const sc::SeparableProgram& program,
                                     const std::vector<double>& point,
                                     const PackedRunConfig& config) const {
  check_point(program, point);
  PackedRunResult result;
  if (program.has_dense1() || program.has_dense2()) {
    run_dense({&program, 1}, point, config, &result);
    return result;
  }
  check_program(program);
  config.op.validate();

  const std::size_t n = order_;
  const std::size_t length = config.op.stream_length;
  const std::size_t nwords = (length + 63) / 64;
  const std::vector<sc::SeparableTerm>& terms = program.terms();
  // Factors are numbered term-major; the widest axis pass sizes the
  // stimulus rows every pass reuses.
  std::size_t factors = 0;
  for (const sc::SeparableTerm& term : terms) factors += term.factors.size();
  std::size_t widest = 0;
  for (std::size_t a = 0; a < program.arity(); ++a) {
    std::size_t on_axis = 0;
    for (const sc::SeparableTerm& term : terms) {
      for (const sc::SeparableFactor& factor : term.factors) {
        on_axis += factor.axis == a ? 1 : 0;
      }
    }
    widest = std::max(widest, on_axis);
  }

  // Rows: unless the lane loop runs, one axis pass's stimulus (x bank +
  // its coefficient sets); then every factor's optical and electronic
  // decision row, term-major. Pointers: the stimulus rows, the factor
  // rows, and the current axis pass's view of its factors' decision rows.
  const bool lanes = mux_exact_ && lane_stimulus(config);
  const std::size_t stimulus_rows = lanes ? 0 : n + widest * (n + 1);
  const std::size_t row_count = stimulus_rows + 2 * factors;
  ArenaLease arena;
  std::uint64_t* words = arena.words(
      row_count * nwords + (lanes ? 0 : core_scratch_words(nwords)));
  std::uint64_t** rows = arena.rows(row_count + 2 * widest);
  for (std::size_t r = 0; r < row_count; ++r) rows[r] = words + r * nwords;
  std::uint64_t* const* optical = rows + stimulus_rows;
  std::uint64_t* const* electronic = optical + factors;
  std::uint64_t** pass_optical = rows + row_count;
  std::uint64_t** pass_electronic = pass_optical + widest;
  const double** coeff_sets = arena.coeffs(widest);
  std::uint64_t* scratch = words + row_count * nwords;

  // One stimulus pass per axis: every factor on axis a (term-major order)
  // is one coefficient set over the axis's shared x bank, seeded by the
  // axis index. A term's factors sit on strictly increasing axes, so they
  // still come from distinct passes with decorrelated seeds; the shared
  // bank only correlates terms, which fold arithmetically.
  for (std::size_t a = 0; a < program.arity(); ++a) {
    std::size_t sets = 0;
    std::size_t f = 0;
    for (const sc::SeparableTerm& term : terms) {
      for (const sc::SeparableFactor& factor : term.factors) {
        if (factor.axis == a) {
          coeff_sets[sets] = factor.poly.coeffs().data();
          pass_optical[sets] = optical[f];
          pass_electronic[sets] = electronic[f];
          ++sets;
        }
        ++f;
      }
    }
    if (sets == 0) continue;
    const sc::ScInputConfig stimulus{
        config.source_kind, config.op.sng_width,
        derive_factor_seed(config.stimulus_seed, a)};
    if (lanes) {
      run_select_compare(n, 0, point[a], 0.0, {coeff_sets, sets}, stimulus,
                         length, arena, pass_optical, pass_electronic);
      continue;
    }
    sc::fill_fused_stimulus(point[a], 0.0, {coeff_sets, sets}, n, 0, length,
                            stimulus, stimulus_layout(), rows);
    evaluate_core(rows, nullptr, rows + n, sets, nwords, pass_optical,
                  pass_electronic, scratch);
  }

  // Per-factor receiver noise: each factor stream is its own optical
  // decision stream, so each gets its own Eq. 9 flips.
  result.length = length;
  for (std::size_t f = 0; f < factors; ++f) {
    result.noise_flips += apply_receiver_flips(
        config.op, derive_factor_seed(config.noise_seed, f), optical + f, 1);
  }

  // Term product: AND of the term's independent factor rows, whose
  // pointers sit together because factors are numbered term-major. An
  // omitted axis contributes the constant 1 (the AND identity).
  const simd::KernelOps& ops = simd::kernel_ops();
  double optical_sum = 0.0;
  double electronic_sum = 0.0;
  std::size_t f = 0;
  for (const sc::SeparableTerm& term : terms) {
    const simd::ProductCounts counts = ops.count_product(
        optical + f, electronic + f, term.factors.size(), length);
    optical_sum += term.weight * density(counts.optical, length);
    electronic_sum += term.weight * density(counts.electronic, length);
    result.transmission_flips += counts.differ;
    f += term.factors.size();
  }
  result.optical_estimate = optical_sum;
  result.electronic_estimate = electronic_sum;
  return result;
}

}  // namespace oscs::engine
