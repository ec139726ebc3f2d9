#include "engine/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "engine/simd_kernel.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::engine {

namespace sc = oscs::stochastic;

namespace {

/// Most words per packed-evaluation block. The plane-major scratch buffers
/// stay small enough to live in L1/L2 (a full select set at kMaxOrder is
/// at most 13 * 256 * 8 B = 26 KiB) while giving the SIMD primitives
/// contiguous runs long enough to amortize dispatch.
constexpr std::size_t kBlockWords = 256;

std::vector<const std::uint64_t*> word_pointers(
    const std::vector<sc::Bitstream>& streams) {
  std::vector<const std::uint64_t*> ptrs;
  ptrs.reserve(streams.size());
  for (const sc::Bitstream& s : streams) ptrs.push_back(s.words_data());
  return ptrs;
}

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

/// One Eq. 9 receiver flip mask over a decision stream: positions sampled
/// at the operating point's BER and packed into stream words. Positions
/// are distinct, so XOR == per-bit toggle, and padding bits stay zero
/// because every position is below the stream length.
struct FlipMask {
  std::vector<std::uint64_t> words;  ///< empty when nothing flips
  std::size_t flips = 0;

  void apply(sc::Bitstream& decisions) const {
    if (words.empty()) return;
    simd::kernel_ops().xor_inplace(decisions.words_data(), words.data(),
                                   words.size());
  }
};

FlipMask sample_flip_mask(const oscs::OperatingPoint& op,
                          std::uint64_t noise_seed) {
  FlipMask mask;
  if (!op.noisy()) return mask;
  oscs::Xoshiro256 rng(noise_seed);
  const std::vector<std::size_t> positions =
      sample_flip_positions(op.stream_length, op.ber, rng);
  mask.flips = positions.size();
  if (positions.empty()) return mask;
  mask.words.assign((op.stream_length + 63) / 64, 0);
  for (std::size_t pos : positions) {
    mask.words[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
  return mask;
}

/// Decorrelated seed stream for run_nd's axis passes (stimulus, indexed by
/// axis) and factor flip masks (noise, indexed by factor), mirroring the
/// engine's task-seed derivation: factors ANDed in one term must be
/// mutually independent for the AND to multiply probabilities, so each
/// index expands its own SplitMix64 state instead of taking consecutive
/// source salts.
std::uint64_t derive_factor_seed(std::uint64_t master, std::size_t index) {
  oscs::SplitMix64 sm(master ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return sm.next();
}

/// Ones count over the first `length` bits of a packed word buffer.
std::size_t count_ones_packed(const std::vector<std::uint64_t>& words,
                              std::size_t length) {
  std::size_t ones = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t w = words[i];
    if (i + 1 == words.size() && (length % 64) != 0) {
      w &= (std::uint64_t{1} << (length % 64)) - 1;
    }
    ones += static_cast<std::size_t>(std::popcount(w));
  }
  return ones;
}

}  // namespace

std::vector<std::size_t> sample_flip_positions(std::size_t length,
                                               double flip_p,
                                               oscs::Xoshiro256& rng) {
  std::vector<std::size_t> positions;
  if (flip_p <= 0.0 || length == 0) return positions;
  // Geometric gap sampling: the index of the next flipped bit advances by
  // 1 + Geometric(p), so the cost scales with the number of flips (~p * N)
  // rather than the stream length.
  const double log_keep = std::log1p(-flip_p);
  std::size_t pos = 0;
  for (;;) {
    const double u = rng.uniform01();
    const double gap = std::floor(std::log1p(-u) / log_keep);
    if (gap >= static_cast<double>(length - pos)) break;
    pos += static_cast<std::size_t>(gap);
    positions.push_back(pos);
    ++pos;
    if (pos >= length) break;
  }
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
  return std::move(
      evaluate_core(inputs.x_streams, {}, {&inputs.z_streams, 1}).front());
}

PackedKernel::Streams PackedKernel::evaluate2(
    const sc::ScInputs2& inputs) const {
  return std::move(evaluate_core(inputs.x_streams, inputs.y_streams,
                                 {&inputs.z_streams, 1})
                       .front());
}

std::vector<PackedKernel::Streams> PackedKernel::evaluate_core(
    const std::vector<sc::Bitstream>& x_streams,
    const std::vector<sc::Bitstream>& y_streams,
    std::span<const std::vector<sc::Bitstream>> z_sets) const {
  const std::size_t n = order_;
  const std::size_t m = order_y_;
  const std::size_t programs = z_sets.size();
  if (x_streams.size() != n || y_streams.size() != m || programs == 0) {
    throw std::invalid_argument("PackedKernel: stimulus shape mismatch");
  }
  // Shape before length: with both banks empty the stream length comes
  // from the first coefficient stream, so its presence must be validated
  // before it is dereferenced.
  for (const std::vector<sc::Bitstream>& zs : z_sets) {
    if (zs.size() != (n + 1) * (m + 1)) {
      throw std::invalid_argument("PackedKernel: stimulus shape mismatch");
    }
  }
  const std::size_t length =
      !x_streams.empty()   ? x_streams.front().size()
      : !y_streams.empty() ? y_streams.front().size()
                           : z_sets.front().front().size();
  const auto check_ragged = [length](const std::vector<sc::Bitstream>& bank,
                                     const char* name) {
    for (const sc::Bitstream& s : bank) {
      if (s.size() != length) {
        throw std::invalid_argument(std::string("PackedKernel: ragged ") +
                                    name + " streams");
      }
    }
  };
  check_ragged(x_streams, "x");
  check_ragged(y_streams, "y");
  for (const std::vector<sc::Bitstream>& zs : z_sets) check_ragged(zs, "z");

  const std::size_t nwords = (length + 63) / 64;
  std::vector<std::vector<std::uint64_t>> optical(
      programs, std::vector<std::uint64_t>(nwords, 0));
  std::vector<std::vector<std::uint64_t>> electronic(
      programs, std::vector<std::uint64_t>(nwords, 0));

  const simd::KernelOps& ops = simd::kernel_ops();
  const std::vector<const std::uint64_t*> xw = word_pointers(x_streams);
  const std::vector<const std::uint64_t*> yw = word_pointers(y_streams);
  std::vector<std::vector<const std::uint64_t*>> zw(programs);
  for (std::size_t prog = 0; prog < programs; ++prog) {
    zw[prog] = word_pointers(z_sets[prog]);
  }

  // Plane-major block scratch: entry (j, i) at j*stride + i. Sized to this
  // kernel's banks and to the stream (a block never exceeds the stream's
  // words), so short streams and low orders touch little memory; the
  // planes buffer is reused per bank, and the y bank's select masks exist
  // only when the kernel has a y bank.
  const std::size_t stride = std::min(kBlockWords, nwords);
  std::vector<std::uint64_t> planes(
      static_cast<std::size_t>(std::bit_width(std::max(n, m))) * stride);
  std::vector<std::uint64_t> sel_x((n + 1) * stride);
  std::vector<std::uint64_t> sel_y(m > 0 ? (m + 1) * stride : 0);

  for (std::size_t w0 = 0; w0 < nwords; w0 += stride) {
    const std::size_t count = std::min(stride, nwords - w0);

    // 1-2. Per bank: a carry-save adder over the shared data words leaves
    //      bit j of the per-lane ones count in plane (j, i) for word w0+i;
    //      bitwise equality k(t) == k then gives the select masks.
    //      Computed once per block and reused by every fused program.
    const auto select = [&](const std::vector<const std::uint64_t*>& words,
                            std::size_t order, std::uint64_t* sel) {
      const auto plane_count = static_cast<std::size_t>(std::bit_width(order));
      std::fill_n(planes.begin(), plane_count * stride, 0);
      ops.accumulate_planes(words.data(), order, w0, count, planes.data(),
                            plane_count, stride);
      ops.select_masks(planes.data(), plane_count, count, order + 1, sel,
                       stride);
    };
    select(xw, n, sel_x.data());
    if (m > 0) select(yw, m, sel_y.data());

    // 3. Per program: ideal MUX words (with a y bank the (i, j) select is
    //    the AND of the row and column masks), then the optical decision
    //    words.
    for (std::size_t prog = 0; prog < programs; ++prog) {
      std::uint64_t* mux = electronic[prog].data() + w0;
      if (m == 0) {
        ops.mux_or_reduce(sel_x.data(), n + 1, stride, count,
                          zw[prog].data(), w0, mux);
      } else {
        ops.mux2_or_reduce(sel_x.data(), n + 1, sel_y.data(), m + 1, stride,
                           count, zw[prog].data(), w0, mux);
      }
      if (mux_exact_) {
        std::copy_n(mux, count, optical[prog].data() + w0);
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
            const std::uint64_t zj = zw[prog][j][w];
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

  std::vector<Streams> out;
  out.reserve(programs);
  for (std::size_t prog = 0; prog < programs; ++prog) {
    out.push_back(
        {sc::Bitstream::from_words(std::move(optical[prog]), length),
         sc::Bitstream::from_words(std::move(electronic[prog]), length)});
  }
  return out;
}

std::vector<PackedKernel::Streams> PackedKernel::evaluate_at(
    double x, double y, const std::vector<std::vector<double>>& coeffs,
    std::uint64_t stimulus_seed, const PackedRunConfig& config) const {
  // The one fused stimulus builder: without a y bank it draws the same
  // salts (x bank, empty y bank, coefficients) as the one-input builder.
  const sc::FusedScInputs2 inputs = sc::make_fused_sc_inputs2(
      x, y, coeffs, order_, order_y_, config.op.stream_length,
      {config.source_kind, config.op.sng_width, stimulus_seed});
  return evaluate_core(inputs.x_streams, inputs.y_streams, inputs.z_streams);
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
  if (programs.empty()) {
    throw std::invalid_argument("PackedKernel: no programs to run");
  }
  std::vector<std::vector<double>> coeffs;
  coeffs.reserve(programs.size());
  for (const sc::SeparableProgram& program : programs) {
    if (!program.has_dense1() && !program.has_dense2()) {
      throw std::invalid_argument(
          "PackedKernel: fused mode takes dense programs");
    }
    check_point(program, point);
    check_program(program);
    coeffs.push_back(program.has_dense1() ? program.dense1().coeffs()
                                          : program.dense2().coeffs());
  }
  config.op.validate();

  std::vector<Streams> streams =
      evaluate_at(point[0], point.size() > 1 ? point[1] : 0.0, coeffs,
                  config.stimulus_seed, config);
  // One flip-mask pass: positions are sampled once at the operating
  // point's BER and applied to every program's decision stream. Marginal
  // per-program statistics are unchanged; programs share the flip pattern
  // the way fused hardware would share the receiver.
  const FlipMask mask = sample_flip_mask(config.op, config.noise_seed);
  std::vector<PackedRunResult> results(streams.size());
  for (std::size_t prog = 0; prog < streams.size(); ++prog) {
    Streams& s = streams[prog];
    mask.apply(s.optical);
    PackedRunResult& r = results[prog];
    r.length = config.op.stream_length;
    r.noise_flips = mask.flips;
    r.optical_estimate = s.optical.probability();
    r.electronic_estimate = s.electronic.probability();
    r.transmission_flips = (s.optical ^ s.electronic).count_ones();
  }
  return results;
}

PackedRunResult PackedKernel::run_nd(const sc::SeparableProgram& program,
                                     const std::vector<double>& point,
                                     const PackedRunConfig& config) const {
  check_point(program, point);
  if (program.has_dense1() || program.has_dense2()) {
    return run_fused({&program, 1}, point, config).front();
  }
  check_program(program);
  config.op.validate();

  const std::size_t length = config.op.stream_length;
  const std::size_t nwords = (length + 63) / 64;

  // One stimulus pass per axis: every factor on axis a (term-major order)
  // is one coefficient set over the axis's shared x bank, seeded by the
  // axis index. A term's factors sit on strictly increasing axes, so they
  // still come from distinct passes with decorrelated seeds; the shared
  // bank only correlates terms, which fold arithmetically.
  std::vector<std::vector<std::vector<double>>> axis_coeffs(program.arity());
  for (const sc::SeparableTerm& term : program.terms()) {
    for (const sc::SeparableFactor& factor : term.factors) {
      axis_coeffs[factor.axis].push_back(factor.poly.coeffs());
    }
  }
  std::vector<std::vector<Streams>> axis_streams(program.arity());
  for (std::size_t a = 0; a < program.arity(); ++a) {
    if (axis_coeffs[a].empty()) continue;
    axis_streams[a] =
        evaluate_at(point[a], 0.0, axis_coeffs[a],
                    derive_factor_seed(config.stimulus_seed, a), config);
  }

  PackedRunResult result;
  result.length = length;
  double optical_sum = 0.0;
  double electronic_sum = 0.0;
  std::vector<std::size_t> next_set(program.arity(), 0);
  std::size_t factor_index = 0;
  for (const sc::SeparableTerm& term : program.terms()) {
    // Term product: AND of the term's independent factor streams. An
    // omitted axis contributes the constant 1 (the AND identity), so the
    // product starts all-ones; the tail mask in count_ones_packed keeps
    // padding lanes out of the estimate.
    std::vector<std::uint64_t> optical(nwords, ~std::uint64_t{0});
    std::vector<std::uint64_t> electronic(nwords, ~std::uint64_t{0});
    for (const sc::SeparableFactor& factor : term.factors) {
      Streams& streams = axis_streams[factor.axis][next_set[factor.axis]++];
      // Per-factor receiver noise: each factor stream is its own optical
      // decision stream, so each gets its own Eq. 9 flip mask.
      const FlipMask mask = sample_flip_mask(
          config.op, derive_factor_seed(config.noise_seed, factor_index));
      mask.apply(streams.optical);
      result.noise_flips += mask.flips;
      const std::uint64_t* opt_words = streams.optical.words_data();
      const std::uint64_t* elec_words = streams.electronic.words_data();
      for (std::size_t w = 0; w < nwords; ++w) {
        optical[w] &= opt_words[w];
        electronic[w] &= elec_words[w];
      }
      ++factor_index;
    }
    const double opt_p =
        static_cast<double>(count_ones_packed(optical, length)) /
        static_cast<double>(length);
    const double elec_p =
        static_cast<double>(count_ones_packed(electronic, length)) /
        static_cast<double>(length);
    optical_sum += term.weight * opt_p;
    electronic_sum += term.weight * elec_p;
    for (std::size_t w = 0; w < nwords; ++w) {
      optical[w] ^= electronic[w];
    }
    result.transmission_flips += count_ones_packed(optical, length);
  }
  result.optical_estimate = optical_sum;
  result.electronic_estimate = electronic_sum;
  return result;
}

}  // namespace oscs::engine
