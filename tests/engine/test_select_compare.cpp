/// \file test_select_compare.cpp
/// \brief Stimulus contract v2's fused lane loop against its materialized
///        reference, under every SIMD backend the build carries.
///
///   * Rows: KernelOps::select_compare, given the cycle-table walks of the
///     salts fill_fused_stimulus draws, writes exactly the rows the
///     bit-plane core makes from the materialized v2 stimulus
///     (make_fused_sc_inputs2 with StimulusLayout::kPerSet).
///   * Counts: run_fused / run_nd (which take the lane loop for LFSR
///     sources) return exactly the counts of those
///     reference rows after the same receiver flips, sampled up front by
///     the geometric gap rule; so do the lane primitive's own counts.
///   * Count sink: flips at bit 0, at the last bit and several within
///     one word, streams of several 64-word blocks, and empty terms; the
///     lazy flip draw against up-front sampling, and at the design BER.
///   * Routing: other source kinds materialize v2 rows, and a
///     physics-LUT kernel keeps the v1 layout with its parent results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/packed_sim.hpp"
#include "engine/simd_kernel.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/separable.hpp"
#include "stochastic/sng.hpp"
#include "stochastic/sng_fill.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

class ScopedBackend {
 public:
  explicit ScopedBackend(oscs::SimdBackend backend) {
    oscs::set_simd_backend(backend);
  }
  ~ScopedBackend() { oscs::reset_simd_backend(); }
};

std::vector<oscs::SimdBackend> available_backends() {
  std::vector<oscs::SimdBackend> backends = {oscs::SimdBackend::kScalar};
  if (oscs::simd_avx2_compiled() && oscs::simd_avx2_runtime()) {
    backends.push_back(oscs::SimdBackend::kAvx2);
  }
  return backends;
}

constexpr std::size_t kLengths[] = {1, 63, 64, 65, 4095, 4096};
constexpr unsigned kWidths[] = {3, 8, 12, 16};
constexpr std::size_t kSetCounts[] = {1, 4, 8, 40};
constexpr double kBers[] = {0.0, 1e-2, 0.5};

/// Dense grid shapes: 1D orders 0-12, then the 2D grids.
std::vector<KernelShape> dense_shapes() {
  std::vector<KernelShape> shapes;
  for (std::size_t n = 0; n <= PackedKernel::kMaxOrder; ++n) {
    shapes.push_back({n, 0});
  }
  for (KernelShape s : {KernelShape{1, 1}, KernelShape{3, 3},
                        KernelShape{5, 5}, KernelShape{4, 12}}) {
    shapes.push_back(s);
  }
  return shapes;
}

/// Probability that quantizes to threshold class `cls` at `width`:
/// 0, 1, mask and 2^w, then pseudo-random values.
double threshold_probability(std::size_t cls, unsigned width,
                             oscs::SplitMix64& rng) {
  const double scale = static_cast<double>(std::uint64_t{1} << width);
  switch (cls % 5) {
    case 0: return 0.0;
    case 1: return 1.0 / scale;
    case 2: return (scale - 1.0) / scale;
    case 3: return 1.0;
    default:
      return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  }
}

/// K coefficient sets of `cells` entries that cover every threshold class.
std::vector<std::vector<double>> coefficient_sets(std::size_t sets,
                                                  std::size_t cells,
                                                  unsigned width,
                                                  std::uint64_t salt) {
  oscs::SplitMix64 rng(salt);
  std::vector<std::vector<double>> out(sets, std::vector<double>(cells));
  for (std::size_t s = 0; s < sets; ++s) {
    for (std::size_t c = 0; c < cells; ++c) {
      out[s][c] = threshold_probability(s + 3 * c + salt, width, rng);
    }
  }
  return out;
}

/// The reference: materialized v2 stimulus through the bit-plane core,
/// one program at a time.
std::vector<PackedKernel::Streams> reference_rows(
    const PackedKernel& kernel, double x, double y,
    const std::vector<std::vector<double>>& coeffs, std::size_t length,
    const sc::ScInputConfig& stimulus) {
  const sc::FusedScInputs2 fused = sc::make_fused_sc_inputs2(
      x, y, coeffs, kernel.order(), kernel.order_y(), length, stimulus,
      sc::StimulusLayout::kPerSet);
  std::vector<PackedKernel::Streams> rows;
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    rows.push_back(kernel.evaluate2(fused.program(k)));
  }
  return rows;
}

/// What KernelOps::select_compare returns for one dense job: the rows it
/// was asked to write and its per-set counts and flips.
struct LaneOut {
  std::vector<PackedKernel::Streams> rows;
  std::vector<simd::ProductCounts> counts;
  std::size_t flips = 0;
};

/// The same evaluation through KernelOps::select_compare, its walks set up
/// by the helper the engine uses, one flip draw from `noise_seed` at
/// `ber` shared by every set, and rows requested.
LaneOut lane_eval(std::size_t n, std::size_t m, double x, double y,
                  const std::vector<std::vector<double>>& coeffs,
                  std::size_t length, const sc::ScInputConfig& stimulus,
                  double ber, std::uint64_t noise_seed) {
  const sc::detail::LfsrCycle& cycle = sc::detail::lfsr_cycle(stimulus.width);
  const std::size_t k = coeffs.size();
  std::vector<simd::LaneWalk> walks;
  for (std::size_t i = 0; i < n + m + k; ++i) {
    const sc::detail::LfsrStart start =
        sc::detail::v2_walk_start(cycle, stimulus, n + m, i);
    walks.push_back({start.index, static_cast<std::uint16_t>(start.scramble)});
  }
  const auto bound = [&](double p) {
    return sc::detail::inclusive_bound(
        sc::comparator_threshold(p, stimulus.width), stimulus.width);
  };
  const std::size_t cells = (n + 1) * (m + 1);
  const std::size_t stride = simd::lane_bound_stride(cells);
  std::vector<std::int16_t> bounds(k * stride, 0);
  for (std::size_t s = 0; s < k; ++s) {
    for (std::size_t c = 0; c < cells; ++c) {
      bounds[s * stride + c] = bound(coeffs[s][c]);
    }
  }
  const std::size_t nwords = (length + 63) / 64;
  // Rows start dirty so the loop must write every word.
  std::vector<std::vector<std::uint64_t>> words(
      2 * k, std::vector<std::uint64_t>(nwords, 0xA5A5A5A5A5A5A5A5ULL));
  std::vector<std::uint64_t*> rows;
  for (auto& row : words) rows.push_back(row.data());
  const simd::LanePass pass{walks.data(), bound(x), walks.data() + n,
                            bound(y), k};
  simd::FlipDraw draw;
  draw.rng = oscs::Xoshiro256(noise_seed);
  draw.start(std::log1p(-ber), length);
  LaneOut out;
  out.counts.assign(k, {7, 7, 7});  // overwritten by the loop
  std::vector<std::uint64_t> decisions((k + 1) * simd::kLaneBlockWords);

  simd::SelectCompareJob job;
  job.clock_row = cycle.row(sc::detail::LfsrWalk::kClock);
  job.leap_row = cycle.row(sc::detail::LfsrWalk::kLeap);
  job.period = cycle.period();
  job.order_x = n;
  job.order_y = m;
  job.passes = &pass;
  job.pass_count = 1;
  job.sets = walks.data() + n + m;
  job.bounds = bounds.data();
  job.length = length;
  job.factor_count = k;
  job.term_count = k;
  job.flips = &draw;
  job.flip_count = 1;
  job.counts = out.counts.data();
  job.decisions = decisions.data();
  job.optical = rows.data();
  job.electronic = rows.data() + k;
  simd::kernel_ops().select_compare(job);
  EXPECT_EQ(draw.next, simd::FlipDraw::kNone) << "draw not run to the end";
  out.flips = draw.count;
  // The job's contract leaves padding bits past `length` zero (a
  // Bitstream would mask them, so check the raw words).
  if (length % 64 != 0) {
    for (const std::vector<std::uint64_t>& row : words) {
      EXPECT_EQ(row.back() >> (length % 64), 0u) << "length " << length;
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    out.rows.push_back(
        {sc::Bitstream::from_words(std::move(words[s]), length),
         sc::Bitstream::from_words(std::move(words[k + s]), length)});
  }
  return out;
}

/// Flip positions of the Eq. 9 draw, sampled up front by the geometric
/// gap rule from `rng`: the oracle the lazy simd::FlipDraw must reproduce.
std::vector<std::size_t> reference_flip_positions(std::size_t length,
                                                  double ber,
                                                  oscs::Xoshiro256& rng) {
  std::vector<std::size_t> positions;
  if (ber <= 0.0 || length == 0) return positions;
  const double log_keep = std::log1p(-ber);
  for (std::size_t pos = 0; pos < length; ++pos) {
    const double gap = std::floor(std::log1p(-rng.uniform01()) / log_keep);
    if (gap >= static_cast<double>(length - pos)) break;
    pos += static_cast<std::size_t>(gap);
    positions.push_back(pos);
  }
  return positions;
}

std::vector<std::size_t> reference_flip_positions(std::size_t length,
                                                  double ber,
                                                  std::uint64_t seed) {
  oscs::Xoshiro256 rng(seed);
  return reference_flip_positions(length, ber, rng);
}

/// `stream` with the reference flips of `seed` at `ber` toggled in;
/// `flips` receives their number.
sc::Bitstream with_flips(sc::Bitstream stream, double ber, std::uint64_t seed,
                         std::size_t* flips = nullptr) {
  const std::vector<std::size_t> positions =
      reference_flip_positions(stream.size(), ber, seed);
  for (std::size_t pos : positions) stream.set_bit(pos, !stream.bit(pos));
  if (flips != nullptr) *flips = positions.size();
  return stream;
}

/// Counts of reference decision rows after the run path's flips:
/// positions sampled once from `noise_seed` at `ber`, toggled in the
/// optical row.
PackedRunResult reference_counts(const PackedKernel::Streams& rows,
                                 std::size_t length, double ber,
                                 std::uint64_t noise_seed) {
  PackedRunResult r;
  r.length = length;
  const sc::Bitstream optical =
      with_flips(rows.optical, ber, noise_seed, &r.noise_flips);
  r.optical_estimate = optical.probability();
  r.electronic_estimate = rows.electronic.probability();
  r.transmission_flips = (optical ^ rows.electronic).count_ones();
  return r;
}

void expect_same(const PackedRunResult& got, const PackedRunResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.optical_estimate, want.optical_estimate) << where;
  EXPECT_EQ(got.electronic_estimate, want.electronic_estimate) << where;
  EXPECT_EQ(got.transmission_flips, want.transmission_flips) << where;
  EXPECT_EQ(got.noise_flips, want.noise_flips) << where;
  EXPECT_EQ(got.length, want.length) << where;
}

const optsc::OpticalScCircuit& circuit(std::size_t order) {
  static const std::vector<optsc::OpticalScCircuit> circuits = [] {
    std::vector<optsc::OpticalScCircuit> all;
    for (std::size_t n = 1; n <= PackedKernel::kMaxOrder; ++n) {
      all.emplace_back(optsc::paper_defaults(n));
    }
    return all;
  }();
  return circuits[order == 0 ? 1 : order - 1];
}

/// The kernel a dense shape serves on: the one-input kernel (with its
/// physics LUT, mux-exact at paper defaults) for 1D orders 1-12, the
/// two-bank kernel otherwise.
const PackedKernel& kernel_for(KernelShape shape) {
  static const std::vector<PackedKernel> one_input = [] {
    std::vector<PackedKernel> all;
    for (std::size_t n = 1; n <= PackedKernel::kMaxOrder; ++n) {
      all.emplace_back(circuit(n));
    }
    return all;
  }();
  static std::vector<std::unique_ptr<PackedKernel>> two_bank;
  if (shape.order_y == 0 && shape.order_x > 0) {
    return one_input[shape.order_x - 1];
  }
  for (const auto& k : two_bank) {
    if (k->shape() == shape) return *k;
  }
  two_bank.push_back(std::make_unique<PackedKernel>(
      circuit(shape.order_x), shape.order_x, shape.order_y));
  return *two_bank.back();
}

std::string label(KernelShape shape, std::size_t sets, unsigned width,
                  std::size_t length, oscs::SimdBackend backend) {
  return "shape (" + std::to_string(shape.order_x) + ", " +
         std::to_string(shape.order_y) + ") sets " + std::to_string(sets) +
         " width " + std::to_string(width) + " length " +
         std::to_string(length) + " backend " +
         oscs::simd_backend_name(backend);
}

TEST(SelectCompare, LaneKernelMatchesMaterializedV2) {
  const std::vector<KernelShape> shapes = dense_shapes();
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    std::uint64_t salt = 1;
    for (KernelShape shape : shapes) {
      const PackedKernel& kernel = kernel_for(shape);
      ASSERT_TRUE(kernel.mux_exact());
      ASSERT_EQ(kernel.stimulus_layout(), sc::StimulusLayout::kPerSet);
      const std::size_t cells = (shape.order_x + 1) * (shape.order_y + 1);
      for (std::size_t sets : kSetCounts) {
        for (unsigned width : kWidths) {
          oscs::SplitMix64 point_rng(salt);
          const double x = threshold_probability(salt, width, point_rng);
          const double y = threshold_probability(salt + 2, width, point_rng);
          const auto coeffs = coefficient_sets(sets, cells, width, salt);
          std::vector<sc::SeparableProgram> programs;
          for (const auto& c : coeffs) {
            if (shape.order_y == 0) {
              programs.emplace_back(sc::BernsteinPoly(c));
            } else {
              programs.emplace_back(
                  sc::BernsteinPoly2(shape.order_x, shape.order_y, c));
            }
          }
          const std::vector<double> point =
              shape.order_y == 0 ? std::vector<double>{x}
                                 : std::vector<double>{x, y};
          for (std::size_t length : kLengths) {
            const std::string where =
                label(shape, sets, width, length, backend);
            const sc::ScInputConfig stimulus{sc::SourceKind::kLfsr, width,
                                             salt * 7 + length};
            const auto want = reference_rows(kernel, x, y, coeffs, length,
                                             stimulus);
            for (double ber : kBers) {
              const std::string at = where + " ber " + std::to_string(ber);
              const std::uint64_t noise_seed = salt + 11;
              const LaneOut got =
                  lane_eval(shape.order_x, shape.order_y, x, y, coeffs,
                            length, stimulus, ber, noise_seed);
              PackedRunConfig cfg;
              cfg.op.stream_length = length;
              cfg.op.sng_width = width;
              cfg.op.ber = ber;
              cfg.stimulus_seed = stimulus.seed;
              cfg.noise_seed = noise_seed;
              const std::vector<PackedRunResult> run =
                  kernel.run_fused(programs, point, cfg);
              for (std::size_t s = 0; s < sets; ++s) {
                const std::string set = at + " set " + std::to_string(s);
                // Rows: the decisions, and the optical stream they become
                // once the run path's flips are toggled in.
                const sc::Bitstream flipped =
                    with_flips(want[s].optical, ber, noise_seed);
                ASSERT_EQ(got.rows[s].electronic, want[s].electronic) << set;
                ASSERT_EQ(got.rows[s].optical, flipped) << set;
                const PackedRunResult counts =
                    reference_counts(want[s], length, ber, noise_seed);
                expect_same(run[s], counts, set);
                EXPECT_EQ(got.counts[s].optical,
                          flipped.count_ones()) << set;
                EXPECT_EQ(got.counts[s].electronic,
                          want[s].electronic.count_ones()) << set;
                EXPECT_EQ(got.counts[s].differ, counts.transmission_flips)
                    << set;
                EXPECT_EQ(got.flips, counts.noise_flips) << set;
              }
            }
          }
          ++salt;
        }
      }
    }
  }
}

/// An N-ary program whose axis passes carry `sets_on_axis0` factors on
/// axis 0 (one per term) and one factor on axis 1 in the first term.
sc::SeparableProgram nary_program(std::size_t order,
                                  std::size_t sets_on_axis0, unsigned width,
                                  std::uint64_t salt) {
  const auto coeffs =
      coefficient_sets(sets_on_axis0 + 1, order + 1, width, salt);
  std::vector<sc::SeparableTerm> terms;
  for (std::size_t t = 0; t < sets_on_axis0; ++t) {
    sc::SeparableTerm term;
    term.weight = 0.25 + 0.25 * static_cast<double>(t);
    term.factors.push_back({0, sc::BernsteinPoly(coeffs[t])});
    if (t == 0) {
      term.factors.push_back({1, sc::BernsteinPoly(coeffs.back())});
    }
    terms.push_back(std::move(term));
  }
  return sc::SeparableProgram(2, std::move(terms));
}

/// The reference run_nd estimate from materialized v2 axis passes: one
/// fused stimulus per axis from the decorrelated axis seed, per-factor
/// flips from the decorrelated factor seed, AND per term.
PackedRunResult reference_nd(const PackedKernel& kernel,
                             const sc::SeparableProgram& program,
                             const std::vector<double>& point,
                             const PackedRunConfig& cfg) {
  const std::size_t length = cfg.op.stream_length;
  std::vector<sc::Bitstream> optical;
  std::vector<sc::Bitstream> electronic;
  std::size_t factors = 0;
  for (const sc::SeparableTerm& term : program.terms()) {
    factors += term.factors.size();
  }
  optical.resize(factors);
  electronic.resize(factors);
  for (std::size_t a = 0; a < program.arity(); ++a) {
    std::vector<std::vector<double>> coeffs;
    std::vector<std::size_t> index;
    std::size_t f = 0;
    for (const sc::SeparableTerm& term : program.terms()) {
      for (const sc::SeparableFactor& factor : term.factors) {
        if (factor.axis == a) {
          coeffs.push_back(factor.poly.coeffs());
          index.push_back(f);
        }
        ++f;
      }
    }
    if (coeffs.empty()) continue;
    const sc::ScInputConfig stimulus{cfg.source_kind, cfg.op.sng_width,
                                     derive_factor_seed(cfg.stimulus_seed, a)};
    const auto rows =
        reference_rows(kernel, point[a], 0.0, coeffs, length, stimulus);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      optical[index[s]] = rows[s].optical;
      electronic[index[s]] = rows[s].electronic;
    }
  }
  PackedRunResult r;
  r.length = length;
  for (std::size_t f = 0; f < factors; ++f) {
    std::size_t flips = 0;
    optical[f] = with_flips(optical[f], cfg.op.ber,
                            derive_factor_seed(cfg.noise_seed, f), &flips);
    r.noise_flips += flips;
  }
  std::size_t f = 0;
  // An empty term is the constant 1.
  const sc::Bitstream one(std::vector<bool>(length, true));
  for (const sc::SeparableTerm& term : program.terms()) {
    sc::Bitstream opt = one;
    sc::Bitstream elec = one;
    for (std::size_t j = 0; j < term.factors.size(); ++j) {
      opt = opt & optical[f + j];
      elec = elec & electronic[f + j];
    }
    r.optical_estimate += term.weight * opt.probability();
    r.electronic_estimate += term.weight * elec.probability();
    r.transmission_flips += (opt ^ elec).count_ones();
    f += term.factors.size();
  }
  return r;
}

TEST(SelectCompare, NaryAxisPassesMatchMaterializedV2) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    std::uint64_t salt = 100;
    for (std::size_t order : {1u, 3u, 6u}) {
      const PackedKernel& kernel = kernel_for({order, 0});
      for (std::size_t sets = 1; sets <= 3; ++sets) {
        for (unsigned width : kWidths) {
          const sc::SeparableProgram program =
              nary_program(order, sets, width, salt);
          kernel.check_program(program);
          for (std::size_t length : kLengths) {
            for (double ber : kBers) {
              PackedRunConfig cfg;
              cfg.op.stream_length = length;
              cfg.op.sng_width = width;
              cfg.op.ber = ber;
              cfg.stimulus_seed = salt;
              cfg.noise_seed = salt + 5;
              const std::vector<double> point = {0.3, 0.7};
              const PackedRunResult want =
                  reference_nd(kernel, program, point, cfg);
              // Sums of weighted densities fold in one order on both
              // sides, so the doubles agree exactly.
              expect_same(kernel.run_nd(program, point, cfg), want,
                          "order " + std::to_string(order) + " sets " +
                              std::to_string(sets) + " width " +
                              std::to_string(width) + " length " +
                              std::to_string(length) + " ber " +
                              std::to_string(ber) + " backend " +
                              oscs::simd_backend_name(backend));
            }
          }
          ++salt;
        }
      }
    }
  }
}

/// Lengths that end inside, on and past the lane loop's 64-word blocks.
constexpr std::size_t kBlockLengths[] = {4097, 8191, 8192, 8193, 12293};

/// Dense programs of a kernel shape over coefficient sets.
std::vector<sc::SeparableProgram> dense_programs(
    KernelShape shape, const std::vector<std::vector<double>>& coeffs) {
  std::vector<sc::SeparableProgram> programs;
  for (const auto& c : coeffs) {
    if (shape.order_y == 0) {
      programs.emplace_back(sc::BernsteinPoly(c));
    } else {
      programs.emplace_back(
          sc::BernsteinPoly2(shape.order_x, shape.order_y, c));
    }
  }
  return programs;
}

/// run_fused and the lane primitive (with rows) against the materialized
/// reference for one dense shape, stream and flip seed.
void expect_dense_matches(KernelShape shape, std::size_t sets,
                          std::size_t length, double ber,
                          std::uint64_t noise_seed, std::uint64_t salt,
                          const std::string& where) {
  const PackedKernel& kernel = kernel_for(shape);
  const std::size_t cells = (shape.order_x + 1) * (shape.order_y + 1);
  const auto coeffs = coefficient_sets(sets, cells, 16, salt);
  const double x = 0.37;
  const double y = 0.71;
  const sc::ScInputConfig stimulus{sc::SourceKind::kLfsr, 16, salt + 3};
  const auto want = reference_rows(kernel, x, y, coeffs, length, stimulus);
  const LaneOut got = lane_eval(shape.order_x, shape.order_y, x, y, coeffs,
                                length, stimulus, ber, noise_seed);
  PackedRunConfig cfg;
  cfg.op.stream_length = length;
  cfg.op.sng_width = 16;
  cfg.op.ber = ber;
  cfg.stimulus_seed = stimulus.seed;
  cfg.noise_seed = noise_seed;
  const std::vector<double> point =
      shape.order_y == 0 ? std::vector<double>{x} : std::vector<double>{x, y};
  const std::vector<PackedRunResult> run =
      kernel.run_fused(dense_programs(shape, coeffs), point, cfg);
  for (std::size_t s = 0; s < sets; ++s) {
    const std::string set = where + " set " + std::to_string(s);
    const sc::Bitstream flipped = with_flips(want[s].optical, ber, noise_seed);
    ASSERT_EQ(got.rows[s].electronic, want[s].electronic) << set;
    ASSERT_EQ(got.rows[s].optical, flipped) << set;
    const PackedRunResult counts =
        reference_counts(want[s], length, ber, noise_seed);
    expect_same(run[s], counts, set);
    EXPECT_EQ(got.counts[s].optical, flipped.count_ones()) << set;
    EXPECT_EQ(got.counts[s].electronic, want[s].electronic.count_ones())
        << set;
    EXPECT_EQ(got.counts[s].differ, counts.transmission_flips) << set;
    EXPECT_EQ(got.flips, counts.noise_flips) << set;
  }
}

/// A seed whose reference draw at `ber` over `length` bits (through
/// `derive`, the seed a run hands its draw) flips bit 0 and bit
/// length - 1 and, from three bits on, at least three bits of one word.
template <typename Derive>
std::uint64_t edge_flip_seed(std::size_t length, double ber, Derive&& derive) {
  for (std::uint64_t seed = 1; seed < 200000; ++seed) {
    const auto positions = reference_flip_positions(length, ber, derive(seed));
    if (positions.empty() || positions.front() != 0 ||
        positions.back() != length - 1) {
      continue;
    }
    std::vector<std::size_t> per_word((length + 63) / 64);
    for (std::size_t pos : positions) ++per_word[pos / 64];
    if (length < 3 ||
        *std::max_element(per_word.begin(), per_word.end()) >= 3) {
      return seed;
    }
  }
  ADD_FAILURE() << "no edge-flip seed for length " << length;
  return 0;
}

TEST(LaneCountSink, FlipsAtStreamEdgesAndWithinOneWord) {
  const auto same = [](std::uint64_t seed) { return seed; };
  const auto first_factor = [](std::uint64_t seed) {
    return derive_factor_seed(seed, 0);
  };
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : {1u, 63u, 64u, 65u, 4095u, 4096u, 4097u}) {
      for (double ber : {1e-2, 0.25}) {
        const std::string where =
            "length " + std::to_string(length) + " ber " +
            std::to_string(ber) + " backend " +
            oscs::simd_backend_name(backend);
        const std::uint64_t dense_seed = edge_flip_seed(length, ber, same);
        expect_dense_matches({3, 0}, 4, length, ber, dense_seed, length,
                             where + " (3, 0)");
        expect_dense_matches({3, 3}, 1, length, ber, dense_seed, length + 1,
                             where + " (3, 3)");
        // N-ary: the first factor's draw takes the edge flips.
        const PackedKernel& kernel = kernel_for({3, 0});
        const sc::SeparableProgram program = nary_program(3, 2, 16, length);
        PackedRunConfig cfg;
        cfg.op.stream_length = length;
        cfg.op.sng_width = 16;
        cfg.op.ber = ber;
        cfg.stimulus_seed = length + 9;
        cfg.noise_seed = edge_flip_seed(length, ber, first_factor);
        const std::vector<double> point = {0.3, 0.7};
        expect_same(kernel.run_nd(program, point, cfg),
                    reference_nd(kernel, program, point, cfg),
                    where + " N-ary");
      }
    }
  }
}

TEST(LaneCountSink, MultiBlockStreamsMatchMaterializedV2) {
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    std::uint64_t salt = 500;
    for (std::size_t length : kBlockLengths) {
      for (double ber : kBers) {
        const std::string where =
            "length " + std::to_string(length) + " ber " +
            std::to_string(ber) + " backend " +
            oscs::simd_backend_name(backend);
        expect_dense_matches({3, 0}, 1, length, ber, salt, salt, where);
        expect_dense_matches({6, 0}, 4, length, ber, salt + 1, salt, where);
        expect_dense_matches({1, 1}, 1, length, ber, salt + 2, salt, where);
        expect_dense_matches({5, 5}, 2, length, ber, salt + 3, salt, where);
        const PackedKernel& kernel = kernel_for({3, 0});
        const sc::SeparableProgram program = nary_program(3, 3, 16, salt);
        PackedRunConfig cfg;
        cfg.op.stream_length = length;
        cfg.op.sng_width = 16;
        cfg.op.ber = ber;
        cfg.stimulus_seed = salt + 4;
        cfg.noise_seed = salt + 5;
        const std::vector<double> point = {0.45, 0.2};
        expect_same(kernel.run_nd(program, point, cfg),
                    reference_nd(kernel, program, point, cfg),
                    where + " N-ary");
        ++salt;
      }
    }
  }
}

TEST(LaneCountSink, EmptyTermIsTheConstantOne) {
  const auto coeffs = coefficient_sets(2, 4, 16, 77);
  std::vector<sc::SeparableTerm> terms(3);
  terms[0].weight = 0.5;
  terms[0].factors.push_back({0, sc::BernsteinPoly(coeffs[0])});
  terms[1].weight = 0.25;  // no factors: the constant term
  terms[2].weight = 0.25;
  terms[2].factors.push_back({1, sc::BernsteinPoly(coeffs[1])});
  const sc::SeparableProgram program(2, std::move(terms));
  const PackedKernel& kernel = kernel_for({3, 0});
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (std::size_t length : {65u, 4096u, 8193u}) {
      for (double ber : kBers) {
        PackedRunConfig cfg;
        cfg.op.stream_length = length;
        cfg.op.sng_width = 16;
        cfg.op.ber = ber;
        cfg.stimulus_seed = length;
        cfg.noise_seed = length + 1;
        const std::vector<double> point = {0.6, 0.3};
        expect_same(kernel.run_nd(program, point, cfg),
                    reference_nd(kernel, program, point, cfg),
                    "length " + std::to_string(length) + " ber " +
                        std::to_string(ber) + " backend " +
                        oscs::simd_backend_name(backend));
      }
    }
  }
}

TEST(FlipDraw, LazyDrawMatchesUpFrontSampling) {
  for (double ber : {1e-76, 1e-12, 1e-6, 3e-5, 1e-4, 1e-2, 0.25, 0.5}) {
    for (std::size_t length : {1u, 2u, 63u, 64u, 65u, 4096u, 100000u}) {
      for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const std::string where = "ber " + std::to_string(ber) + " length " +
                                  std::to_string(length) + " seed " +
                                  std::to_string(seed);
        const std::vector<std::size_t> want =
            reference_flip_positions(length, ber, seed);
        simd::FlipDraw draw;
        draw.rng = oscs::Xoshiro256(seed);
        draw.start(std::log1p(-ber), length);
        std::vector<std::size_t> got;
        for (; draw.next != simd::FlipDraw::kNone; draw.advance()) {
          got.push_back(draw.next);
        }
        ASSERT_EQ(got, want) << where;
        EXPECT_EQ(draw.count, want.size()) << where;
        // The up-front API draws through the same rule and leaves the
        // caller's generator where the reference sampler leaves its own.
        oscs::Xoshiro256 api(seed + 1000);
        oscs::Xoshiro256 reference(seed + 1000);
        EXPECT_EQ(sample_flip_positions(length, ber, api),
                  reference_flip_positions(length, ber, reference))
            << where;
        EXPECT_EQ(api(), reference()) << where;
      }
    }
  }
}

TEST(FlipDraw, DesignBerDrawEndsBeforeBitZero) {
  const oscs::OperatingPoint design =
      optsc::design_operating_point(circuit(3), 4096, 16);
  ASSERT_GT(design.ber, 0.0);
  ASSERT_LT(design.ber, 1e-30);
  for (std::size_t length : {std::size_t{1}, std::size_t{4096},
                             std::size_t{1} << 26}) {
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      simd::FlipDraw draw;
      draw.rng = oscs::Xoshiro256(seed);
      draw.start(std::log1p(-design.ber), length);
      ASSERT_EQ(draw.next, simd::FlipDraw::kNone)
          << "length " << length << " seed " << seed;
      EXPECT_EQ(draw.count, 0u);
    }
  }
}

TEST(SelectCompare, OtherSourcesAndWidthsMaterializeV2) {
  const PackedKernel& one = kernel_for({3, 0});
  const PackedKernel& two = kernel_for({1, 1});
  struct Case {
    sc::SourceKind kind;
    unsigned width;
  };
  const Case cases[] = {{sc::SourceKind::kCounter, 16},
                        {sc::SourceKind::kVanDerCorput, 16},
                        {sc::SourceKind::kChaoticLaser, 16}};
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (const Case& c : cases) {
      for (std::size_t length : {65u, 4096u}) {
        for (const PackedKernel* kernel : {&one, &two}) {
          const std::size_t cells =
              (kernel->order() + 1) * (kernel->order_y() + 1);
          const auto coeffs = coefficient_sets(2, cells, 16, length);
          std::vector<sc::SeparableProgram> programs;
          for (const auto& set : coeffs) {
            if (kernel->order_y() == 0) {
              programs.emplace_back(sc::BernsteinPoly(set));
            } else {
              programs.emplace_back(sc::BernsteinPoly2(1, 1, set));
            }
          }
          const std::vector<double> point =
              kernel->order_y() == 0 ? std::vector<double>{0.4}
                                     : std::vector<double>{0.4, 0.65};
          PackedRunConfig cfg;
          cfg.op.stream_length = length;
          cfg.op.sng_width = c.width;
          cfg.op.ber = 1e-2;
          cfg.source_kind = c.kind;
          cfg.stimulus_seed = 9;
          const auto want = reference_rows(
              *kernel, 0.4, 0.65, coeffs, length,
              {c.kind, c.width, cfg.stimulus_seed});
          const std::vector<PackedRunResult> run =
              kernel->run_fused(programs, point, cfg);
          for (std::size_t s = 0; s < coeffs.size(); ++s) {
            expect_same(run[s],
                        reference_counts(want[s], length, cfg.op.ber,
                                         cfg.noise_seed),
                        "kind " + std::to_string(static_cast<int>(c.kind)) +
                            " width " + std::to_string(c.width) +
                            " length " + std::to_string(length));
          }
        }
      }
    }
  }
}

TEST(SelectCompare, SetCellsShareOneComparatorSequence) {
  // v2 cells of one set compare one sequence: a cell with a larger
  // threshold is a superset of a cell with a smaller one, for every
  // source kind and width (v1 streams are independent and are not).
  for (sc::SourceKind kind :
       {sc::SourceKind::kLfsr, sc::SourceKind::kCounter,
        sc::SourceKind::kVanDerCorput, sc::SourceKind::kChaoticLaser}) {
    for (unsigned width : {8u, 16u, 24u}) {
      if (kind == sc::SourceKind::kLfsr && width > 16) continue;
      const sc::ScInputs v2 = sc::make_sc_inputs(
          0.5, {0.2, 0.5, 0.9}, 2, 4096, {kind, width, 3},
          sc::StimulusLayout::kPerSet);
      EXPECT_EQ(v2.z_streams[0] & v2.z_streams[1], v2.z_streams[0]);
      EXPECT_EQ(v2.z_streams[1] & v2.z_streams[2], v2.z_streams[1]);
      const sc::ScInputs v1 = sc::make_sc_inputs(0.5, {0.2, 0.5, 0.9}, 2,
                                                 4096, {kind, width, 3});
      EXPECT_EQ(v1.x_streams, v2.x_streams);
      if (kind == sc::SourceKind::kLfsr) {
        EXPECT_NE(v1.z_streams[0] & v1.z_streams[1], v1.z_streams[0]);
      }
    }
  }
}

/// Order-2 reference design with the pump cut to 400 mW: the eye closes
/// in some reachable state, so the kernel decides through its physics LUT.
const optsc::OpticalScCircuit& weak_pump_circuit() {
  static const optsc::OpticalScCircuit instance([] {
    optsc::CircuitParams params = optsc::paper_defaults(2);
    params.lasers.pump_power_mw = 400.0;
    return params;
  }());
  return instance;
}

/// FNV-1a over the words of every stream of a fused stimulus.
std::uint64_t stimulus_digest(const sc::FusedScInputs2& inputs) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const sc::Bitstream& s) {
    for (std::size_t w = 0; w < s.word_count(); ++w) {
      h ^= s.words_data()[w];
      h *= 1099511628211ULL;
    }
  };
  for (const sc::Bitstream& s : inputs.x_streams) mix(s);
  for (const sc::Bitstream& s : inputs.y_streams) mix(s);
  for (const auto& grid : inputs.z_streams) {
    for (const sc::Bitstream& s : grid) mix(s);
  }
  return h;
}

TEST(SelectCompare, PhysicsLutKernelKeepsV1Results) {
  // Counts recorded with the one-salt-per-cell stimulus before stimulus
  // v2 existed: a physics-LUT kernel and the v1 builders must reproduce
  // them exactly. Row: length, BER, then per program the optical ones,
  // electronic ones and transmission flips.
  struct Golden {
    std::size_t length;
    double ber;
    std::size_t counts[3][3];
  };
  const Golden golden[] = {
      {1, 0.0, {{1, 1, 0}, {1, 1, 0}, {1, 1, 0}}},
      {1, 1e-2, {{1, 1, 0}, {1, 1, 0}, {1, 1, 0}}},
      {63, 0.0, {{52, 35, 19}, {25, 28, 15}, {39, 32, 11}}},
      {63, 1e-2, {{52, 35, 19}, {25, 28, 15}, {39, 32, 11}}},
      {64, 0.0, {{52, 35, 19}, {26, 29, 15}, {39, 32, 11}}},
      {64, 1e-2, {{52, 35, 19}, {26, 29, 15}, {39, 32, 11}}},
      {65, 0.0, {{52, 35, 19}, {26, 30, 16}, {39, 33, 12}}},
      {65, 1e-2, {{52, 35, 19}, {26, 30, 16}, {39, 33, 12}}},
      {4095, 0.0, {{3076, 1813, 1363}, {1509, 2050, 1267}, {2450, 2075, 781}}},
      {4095, 1e-2,
       {{3060, 1813, 1369}, {1509, 2050, 1275}, {2440, 2075, 799}}},
  };
  const PackedKernel kernel(weak_pump_circuit());
  ASSERT_FALSE(kernel.mux_exact());
  EXPECT_EQ(kernel.stimulus_layout(), sc::StimulusLayout::kPerCell);
  std::vector<sc::SeparableProgram> programs;
  programs.emplace_back(sc::BernsteinPoly({0.1, 0.7, 0.4}));
  programs.emplace_back(sc::BernsteinPoly({0.9, 0.2, 0.6}));
  programs.emplace_back(sc::BernsteinPoly({0.3, 0.5, 0.8}));
  for (oscs::SimdBackend backend : available_backends()) {
    ScopedBackend scope(backend);
    for (const Golden& g : golden) {
      PackedRunConfig cfg;
      cfg.op.stream_length = g.length;
      cfg.op.ber = g.ber;
      cfg.stimulus_seed = 11;
      const std::vector<PackedRunResult> run =
          kernel.run_fused(programs, {0.45}, cfg);
      const double length = static_cast<double>(g.length);
      for (std::size_t p = 0; p < 3; ++p) {
        const std::string where = "length " + std::to_string(g.length) +
                                  " ber " + std::to_string(g.ber) +
                                  " program " + std::to_string(p);
        EXPECT_EQ(run[p].optical_estimate,
                  static_cast<double>(g.counts[p][0]) / length)
            << where;
        EXPECT_EQ(run[p].electronic_estimate,
                  static_cast<double>(g.counts[p][1]) / length)
            << where;
        EXPECT_EQ(run[p].transmission_flips, g.counts[p][2]) << where;
      }
    }
    // The v1 builders still draw the same streams.
    EXPECT_EQ(stimulus_digest(sc::make_fused_sc_inputs2(
                  0.3, 0.6, {{0.1, 0.2, 0.3, 0.4}, {0.9, 0.8, 0.7, 0.6}}, 1,
                  1, 1000, {sc::SourceKind::kLfsr, 16, 5})),
              0xc23ac7d017fa13a1ULL);
    EXPECT_EQ(stimulus_digest(sc::make_fused_sc_inputs2(
                  0.3, 0.6, {{0.1, 0.2, 0.3, 0.4}, {0.9, 0.8, 0.7, 0.6}}, 1,
                  1, 1000, {sc::SourceKind::kCounter, 16, 5})),
              0x94169b526826eec3ULL);
  }
}

}  // namespace
}  // namespace oscs::engine
