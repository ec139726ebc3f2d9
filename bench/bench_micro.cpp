/// Kernel microbenchmarks (google-benchmark): the hot paths of the
/// analytic model and the bit-level simulator. Useful for keeping the
/// design-space sweeps interactive as the model grows.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "engine/packed_sim.hpp"
#include "engine/simd_kernel.hpp"
#include "optsc/circuit.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "optsc/mrr_first.hpp"
#include "optsc/simulator.hpp"
#include "serve/protocol.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/functions.hpp"
#include "stochastic/resc.hpp"
#include "stochastic/sng.hpp"
#include "stochastic/sng_fill.hpp"

namespace {

using namespace oscs;
using namespace oscs::optsc;
namespace sc = oscs::stochastic;

void BM_RingDropEval(benchmark::State& state) {
  const photonics::AddDropRing ring =
      photonics::AddDropRing::from_linewidth(1550.0, 10.0, 0.2, 0.102,
                                             0.995);
  double wl = 1549.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.drop(wl, 1550.0));
    wl += 1e-6;
  }
}
BENCHMARK(BM_RingDropEval);

void BM_ChannelTransmissionEq6(benchmark::State& state) {
  const OpticalScCircuit circuit(paper_defaults());
  const std::vector<bool> z{false, true, false};
  const std::vector<bool> x{true, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.channel_transmission(1, z, x));
  }
}
BENCHMARK(BM_ChannelTransmissionEq6);

void BM_ReceivedPowerFullCircuit(benchmark::State& state) {
  const std::size_t order = static_cast<std::size_t>(state.range(0));
  const OpticalScCircuit circuit(paper_defaults(order, 0.4));
  std::vector<bool> z(order + 1, false);
  z[order / 2] = true;
  std::vector<bool> x(order, false);
  x[0] = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.received_power_mw(z, x, 1.0));
  }
}
BENCHMARK(BM_ReceivedPowerFullCircuit)->Arg(2)->Arg(6)->Arg(16);

void BM_LinkBudgetAnalyze(benchmark::State& state) {
  const OpticalScCircuit circuit(paper_defaults());
  const LinkBudget budget(circuit, EyeModel::kPaperEq8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(budget.analyze(1.0).snr);
  }
}
BENCHMARK(BM_LinkBudgetAnalyze);

void BM_MrrFirstFullDesign(benchmark::State& state) {
  MrrFirstSpec spec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrr_first(spec).min_probe_mw);
  }
}
BENCHMARK(BM_MrrFirstFullDesign);

/// The backends this binary and CPU can run: the rows below register once
/// per backend, so one run prints both instantiations of each kernel.
std::vector<SimdBackend> available_backends() {
  std::vector<SimdBackend> backends = {SimdBackend::kScalar};
  if (simd_avx2_compiled() && simd_avx2_runtime()) {
    backends.push_back(SimdBackend::kAvx2);
  }
  return backends;
}

/// Runs a row on one backend and restores env/CPU resolution after it.
class RowBackend {
 public:
  explicit RowBackend(SimdBackend backend) { set_simd_backend(backend); }
  ~RowBackend() { reset_simd_backend(); }
  RowBackend(const RowBackend&) = delete;
  RowBackend& operator=(const RowBackend&) = delete;
};

/// Registers `fn` as "<name>/<backend>" once per available backend;
/// `args` sets the row's arguments.
template <class Args>
void register_per_backend(const std::string& name,
                          void (*fn)(benchmark::State&, SimdBackend),
                          const Args& args) {
  for (SimdBackend backend : available_backends()) {
    args(benchmark::RegisterBenchmark(
        (name + "/" + simd_backend_name(backend)).c_str(), fn, backend));
  }
}

/// One serving stimulus stream: fill_stream's LFSR setup plus the
/// comparator fill into caller words, a fresh salt (so a fresh phase) per
/// stream as fill_fused_stimulus draws them. Args: SNG width, stream bits.
void BM_FillStream(benchmark::State& state, SimdBackend backend) {
  const RowBackend row_backend(backend);
  const auto width = static_cast<unsigned>(state.range(0));
  const auto length = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint64_t> words((length + 63) / 64);
  std::uint64_t salt = 1;
  for (auto _ : state) {
    sc::fill_stream(sc::SourceKind::kLfsr, width, salt++, 0.37, length,
                    words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}

/// Deterministic coefficient grid in [0, 1], distinct per `salt`.
std::vector<double> grid_coefficients(std::size_t cells, std::size_t salt) {
  std::vector<double> c(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    c[i] = static_cast<double>((7 * i + 3 * salt + 1) % 11) / 10.0;
  }
  return c;
}

/// Dense programs on the serving kernel of shape (n, m): k coefficient
/// grids and the evaluation point.
struct DenseCase {
  engine::KernelBackend backend;
  std::vector<sc::SeparableProgram> programs;
  std::vector<double> point;
};

DenseCase dense_case(std::size_t n, std::size_t m, std::size_t k) {
  DenseCase c{engine::make_backend({n, m}, 16), {}, {}};
  for (std::size_t p = 0; p < k; ++p) {
    const std::vector<double> grid = grid_coefficients((n + 1) * (m + 1), p);
    if (m == 0) {
      c.programs.emplace_back(sc::BernsteinPoly(grid));
    } else {
      c.programs.emplace_back(sc::BernsteinPoly2(n, m, grid));
    }
  }
  c.point = m == 0 ? std::vector<double>{0.4} : std::vector<double>{0.4, 0.7};
  return c;
}

/// Warm dense evaluations through PackedKernel::run_fused at `length`
/// bits, a fresh stimulus and noise seed per iteration, at the design BER.
/// Args: x order, y order (0 = one input), fused program count.
void run_dense(benchmark::State& state, std::size_t length) {
  const DenseCase c = dense_case(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)),
                                 static_cast<std::size_t>(state.range(2)));
  engine::PackedRunConfig cfg;
  cfg.op = c.backend.design_point.with_stream_length(length);
  for (auto _ : state) {
    ++cfg.stimulus_seed;
    ++cfg.noise_seed;
    benchmark::DoNotOptimize(
        c.backend.kernel->run_fused(c.programs, c.point, cfg).front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}

/// One warm dense evaluation at 4096 bits on the serving kernel of its
/// shape (engine::make_backend).
void BM_RunDense(benchmark::State& state) { run_dense(state, 4096); }
BENCHMARK(BM_RunDense)
    ->ArgNames({"n", "m", "k"})
    ->Args({3, 0, 1})
    ->Args({6, 0, 1})
    ->Args({6, 0, 4})
    ->Args({1, 1, 1})
    ->Args({3, 3, 1});

/// The same at 2^20 bits: the per-bit cost of the lane loop and its count
/// sink, with the per-eval setup amortized and no decision row at any
/// length.
void BM_RunDenseLong(benchmark::State& state) {
  run_dense(state, std::size_t{1} << 20);
}
BENCHMARK(BM_RunDenseLong)->ArgNames({"n", "m", "k"})->Args({3, 0, 1});

/// A rank-3, 3-input program whose terms read every axis at degree 3, so
/// each of the three axis passes carries three coefficient sets.
sc::SeparableProgram rank3_three_input() {
  std::vector<sc::SeparableTerm> terms;
  for (std::size_t t = 0; t < 3; ++t) {
    sc::SeparableTerm term;
    term.weight = 0.2 + 0.1 * static_cast<double>(t);
    for (std::size_t axis = 0; axis < 3; ++axis) {
      term.factors.push_back(
          {axis, sc::BernsteinPoly(grid_coefficients(4, 3 * t + axis))});
    }
    terms.push_back(std::move(term));
  }
  return sc::SeparableProgram(3, std::move(terms));
}

/// Warm N-ary evaluations of rank3_three_input() through
/// PackedKernel::run_nd at `length` bits.
void run_nd(benchmark::State& state, std::size_t length) {
  const engine::KernelBackend backend = engine::make_backend({3, 0}, 16);
  const sc::SeparableProgram program = rank3_three_input();
  const std::vector<double> point = {0.3, 0.6, 0.8};
  engine::PackedRunConfig cfg;
  cfg.op = backend.design_point.with_stream_length(length);
  for (auto _ : state) {
    ++cfg.stimulus_seed;
    ++cfg.noise_seed;
    benchmark::DoNotOptimize(backend.kernel->run_nd(program, point, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length));
}

void BM_RunNd(benchmark::State& state) { run_nd(state, 4096); }
BENCHMARK(BM_RunNd);

void BM_RunNdLong(benchmark::State& state) {
  run_nd(state, std::size_t{1} << 20);
}
BENCHMARK(BM_RunNdLong);

/// The lane primitive alone (simd::KernelOps::select_compare) on walks
/// and gather rows prepared once, one dense job of BM_RunDense's shapes at
/// 4096 bits and the design BER: BM_RunDense minus this row is the share
/// of an eval spent outside the loop (setup, walk starts, flip draw).
void BM_LaneLoop(benchmark::State& state, SimdBackend backend) {
  const RowBackend row_backend(backend);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const DenseCase c = dense_case(n, m, static_cast<std::size_t>(state.range(2)));
  const std::size_t k = c.programs.size();
  const std::size_t cells = (n + 1) * (m + 1);
  const std::size_t stride = engine::simd::lane_bound_stride(cells);
  const oscs::OperatingPoint op = c.backend.design_point;
  const sc::detail::LfsrCycle& cycle = sc::detail::lfsr_cycle(op.sng_width);
  const sc::ScInputConfig stimulus{sc::SourceKind::kLfsr, op.sng_width, 7};
  std::vector<engine::simd::LaneWalk> walks;
  for (std::size_t i = 0; i < n + m + k; ++i) {
    const sc::detail::LfsrStart start =
        sc::detail::v2_walk_start(cycle, stimulus, n + m, i);
    walks.push_back({start.index, static_cast<std::uint16_t>(start.scramble)});
  }
  const auto bound = [&](double p) {
    return sc::detail::inclusive_bound(
        sc::comparator_threshold(p, op.sng_width), op.sng_width);
  };
  std::vector<std::int16_t> bounds(k * stride, 0);
  for (std::size_t s = 0; s < k; ++s) {
    const std::vector<double>& grid = c.programs[s].has_dense1()
                                          ? c.programs[s].dense1().coeffs()
                                          : c.programs[s].dense2().coeffs();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      bounds[s * stride + cell] = bound(grid[cell]);
    }
  }
  const engine::simd::LanePass pass{walks.data(), bound(c.point[0]),
                                    walks.data() + n,
                                    bound(m > 0 ? c.point[1] : 0.0), k};
  engine::simd::FlipDraw draw;
  std::vector<engine::simd::ProductCounts> counts(k);
  std::vector<std::uint64_t> scratch((k + 1) *
                                     engine::simd::kLaneBlockWords);
  engine::simd::SelectCompareJob job;
  job.clock_row = cycle.row(sc::detail::LfsrWalk::kClock);
  job.leap_row = cycle.row(sc::detail::LfsrWalk::kLeap);
  job.period = cycle.period();
  job.order_x = n;
  job.order_y = m;
  job.passes = &pass;
  job.pass_count = 1;
  job.sets = walks.data() + n + m;
  job.bounds = bounds.data();
  job.length = 4096;
  job.factor_count = k;
  job.term_count = k;
  job.flips = &draw;
  job.flip_count = 1;
  job.counts = counts.data();
  job.decisions = scratch.data();
  const engine::simd::KernelOps& ops = engine::simd::kernel_ops();
  const double log_keep = std::log1p(-op.ber);
  for (auto _ : state) {
    draw.start(log_keep, job.length);
    ops.select_compare(job);
    benchmark::DoNotOptimize(counts.front().electronic);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

/// The materialized path's block loop alone: PackedKernel::evaluate (bit
/// planes, select masks, MUX OR-reduce) on the order-6 serving kernel over
/// make_sc_inputs stimulus built once, 4096 bits.
void BM_BitPlaneCore(benchmark::State& state, SimdBackend backend) {
  const RowBackend row_backend(backend);
  const engine::KernelBackend kernel = engine::make_backend({6, 0}, 16);
  const sc::ScInputs inputs = sc::make_sc_inputs(
      0.4, grid_coefficients(7, 0), 6, 4096, {sc::SourceKind::kLfsr, 16, 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.kernel->evaluate(inputs));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

[[maybe_unused]] const bool kPerBackendRows = [] {
  register_per_backend("BM_FillStream", BM_FillStream, [](auto* row) {
    row->ArgNames({"width", "bits"})->ArgsProduct({{8, 16}, {256, 4096}});
  });
  register_per_backend("BM_LaneLoop", BM_LaneLoop, [](auto* row) {
    row->ArgNames({"n", "m", "k"})
        ->Args({3, 0, 1})
        ->Args({6, 0, 1})
        ->Args({6, 0, 4})
        ->Args({1, 1, 1})
        ->Args({3, 3, 1});
  });
  register_per_backend("BM_BitPlaneCore", BM_BitPlaneCore, [](auto*) {});
  return true;
}();

/// One serve reply of a 9-cell 1D evaluation (the certification grid at
/// 4096 bits x 8 repeats) through serve::write_response.
void BM_WriteResponse(benchmark::State& state) {
  serve::ServeResponse response;
  response.id = "req-17";
  response.trace_id = "5f2a9c0d1e3b4a67";
  response.programs = {"sigmoid"};
  response.op = engine::make_backend({3, 0}, 16).design_point;
  for (std::size_t i = 0; i < 9; ++i) {
    serve::CellResult cell;
    cell.program = "sigmoid";
    cell.x = 0.1 * static_cast<double>(i + 1);
    cell.point = {cell.x};
    cell.stream_length = 4096;
    cell.repeats = 8;
    cell.expected = 1.0 / (1.0 + std::exp(-cell.x));
    cell.optical_mean = cell.expected + 1e-3 / static_cast<double>(i + 3);
    cell.optical_ci = 2.7e-3 + 1e-5 * static_cast<double>(i);
    cell.abs_error_mean = 1.9e-3 + 3e-5 * static_cast<double>(i);
    cell.abs_error_ci = 1.1e-3;
    cell.flip_rate = 0.0;
    response.cells.push_back(cell);
  }
  response.optical_mae = 2.03e-3;
  response.worst_cell_error = 3.1e-3;
  response.total_bits = 9 * 8 * 4096;
  response.latency = {12.5, 3.25, 96.75, 118.5};
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string line = serve::write_response(response);
    bytes += line.size();
    benchmark::DoNotOptimize(line.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteResponse);

void BM_BernsteinDeCasteljau(benchmark::State& state) {
  const sc::BernsteinPoly poly = sc::BernsteinPoly::fit(
      [](double v) { return v * v * (3.0 - 2.0 * v); }, 12, false);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly(x));
    x += 1e-6;
    if (x > 1.0) x = 0.0;
  }
}
BENCHMARK(BM_BernsteinDeCasteljau);

void BM_BernsteinFitDegree6(benchmark::State& state) {
  const auto gamma = [](double v) { return std::pow(v, 0.45); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::BernsteinPoly::fit(gamma, 6).coeffs()[3]);
  }
}
BENCHMARK(BM_BernsteinFitDegree6);

void BM_TransientSimulator1kBits(benchmark::State& state) {
  const OpticalScCircuit circuit(paper_defaults());
  const TransientSimulator sim(circuit);
  const sc::BernsteinPoly poly({0.0, 0.0, 1.0});
  SimulationConfig cfg;
  cfg.stream_length = 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(poly, 0.5, cfg).optical_estimate);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TransientSimulator1kBits);

void BM_ElectronicReSC1kBits(benchmark::State& state) {
  const sc::ReSCUnit unit(sc::paper_f2_bernstein());
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.evaluate(0.5, 1024, {}));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ElectronicReSC1kBits);

}  // namespace

BENCHMARK_MAIN();
