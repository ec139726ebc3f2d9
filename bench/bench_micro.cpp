/// Kernel microbenchmarks (google-benchmark): the hot paths of the
/// analytic model and the bit-level simulator. Useful for keeping the
/// design-space sweeps interactive as the model grows.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "engine/packed_sim.hpp"
#include "optsc/circuit.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "optsc/mrr_first.hpp"
#include "optsc/simulator.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/functions.hpp"
#include "stochastic/sng.hpp"

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

void BM_LfsrSngStream(benchmark::State& state) {
  sc::Sng sng(sc::make_source(sc::SourceKind::kLfsr, 16, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sng.generate(0.37, 4096).count_ones());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LfsrSngStream);

/// One serving stimulus stream: fill_stream's LFSR setup plus the
/// comparator fill into caller words, a fresh salt (so a fresh phase) per
/// stream as fill_fused_stimulus draws them. Args: SNG width, stream bits.
void BM_FillStream(benchmark::State& state) {
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
BENCHMARK(BM_FillStream)
    ->ArgNames({"width", "bits"})
    ->ArgsProduct({{8, 16}, {256, 4096}});

/// Deterministic coefficient grid in [0, 1], distinct per `salt`.
std::vector<double> grid_coefficients(std::size_t cells, std::size_t salt) {
  std::vector<double> c(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    c[i] = static_cast<double>((7 * i + 3 * salt + 1) % 11) / 10.0;
  }
  return c;
}

/// One warm dense evaluation through PackedKernel::run_fused at 4096
/// bits on the serving kernel of its shape (engine::make_backend), a
/// fresh stimulus and noise seed per iteration, at the design BER. Args:
/// x order, y order (0 = one input), fused program count.
void BM_RunDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const engine::KernelBackend backend = engine::make_backend({n, m}, 16);
  std::vector<sc::SeparableProgram> programs;
  for (std::size_t p = 0; p < k; ++p) {
    const std::vector<double> c = grid_coefficients((n + 1) * (m + 1), p);
    if (m == 0) {
      programs.emplace_back(sc::BernsteinPoly(c));
    } else {
      programs.emplace_back(sc::BernsteinPoly2(n, m, c));
    }
  }
  const std::vector<double> point =
      m == 0 ? std::vector<double>{0.4} : std::vector<double>{0.4, 0.7};
  engine::PackedRunConfig cfg;
  cfg.op = backend.design_point.with_stream_length(4096);
  for (auto _ : state) {
    ++cfg.stimulus_seed;
    ++cfg.noise_seed;
    benchmark::DoNotOptimize(
        backend.kernel->run_fused(programs, point, cfg).front());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RunDense)
    ->ArgNames({"n", "m", "k"})
    ->Args({3, 0, 1})
    ->Args({6, 0, 1})
    ->Args({6, 0, 4})
    ->Args({1, 1, 1})
    ->Args({3, 3, 1});

/// One warm N-ary evaluation through PackedKernel::run_nd at 4096 bits:
/// a rank-3, 3-input program whose terms read every axis at degree 3, so
/// each of the three axis passes carries three coefficient sets.
void BM_RunNd(benchmark::State& state) {
  const engine::KernelBackend backend = engine::make_backend({3, 0}, 16);
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
  const sc::SeparableProgram program(3, std::move(terms));
  const std::vector<double> point = {0.3, 0.6, 0.8};
  engine::PackedRunConfig cfg;
  cfg.op = backend.design_point.with_stream_length(4096);
  for (auto _ : state) {
    ++cfg.stimulus_seed;
    ++cfg.noise_seed;
    benchmark::DoNotOptimize(backend.kernel->run_nd(program, point, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RunNd);

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
