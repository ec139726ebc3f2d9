/// \file test_packed_cell.cpp
/// \brief PackedCell: a run path split into its seed-independent setup
///        and one evaluation per repeat. A cell run with a task's seeds
///        returns the run path's result bit for bit on every route (lane
///        loop, materialized rows, physics LUT), a thread holds one cell
///        at a time, and BatchRunner's cell-at-a-time lattice equals the
///        per-task run paths for every slab grain.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "engine/thread_pool.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

void expect_same(const PackedRunResult& got, const PackedRunResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.optical_estimate, want.optical_estimate) << where;
  EXPECT_EQ(got.electronic_estimate, want.electronic_estimate) << where;
  EXPECT_EQ(got.transmission_flips, want.transmission_flips) << where;
  EXPECT_EQ(got.noise_flips, want.noise_flips) << where;
  EXPECT_EQ(got.length, want.length) << where;
}

/// Rank-2, two-input program with degree-3 factors.
sc::SeparableProgram two_input_cubic() {
  std::vector<sc::SeparableTerm> terms(2);
  terms[0].weight = 0.6;
  terms[0].factors = {{0, sc::BernsteinPoly({0.1, 0.6, 0.8, 0.9})},
                      {1, sc::BernsteinPoly({0.9, 0.4, 0.3, 0.2})}};
  terms[1].weight = 0.4;
  terms[1].factors = {{0, sc::BernsteinPoly({0.8, 0.2, 0.4, 0.1})},
                      {1, sc::BernsteinPoly({0.3, 0.9, 0.6, 0.7})}};
  return sc::SeparableProgram(2, std::move(terms));
}

oscs::OperatingPoint point_at(std::size_t length, unsigned width,
                              double ber) {
  oscs::OperatingPoint op;
  op.stream_length = length;
  op.sng_width = width;
  op.ber = ber;
  return op;
}

TEST(PackedCell, RunsMatchTheRunPathsSeedForSeed) {
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const PackedKernel one(c3);
  const PackedKernel two(c3, 1, 1);
  // The order-2 reference design with the pump cut to 400 mW decides
  // through its physics LUT (v1 stimulus, materialized rows).
  const optsc::OpticalScCircuit weak([] {
    optsc::CircuitParams params = optsc::paper_defaults(2);
    params.lasers.pump_power_mw = 400.0;
    return params;
  }());
  const PackedKernel lut(weak);
  ASSERT_FALSE(lut.mux_exact());

  const std::vector<sc::SeparableProgram> dense1 = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95})),
      sc::SeparableProgram(sc::BernsteinPoly({0.5, 0.5, 0.2, 0.1}))};
  const std::vector<sc::SeparableProgram> dense2 = {
      sc::SeparableProgram(sc::BernsteinPoly2(1, 1, {0.2, 0.7, 0.4, 0.9}))};
  const std::vector<sc::SeparableProgram> lut_programs = {
      sc::SeparableProgram(sc::BernsteinPoly({0.1, 0.7, 0.4})),
      sc::SeparableProgram(sc::BernsteinPoly({0.9, 0.2, 0.6}))};
  const sc::SeparableProgram nary = two_input_cubic();

  struct Route {
    sc::SourceKind kind;
    unsigned width;
  };
  const Route routes[] = {{sc::SourceKind::kLfsr, 16},
                          {sc::SourceKind::kCounter, 16}};
  // The run path's results per seed come first: a run path takes the
  // thread's scratch, so it cannot run while the thread holds a cell.
  const auto check = [](const PackedKernel& kernel,
                        const std::vector<sc::SeparableProgram>& programs,
                        bool fused, const std::vector<double>& point,
                        const oscs::OperatingPoint& op, sc::SourceKind kind,
                        const std::string& where) {
    std::vector<std::vector<PackedRunResult>> want;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      PackedRunConfig cfg;
      cfg.op = op;
      cfg.source_kind = kind;
      cfg.stimulus_seed = seed * 11;
      cfg.noise_seed = seed * 13;
      want.push_back(fused ? kernel.run_fused(programs, point, cfg)
                           : std::vector<PackedRunResult>{
                                 kernel.run_nd(programs[0], point, cfg)});
    }
    std::optional<PackedCell> cell;
    if (fused) {
      cell.emplace(kernel, std::span(programs), point, op, kind);
    } else {
      cell.emplace(kernel, programs[0], point, op, kind);
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::vector<PackedRunResult> got(want[0].size());
      cell->run(seed * 11, seed * 13, got.data());
      for (std::size_t p = 0; p < got.size(); ++p) {
        expect_same(got[p], want[seed - 1][p],
                    where + " seed " + std::to_string(seed) + " program " +
                        std::to_string(p));
      }
    }
  };
  for (const Route& route : routes) {
    for (std::size_t length : {65u, 4096u, 8193u}) {
      for (double ber : {0.0, 1e-2}) {
        const oscs::OperatingPoint op = point_at(length, route.width, ber);
        const std::string where =
            "width " + std::to_string(route.width) + " kind " +
            std::to_string(static_cast<int>(route.kind)) + " length " +
            std::to_string(length) + " ber " + std::to_string(ber);
        check(one, dense1, true, {0.4}, op, route.kind, where + " fused 1D");
        check(two, dense2, false, {0.3, 0.8}, op, route.kind, where + " 2D");
        check(one, {nary}, false, {0.3, 0.8}, op, route.kind,
              where + " N-ary");
      }
    }
  }
  for (double ber : {0.0, 1e-2}) {
    check(lut, lut_programs, true, {0.45}, point_at(4095, 16, ber),
          sc::SourceKind::kLfsr, "physics LUT ber " + std::to_string(ber));
  }
}

TEST(PackedCell, OneCellPerThread) {
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const PackedKernel kernel(c3);
  const sc::SeparableProgram program(sc::BernsteinPoly({0.1, 0.8, 0.3, 0.9}));
  const std::vector<double> point = {0.5};
  const oscs::OperatingPoint op = point_at(4096, 16, 0.0);
  {
    PackedCell cell(kernel, program, point, op, sc::SourceKind::kLfsr);
    EXPECT_THROW(PackedCell(kernel, program, point, op, sc::SourceKind::kLfsr),
                 std::logic_error);
    PackedRunConfig cfg;
    cfg.op = op;
    EXPECT_THROW((void)kernel.run_nd(program, point, cfg), std::logic_error);
    // Another thread holds a cell of its own meanwhile.
    PackedRunResult elsewhere;
    std::thread([&] {
      PackedCell other(kernel, program, point, op, sc::SourceKind::kLfsr);
      other.run(1, 2, &elsewhere);
    }).join();
    PackedRunResult here;
    cell.run(1, 2, &here);
    expect_same(elsewhere, here, "two threads");
  }
  // Released: the thread runs again, and a throwing constructor (a point
  // of the wrong arity, an LFSR wider than 16 bits) hands the scratch
  // back too.
  EXPECT_THROW(PackedCell(kernel, program, std::vector<double>{0.1, 0.2}, op,
                          sc::SourceKind::kLfsr),
               std::invalid_argument);
  EXPECT_THROW(PackedCell(kernel, program, point, op.with_sng_width(17),
                          sc::SourceKind::kLfsr),
               std::invalid_argument);
  PackedCell again(kernel, program, point, op, sc::SourceKind::kLfsr);
  PackedRunResult result;
  again.run(3, 4, &result);
  EXPECT_EQ(result.length, 4096u);
}

/// One cell of a batch recomputed from the per-task run paths: the
/// runner's task index, seeds and aggregation, spelled out.
struct CellStats {
  double optical_mean = 0.0;
  double optical_ci = 0.0;
  double electronic_abs_error_mean = 0.0;
  double flip_rate_mean = 0.0;
};

TEST(PackedCell, BatchCellsMatchPerTaskRuns) {
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const auto kernel = std::make_shared<const PackedKernel>(c3);
  const BatchRunner runner(kernel, optsc::design_operating_point(c3));
  ThreadPool pool(2);
  const std::vector<double> xs = {0.15, 0.5, 0.85};
  const std::vector<std::size_t> lengths = {100, 4096};
  const std::size_t repeats = 5;

  BatchRequest dense;
  dense.polynomials = {sc::BernsteinPoly({0.1, 0.8, 0.3, 0.95}),
                       sc::BernsteinPoly({0.5, 0.5, 0.2, 0.1})};
  dense.xs = xs;
  BatchRequest nary;
  nary.programs_nd = {two_input_cubic()};
  nary.inputs = {xs, {0.3, 0.6, 0.9}};
  for (BatchRequest* request : {&dense, &nary}) {
    request->stream_lengths = lengths;
    request->repeats = repeats;
    request->seed = 21;
    request->op = point_at(4096, 16, 1e-2);
  }
  std::vector<sc::SeparableProgram> dense_programs;
  for (const auto& poly : dense.polynomials) dense_programs.emplace_back(poly);

  // Expected cells, program-major then point then length, from per-task
  // run_nd (unfused) or run_fused (fused) calls.
  const auto expected = [&](const BatchRequest& request,
                            const std::vector<sc::SeparableProgram>& programs,
                            bool fused) {
    std::vector<CellStats> cells;
    for (std::size_t pi = 0; pi < programs.size(); ++pi) {
      for (std::size_t xi = 0; xi < request.points(); ++xi) {
        const std::vector<double> point = request.point(xi);
        const double want = programs[pi](point);
        for (std::size_t li = 0; li < lengths.size(); ++li) {
          oscs::Accumulator optical;
          oscs::Accumulator electronic_err;
          oscs::Accumulator flip_rate;
          for (std::size_t rep = 0; rep < repeats; ++rep) {
            const std::size_t group = fused ? 0 : pi;
            const std::size_t t =
                ((group * request.points() + xi) * lengths.size() + li) *
                    repeats +
                rep;
            PackedRunConfig cfg;
            cfg.op = request.op->with_stream_length(lengths[li]);
            cfg.stimulus_seed = derive_task_seed(request.seed, t, 0);
            cfg.noise_seed = derive_task_seed(request.seed, t, 1);
            const PackedRunResult r =
                fused ? kernel->run_fused(programs, point, cfg)[pi]
                      : kernel->run_nd(programs[pi], point, cfg);
            optical.add(r.optical_estimate);
            electronic_err.add(std::abs(r.electronic_estimate - want));
            flip_rate.add(static_cast<double>(r.transmission_flips) /
                          static_cast<double>(lengths[li]));
          }
          cells.push_back({optical.mean(), optical.ci_halfwidth(),
                           electronic_err.mean(), flip_rate.mean()});
        }
      }
    }
    return cells;
  };
  const auto check = [](const BatchSummary& got,
                        const std::vector<CellStats>& want,
                        const std::string& where) {
    ASSERT_EQ(got.cells.size(), want.size()) << where;
    for (std::size_t c = 0; c < want.size(); ++c) {
      const std::string at = where + " cell " + std::to_string(c);
      EXPECT_EQ(got.cells[c].optical_mean, want[c].optical_mean) << at;
      EXPECT_EQ(got.cells[c].optical_ci, want[c].optical_ci) << at;
      EXPECT_EQ(got.cells[c].electronic_abs_error_mean,
                want[c].electronic_abs_error_mean)
          << at;
      EXPECT_EQ(got.cells[c].flip_rate_mean, want[c].flip_rate_mean) << at;
    }
  };
  const auto dense_unfused = expected(dense, dense_programs, false);
  const auto dense_fused = expected(dense, dense_programs, true);
  const auto nary_cells = expected(nary, nary.programs_nd, false);
  // Grains that split a cell's repeats across slabs, and the auto grain.
  for (std::size_t slab : {1u, 3u, 7u, 0u}) {
    const std::string where = "slab " + std::to_string(slab);
    dense.slab_tasks = slab;
    nary.slab_tasks = slab;
    check(runner.run_nd(dense, pool), dense_unfused, where + " dense");
    check(runner.run_fused(dense, pool), dense_fused, where + " fused");
    check(runner.run_nd(nary, pool), nary_cells, where + " N-ary");
  }
}

}  // namespace
}  // namespace oscs::engine
