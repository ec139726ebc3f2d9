/// \file test_packed_arena.cpp
/// \brief The packed kernel's run paths reuse per-thread scratch across
///        evaluations. Nothing an evaluation leaves in that scratch may
///        reach the next one: a thread that has just run a different
///        shape, order or stream length must produce exactly what a fresh
///        thread produces for the same call.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "optsc/defaults.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

oscs::OperatingPoint test_op(double ber, std::size_t length) {
  return oscs::OperatingPoint{.probe_power_mw = 1.0,
                              .ber = ber,
                              .snr = 20.0,
                              .threshold_mw = 0.5,
                              .stream_length = length,
                              .sng_width = 16};
}

/// Rank-3 program over three axes with degree-3 factors.
sc::SeparableProgram three_input_cubic() {
  const auto term = [](double weight, std::vector<double> cx,
                       std::vector<double> cy, std::vector<double> cz) {
    sc::SeparableTerm t;
    t.weight = weight;
    t.factors = {{0, sc::BernsteinPoly(std::move(cx))},
                 {1, sc::BernsteinPoly(std::move(cy))},
                 {2, sc::BernsteinPoly(std::move(cz))}};
    return t;
  };
  return sc::SeparableProgram(
      3, {term(0.5, {0.1, 0.6, 0.8, 0.9}, {0.9, 0.4, 0.3, 0.2},
               {0.2, 0.7, 0.5, 1.0}),
          term(0.3, {0.8, 0.2, 0.4, 0.1}, {0.3, 0.9, 0.6, 0.7},
               {1.0, 0.5, 0.2, 0.0}),
          term(0.2, {0.4, 0.4, 0.9, 0.6}, {0.0, 0.3, 0.8, 1.0},
               {0.6, 0.1, 0.9, 0.3})});
}

TEST(PackedKernelArena, InterleavedShapesMatchFreshThread) {
  const optsc::OpticalScCircuit c6(optsc::paper_defaults(6));
  const optsc::OpticalScCircuit c2(optsc::paper_defaults(2));
  const optsc::OpticalScCircuit c3(optsc::paper_defaults(3));
  const PackedKernel order6(c6);
  const PackedKernel order2(c2);
  const PackedKernel grid33(c3, 3, 3);
  const PackedKernel order3(c3);

  const sc::SeparableProgram p6(
      sc::BernsteinPoly({0.9, 0.1, 0.7, 0.3, 0.5, 0.2, 0.8}));
  const sc::SeparableProgram p2(sc::BernsteinPoly({0.2, 0.9, 0.4}));
  std::vector<double> grid(16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = static_cast<double>((i * 7) % 16) / 15.0;
  }
  const sc::SeparableProgram p33(sc::BernsteinPoly2(3, 3, grid));
  const sc::SeparableProgram p3in = three_input_cubic();

  struct Call {
    const char* name;
    const PackedKernel* kernel;
    const sc::SeparableProgram* program;
    std::vector<double> point;
  };
  const std::vector<Call> calls = {
      {"order 6", &order6, &p6, {0.35}},
      {"order 2", &order2, &p2, {0.6}},
      {"2D (3,3)", &grid33, &p33, {0.25, 0.8}},
      {"3-input", &order3, &p3in, {0.2, 0.55, 0.9}},
      {"order 6 again", &order6, &p6, {0.7}},
      {"order 2 again", &order2, &p2, {0.15}},
  };

  for (std::size_t length : {63u, 64u, 65u, 4095u}) {
    for (double ber : {0.0, 1e-2}) {
      for (std::size_t i = 0; i < calls.size(); ++i) {
        const Call& call = calls[i];
        PackedRunConfig cfg;
        cfg.op = test_op(ber, length);
        cfg.stimulus_seed = derive_task_seed(77, i, 0);
        cfg.noise_seed = derive_task_seed(77, i, 1);
        const PackedRunResult got =
            call.kernel->run_nd(*call.program, call.point, cfg);
        PackedRunResult fresh;
        std::thread([&] {
          fresh = call.kernel->run_nd(*call.program, call.point, cfg);
        }).join();
        SCOPED_TRACE(std::string(call.name) + " length " +
                     std::to_string(length) + " ber " + std::to_string(ber));
        EXPECT_EQ(got.length, fresh.length);
        EXPECT_EQ(got.noise_flips, fresh.noise_flips);
        EXPECT_EQ(got.transmission_flips, fresh.transmission_flips);
        EXPECT_EQ(got.optical_estimate, fresh.optical_estimate);
        EXPECT_EQ(got.electronic_estimate, fresh.electronic_estimate);
      }
    }
  }
}

}  // namespace
}  // namespace oscs::engine
