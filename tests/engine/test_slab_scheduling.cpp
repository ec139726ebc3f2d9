/// \file test_slab_scheduling.cpp
/// \brief Determinism contract of the slab-grained batch scheduler: every
///        summary field must be bit-identical for ANY thread count and ANY
///        slab grain (auto or forced), in every arity and both entry
///        points, with noise on - because each task's seeds and output
///        slot derive from its global task index alone, never from the
///        slab decomposition.

#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "optsc/defaults.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

void expect_identical(const BatchSummary& a, const BatchSummary& b) {
  ASSERT_EQ(a.tasks, b.tasks);
  ASSERT_EQ(a.total_bits, b.total_bits);
  ASSERT_EQ(a.optical_mae, b.optical_mae);
  ASSERT_EQ(a.electronic_mae, b.electronic_mae);
  ASSERT_EQ(a.worst_cell_error, b.worst_cell_error);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const BatchCell& ca = a.cells[i];
    const BatchCell& cb = b.cells[i];
    ASSERT_EQ(ca.poly_index, cb.poly_index) << "cell " << i;
    ASSERT_EQ(ca.x, cb.x) << "cell " << i;
    ASSERT_EQ(ca.y, cb.y) << "cell " << i;
    ASSERT_EQ(ca.stream_length, cb.stream_length) << "cell " << i;
    ASSERT_EQ(ca.optical_mean, cb.optical_mean) << "cell " << i;
    ASSERT_EQ(ca.optical_ci, cb.optical_ci) << "cell " << i;
    ASSERT_EQ(ca.optical_abs_error_mean, cb.optical_abs_error_mean)
        << "cell " << i;
    ASSERT_EQ(ca.optical_abs_error_ci, cb.optical_abs_error_ci)
        << "cell " << i;
    ASSERT_EQ(ca.electronic_abs_error_mean, cb.electronic_abs_error_mean)
        << "cell " << i;
    ASSERT_EQ(ca.flip_rate_mean, cb.flip_rate_mean) << "cell " << i;
  }
  ASSERT_EQ(a.program_accuracy.size(), b.program_accuracy.size());
  for (std::size_t i = 0; i < a.program_accuracy.size(); ++i) {
    ASSERT_EQ(a.program_accuracy[i].mean_error,
              b.program_accuracy[i].mean_error)
        << "program " << i;
    ASSERT_EQ(a.program_accuracy[i].worst_error,
              b.program_accuracy[i].worst_error)
        << "program " << i;
    ASSERT_EQ(a.program_accuracy[i].ci_mean, b.program_accuracy[i].ci_mean)
        << "program " << i;
  }
}

/// Every (threads, slab_tasks) combination - auto grain, single-task
/// grain, primes that do not divide the task count, one slab for the
/// whole request - must reproduce the (1 thread, 1 task/slab) baseline
/// exactly.
void expect_grain_invariance(const BatchRunner& runner, BatchRequest req,
                             bool fused) {
  oscs::OperatingPoint op = runner.design_point();
  op.ber = 1e-2;  // noise on: flip seeds must survive re-graining too
  req.op = op;

  req.slab_tasks = 1;
  const BatchSummary baseline =
      fused ? runner.run_fused(req, /*threads=*/1) : runner.run(req, 1);
  for (std::size_t threads : {1u, 3u}) {
    for (std::size_t slab_tasks : {0u, 1u, 3u, 7u, 1000u}) {
      req.slab_tasks = slab_tasks;
      const BatchSummary got = fused ? runner.run_fused(req, threads)
                                     : runner.run(req, threads);
      SCOPED_TRACE("threads " + std::to_string(threads) + " slab " +
                   std::to_string(slab_tasks) +
                   (fused ? " fused" : " unfused"));
      expect_identical(baseline, got);
    }
  }
}

TEST(SlabScheduling, UnivariateRunIsGrainInvariant) {
  const BatchRunner runner{optsc::OpticalScCircuit(optsc::paper_defaults())};
  BatchRequest req;
  req.polynomials = {sc::BernsteinPoly({0.0, 0.0, 1.0}),
                     sc::BernsteinPoly({0.2, 0.8, 0.4})};
  req.xs = {0.2, 0.5, 0.8};
  req.stream_lengths = {65, 256};
  req.repeats = 3;
  req.seed = 17;
  expect_grain_invariance(runner, req, /*fused=*/false);
  expect_grain_invariance(runner, req, /*fused=*/true);
}

TEST(SlabScheduling, BivariateRunIsGrainInvariant) {
  const BatchRunner runner{optsc::OpticalScCircuit(optsc::paper_defaults(1)),
                           1, 1};
  BatchRequest req;
  req.polynomials2 = {sc::BernsteinPoly2(1, 1, {0.0, 0.0, 0.0, 1.0}),
                      sc::BernsteinPoly2(1, 1, {0.25, 0.0, 0.25, 1.0})};
  req.xs = {0.25, 0.75};
  req.ys = {0.5, 0.9};
  req.stream_lengths = {100};
  req.repeats = 4;
  req.seed = 29;
  expect_grain_invariance(runner, req, /*fused=*/false);
  expect_grain_invariance(runner, req, /*fused=*/true);
}

/// A general 3-input request: a rank-3 cubic that reads every axis beside
/// a sparse program whose terms read different axis subsets (axis 0
/// carries three factors, axis 1 one, axis 2 two), so every axis pass
/// fills a different number of coefficient sets.
TEST(SlabScheduling, SeparableRunNdIsGrainInvariant) {
  const BatchRunner runner{optsc::OpticalScCircuit(optsc::paper_defaults(3))};
  const auto factor = [](std::size_t axis, std::vector<double> coeffs) {
    return sc::SeparableFactor{axis, sc::BernsteinPoly(std::move(coeffs))};
  };
  const auto term = [](double weight, std::vector<sc::SeparableFactor> fs) {
    sc::SeparableTerm t;
    t.weight = weight;
    t.factors = std::move(fs);
    return t;
  };
  const sc::SeparableProgram cubic(
      3, {term(0.5, {factor(0, {0.1, 0.6, 0.8, 0.9}),
                     factor(1, {0.9, 0.4, 0.3, 0.2}),
                     factor(2, {0.2, 0.7, 0.5, 1.0})}),
          term(0.3, {factor(0, {0.8, 0.2, 0.4, 0.1}),
                     factor(1, {0.3, 0.9, 0.6, 0.7}),
                     factor(2, {1.0, 0.5, 0.2, 0.0})}),
          term(0.2, {factor(0, {0.4, 0.4, 0.9, 0.6}),
                     factor(1, {0.0, 0.3, 0.8, 1.0}),
                     factor(2, {0.6, 0.1, 0.9, 0.3})})});
  const sc::SeparableProgram sparse(
      3, {term(0.4, {factor(0, {0.2, 0.5, 0.7, 1.0})}),
          term(0.3, {factor(0, {0.9, 0.6, 0.3, 0.1}),
                     factor(1, {0.1, 0.4, 0.8, 0.9})}),
          term(0.2, {factor(0, {0.5, 0.5, 0.2, 0.8}),
                     factor(2, {0.3, 0.9, 0.1, 0.6})}),
          term(0.1, {factor(2, {1.0, 0.7, 0.4, 0.0})})});
  BatchRequest req;
  req.programs_nd = {cubic, sparse};
  req.inputs = {{0.2, 0.5, 0.85}, {0.7, 0.1, 0.45}, {0.35, 0.95, 0.6}};
  req.stream_lengths = {65, 256};
  req.repeats = 3;
  req.seed = 41;
  expect_grain_invariance(runner, req, /*fused=*/false);
}

TEST(SlabScheduling, SlabKnobDoesNotChangeTaskAccounting) {
  const BatchRunner runner{optsc::OpticalScCircuit(optsc::paper_defaults())};
  BatchRequest req;
  req.polynomials = {sc::BernsteinPoly({0.0, 0.0, 1.0})};
  req.xs = {0.4};
  req.stream_lengths = {128};
  req.repeats = 5;
  for (std::size_t slab_tasks : {0u, 2u, 100u}) {
    req.slab_tasks = slab_tasks;
    const BatchSummary summary = runner.run(req, 2);
    EXPECT_EQ(summary.tasks, req.tasks());
    EXPECT_EQ(summary.total_bits, 5u * 128u);
  }
}

}  // namespace
}  // namespace oscs::engine
