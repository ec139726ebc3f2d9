#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "optsc/defaults.hpp"
#include "stochastic/functions.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;
using optsc::OpticalScCircuit;
using optsc::paper_defaults;

BatchRequest small_request() {
  BatchRequest req;
  req.polynomials.push_back(sc::BernsteinPoly({0.0, 0.0, 1.0}));  // x^2
  req.polynomials.push_back(sc::BernsteinPoly({0.2, 0.8, 0.4}));
  req.xs = {0.2, 0.5, 0.8};
  req.stream_lengths = {256, 1024};
  req.repeats = 4;
  req.seed = 11;
  return req;
}

TEST(BatchRequest, CountsAndValidation) {
  BatchRequest req = small_request();
  EXPECT_EQ(req.cells(), 2u * 3u * 2u);
  EXPECT_EQ(req.tasks(), req.cells() * 4u);
  req.validate();

  BatchRequest bad = small_request();
  bad.polynomials.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = small_request();
  bad.xs.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = small_request();
  bad.stream_lengths = {0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = small_request();
  bad.repeats = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(BatchRunner, RejectsOrderMismatch) {
  const OpticalScCircuit c(paper_defaults());  // order 2
  const BatchRunner runner(c);
  BatchRequest req = small_request();
  req.polynomials.push_back(sc::paper_f2_bernstein());  // degree 3
  EXPECT_THROW((void)runner.run_nd(req, 1), std::invalid_argument);
}

TEST(BatchRunner, CellsComeBackInGridOrderWithSaneStats) {
  const OpticalScCircuit c(paper_defaults());
  const BatchRunner runner(c);
  const BatchRequest req = small_request();
  const BatchSummary summary = runner.run_nd(req, 2);

  ASSERT_EQ(summary.cells.size(), req.cells());
  EXPECT_EQ(summary.tasks, req.tasks());
  EXPECT_EQ(summary.total_bits, req.tasks() / 2 * (256 + 1024));

  std::size_t i = 0;
  double worst = 0.0;
  for (std::size_t pi = 0; pi < req.polynomials.size(); ++pi) {
    for (double x : req.xs) {
      for (std::size_t length : req.stream_lengths) {
        const BatchCell& cell = summary.cells[i++];
        EXPECT_EQ(cell.poly_index, pi);
        EXPECT_DOUBLE_EQ(cell.x, x);
        EXPECT_EQ(cell.stream_length, length);
        EXPECT_EQ(cell.repeats, req.repeats);
        EXPECT_DOUBLE_EQ(cell.expected, req.polynomials[pi](x));
        // SC estimates live in [0,1] and track the expectation loosely
        // even at these short lengths.
        EXPECT_GE(cell.optical_mean, 0.0);
        EXPECT_LE(cell.optical_mean, 1.0);
        EXPECT_NEAR(cell.optical_mean, cell.expected,
                    cell.optical_ci + 0.15);
        EXPECT_GE(cell.optical_ci, 0.0);
        // The reference design is noise-free: no transmission flips.
        EXPECT_DOUBLE_EQ(cell.flip_rate_mean, 0.0);
        worst = std::max(worst, cell.optical_abs_error_mean);
      }
    }
  }
  EXPECT_DOUBLE_EQ(summary.worst_cell_error, worst);
  EXPECT_GT(summary.optical_mae, 0.0);
  EXPECT_LT(summary.optical_mae, 0.15);
}

TEST(BatchRunner, ResultsAreBitIdenticalForEveryThreadCount) {
  const OpticalScCircuit c(paper_defaults());
  const BatchRunner runner(c);
  const BatchRequest req = small_request();

  const BatchSummary one = runner.run_nd(req, 1);
  for (std::size_t threads : {2u, 4u}) {
    const BatchSummary many = runner.run_nd(req, threads);
    ASSERT_EQ(many.cells.size(), one.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_DOUBLE_EQ(many.cells[i].optical_mean, one.cells[i].optical_mean);
      EXPECT_DOUBLE_EQ(many.cells[i].optical_ci, one.cells[i].optical_ci);
      EXPECT_DOUBLE_EQ(many.cells[i].optical_abs_error_mean,
                       one.cells[i].optical_abs_error_mean);
      EXPECT_DOUBLE_EQ(many.cells[i].electronic_abs_error_mean,
                       one.cells[i].electronic_abs_error_mean);
      EXPECT_DOUBLE_EQ(many.cells[i].flip_rate_mean,
                       one.cells[i].flip_rate_mean);
    }
    EXPECT_DOUBLE_EQ(many.optical_mae, one.optical_mae);
  }
}

TEST(BatchRunner, ReusesAnExternalPoolAndMatchesTheConvenienceOverload) {
  const OpticalScCircuit c(paper_defaults());
  const BatchRunner runner(c);
  const BatchRequest req = small_request();
  ThreadPool pool(3);
  const BatchSummary a = runner.run_nd(req, pool);
  const BatchSummary b = runner.run_nd(req, 3);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].optical_mean, b.cells[i].optical_mean);
  }
}

TEST(BatchRunner, MasterSeedSelectsTheMonteCarloSample) {
  const OpticalScCircuit c(paper_defaults());
  const BatchRunner runner(c);
  BatchRequest req = small_request();
  const BatchSummary a = runner.run_nd(req, 2);
  req.seed = 12;
  const BatchSummary b = runner.run_nd(req, 2);
  bool any_different = false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].optical_mean != b.cells[i].optical_mean) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(BatchRunner, ProgramAccuracyReconcilesWithCells) {
  // The per-program roll-up must be derivable from the cells alone: one
  // entry per requested program, mean/worst of |optical_mean - expected|
  // and the mean CI over exactly that program's cells.
  const OpticalScCircuit c(paper_defaults());
  const BatchRunner runner(c);
  const BatchRequest req = small_request();
  const BatchSummary summary = runner.run_nd(req, 2);

  ASSERT_EQ(summary.program_accuracy.size(), req.polynomials.size());
  for (std::size_t pi = 0; pi < req.polynomials.size(); ++pi) {
    double sum = 0.0;
    double worst = 0.0;
    double ci_sum = 0.0;
    std::size_t n = 0;
    for (const BatchCell& cell : summary.cells) {
      if (cell.poly_index != pi) continue;
      const double err = std::abs(cell.optical_mean - cell.expected);
      sum += err;
      worst = std::max(worst, err);
      ci_sum += cell.optical_ci;
      ++n;
    }
    const ProgramAccuracy& acc = summary.program_accuracy[pi];
    ASSERT_GT(n, 0u);
    EXPECT_EQ(acc.cells, n) << pi;
    EXPECT_DOUBLE_EQ(acc.mean_error, sum / static_cast<double>(n)) << pi;
    EXPECT_DOUBLE_EQ(acc.worst_error, worst) << pi;
    EXPECT_DOUBLE_EQ(acc.ci_mean, ci_sum / static_cast<double>(n)) << pi;
  }
}

TEST(TaskSeeds, AreDecorrelatedAcrossTasksAndLanes) {
  EXPECT_NE(derive_task_seed(1, 0, 0), derive_task_seed(1, 0, 1));
  EXPECT_NE(derive_task_seed(1, 0, 0), derive_task_seed(1, 1, 0));
  EXPECT_NE(derive_task_seed(1, 0, 0), derive_task_seed(2, 0, 0));
  EXPECT_EQ(derive_task_seed(7, 3, 1), derive_task_seed(7, 3, 1));
}

}  // namespace
}  // namespace oscs::engine
