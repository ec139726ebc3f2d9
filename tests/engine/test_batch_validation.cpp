/// Error-contract tests for BatchRunner: run() and run_fused() must reject
/// the same malformed requests with std::invalid_argument before any task
/// is submitted. The serving layer feeds these entry points with
/// user-supplied JSON, so every hole here is a remotely reachable one.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "engine/batch.hpp"
#include "obs/metrics.hpp"
#include "optsc/defaults.hpp"

namespace oscs::engine {
namespace {

namespace sc = oscs::stochastic;

BatchRequest valid_request() {
  BatchRequest req;
  req.polynomials = {sc::BernsteinPoly({0.2, 0.9, 0.4})};
  req.xs = {0.25, 0.75};
  req.stream_lengths = {256};
  req.repeats = 2;
  return req;
}

const BatchRunner& runner() {
  static const BatchRunner instance{
      optsc::OpticalScCircuit(optsc::paper_defaults(2))};
  return instance;
}

/// Jobs every thread pool of the process has run so far.
std::uint64_t pool_tasks_run() {
  const obs::Counter* tasks =
      obs::Registry::global().find_counter("oscs_engine_pool_tasks_total");
  return tasks != nullptr ? tasks->value() : 0;
}

/// Both entry points, one signature: the tests below run every bad
/// request through each.
using Entry = BatchSummary (*)(const BatchRequest&);
BatchSummary run_entry(const BatchRequest& req) {
  return runner().run(req, /*threads=*/1);
}
BatchSummary run_fused_entry(const BatchRequest& req) {
  return runner().run_fused(req, /*threads=*/1);
}

class BatchValidationTest : public ::testing::TestWithParam<Entry> {};

TEST_P(BatchValidationTest, AcceptsAValidRequest) {
  const BatchSummary summary = GetParam()(valid_request());
  EXPECT_EQ(summary.cells.size(), 2u);
}

TEST_P(BatchValidationTest, RejectsZeroRepeats) {
  BatchRequest req = valid_request();
  req.repeats = 0;
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyPolynomials) {
  BatchRequest req = valid_request();
  req.polynomials.clear();
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyXs) {
  BatchRequest req = valid_request();
  req.xs.clear();
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsEmptyStreamLengths) {
  BatchRequest req = valid_request();
  req.stream_lengths.clear();
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsZeroStreamLength) {
  BatchRequest req = valid_request();
  req.stream_lengths = {256, 0};
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

TEST_P(BatchValidationTest, RejectsOutOfRangeOrNonFiniteX) {
  for (const double bad : {-0.1, 1.1, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    BatchRequest req = valid_request();
    req.xs = {0.5, bad};
    EXPECT_THROW((void)GetParam()(req), std::invalid_argument)
        << "x = " << bad;
  }
}

TEST_P(BatchValidationTest, RejectsInvalidOperatingPoint) {
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->ber = 0.75;  // outside [0, 0.5]
    EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->probe_power_mw = -1.0;
    EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
  }
  {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{};
    req.op->stream_length = 0;
    EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
  }
  // An LFSR width outside the lane loop's range runs no task at all.
  for (unsigned width : {2u, 17u, 24u, 32u}) {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{}.with_sng_width(width);
    const std::uint64_t before = pool_tasks_run();
    EXPECT_THROW((void)GetParam()(req), std::invalid_argument)
        << "width " << width;
    EXPECT_EQ(pool_tasks_run(), before) << "width " << width;
  }
}

TEST_P(BatchValidationTest, AcceptsTheEdgeLfsrWidths) {
  // The LFSR range is inclusive: its end widths run at the width asked.
  for (unsigned width : {3u, 16u}) {
    BatchRequest req = valid_request();
    req.op = oscs::OperatingPoint{}.with_sng_width(width);
    const BatchSummary summary = GetParam()(req);
    EXPECT_EQ(summary.cells.size(), 2u) << "width " << width;
    EXPECT_EQ(summary.op.sng_width, width);
  }
}

TEST_P(BatchValidationTest, AcceptsWideRegistersOfOtherSources) {
  // The LFSR range binds LFSRs only: the widths an LFSR may not take
  // still run on the other sources.
  for (sc::SourceKind kind :
       {sc::SourceKind::kCounter, sc::SourceKind::kVanDerCorput,
        sc::SourceKind::kChaoticLaser}) {
    for (unsigned width : {17u, 24u, 32u}) {
      BatchRequest req = valid_request();
      req.source_kind = kind;
      req.op = oscs::OperatingPoint{}.with_sng_width(width);
      const BatchSummary summary = GetParam()(req);
      EXPECT_EQ(summary.cells.size(), 2u)
          << "kind " << static_cast<int>(kind) << " width " << width;
    }
  }
}

TEST_P(BatchValidationTest, RejectsPolynomialOrderMismatch) {
  BatchRequest req = valid_request();
  req.polynomials.push_back(sc::BernsteinPoly({0.1, 0.9}));  // order 1
  EXPECT_THROW((void)GetParam()(req), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(RunAndRunFused, BatchValidationTest,
                         ::testing::Values(&run_entry, &run_fused_entry),
                         [](const auto& info) {
                           return info.param == &run_entry ? "run"
                                                           : "run_fused";
                         });

}  // namespace
}  // namespace oscs::engine
