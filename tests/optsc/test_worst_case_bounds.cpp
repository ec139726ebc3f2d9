/// Tests for the guaranteed worst-case eye bounds
/// (OpticalScCircuit::worst_case_one_transmission / worst_case_zero_total)
/// - the machinery behind EyeModel::kPhysical. The key property: the
/// bounds bracket *every* coefficient pattern, including the
/// modulator-shift collision patterns the Eq. (8) reference states miss.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "optsc/circuit.hpp"
#include "optsc/defaults.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::optsc {
namespace {

// Exhaustively check the bounds against all 2^(n+1) coefficient
// patterns with the filter selecting channel i.
void check_bounds_exhaustive(const OpticalScCircuit& c, std::size_t i) {
  const std::size_t n = c.order();
  std::vector<bool> x(n, false);
  for (std::size_t k = 0; k < i; ++k) x[k] = true;

  const double one_bound = c.worst_case_one_transmission(i);
  const double zero_bound = c.worst_case_zero_total(i);

  for (unsigned pattern = 0; pattern < (1u << (n + 1)); ++pattern) {
    std::vector<bool> z(n + 1);
    for (std::size_t j = 0; j <= n; ++j) z[j] = (pattern >> j) & 1u;
    if (z[i]) {
      // Any '1' pattern delivers at least the bound on the selected
      // channel alone (other channels only add power on top).
      const double own = c.channel_transmission(i, z, x);
      EXPECT_GE(own + 1e-15, one_bound)
          << "i=" << i << " pattern=" << pattern;
    } else {
      // Any '0' pattern's total received power stays below the bound.
      double total = 0.0;
      for (std::size_t w = 0; w <= n; ++w) {
        total += c.channel_transmission(w, z, x);
      }
      EXPECT_LE(total, zero_bound + 1e-12)
          << "i=" << i << " pattern=" << pattern;
    }
  }
}

TEST(WorstCaseBounds, BracketAllPatternsAtPaperGeometry) {
  const OpticalScCircuit c(paper_defaults(2, 1.0));
  for (std::size_t i = 0; i <= 2; ++i) check_bounds_exhaustive(c, i);
}

TEST(WorstCaseBounds, BracketAllPatternsOnTightGrid) {
  // 0.25 nm pitch with a 0.097 nm ON shift: collision territory.
  const OpticalScCircuit c(paper_defaults(3, 0.25));
  for (std::size_t i = 0; i <= 3; ++i) check_bounds_exhaustive(c, i);
}

TEST(WorstCaseBounds, IndexValidation) {
  const OpticalScCircuit c(paper_defaults());
  EXPECT_THROW((void)c.worst_case_one_transmission(3), std::out_of_range);
  EXPECT_THROW((void)c.worst_case_zero_total(7), std::out_of_range);
}

TEST(WorstCaseBounds, ConvergeToReferenceStatesOnWideGrids) {
  // At 1 nm pitch the interferer state barely matters: the worst-case
  // '1' approaches the Eq. (8) reference '1'.
  const OpticalScCircuit c(paper_defaults(2, 1.0));
  for (std::size_t i = 0; i <= 2; ++i) {
    const double ref = c.reference_one_transmission(i, i);
    const double worst = c.worst_case_one_transmission(i);
    EXPECT_LE(worst, ref + 1e-12);
    EXPECT_GT(worst / ref, 0.95) << i;
  }
}

TEST(WorstCaseBounds, CollisionCollapsesTheOneLevelOnTightGrids) {
  // When pitch - shift < linewidth/2, a '1' on the upper neighbour parks
  // its notch on the selected channel: the worst-case '1' falls far
  // below the reference state.
  const OpticalScCircuit c(paper_defaults(2, 0.15));
  const double ref = c.reference_one_transmission(1, 1);
  const double worst = c.worst_case_one_transmission(1);
  EXPECT_LT(worst / ref, 0.75);
}

TEST(WorstCaseBounds, PhysicalEyeClosesBeforeEq8OnShrinkingGrids) {
  // Scan the pitch down: the guaranteed-worst-case eye must close at a
  // wider pitch than the reference-state Eq. (8) eye.
  double phys_close = 0.0;
  double eq8_close = 0.0;
  for (double pitch = 0.5; pitch >= 0.08; pitch -= 0.01) {
    const OpticalScCircuit c(paper_defaults(2, pitch));
    const LinkBudget phys(c, EyeModel::kPhysical);
    const LinkBudget eq8(c, EyeModel::kPaperEq8);
    if (phys_close == 0.0 && phys.analyze(1.0).eye_transmission <= 0.0) {
      phys_close = pitch;
    }
    if (eq8_close == 0.0 && eq8.analyze(1.0).eye_transmission <= 0.0) {
      eq8_close = pitch;
    }
  }
  EXPECT_GT(phys_close, 0.0) << "physical eye never closed in the scan";
  if (eq8_close > 0.0) {
    EXPECT_GE(phys_close, eq8_close);
  }
}

TEST(WorstCaseBounds, MonteCarloNeverEscapesTheBounds) {
  // Randomized double-check at order 6 where exhaustive enumeration of
  // all channels would be slow in aggregate.
  const OpticalScCircuit c(paper_defaults(6, 0.3));
  oscs::Xoshiro256 rng(99);
  const std::size_t n = c.order();
  for (int trial = 0; trial < 400; ++trial) {
    const auto i = static_cast<std::size_t>(rng.below(n + 1));
    std::vector<bool> x(n, false);
    for (std::size_t k = 0; k < i; ++k) x[k] = true;
    std::vector<bool> z(n + 1);
    for (std::size_t j = 0; j <= n; ++j) z[j] = rng.bernoulli(0.5);
    if (z[i]) {
      EXPECT_GE(c.channel_transmission(i, z, x) + 1e-15,
                c.worst_case_one_transmission(i));
    } else {
      double total = 0.0;
      for (std::size_t w = 0; w <= n; ++w) {
        total += c.channel_transmission(w, z, x);
      }
      EXPECT_LE(total, c.worst_case_zero_total(i) + 1e-12);
    }
  }
}

class BoundsOrderP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoundsOrderP, BoundsAreOrderedAndPositiveAcrossOrders) {
  const std::size_t n = GetParam();
  const OpticalScCircuit c(paper_defaults(n, 0.5));
  for (std::size_t i = 0; i <= n; ++i) {
    const double one = c.worst_case_one_transmission(i);
    const double zero = c.worst_case_zero_total(i);
    EXPECT_GT(one, 0.0) << i;
    EXPECT_GT(zero, 0.0) << i;
    // At a 0.5 nm pitch the budget must still close: open eye.
    EXPECT_GT(one, zero) << "order " << n << " channel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BoundsOrderP,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u));

}  // namespace
}  // namespace oscs::optsc
