#include "stochastic/lfsr.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace oscs::stochastic {
namespace {

TEST(LfsrTest, RejectsUnsupportedWidths) {
  EXPECT_THROW(Lfsr(2), std::invalid_argument);
  EXPECT_THROW(Lfsr(17), std::invalid_argument);
  EXPECT_THROW(Lfsr(20), std::invalid_argument);
  EXPECT_THROW(Lfsr(32), std::invalid_argument);
  EXPECT_THROW(Lfsr(33), std::invalid_argument);
  EXPECT_THROW((void)Lfsr::taps_for_width(1), std::invalid_argument);
}

TEST(LfsrTest, ZeroSeedIsCoercedToNonzero) {
  Lfsr lfsr(8, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(LfsrTest, SeedIsMaskedToWidth) {
  Lfsr lfsr(4, 0xFFu);
  EXPECT_LE(lfsr.state(), 0xFu);
}

TEST(LfsrTest, StateNeverReachesZero) {
  Lfsr lfsr(6, 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(lfsr.step(), 0u);
  }
}

// The load-bearing property: the taps are primitive, so the sequence
// visits all 2^w - 1 nonzero states exactly once before repeating.
class LfsrPeriodP : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrPeriodP, MaximalPeriodAndFullStateCoverage) {
  const unsigned width = GetParam();
  Lfsr lfsr(width, 1);
  const std::uint64_t period = lfsr.period();
  ASSERT_EQ(period, (1ULL << width) - 1ULL);

  const std::uint32_t start = lfsr.state();
  std::vector<bool> seen(1ULL << width, false);
  seen[start] = true;
  std::uint64_t steps = 0;
  for (;;) {
    const std::uint32_t s = lfsr.step();
    ++steps;
    if (s == start) break;
    ASSERT_FALSE(seen[s]) << "state revisited before full period at step "
                          << steps;
    seen[s] = true;
    ASSERT_LE(steps, period) << "period exceeded without closing the cycle";
  }
  EXPECT_EQ(steps, period);
}

INSTANTIATE_TEST_SUITE_P(Widths3To16, LfsrPeriodP,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u, 13u, 14u, 15u, 16u));

TEST(LfsrTest, BalancedStatesOverFullPeriod) {
  // Over one full period the state, read as a w-bit number, is uniform
  // over [1, 2^w - 1]; its mean is 2^(w-1) (each bit is 1 in exactly
  // 2^(w-1) of the states).
  const unsigned width = 10;
  Lfsr lfsr(width, 1);
  const std::uint64_t period = lfsr.period();
  double sum = 0.0;
  for (std::uint64_t i = 0; i < period; ++i) sum += lfsr.step();
  EXPECT_NEAR(sum / static_cast<double>(period),
              static_cast<double>(1u << (width - 1)), 1e-9);
}

TEST(LfsrTest, DifferentSeedsAreShiftsOfTheSameSequence) {
  // Both orbits traverse the same cycle, so the sets of visited states
  // match even though the phases differ.
  Lfsr a(8, 1), b(8, 77);
  std::set<std::uint32_t> sa, sb;
  for (int i = 0; i < 255; ++i) {
    sa.insert(a.step());
    sb.insert(b.step());
  }
  EXPECT_EQ(sa, sb);
}

}  // namespace
}  // namespace oscs::stochastic
