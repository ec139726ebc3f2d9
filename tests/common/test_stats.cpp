#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oscs {
namespace {

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.add(3.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci_halfwidth(), 0.0);
}

TEST(Accumulator, CiShrinksWithSampleCount) {
  Accumulator small, large;
  for (int i = 0; i < 16; ++i) small.add(i % 2 == 0 ? 0.0 : 1.0);
  for (int i = 0; i < 1024; ++i) large.add(i % 2 == 0 ? 0.0 : 1.0);
  EXPECT_GT(small.ci_halfwidth(), large.ci_halfwidth());
  // sqrt(1024/16) = 8, modulated slightly by the n-1 variance correction.
  EXPECT_NEAR(small.ci_halfwidth() / large.ci_halfwidth(), 8.0, 0.3);
}

TEST(BatchStats, MeanVariance) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(variance({1.0}), 0.0);
  EXPECT_NEAR(variance({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 32.0 / 7.0,
              1e-12);
}

TEST(ErrorMetrics, MaeRmseMaxAbs) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.5, 2.0, 1.0};
  EXPECT_NEAR(mae(a, b), (0.5 + 0.0 + 2.0) / 3.0, 1e-15);
  EXPECT_NEAR(rmse(a, b), std::sqrt((0.25 + 0.0 + 4.0) / 3.0), 1e-15);
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 2.0);
}

TEST(ErrorMetrics, RejectsMismatchedOrEmpty) {
  EXPECT_THROW((void)mae({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW((void)rmse({}, {}), std::invalid_argument);
}

TEST(Pearson, PerfectAndAnticorrelated) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
  const std::vector<double> c{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);  // constant series guard
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);   // bin 0
  h.add(0.3);   // bin 1
  h.add(0.55);  // bin 2
  h.add(0.9);   // bin 3
  h.add(-5.0);  // clamped to bin 0
  h.add(5.0);   // clamped to bin 3
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(3), 2u);
  EXPECT_NEAR(h.bin_center(0), 0.125, 1e-15);
  EXPECT_NEAR(h.bin_fraction(3), 2.0 / 6.0, 1e-15);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace oscs
