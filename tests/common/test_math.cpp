#include "common/math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oscs {
namespace {

TEST(ErfcInv, InvertsErfcAcrossMagnitudes) {
  for (double y : {1.9, 1.5, 1.0 + 1e-9, 0.5, 1e-2, 1e-6, 1e-12, 1e-30,
                   1e-100, 1e-250}) {
    const double x = erfc_inv(y);
    EXPECT_NEAR(std::erfc(x) / y, 1.0, 1e-10) << "y=" << y;
  }
}

TEST(ErfcInv, KnownValues) {
  EXPECT_NEAR(erfc_inv(1.0), 0.0, 1e-15);
  // erfc(1) = 0.15729920705028513.
  EXPECT_NEAR(erfc_inv(0.15729920705028513), 1.0, 1e-12);
  // Antisymmetry: erfc_inv(2 - y) = -erfc_inv(y).
  EXPECT_NEAR(erfc_inv(1.8), -erfc_inv(0.2), 1e-12);
}

TEST(ErfcInv, RejectsOutOfDomain) {
  EXPECT_THROW((void)erfc_inv(0.0), std::domain_error);
  EXPECT_THROW((void)erfc_inv(2.0), std::domain_error);
  EXPECT_THROW((void)erfc_inv(-0.5), std::domain_error);
}

TEST(QFunction, MatchesTabulatedTailValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-15);
  EXPECT_NEAR(q_function(1.0), 0.15865525393145707, 1e-12);
  EXPECT_NEAR(q_function(3.0), 0.0013498980316300933, 1e-14);
  // Q(4.7534) ~ 1e-6: the SNR anchor behind BER = 1e-6 links.
  EXPECT_NEAR(q_function(4.753424), 1e-6, 2e-9);
}

TEST(QFunction, InverseRoundTrip) {
  for (double p : {0.4, 0.1, 1e-3, 1e-6, 1e-9}) {
    EXPECT_NEAR(q_function(q_function_inv(p)) / p, 1.0, 1e-9) << p;
  }
}

TEST(Bisect, FindsRootOfMonotoneFunction) {
  const double root =
      bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-14);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-12);
}

TEST(Bisect, HandlesDecreasingFunctions) {
  const double root =
      bisect([](double x) { return std::cos(x); }, 0.0, 3.0, 1e-14);
  EXPECT_NEAR(root, M_PI / 2.0, 1e-12);
}

TEST(Bisect, RejectsNonBracketingInterval) {
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

TEST(GoldenMin, FindsParabolaMinimum) {
  const double x =
      golden_min([](double v) { return (v - 1.7) * (v - 1.7); }, 0.0, 5.0);
  EXPECT_NEAR(x, 1.7, 1e-6);
}

TEST(GoldenMin, FindsAsymmetricMinimum) {
  // f(x) = x + 1/x on (0, inf): minimum at x = 1.
  const double x =
      golden_min([](double v) { return v + 1.0 / v; }, 0.05, 10.0);
  EXPECT_NEAR(x, 1.0, 1e-5);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(0.1, 0.3, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.1);
  EXPECT_DOUBLE_EQ(v.back(), 0.3);
  EXPECT_NEAR(v[1] - v[0], 0.05, 1e-15);
  EXPECT_NEAR(v[3] - v[2], 0.05, 1e-15);
}

TEST(Linspace, DegenerateSizes) {
  EXPECT_TRUE(linspace(0.0, 1.0, 0).empty());
  const auto one = linspace(3.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
}

TEST(Logspace, CoversDecades) {
  const auto v = logspace(1e-6, 1e-2, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_NEAR(v[0], 1e-6, 1e-18);
  EXPECT_NEAR(v[1], 1e-5, 1e-16);
  EXPECT_NEAR(v[4], 1e-2, 1e-14);
  EXPECT_THROW(logspace(0.0, 1.0, 3), std::domain_error);
}

TEST(Binom, PascalTriangleRows) {
  EXPECT_DOUBLE_EQ(binom(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binom(6, 3), 20.0);
  EXPECT_DOUBLE_EQ(binom(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(binom(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(binom(12, 5), 792.0);
  EXPECT_DOUBLE_EQ(binom(3, 5), 0.0);
}

TEST(Binom, SymmetryAndRecurrence) {
  for (unsigned n = 1; n <= 20; ++n) {
    for (unsigned k = 0; k <= n; ++k) {
      EXPECT_DOUBLE_EQ(binom(n, k), binom(n, n - k));
      if (k >= 1) {
        EXPECT_NEAR(binom(n, k), binom(n - 1, k - 1) + binom(n - 1, k), 1e-6);
      }
    }
  }
}

TEST(KahanSum, RecoversSmallTermsNextToLargeOnes) {
  std::vector<double> xs{1e16, 1.0, -1e16, 1.0};
  EXPECT_DOUBLE_EQ(kahan_sum(xs), 2.0);
}

TEST(Clamp01, Clamps) {
  EXPECT_DOUBLE_EQ(clamp01(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(clamp01(0.25), 0.25);
  EXPECT_DOUBLE_EQ(clamp01(1.5), 1.0);
}

}  // namespace
}  // namespace oscs
