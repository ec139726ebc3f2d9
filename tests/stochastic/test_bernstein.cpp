#include "stochastic/bernstein.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stochastic/functions.hpp"

namespace oscs::stochastic {
namespace {

TEST(BernsteinBasis, EndpointValues) {
  // B_{0,n}(0) = 1, B_{n,n}(1) = 1, all others vanish at the endpoints.
  for (std::size_t n : {1u, 3u, 6u}) {
    EXPECT_DOUBLE_EQ(bernstein_basis(0, n, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(bernstein_basis(n, n, 1.0), 1.0);
    for (std::size_t i = 1; i <= n; ++i) {
      EXPECT_DOUBLE_EQ(bernstein_basis(i, n, 0.0), 0.0);
    }
  }
  EXPECT_THROW((void)bernstein_basis(4, 3, 0.5), std::invalid_argument);
}

class PartitionOfUnityP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionOfUnityP, BasisSumsToOneEverywhere) {
  const std::size_t n = GetParam();
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    double sum = 0.0;
    for (std::size_t i = 0; i <= n; ++i) sum += bernstein_basis(i, n, x);
    ASSERT_NEAR(sum, 1.0, 1e-12) << "n=" << n << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PartitionOfUnityP,
                         ::testing::Values(1u, 2u, 3u, 6u, 12u, 20u));

TEST(BernsteinPolyTest, RequiresCoefficients) {
  EXPECT_THROW(BernsteinPoly(std::vector<double>{}), std::invalid_argument);
}

TEST(BernsteinPolyTest, DeCasteljauMatchesBasisExpansion) {
  const BernsteinPoly p({0.25, 0.625, 0.375, 0.75});
  for (double x = 0.0; x <= 1.0; x += 0.1) {
    double direct = 0.0;
    for (std::size_t i = 0; i <= 3; ++i) {
      direct += p.coeffs()[i] * bernstein_basis(i, 3, x);
    }
    EXPECT_NEAR(p(x), direct, 1e-12) << x;
  }
}

TEST(BernsteinPolyTest, EndpointInterpolation) {
  const BernsteinPoly p({0.2, 0.9, 0.1, 0.7});
  EXPECT_DOUBLE_EQ(p(0.0), 0.2);  // b_0
  EXPECT_DOUBLE_EQ(p(1.0), 0.7);  // b_n
}

TEST(BernsteinPolyTest, PaperFig1GoldenConversion) {
  // The paper's printed example: f2 power form converts to Bernstein
  // coefficients exactly (2/8, 5/8, 3/8, 6/8).
  const BernsteinPoly b = BernsteinPoly::from_power(paper_f2_power());
  ASSERT_EQ(b.degree(), 3u);
  EXPECT_NEAR(b.coeffs()[0], 2.0 / 8.0, 1e-12);
  EXPECT_NEAR(b.coeffs()[1], 5.0 / 8.0, 1e-12);
  EXPECT_NEAR(b.coeffs()[2], 3.0 / 8.0, 1e-12);
  EXPECT_NEAR(b.coeffs()[3], 6.0 / 8.0, 1e-12);
}

TEST(BernsteinPolyTest, PowerRoundTrip) {
  const Polynomial p({0.1, 0.7, -0.4, 0.2, 0.05});
  const BernsteinPoly b = BernsteinPoly::from_power(p);
  const Polynomial back = b.to_power();
  for (std::size_t k = 0; k <= p.degree(); ++k) {
    EXPECT_NEAR(back.coeff(k), p.coeff(k), 1e-10) << k;
  }
}

TEST(BernsteinPolyTest, ConversionPreservesValues) {
  const Polynomial p = paper_f2_power();
  const BernsteinPoly b = BernsteinPoly::from_power(p);
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    EXPECT_NEAR(b(x), p(x), 1e-12) << x;
  }
}

TEST(BernsteinPolyTest, ScCompatibilityCheck) {
  EXPECT_TRUE(BernsteinPoly({0.0, 0.5, 1.0}).is_sc_compatible());
  EXPECT_FALSE(BernsteinPoly({-0.1, 0.5}).is_sc_compatible());
  EXPECT_FALSE(BernsteinPoly({0.5, 1.2}).is_sc_compatible());
  EXPECT_TRUE(BernsteinPoly({-1e-12, 0.5}).is_sc_compatible(1e-9));
}

class ElevationP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ElevationP, DegreeElevationPreservesValues) {
  const std::size_t times = GetParam();
  const BernsteinPoly p({0.25, 0.625, 0.375, 0.75});
  const BernsteinPoly up = p.elevated(times);
  EXPECT_EQ(up.degree(), 3u + times);
  for (double x = 0.0; x <= 1.0; x += 0.1) {
    ASSERT_NEAR(up(x), p(x), 1e-11) << "times=" << times << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, ElevationP,
                         ::testing::Values(1u, 2u, 5u, 10u));

TEST(BernsteinPolyTest, ElevationKeepsCoefficientsInUnitInterval) {
  // Elevation is a convex combination: SC compatibility is preserved.
  const BernsteinPoly p({0.0, 1.0, 0.2, 0.9});
  EXPECT_TRUE(p.elevated(7).is_sc_compatible(1e-12));
}

TEST(BernsteinFit, RecoversExactPolynomialOfSameDegree) {
  // Fitting a degree-3 polynomial at degree 3 must return it exactly.
  const BernsteinPoly target = paper_f2_bernstein();
  const BernsteinPoly fitted = BernsteinPoly::fit(
      [&](double x) { return target(x); }, 3, /*clamp_to_unit=*/false);
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_NEAR(fitted.coeffs()[i], target.coeffs()[i], 1e-8) << i;
  }
}

TEST(BernsteinFit, GammaCorrectionFitIsAccurateAndScCompatible) {
  // The paper's Sec. V-C application: 6th-order gamma correction.
  const auto gamma = [](double x) { return std::pow(x, 0.45); };
  const BernsteinPoly fit = BernsteinPoly::fit(gamma, 6);
  EXPECT_TRUE(fit.is_sc_compatible(1e-12));
  double worst = 0.0;
  for (double x = 0.0; x <= 1.0; x += 0.01) {
    worst = std::max(worst, std::fabs(fit(x) - gamma(x)));
  }
  // x^0.45 has unbounded slope at 0; a 6th-order polynomial tops out
  // around 0.1 absolute error inside the singular corner.
  EXPECT_LT(worst, 0.12);
  double worst_interior = 0.0;
  for (double x = 0.1; x <= 1.0; x += 0.01) {
    worst_interior = std::max(worst_interior, std::fabs(fit(x) - gamma(x)));
  }
  EXPECT_LT(worst_interior, 0.01);
}

TEST(BernsteinFit, HigherDegreeReducesL2Error) {
  const auto f = [](double x) { return std::sin(M_PI * x); };
  auto l2 = [&](const BernsteinPoly& p) {
    double err = 0.0;
    for (double x = 0.0; x <= 1.0; x += 0.005) {
      err += (p(x) - f(x)) * (p(x) - f(x));
    }
    return err;
  };
  const double e4 = l2(BernsteinPoly::fit(f, 4, false));
  const double e8 = l2(BernsteinPoly::fit(f, 8, false));
  EXPECT_LT(e8, e4);
}

}  // namespace
}  // namespace oscs::stochastic
