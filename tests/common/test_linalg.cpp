#include "common/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oscs {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
}

TEST(Matrix, InitializerListAndTranspose) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
  EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

TEST(Matrix, MultiplyIdentity) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::identity(2);
  EXPECT_DOUBLE_EQ((m * i).max_abs_diff(m), 0.0);
  EXPECT_DOUBLE_EQ((i * m).max_abs_diff(m), 0.0);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, VectorProductAndShapeChecks) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> v{5.0, 6.0};
  const auto out = a * v;
  EXPECT_DOUBLE_EQ(out[0], 17.0);
  EXPECT_DOUBLE_EQ(out[1], 39.0);
  EXPECT_THROW(a * std::vector<double>{1.0}, std::invalid_argument);
}

TEST(LuSolve, SolvesGeneralSystem) {
  Matrix a{{2.0, 1.0, -1.0}, {-3.0, -1.0, 2.0}, {-2.0, 1.0, 2.0}};
  const std::vector<double> b{8.0, -11.0, -3.0};
  const auto x = lu_solve(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(LuSolve, RequiresPivoting) {
  // A(0,0) = 0 forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = lu_solve(a, {3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(LuSolve, DetectsSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(lu_solve(a, {1.0, 2.0}), std::runtime_error);
}

TEST(CholeskySolve, SolvesSpdSystem) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto x = cholesky_solve(a, {8.0, 7.0});
  // Verify by substitution.
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 8.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 3.0 * x[1], 7.0, 1e-12);
}

TEST(CholeskySolve, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky_solve(a, {1.0, 1.0}), std::runtime_error);
}

TEST(CholeskySolve, AgreesWithLuOnSpd) {
  // Hilbert-like SPD matrix.
  const std::size_t n = 5;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
  }
  std::vector<double> b(n, 1.0);
  const auto x1 = cholesky_solve(a, b);
  const auto x2 = lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x1[i] / x2[i], 1.0, 1e-6) << i;
  }
}

TEST(LeastSquares, RecoversExactFitWhenConsistent) {
  // Overdetermined but consistent: y = 2x + 1 sampled at 4 points.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  const std::vector<double> y{1.0, 3.0, 5.0, 7.0};
  const auto beta = least_squares(a, y);
  EXPECT_NEAR(beta[0], 1.0, 1e-12);
  EXPECT_NEAR(beta[1], 2.0, 1e-12);
}

TEST(LeastSquares, MinimizesResidualForInconsistentData) {
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  const std::vector<double> y{0.0, 1.1, 1.9};
  const auto beta = least_squares(a, y);
  // Known closed-form simple linear regression on x = {0,1,2}.
  EXPECT_NEAR(beta[1], 0.95, 1e-12);   // slope
  EXPECT_NEAR(beta[0], 0.05, 1e-12);   // intercept
}

TEST(VectorOps, NormAndDot) {
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace oscs
