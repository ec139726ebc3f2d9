/// \file test_separable.cpp
/// \brief Unit tests for the SeparableProgram model: construction
///        invariants, dense N=1/N=2 delegation forms, exact arithmetic
///        evaluation, SC-compatibility checks and degree elevation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"

namespace oscs::stochastic {
namespace {

SeparableProgram trilinear() {
  // x*(1-z) + y*z over (x, y, z).
  SeparableTerm t1;
  t1.weight = 1.0;
  t1.factors = {{0, BernsteinPoly({0.0, 1.0})},
                {2, BernsteinPoly({1.0, 0.0})}};
  SeparableTerm t2;
  t2.weight = 1.0;
  t2.factors = {{1, BernsteinPoly({0.0, 1.0})},
                {2, BernsteinPoly({0.0, 1.0})}};
  return SeparableProgram(3, {t1, t2});
}

TEST(SeparableProgramTest, DenseUnivariateFormDelegates) {
  const BernsteinPoly poly({0.2, 0.8, 0.5});
  const SeparableProgram program(poly);
  EXPECT_EQ(program.arity(), 1u);
  EXPECT_TRUE(program.has_dense1());
  EXPECT_FALSE(program.has_dense2());
  EXPECT_EQ(program.factor_degree(), 2u);
  // The terms() view mirrors the dense polynomial as one rank-1 term.
  ASSERT_EQ(program.term_count(), 1u);
  EXPECT_DOUBLE_EQ(program.terms().front().weight, 1.0);
  // Evaluation is the dense polynomial's arithmetic, exactly.
  for (double x : {0.0, 0.3, 1.0}) {
    EXPECT_DOUBLE_EQ(program({x}), poly(x));
  }
  EXPECT_THROW((void)program.dense2(), std::logic_error);
}

TEST(SeparableProgramTest, DenseBivariateFormDelegates) {
  const BernsteinPoly2 poly(
      1, 1, std::vector<double>{0.1, 0.9, 0.4, 0.6});
  const SeparableProgram program(poly);
  EXPECT_EQ(program.arity(), 2u);
  EXPECT_TRUE(program.has_dense2());
  EXPECT_FALSE(program.has_dense1());
  EXPECT_TRUE(program.terms().empty());
  EXPECT_DOUBLE_EQ(program({0.25, 0.75}), poly(0.25, 0.75));
  EXPECT_THROW((void)program.dense1(), std::logic_error);
}

TEST(SeparableProgramTest, GeneralFormEvaluatesSumOfProducts) {
  const SeparableProgram program = trilinear();
  EXPECT_EQ(program.arity(), 3u);
  EXPECT_FALSE(program.has_dense1());
  EXPECT_FALSE(program.has_dense2());
  EXPECT_EQ(program.term_count(), 2u);
  EXPECT_DOUBLE_EQ(program.weight_sum(), 2.0);
  EXPECT_EQ(program.factor_degree(), 1u);
  // x(1-z) + yz at a few points; axis 1 is absent from term 1 and axis 0
  // from term 2 (identity factors).
  EXPECT_NEAR(program({0.3, 0.8, 0.6}), 0.3 * 0.4 + 0.8 * 0.6, 1e-12);
  EXPECT_NEAR(program({1.0, 0.0, 0.0}), 1.0, 1e-12);
  EXPECT_NEAR(program({0.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(SeparableProgramTest, ConstructionRejectsMalformedTerms) {
  const BernsteinPoly ramp({0.0, 1.0});
  // Zero arity / no terms.
  EXPECT_THROW(SeparableProgram(0, {SeparableTerm{}}), std::invalid_argument);
  EXPECT_THROW(SeparableProgram(2, {}), std::invalid_argument);
  // Negative and non-finite weights.
  SeparableTerm negative;
  negative.weight = -0.5;
  negative.factors = {{0, ramp}};
  EXPECT_THROW(SeparableProgram(1, {negative}), std::invalid_argument);
  SeparableTerm inf;
  inf.weight = std::numeric_limits<double>::infinity();
  inf.factors = {{0, ramp}};
  EXPECT_THROW(SeparableProgram(1, {inf}), std::invalid_argument);
  // Factor axis out of range.
  SeparableTerm oob;
  oob.factors = {{2, ramp}};
  EXPECT_THROW(SeparableProgram(2, {oob}), std::invalid_argument);
  // Axes must be strictly increasing within a term (duplicates too).
  SeparableTerm dup;
  dup.factors = {{1, ramp}, {1, ramp}};
  EXPECT_THROW(SeparableProgram(2, {dup}), std::invalid_argument);
  SeparableTerm descending;
  descending.factors = {{1, ramp}, {0, ramp}};
  EXPECT_THROW(SeparableProgram(2, {descending}), std::invalid_argument);
}

TEST(SeparableProgramTest, EvaluationRejectsArityMismatch) {
  const SeparableProgram program = trilinear();
  EXPECT_THROW((void)program({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW((void)program({0.1, 0.2, 0.3, 0.4}), std::invalid_argument);
}

TEST(SeparableProgramTest, ScCompatibilityChecksCoefficientsAndWeights) {
  EXPECT_TRUE(trilinear().is_sc_compatible());
  // A factor coefficient outside [0,1] is not SNG-implementable...
  SeparableTerm hot;
  hot.factors = {{0, BernsteinPoly({0.0, 1.2})}};
  EXPECT_FALSE(SeparableProgram(1, {hot}).is_sc_compatible());
  // ...unless the tolerance admits it.
  EXPECT_TRUE(SeparableProgram(1, {hot}).is_sc_compatible(0.25));
}

TEST(SeparableProgramTest, ElevationPreservesValuesAndRaisesDegree) {
  const SeparableProgram program = trilinear();
  const SeparableProgram elevated = program.elevated_to(3);
  EXPECT_EQ(elevated.arity(), 3u);
  EXPECT_EQ(elevated.factor_degree(), 3u);
  for (const SeparableTerm& term : elevated.terms()) {
    for (const SeparableFactor& factor : term.factors) {
      EXPECT_EQ(factor.poly.degree(), 3u);
    }
  }
  for (double x : {0.0, 0.3, 0.7}) {
    for (double z : {0.1, 0.9}) {
      const std::vector<double> point{x, 0.5, z};
      EXPECT_NEAR(elevated(point), program(point), 1e-12);
    }
  }
  // Cannot elevate DOWN past an existing factor degree.
  EXPECT_THROW(program.elevated_to(0), std::invalid_argument);
  // Dense forms pass through unchanged (their kernels run at their own
  // orders).
  const SeparableProgram dense(BernsteinPoly({0.2, 0.8, 0.5}));
  EXPECT_EQ(dense.elevated_to(5).factor_degree(), 2u);
}

}  // namespace
}  // namespace oscs::stochastic
