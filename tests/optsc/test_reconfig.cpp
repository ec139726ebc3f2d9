#include "optsc/reconfig.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oscs::optsc {
namespace {

TEST(Reconfig, ValidatesConstruction) {
  EXPECT_THROW(ReconfigurableCircuit(0, EnergySpec{}), std::invalid_argument);
}

TEST(Reconfig, ExplicitSharedSpacingIsUsed) {
  ReconfigurableCircuit rc(6, EnergySpec{}, 0.2);
  EXPECT_DOUBLE_EQ(rc.shared_spacing_nm(), 0.2);
  EXPECT_EQ(rc.max_order(), 6u);
}

TEST(Reconfig, AutoSpacingLandsNearPerOrderOptima) {
  ReconfigurableCircuit rc(6, EnergySpec{});
  // The per-order optima cluster around 0.18-0.22 nm (paper: ~0.165).
  EXPECT_GT(rc.shared_spacing_nm(), 0.1);
  EXPECT_LT(rc.shared_spacing_nm(), 0.3);
}

TEST(Reconfig, ConfigureProducesValidPerOrderParams) {
  ReconfigurableCircuit rc(6, EnergySpec{}, 0.2);
  for (std::size_t n : {1u, 2u, 4u, 6u}) {
    const CircuitParams& p = rc.configure(n);
    EXPECT_EQ(p.system.order, n);
    EXPECT_DOUBLE_EQ(p.system.wl_spacing_nm, 0.2);
    EXPECT_NO_THROW(p.validate());
  }
  EXPECT_THROW((void)rc.configure(0), std::invalid_argument);
  EXPECT_THROW((void)rc.configure(7), std::invalid_argument);
}

TEST(Reconfig, ConfigureIsCachedAndStable) {
  ReconfigurableCircuit rc(4, EnergySpec{}, 0.2);
  const CircuitParams& a = rc.configure(3);
  const CircuitParams& b = rc.configure(3);
  EXPECT_EQ(&a, &b);  // same cached object
}

TEST(Reconfig, HigherOrderNeedsMorePump) {
  ReconfigurableCircuit rc(6, EnergySpec{}, 0.2);
  const double p2 = rc.configure(2).lasers.pump_power_mw;
  const double p6 = rc.configure(6).lasers.pump_power_mw;
  EXPECT_GT(p6, p2);  // span grows with order at fixed spacing
}

TEST(Reconfig, SharedGridPenaltyIsSmall) {
  // The paper's degree-independence claim, quantified: running any order
  // on the shared grid costs only a few percent over its dedicated
  // optimum.
  ReconfigurableCircuit rc(6, EnergySpec{});
  for (std::size_t n : {2u, 4u, 6u}) {
    const double penalty = rc.penalty_vs_dedicated(n);
    EXPECT_GE(penalty, 1.0 - 1e-9) << n;
    EXPECT_LT(penalty, 1.05) << n;
  }
}

TEST(Reconfig, EnergyMatchesEnergyModel) {
  ReconfigurableCircuit rc(4, EnergySpec{}, 0.2);
  EnergySpec spec;
  spec.order = 3;
  const double direct = EnergyModel{spec}.at_spacing(0.2, 3).total_pj;
  EXPECT_NEAR(rc.energy(3).total_pj, direct, 1e-9);
}

TEST(Reconfig, RecommendSharedSpacingRejectsEmpty) {
  EXPECT_THROW(
      (void)ReconfigurableCircuit::recommend_shared_spacing(EnergySpec{}, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace oscs::optsc
