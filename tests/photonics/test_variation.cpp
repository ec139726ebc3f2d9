#include "photonics/variation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"

namespace oscs::photonics {
namespace {

TEST(Variation, PerturbedRingIsAlwaysConstructible) {
  const RingGeometry nominal{1550.0, 10.0, 0.96, 0.98, 0.995};
  VariationSpec spec;
  spec.sigma_coupling = 0.2;  // huge, to exercise the clamps
  spec.sigma_loss = 0.2;
  oscs::Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const RingGeometry g = perturb_ring(nominal, spec, rng);
    EXPECT_NO_THROW(AddDropRing{g}) << i;
  }
}

TEST(Variation, ResonanceScatterHasRequestedSigma) {
  const RingGeometry nominal{1550.0, 10.0, 0.96, 0.98, 0.995};
  VariationSpec spec;
  spec.sigma_resonance_nm = 0.05;
  oscs::Xoshiro256 rng(7);
  oscs::Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(perturb_ring(nominal, spec, rng).resonance_nm - 1550.0);
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.002);
  EXPECT_NEAR(acc.stddev(), 0.05, 0.003);
}

TEST(Variation, ZeroSigmaIsIdentity) {
  const RingGeometry nominal{1550.0, 10.0, 0.96, 0.98, 0.995};
  VariationSpec spec;
  spec.sigma_resonance_nm = 0.0;
  spec.sigma_coupling = 0.0;
  spec.sigma_loss = 0.0;
  oscs::Xoshiro256 rng(1);
  const RingGeometry g = perturb_ring(nominal, spec, rng);
  EXPECT_DOUBLE_EQ(g.resonance_nm, nominal.resonance_nm);
  EXPECT_DOUBLE_EQ(g.r1, nominal.r1);
  EXPECT_DOUBLE_EQ(g.r2, nominal.r2);
  EXPECT_DOUBLE_EQ(g.a, nominal.a);
}

TEST(Variation, MziPerturbationRespectsFloors) {
  const MziDevice nominal{"n", 0.1, 0.3, 40.0, 1.0, false};
  VariationSpec spec;
  spec.sigma_il_db = 2.0;
  spec.sigma_er_db = 2.0;
  oscs::Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const MziDevice d = perturb_mzi(nominal, spec, rng);
    EXPECT_GE(d.il_db, 0.0);
    EXPECT_GE(d.er_db, 0.1);
    EXPECT_NO_THROW((void)d.mzi());
  }
}

TEST(Variation, MziScatterCentredOnNominal) {
  const MziDevice nominal{"n", 4.5, 13.22, 40.0, 1.0, false};
  VariationSpec spec;  // default sigmas: 0.2 / 0.3 dB
  oscs::Xoshiro256 rng(13);
  oscs::Accumulator il, er;
  for (int i = 0; i < 20000; ++i) {
    const MziDevice d = perturb_mzi(nominal, spec, rng);
    il.add(d.il_db);
    er.add(d.er_db);
  }
  EXPECT_NEAR(il.mean(), 4.5, 0.01);
  EXPECT_NEAR(il.stddev(), 0.2, 0.01);
  EXPECT_NEAR(er.mean(), 13.22, 0.02);
  EXPECT_NEAR(er.stddev(), 0.3, 0.02);
}

TEST(Variation, DeterministicGivenSeed) {
  const RingGeometry nominal{1550.0, 10.0, 0.96, 0.98, 0.995};
  VariationSpec spec;
  oscs::Xoshiro256 a(99), b(99);
  const RingGeometry ga = perturb_ring(nominal, spec, a);
  const RingGeometry gb = perturb_ring(nominal, spec, b);
  EXPECT_DOUBLE_EQ(ga.resonance_nm, gb.resonance_nm);
  EXPECT_DOUBLE_EQ(ga.r1, gb.r1);
}

}  // namespace
}  // namespace oscs::photonics
