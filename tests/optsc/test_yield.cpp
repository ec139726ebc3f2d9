#include "optsc/yield.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "optsc/defaults.hpp"
#include "optsc/mrr_first.hpp"

namespace oscs::optsc {
namespace {

CircuitParams sized_circuit(double margin) {
  // A circuit whose probe power carries `margin`x the minimum for 1e-6.
  MrrFirstSpec spec;
  MrrFirstResult r = mrr_first(spec);
  r.params.lasers.probe_power_mw = r.min_probe_mw * margin;
  return r.params;
}

TEST(Yield, ValidatesConfig) {
  YieldConfig cfg;
  cfg.samples = 0;
  EXPECT_THROW((void)estimate_yield(paper_defaults(), cfg),
               std::invalid_argument);
}

TEST(Yield, NoVariationGivesFullYield) {
  YieldConfig cfg;
  cfg.samples = 20;
  cfg.variation.sigma_resonance_nm = 0.0;
  cfg.variation.sigma_coupling = 0.0;
  cfg.variation.sigma_loss = 0.0;
  cfg.variation.sigma_il_db = 0.0;
  cfg.variation.sigma_er_db = 0.0;
  const YieldResult r = estimate_yield(sized_circuit(1.2), cfg);
  EXPECT_EQ(r.passing, r.samples);
  EXPECT_DOUBLE_EQ(r.yield, 1.0);
  EXPECT_LE(r.mean_ber, 1e-6);
}

TEST(Yield, HeavyVariationDegradesYield) {
  YieldConfig mild;
  mild.samples = 60;
  mild.seed = 5;
  mild.variation.sigma_resonance_nm = 0.005;
  YieldConfig harsh = mild;
  harsh.variation.sigma_resonance_nm = 0.08;  // comparable to linewidth/2
  const CircuitParams p = sized_circuit(1.3);
  const YieldResult rm = estimate_yield(p, mild);
  const YieldResult rh = estimate_yield(p, harsh);
  EXPECT_GE(rm.yield, rh.yield);
  EXPECT_LT(rh.yield, 1.0);
  EXPECT_GT(rh.mean_ber, rm.mean_ber);
}

TEST(Yield, PowerMarginBuysYield) {
  YieldConfig cfg;
  cfg.samples = 60;
  cfg.seed = 9;
  cfg.variation.sigma_resonance_nm = 0.03;
  const YieldResult tight = estimate_yield(sized_circuit(1.0), cfg);
  const YieldResult roomy = estimate_yield(sized_circuit(3.0), cfg);
  EXPECT_GE(roomy.yield, tight.yield);
}

TEST(Yield, CalibrationControllerRecoversYield) {
  // The future-work controller: re-locking rings to within 2 pm restores
  // most of the yield lost to resonance scatter. Ring-only variation:
  // MZI (IL/ER) scatter misaligns the *pump* path, which no amount of
  // ring trimming can fix (see bench_yield for that effect).
  YieldConfig open_loop;
  open_loop.samples = 60;
  open_loop.seed = 13;
  open_loop.variation.sigma_resonance_nm = 0.06;
  open_loop.variation.sigma_il_db = 0.0;
  open_loop.variation.sigma_er_db = 0.0;
  YieldConfig closed_loop = open_loop;
  closed_loop.calibration_residual_nm = 0.002;
  const CircuitParams p = sized_circuit(1.5);
  const YieldResult open_r = estimate_yield(p, open_loop);
  const YieldResult closed_r = estimate_yield(p, closed_loop);
  EXPECT_GT(closed_r.yield, open_r.yield);
  EXPECT_GT(closed_r.yield, 0.9);
}

TEST(Yield, DeterministicGivenSeed) {
  YieldConfig cfg;
  cfg.samples = 30;
  cfg.seed = 21;
  cfg.variation.sigma_resonance_nm = 0.04;
  const CircuitParams p = sized_circuit(1.2);
  const YieldResult a = estimate_yield(p, cfg);
  const YieldResult b = estimate_yield(p, cfg);
  EXPECT_EQ(a.passing, b.passing);
  EXPECT_DOUBLE_EQ(a.mean_ber, b.mean_ber);
}

TEST(Yield, ReportsAggregates) {
  YieldConfig cfg;
  cfg.samples = 40;
  cfg.variation.sigma_resonance_nm = 0.04;
  const YieldResult r = estimate_yield(sized_circuit(1.2), cfg);
  EXPECT_EQ(r.samples, 40u);
  EXPECT_GE(r.worst_ber, r.mean_ber);
  EXPECT_GT(r.mean_eye_transmission, 0.0);
}

}  // namespace
}  // namespace oscs::optsc
