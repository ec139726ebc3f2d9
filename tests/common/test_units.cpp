#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oscs {
namespace {

using namespace oscs::literals;

TEST(Units, DbToLinearKnownValues) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(-10.0), 0.1, 1e-12);
  EXPECT_NEAR(db_to_linear(3.0), 1.9952623149688795, 1e-12);
  EXPECT_NEAR(db_to_linear(-4.5), 0.35481338923357547, 1e-12);
}

TEST(Units, LinearToDbInvertsDbToLinear) {
  for (double db : {-30.0, -13.22, -4.5, -0.1, 0.0, 2.5, 7.5, 20.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-10) << "db=" << db;
  }
}

TEST(Units, LinearToDbRejectsNonPositive) {
  EXPECT_THROW((void)linear_to_db(0.0), std::domain_error);
  EXPECT_THROW((void)linear_to_db(-1.0), std::domain_error);
}

TEST(Units, DbmRoundTrip) {
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(30.0), 1000.0, 1e-9);
  for (double dbm : {-20.0, -3.0, 0.0, 10.0, 27.7}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-10);
  }
}

TEST(Units, WavelengthFrequencyRoundTrip) {
  // 1550 nm is about 193.4 THz.
  const double f = wavelength_nm_to_freq_ghz(1550.0);
  EXPECT_NEAR(f, 193414.489, 0.001);
  EXPECT_NEAR(freq_ghz_to_wavelength_nm(f), 1550.0, 1e-9);
  EXPECT_THROW((void)wavelength_nm_to_freq_ghz(0.0), std::domain_error);
  EXPECT_THROW((void)freq_ghz_to_wavelength_nm(-1.0), std::domain_error);
}

TEST(Units, DecibelTypeArithmetic) {
  const Decibel il = 4.5_dB;
  EXPECT_DOUBLE_EQ(il.db(), 4.5);
  EXPECT_NEAR(il.linear(), 2.8183829312644537, 1e-12);
  const Decibel sum = il + 3.0_dB;
  EXPECT_DOUBLE_EQ(sum.db(), 7.5);
  const Decibel diff = sum - 4.5_dB;
  EXPECT_DOUBLE_EQ(diff.db(), 3.0);
  EXPECT_EQ(Decibel::from_linear(10.0), 10.0_dB);
}

TEST(Units, EnergyHelpers) {
  // 1 mW for 1 ns = 1 pJ.
  EXPECT_DOUBLE_EQ(energy_pj(1.0, 1e-9), 1.0);
  // The paper's pump pulse: 591.8 mW x 26 ps = 15.39 pJ optical.
  EXPECT_NEAR(energy_pj(591.8, 26e-12), 15.3868, 1e-3);
  EXPECT_DOUBLE_EQ(joule_to_pj(pj_to_joule(123.0)), 123.0);
}

TEST(Units, TimeHelpersAndLiterals) {
  EXPECT_DOUBLE_EQ(ps_to_s(26.0), 26e-12);
  EXPECT_DOUBLE_EQ(ns_to_s(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(bit_period_s(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(bit_period_s(40.0), 2.5e-11);
  EXPECT_DOUBLE_EQ(26.0_ps, 26e-12);
  EXPECT_DOUBLE_EQ(1.0_ns, 1e-9);
  EXPECT_DOUBLE_EQ(1550.0_nm, 1550.0);
  EXPECT_DOUBLE_EQ(0.26_mW, 0.26);
}

class DbRoundTripP : public ::testing::TestWithParam<double> {};

TEST_P(DbRoundTripP, RoundTripsThroughLinear) {
  const double db = GetParam();
  EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SweepMinus40To40, DbRoundTripP,
                         ::testing::Values(-40.0, -25.0, -13.22, -7.5, -4.5,
                                           -3.2, -1.0, 0.0, 1.0, 3.2, 4.5,
                                           7.5, 13.22, 25.0, 40.0));

}  // namespace
}  // namespace oscs
