#include "stochastic/sng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>

namespace oscs::stochastic {
namespace {

TEST(Sources, WidthsReported) {
  EXPECT_EQ(LfsrSource(12).width(), 12u);
  EXPECT_EQ(CounterSource(10).width(), 10u);
  EXPECT_EQ(VanDerCorputSource(10).width(), 10u);
  EXPECT_EQ(ChaoticLaserSource(16, 1).width(), 16u);
}

TEST(Sources, ValidateWidth) {
  EXPECT_THROW(CounterSource(0), std::invalid_argument);
  EXPECT_THROW(VanDerCorputSource(64), std::invalid_argument);
  EXPECT_THROW(ChaoticLaserSource(0, 1), std::invalid_argument);
}

TEST(Sources, CounterWrapsAtWidth) {
  CounterSource src(3, 6);
  EXPECT_EQ(src.next(), 6u);
  EXPECT_EQ(src.next(), 7u);
  EXPECT_EQ(src.next(), 0u);  // wrapped
  EXPECT_EQ(src.next(), 1u);
}

TEST(Sources, VanDerCorputReversesBits) {
  VanDerCorputSource src(3, 0);
  // counter 0..7 bit-reversed over 3 bits: 0,4,2,6,1,5,3,7.
  const std::uint64_t expected[] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (std::uint64_t e : expected) EXPECT_EQ(src.next(), e);
}

TEST(Sources, ValuesStayInRange) {
  auto check = [](RandomSource& src) {
    const std::uint64_t bound = 1ULL << src.width();
    for (int i = 0; i < 1000; ++i) ASSERT_LT(src.next(), bound);
  };
  LfsrSource l(9, 5);
  CounterSource c(9, 123);
  VanDerCorputSource v(9, 123);
  ChaoticLaserSource ch(9, 7);
  check(l);
  check(c);
  check(v);
  check(ch);
}

TEST(SngTest, ThresholdQuantization) {
  Sng sng(std::make_unique<CounterSource>(8));
  EXPECT_EQ(sng.threshold_for(0.0), 0u);
  EXPECT_EQ(sng.threshold_for(1.0), 256u);
  EXPECT_EQ(sng.threshold_for(0.5), 128u);
  EXPECT_EQ(sng.threshold_for(-2.0), 0u);   // clamped
  EXPECT_EQ(sng.threshold_for(7.0), 256u);  // clamped
}

TEST(SngTest, NullSourceRejected) {
  EXPECT_THROW(Sng(nullptr), std::invalid_argument);
}

TEST(SngTest, CounterSourceGivesExactCountsOverFullPeriod) {
  // Over 2^w cycles a counter SNG emits exactly round(p * 2^w) ones.
  Sng sng(std::make_unique<CounterSource>(8));
  const Bitstream s = sng.generate(0.3, 256);
  EXPECT_EQ(s.count_ones(), 77u);  // round(0.3 * 256)
  EXPECT_NEAR(s.probability(), 0.3, 0.002);
}

TEST(SngTest, LfsrSourceGivesExactCountsOverFullPeriod) {
  // The LFSR visits all nonzero states once per period, so the count of
  // states below the threshold T is exactly T - 1 (state 0 never occurs,
  // states 1..T-1 do).
  const unsigned width = 10;
  Sng sng(std::make_unique<LfsrSource>(width, 1));
  const std::size_t period = (1u << width) - 1u;
  const double p = 0.25;
  const Bitstream s = sng.generate(p, period);
  const std::uint64_t threshold = 256;  // 0.25 * 1024
  EXPECT_EQ(s.count_ones(), threshold - 1);
}

TEST(SngTest, VanDerCorputSpreadsOnesEvenly) {
  // Low-discrepancy property: every aligned block of 16 bits of a p=0.25
  // stream holds exactly 4 ones.
  Sng sng(std::make_unique<VanDerCorputSource>(4, 0));
  const Bitstream s = sng.generate(0.25, 64);
  for (std::size_t block = 0; block < 4; ++block) {
    std::size_t ones = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      ones += s.bit(block * 16 + i) ? 1 : 0;
    }
    EXPECT_EQ(ones, 4u) << "block " << block;
  }
}

TEST(SngTest, ChaoticSourceConvergesStatistically) {
  Sng sng(std::make_unique<ChaoticLaserSource>(20, 99));
  const Bitstream s = sng.generate(0.7, 100000);
  EXPECT_NEAR(s.probability(), 0.7, 0.005);
}

TEST(SngTest, ConsecutiveGeneratesContinueTheSource) {
  // generate() draws exactly one source value per bit - none for an empty
  // stream, none extra at a word boundary - so back-to-back streams from
  // one SNG continue the source's sequence where the last one stopped.
  const double ps[] = {0.3, 0.0, 0.77, 1.0, 0.5, 0.125};
  const std::size_t lengths[] = {65, 0, 64, 1, 63, 1000};
  for (SourceKind kind : {SourceKind::kLfsr, SourceKind::kCounter,
                          SourceKind::kVanDerCorput,
                          SourceKind::kChaoticLaser}) {
    Sng sng(make_source(kind, 10, 3));
    const std::unique_ptr<RandomSource> twin = make_source(kind, 10, 3);
    for (std::size_t call = 0; call < std::size(lengths); ++call) {
      const Bitstream s = sng.generate(ps[call], lengths[call]);
      ASSERT_EQ(s.size(), lengths[call]);
      const std::uint64_t threshold = sng.threshold_for(ps[call]);
      for (std::size_t t = 0; t < lengths[call]; ++t) {
        ASSERT_EQ(s.bit(t), twin->next() < threshold)
            << "kind " << static_cast<int>(kind) << " call " << call
            << " bit " << t;
      }
    }
  }
}

TEST(MakeSource, SaltDecorrelatesStreams) {
  for (SourceKind kind : {SourceKind::kLfsr, SourceKind::kChaoticLaser}) {
    Sng a(make_source(kind, 16, 1));
    Sng b(make_source(kind, 16, 2));
    const Bitstream sa = a.generate(0.5, 4096);
    const Bitstream sb = b.generate(0.5, 4096);
    // Streams from different salts should not be bitwise identical.
    EXPECT_FALSE(sa == sb) << static_cast<int>(kind);
  }
}

class SngProbabilityP
    : public ::testing::TestWithParam<std::tuple<SourceKind, double>> {};

TEST_P(SngProbabilityP, EncodedProbabilityMatchesTarget) {
  const auto [kind, p] = GetParam();
  // Width 12 so the 2^14 stream covers whole source periods: counter and
  // van-der-Corput sources are only balanced over full periods.
  Sng sng(make_source(kind, 12, 5));
  const Bitstream s = sng.generate(p, 1 << 14);
  EXPECT_NEAR(s.probability(), p, 0.02) << static_cast<int>(kind);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndProbabilities, SngProbabilityP,
    ::testing::Combine(::testing::Values(SourceKind::kLfsr,
                                         SourceKind::kCounter,
                                         SourceKind::kVanDerCorput,
                                         SourceKind::kChaoticLaser),
                       ::testing::Values(0.0, 0.125, 0.5, 0.75, 1.0)));

}  // namespace
}  // namespace oscs::stochastic
