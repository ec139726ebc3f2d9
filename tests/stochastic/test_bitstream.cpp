#include "stochastic/bitstream.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oscs::stochastic {
namespace {

TEST(BitstreamTest, ConstructionAndIndexing) {
  Bitstream s(130);  // spans three words
  EXPECT_EQ(s.size(), 130u);
  EXPECT_FALSE(s.bit(0));
  s.set_bit(0, true);
  s.set_bit(64, true);
  s.set_bit(129, true);
  EXPECT_TRUE(s.bit(0));
  EXPECT_TRUE(s.bit(64));
  EXPECT_TRUE(s.bit(129));
  EXPECT_EQ(s.count_ones(), 3u);
  s.set_bit(64, false);
  EXPECT_EQ(s.count_ones(), 2u);
}

TEST(BitstreamTest, BoundsChecked) {
  Bitstream s(8);
  EXPECT_THROW((void)s.bit(8), std::out_of_range);
  EXPECT_THROW(s.set_bit(100, true), std::out_of_range);
}

TEST(BitstreamTest, FromBoolVectorAndProbability) {
  const Bitstream s(std::vector<bool>{true, false, true, true});
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.count_ones(), 3u);
  EXPECT_DOUBLE_EQ(s.probability(), 0.75);
  EXPECT_DOUBLE_EQ(Bitstream{}.probability(), 0.0);
}

TEST(BitstreamTest, PushBackGrowsAcrossWordBoundary) {
  Bitstream s;
  for (int i = 0; i < 70; ++i) s.push_back(i % 2 == 0);
  EXPECT_EQ(s.size(), 70u);
  EXPECT_EQ(s.count_ones(), 35u);
  EXPECT_TRUE(s.bit(68));
  EXPECT_FALSE(s.bit(69));
}

TEST(BitstreamTest, LogicOpsComputeScArithmetic) {
  // AND of independent unipolar streams multiplies probabilities;
  // verify exact bit semantics here.
  const Bitstream a(std::vector<bool>{1, 1, 0, 0});
  const Bitstream b(std::vector<bool>{1, 0, 1, 0});
  EXPECT_EQ((a & b), Bitstream(std::vector<bool>{1, 0, 0, 0}));
  EXPECT_EQ((a | b), Bitstream(std::vector<bool>{1, 1, 1, 0}));
  EXPECT_EQ((a ^ b), Bitstream(std::vector<bool>{0, 1, 1, 0}));
}

TEST(BitstreamTest, NotClearsPaddingBits) {
  Bitstream s(70);  // 70 bits, second word partially used
  const Bitstream inv = ~s;
  EXPECT_EQ(inv.count_ones(), 70u);  // not 128
  EXPECT_DOUBLE_EQ(inv.probability(), 1.0);
}

TEST(BitstreamTest, OpsRejectLengthMismatch) {
  const Bitstream a(8), b(9);
  EXPECT_THROW(a & b, std::invalid_argument);
  EXPECT_THROW(a | b, std::invalid_argument);
  EXPECT_THROW(a ^ b, std::invalid_argument);
}

TEST(BitstreamTest, WordAccessorsExposePackedRepresentation) {
  Bitstream s(130);  // 3 words, last one 2 bits wide
  EXPECT_EQ(s.word_count(), 3u);
  s.set_bit(0, true);
  s.set_bit(65, true);
  s.set_bit(129, true);
  EXPECT_EQ(s.word(0), 1ULL);
  EXPECT_EQ(s.word(1), 2ULL);
  EXPECT_EQ(s.word(2), 2ULL);
  EXPECT_THROW((void)s.word(3), std::out_of_range);
  EXPECT_EQ(Bitstream{}.word_count(), 0u);
}

TEST(BitstreamTest, FromWordsRoundTripsAtNonMultipleOf64Lengths) {
  for (std::size_t len : {1u, 63u, 64u, 65u, 100u, 128u, 130u}) {
    Bitstream ref(len);
    for (std::size_t i = 0; i < len; i += 3) ref.set_bit(i, true);
    std::vector<std::uint64_t> words;
    for (std::size_t w = 0; w < ref.word_count(); ++w) {
      words.push_back(ref.word(w));
    }
    EXPECT_EQ(Bitstream::from_words(words, len), ref) << len;
  }
}

TEST(BitstreamTest, FromWordsMasksTailBits) {
  // 70-bit stream built from words whose padding region is all ones: the
  // tail must be cleared so popcount-based estimates stay exact.
  const Bitstream s = Bitstream::from_words({~0ULL, ~0ULL}, 70);
  EXPECT_EQ(s.size(), 70u);
  EXPECT_EQ(s.count_ones(), 70u);
  EXPECT_EQ(s.word(1), (1ULL << 6) - 1ULL);
  EXPECT_THROW((void)s.bit(70), std::out_of_range);
}

TEST(BitstreamTest, FromWordsRejectsWordCountMismatch) {
  EXPECT_THROW(Bitstream::from_words({0, 0}, 64), std::invalid_argument);
  EXPECT_THROW(Bitstream::from_words({}, 1), std::invalid_argument);
  EXPECT_EQ(Bitstream::from_words({}, 0), Bitstream{});
}

TEST(MuxTest, SelectsPerBit) {
  const Bitstream sel(std::vector<bool>{1, 0, 1, 0});
  const Bitstream a(std::vector<bool>{1, 1, 0, 0});
  const Bitstream b(std::vector<bool>{0, 1, 1, 1});
  EXPECT_EQ(mux(sel, a, b), Bitstream(std::vector<bool>{1, 1, 0, 1}));
  EXPECT_THROW(mux(Bitstream(3), a, b), std::invalid_argument);
}

TEST(MuxTest, ComputesWeightedSumInExpectation) {
  // With s, a, b independent: E[mux] = s*A + (1-s)*B. Deterministic
  // check with crafted streams: s has p=0.5, a all ones, b all zeros.
  Bitstream sel(100), a(100), b(100);
  for (std::size_t i = 0; i < 100; ++i) {
    sel.set_bit(i, i % 2 == 0);
    a.set_bit(i, true);
  }
  EXPECT_DOUBLE_EQ(mux(sel, a, b).probability(), 0.5);
}

TEST(SccTest, IdenticalStreamsFullyCorrelated) {
  const Bitstream a(std::vector<bool>{1, 0, 1, 0, 1, 1, 0, 0});
  EXPECT_NEAR(scc(a, a), 1.0, 1e-12);
}

TEST(SccTest, ComplementaryStreamsAnticorrelated) {
  const Bitstream a(std::vector<bool>{1, 0, 1, 0, 1, 0, 1, 0});
  EXPECT_NEAR(scc(a, ~a), -1.0, 1e-12);
}

TEST(SccTest, InterleavedIndependentLikeStreamsNearZero) {
  // p11 = px * py exactly -> SCC 0.
  const Bitstream a(std::vector<bool>{1, 1, 0, 0});
  const Bitstream b(std::vector<bool>{1, 0, 1, 0});
  EXPECT_NEAR(scc(a, b), 0.0, 1e-12);
}

TEST(SccTest, RejectsInvalidInput) {
  EXPECT_THROW((void)scc(Bitstream(3), Bitstream(4)), std::invalid_argument);
  EXPECT_THROW((void)scc(Bitstream{}, Bitstream{}), std::invalid_argument);
}

// Regression: tail-mask handling for stream lengths that are not a
// multiple of 64. from_words must zero the padding bits of the last word
// so whole-word popcounts and bitwise operators stay exact.
class TailMaskP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TailMaskP, FromWordsMasksPaddingBits) {
  const std::size_t length = GetParam();
  const std::size_t n_words = (length + 63) / 64;
  // All-ones words: every padding bit is set on input and must come out 0.
  std::vector<std::uint64_t> words(n_words, ~std::uint64_t{0});
  const Bitstream stream = Bitstream::from_words(words, length);
  ASSERT_EQ(stream.size(), length);
  ASSERT_EQ(stream.word_count(), n_words);
  EXPECT_EQ(stream.count_ones(), length);
  EXPECT_DOUBLE_EQ(stream.probability(), 1.0);
  const std::size_t rem = length % 64;
  if (rem != 0) {
    EXPECT_EQ(stream.word(n_words - 1), (std::uint64_t{1} << rem) - 1);
  }
  for (std::size_t i = 0; i < length; ++i) {
    ASSERT_TRUE(stream.bit(i)) << "i=" << i;
  }
}

TEST_P(TailMaskP, ComplementKeepsPaddingClear) {
  const std::size_t length = GetParam();
  const Bitstream zeros(length);
  const Bitstream inverted = ~zeros;
  EXPECT_EQ(inverted.count_ones(), length);
  // Double complement round-trips, including the padding.
  EXPECT_TRUE(~inverted == zeros);
}

TEST_P(TailMaskP, BitwiseOpsPreservePopcountInvariant) {
  const std::size_t length = GetParam();
  Bitstream alternating(length);
  for (std::size_t i = 0; i < length; i += 2) alternating.set_bit(i, true);
  const Bitstream all_ones = ~Bitstream(length);
  EXPECT_EQ((alternating & all_ones).count_ones(), (length + 1) / 2);
  EXPECT_EQ((alternating | all_ones).count_ones(), length);
  EXPECT_EQ((alternating ^ all_ones).count_ones(), length / 2);
}

TEST_P(TailMaskP, FromWordsRoundTripsThroughBits) {
  const std::size_t length = GetParam();
  // Deterministic pseudo-random pattern, then rebuild via from_words.
  Bitstream reference(length);
  std::uint64_t state = 0x1234567890ABCDEFULL;
  for (std::size_t i = 0; i < length; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    reference.set_bit(i, (state >> 63) != 0);
  }
  std::vector<std::uint64_t> words(reference.word_count());
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = reference.word(w);
  const Bitstream rebuilt = Bitstream::from_words(std::move(words), length);
  EXPECT_TRUE(rebuilt == reference);
}

INSTANTIATE_TEST_SUITE_P(TailLengths, TailMaskP,
                         ::testing::Values(std::size_t{1}, std::size_t{63},
                                           std::size_t{64}, std::size_t{65},
                                           std::size_t{4095}));

TEST(BitstreamFromWords, RejectsWordCountMismatch) {
  EXPECT_THROW(Bitstream::from_words({0, 0}, 64), std::invalid_argument);
  EXPECT_THROW(Bitstream::from_words({}, 1), std::invalid_argument);
  EXPECT_THROW(Bitstream::from_words({0}, 65), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::stochastic
