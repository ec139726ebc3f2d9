#include "stochastic/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

namespace oscs::stochastic {
namespace {

TEST(ImageTest, ConstructionAndPixelAccess) {
  Image img(4, 3, 7);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.at(2, 1), 7);
  img.set(2, 1, 200);
  EXPECT_EQ(img.at(2, 1), 200);
  EXPECT_THROW((void)img.at(4, 0), std::out_of_range);
  EXPECT_THROW(img.set(0, 3, 1), std::out_of_range);
  EXPECT_THROW(Image(0, 4), std::invalid_argument);
}

TEST(ImageTest, GradientSpansFullRange) {
  const Image img = Image::gradient(256, 2);
  EXPECT_EQ(img.at(0, 0), 0);
  EXPECT_EQ(img.at(255, 0), 255);
  EXPECT_EQ(img.at(128, 1), 128);
  // Monotone left to right.
  for (std::size_t x = 1; x < 256; ++x) {
    EXPECT_GE(img.at(x, 0), img.at(x - 1, 0));
  }
}

TEST(ImageTest, RadialPeaksAtCentre) {
  const Image img = Image::radial(33, 33);
  EXPECT_EQ(img.at(16, 16), 255);
  EXPECT_LT(img.at(0, 0), 10);
  EXPECT_GT(img.at(16, 16), img.at(16, 2));
}

TEST(ImageTest, MappedAppliesTransferFunction) {
  const Image img = Image::gradient(256, 1);
  const Image inverted = img.mapped([](double v) { return 1.0 - v; });
  EXPECT_EQ(inverted.at(0, 0), 255);
  EXPECT_EQ(inverted.at(255, 0), 0);
  // Gamma brightens midtones.
  const Image bright = img.mapped([](double v) { return std::pow(v, 0.45); });
  EXPECT_GT(bright.at(64, 0), img.at(64, 0));
}

TEST(ImageTest, MappedClampsOutOfRangeValues) {
  const Image img = Image::gradient(16, 1);
  const Image wild = img.mapped([](double v) { return 3.0 * v - 1.0; });
  EXPECT_EQ(wild.at(0, 0), 0);     // clamped below
  EXPECT_EQ(wild.at(15, 0), 255);  // clamped above
}

TEST(ImageTest, PgmRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "oscs_img_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "grad.pgm").string();
  const Image img = Image::radial(17, 9);
  img.write_pgm(path);
  const Image back = Image::read_pgm(path);
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  EXPECT_EQ(back.pixels(), img.pixels());
  std::filesystem::remove_all(dir);
}

TEST(ImageTest, ReadPgmRejectsBadInput) {
  EXPECT_THROW(Image::read_pgm("/nonexistent/path.pgm"), std::runtime_error);
}

TEST(PsnrTest, IdenticalImagesAreInfinite) {
  const Image img = Image::gradient(32, 8);
  EXPECT_TRUE(std::isinf(psnr_db(img, img)));
}

TEST(PsnrTest, KnownMseGivesKnownPsnr) {
  Image a(10, 10, 100);
  Image b(10, 10, 110);  // uniform error of 10 -> MSE 100
  EXPECT_NEAR(psnr_db(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0),
              1e-12);
}

TEST(PsnrTest, MoreNoiseLowersPsnr) {
  const Image ref(16, 16, 128);
  Image small_err(16, 16, 130);
  Image large_err(16, 16, 150);
  EXPECT_GT(psnr_db(ref, small_err), psnr_db(ref, large_err));
}

TEST(PsnrTest, SizeMismatchRejected) {
  EXPECT_THROW((void)psnr_db(Image(4, 4), Image(4, 5)), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::stochastic
