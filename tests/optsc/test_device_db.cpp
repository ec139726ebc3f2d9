#include "optsc/device_db.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace oscs::optsc {
namespace {

TEST(DeviceDb, ContainsTheFig6Devices) {
  const auto devices = published_mzi_devices();
  ASSERT_GE(devices.size(), 5u);
  std::set<std::string> names;
  for (const auto& d : devices) names.insert(d.name);
  EXPECT_TRUE(names.count("Xiao et al. [19]"));
  EXPECT_TRUE(names.count("Dong et al. (ref 6 in [19])"));
  EXPECT_TRUE(names.count("Thomson et al. (ref 12 in [19])"));
  EXPECT_TRUE(names.count("Dong et al. (ref 28 in [18])"));
  EXPECT_TRUE(names.count("Ziebell et al. [10]"));
}

TEST(DeviceDb, XiaoPointMatchesPaperText) {
  // The only operating point printed in the text: IL 6.5 dB, ER 7.5 dB.
  const photonics::MziDevice xiao = xiao_device();
  EXPECT_DOUBLE_EQ(xiao.il_db, 6.5);
  EXPECT_DOUBLE_EQ(xiao.er_db, 7.5);
  EXPECT_DOUBLE_EQ(xiao.speed_gbps, 60.0);
  EXPECT_DOUBLE_EQ(xiao.phase_shifter_mm, 0.75);
  EXPECT_FALSE(xiao.estimated);
}

TEST(DeviceDb, ZiebellPointMatchesSec2Text) {
  // Sec. II: "4.5dB insertion loss IL ... and 3.2dB extinction ratio".
  const photonics::MziDevice z = device_by_name("Ziebell et al. [10]");
  EXPECT_DOUBLE_EQ(z.il_db, 4.5);
  EXPECT_DOUBLE_EQ(z.er_db, 3.2);
  EXPECT_FALSE(z.estimated);
}

TEST(DeviceDb, EstimatedFlagsMarkFigureReadValues) {
  // Everything we could not find printed in the text is flagged.
  for (const auto& d : published_mzi_devices()) {
    const bool printed = d.name == "Xiao et al. [19]" ||
                         d.name == "Ziebell et al. [10]";
    EXPECT_EQ(d.estimated, !printed) << d.name;
  }
}

TEST(DeviceDb, AllDevicesWithinFig6aAxes) {
  // Fig. 6a spans ER 4-7.6 dB and IL 3-7.4 dB; the Fig. 6c devices live
  // inside it (Ziebell is outside: it is the Sec. V-A loss reference).
  for (const auto& d : published_mzi_devices()) {
    if (d.name == "Ziebell et al. [10]") continue;
    EXPECT_GE(d.er_db, 4.0) << d.name;
    EXPECT_LE(d.er_db, 7.6) << d.name;
    EXPECT_GE(d.il_db, 3.0) << d.name;
    EXPECT_LE(d.il_db, 7.4) << d.name;
  }
}

TEST(DeviceDb, Fig6cSpeedAndLengthRows) {
  // Fig. 6c table rows: 50/1, 40/1, 40/4, 60/0.75 (Gb/s, mm).
  EXPECT_DOUBLE_EQ(device_by_name("Dong et al. (ref 6 in [19])").speed_gbps,
                   50.0);
  EXPECT_DOUBLE_EQ(
      device_by_name("Thomson et al. (ref 12 in [19])").phase_shifter_mm,
      1.0);
  EXPECT_DOUBLE_EQ(
      device_by_name("Dong et al. (ref 28 in [18])").phase_shifter_mm, 4.0);
}

TEST(DeviceDb, EveryDeviceBuildsAnMzi) {
  for (const auto& d : published_mzi_devices()) {
    EXPECT_NO_THROW((void)d.mzi()) << d.name;
  }
}

TEST(DeviceDb, LookupByNameThrowsOnUnknown) {
  EXPECT_THROW(device_by_name("nonexistent"), std::invalid_argument);
}

}  // namespace
}  // namespace oscs::optsc
