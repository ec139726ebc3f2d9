#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oscs {
namespace {

ArgParser make_parser() {
  ArgParser p("demo", "test parser");
  p.add_flag("verbose", "enable chatter");
  p.add_int("order", 2, "polynomial order");
  p.add_double("spacing", 1.0, "WLspacing in nm");
  p.add_string("out", "results", "output directory");
  return p;
}

TEST(Cli, DefaultsWhenNoArguments) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.get_int("order"), 2);
  EXPECT_DOUBLE_EQ(p.get_double("spacing"), 1.0);
  EXPECT_EQ(p.get_string("out"), "results");
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--order", "6", "--spacing", "0.165",
                        "--verbose", "--out", "/tmp/x"};
  ASSERT_TRUE(p.parse(8, argv));
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.get_int("order"), 6);
  EXPECT_DOUBLE_EQ(p.get_double("spacing"), 0.165);
  EXPECT_EQ(p.get_string("out"), "/tmp/x");
}

TEST(Cli, ParsesEqualsSyntax) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--order=4", "--spacing=0.2"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("order"), 4);
  EXPECT_DOUBLE_EQ(p.get_double("spacing"), 0.2);
}

TEST(Cli, HelpReturnsFalse) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, UnknownOptionFails) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(Cli, MissingValueFails) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--order"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, UnparsableValueFails) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "--spacing", "abc"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(Cli, PositionalArgumentsRejected) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo", "stray"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, WrongTypeQueryThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"demo"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_int("spacing"), std::logic_error);
  EXPECT_THROW((void)p.flag("nonexistent"), std::logic_error);
}

TEST(Cli, UsageListsAllOptions) {
  ArgParser p = make_parser();
  const std::string u = p.usage();
  for (const char* name : {"--verbose", "--order", "--spacing", "--out",
                           "--help"}) {
    EXPECT_NE(u.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace oscs
