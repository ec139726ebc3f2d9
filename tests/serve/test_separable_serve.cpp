/// \file test_separable_serve.cpp
/// \brief Serving-layer tests for the N-ary "inputs" wire format:
///        evaluation through the separable path with per-cell "inputs"
///        echo, lowering of 1- and 2-axis requests onto the legacy
///        univariate/bivariate paths, the shared arity-guard error
///        strings, arity-mismatch admission, and the completed_nd
///        metrics/health plumbing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "compile/registry.hpp"
#include "serve/server.hpp"

namespace oscs::serve {
namespace {

/// Fast server for tests: certification off (the MC stage dominates
/// cold-compile time and is covered by the compile-layer suite).
ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

std::string error_of(ProgramServer& server, const std::string& line) {
  const JsonValue doc = json_parse(server.handle_json(line));
  EXPECT_FALSE(doc.find("ok")->as_bool()) << line;
  return doc.find("error")->find("message")->as_string();
}

TEST(SeparableServeTest, EvaluatesRegistryFunctionThroughInputs) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"id": "nd1", "function": "trilinear_mix",
          "inputs": [[0.25, 0.5], [0.75, 0.5], [0.1, 0.9]],
          "stream_lengths": [4096], "repeats": 4})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
  EXPECT_EQ(doc.find("id")->as_string(), "nd1");
  EXPECT_FALSE(doc.find("fused")->as_bool());
  const compile::RegistryFunctionN* fn =
      compile::find_function_nd("trilinear_mix");
  ASSERT_NE(fn, nullptr);
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    // N-ary cells echo the full coordinate tuple, not x/y.
    ASSERT_NE(cells[i].find("inputs"), nullptr);
    EXPECT_EQ(cells[i].find("x"), nullptr);
    const auto& coords = cells[i].find("inputs")->items();
    ASSERT_EQ(coords.size(), 3u);
    std::vector<double> point;
    for (const JsonValue& c : coords) point.push_back(c.as_number());
    // Compile approximation + MC noise: loose budget.
    EXPECT_NEAR(cells[i].find("optical_mean")->as_number(), fn->f(point),
                0.08)
        << "cell " << i;
    EXPECT_EQ(cells[i].find("program")->as_string(), "trilinear_mix");
  }
}

TEST(SeparableServeTest, OneAndTwoAxisInputsLowerOntoLegacyPaths) {
  ProgramServer server(fast_options());
  // One axis -> the univariate path; cells come back with "x".
  JsonValue doc = json_parse(server.handle_json(
      R"({"function": "sigmoid", "inputs": [[0.25, 0.5, 0.75]],
          "stream_lengths": [1024], "repeats": 2})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  ASSERT_EQ(doc.find("cells")->items().size(), 3u);
  EXPECT_NE(doc.find("cells")->items().front().find("x"), nullptr);

  // Two axes -> the bivariate path; cells come back with "x" and "y".
  doc = json_parse(server.handle_json(
      R"({"function": "mul", "inputs": [[0.25, 0.5], [0.5, 0.75]],
          "stream_lengths": [1024], "repeats": 2})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_NE(cells.front().find("x"), nullptr);
  EXPECT_NE(cells.front().find("y"), nullptr);
}

TEST(SeparableServeTest, SharedGuardStringsOnMalformedInputs) {
  ProgramServer server(fast_options());
  // Conflicting coordinate carriers.
  EXPECT_EQ(error_of(server,
                     R"({"function": "rgb_luma",
                         "inputs": [[0.1], [0.2], [0.3]], "xs": [0.1]})"),
            "request carries both 'inputs' and 'xs'");
  // Ragged axis columns pair element-wise - same wording as xs/ys.
  EXPECT_EQ(error_of(server,
                     R"({"function": "rgb_luma",
                         "inputs": [[0.1], [0.2, 0.3], [0.3]]})"),
            "'inputs[1]' must pair element-wise with 'inputs[0]' (2 "
            "inputs[1] for 1 inputs[0])");
  // Empty axis.
  EXPECT_EQ(error_of(server,
                     R"({"function": "rgb_luma",
                         "inputs": [[], [0.2], [0.3]]})"),
            "'inputs[0]' must be a nonempty array");
  // Out-of-range coordinate.
  const std::string range_error = error_of(
      server, R"({"function": "rgb_luma", "inputs": [[0.1], [0.2], [1.3]]})");
  EXPECT_NE(range_error.find("inputs[2]"), std::string::npos) << range_error;
}

TEST(SeparableServeTest, AritiesCannotMix) {
  ProgramServer server(fast_options());
  // A bivariate catalogue function cannot take three input axes.
  EXPECT_EQ(error_of(server,
                     R"({"function": "mul",
                         "inputs": [[0.1], [0.2], [0.3]]})"),
            "function 'mul' does not take 3 inputs (arities cannot mix)");
  // Unknown everywhere -> plain 404 wording.
  EXPECT_EQ(error_of(server,
                     R"({"function": "no_such_fn",
                         "inputs": [[0.1], [0.2], [0.3]]})"),
            "unknown function 'no_such_fn'");
  // Raw coefficient programs stay dense-only.
  const std::string raw_error = error_of(
      server,
      R"({"coefficients": [0.1, 0.9], "inputs": [[0.1], [0.2], [0.3]]})");
  EXPECT_NE(raw_error.find("univariate or bivariate"), std::string::npos)
      << raw_error;
  // Wrong axis count against the registry arity.
  const std::string axis_error = error_of(
      server,
      R"({"function": "rgb_luma", "inputs": [[0.1], [0.2], [0.3], [0.4]]})");
  EXPECT_NE(axis_error.find("takes 3 inputs"), std::string::npos)
      << axis_error;
  // N-ary catalogue ids on one- and two-axis requests are arity
  // mismatches too (400), not unknown functions.
  EXPECT_EQ(error_of(server, R"({"function": "rgb_luma", "xs": [0.5]})"),
            "function 'rgb_luma' does not take 1 inputs (arities cannot mix)");
  EXPECT_EQ(error_of(server, R"({"function": "rgb_luma", "xs": [0.5],
                                 "ys": [0.5]})"),
            "function 'rgb_luma' does not take 2 inputs (arities cannot mix)");
  EXPECT_EQ(error_of(server, R"({"function": "rgb_luma",
                                 "inputs": [[0.5], [0.5]]})"),
            "function 'rgb_luma' does not take 2 inputs (arities cannot mix)");
  // Only 'no_such_fn' above counted as an unknown function.
  EXPECT_EQ(server.metrics().errors.at("unknown_function"), 1u);
}

TEST(SeparableServeTest, CompletedNdMetricAndHealthArity) {
  ProgramServer server(fast_options());
  ASSERT_TRUE(json_parse(server.handle_json(
                             R"({"function": "rgb_luma",
                                 "inputs": [[0.2], [0.5], [0.8]],
                                 "stream_lengths": [1024], "repeats": 2})"))
                  .find("ok")
                  ->as_bool());
  ASSERT_TRUE(json_parse(server.handle_json(
                             R"({"function": "sigmoid", "xs": [0.5],
                                 "stream_lengths": [1024], "repeats": 2})"))
                  .find("ok")
                  ->as_bool());

  const JsonValue metrics =
      json_parse(server.handle_json(R"({"op": "metrics"})"));
  const JsonValue* requests = metrics.find("metrics")->find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->find("completed_nd")->as_number(), 1.0);
  EXPECT_EQ(requests->find("completed_univariate")->as_number(), 1.0);
  EXPECT_EQ(requests->find("completed_bivariate")->as_number(), 0.0);
  EXPECT_EQ(requests->find("completed")->as_number(), 2.0);

  // The health plane reports the program's arity.
  const JsonValue health =
      json_parse(server.handle_json(R"({"op": "health"})"));
  bool found = false;
  for (const JsonValue& program : health.find("programs")->items()) {
    if (program.find("program")->as_string() == "rgb_luma") {
      EXPECT_EQ(program.find("arity")->as_number(), 3.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace oscs::serve
