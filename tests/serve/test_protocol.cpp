/// Wire-schema tests: request parsing (strictness + sugar forms) and
/// response serialization round-tripping through the strict JSON parser.

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"
#include "serve/protocol.hpp"

namespace oscs::serve {
namespace {

TEST(ParseRequest, ParsesFullEvaluateRequest) {
  const ServeRequest req = parse_request(
      R"({"op": "evaluate", "id": "r1",
          "programs": [{"function": "sigmoid"},
                       {"function": "tanh", "degree": 4},
                       {"coefficients": [0.1, 0.5, 0.9], "id": "ramp"}],
          "xs": [0.25, 0.5], "stream_lengths": [1024, 2048],
          "repeats": 4, "seed": 7, "sng_width": 12,
          "probe_power_mw": 0.8})");
  EXPECT_EQ(req.op, RequestOp::kEvaluate);
  EXPECT_EQ(req.id, "r1");
  ASSERT_EQ(req.programs.size(), 3u);
  EXPECT_EQ(req.programs[0].function_id, "sigmoid");
  EXPECT_FALSE(req.programs[0].degree.has_value());
  EXPECT_EQ(req.programs[1].degree, 4u);
  EXPECT_TRUE(req.programs[2].is_raw());
  EXPECT_EQ(req.programs[2].display_id(), "ramp");
  EXPECT_EQ(req.xs, (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(req.stream_lengths, (std::vector<std::size_t>{1024, 2048}));
  EXPECT_EQ(req.repeats, 4u);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.sng_width, 12u);
  ASSERT_TRUE(req.probe_power_mw.has_value());
  EXPECT_EQ(*req.probe_power_mw, 0.8);
  EXPECT_FALSE(req.operating_point.has_value());
}

TEST(ParseRequest, SingleProgramSugarAndDefaults) {
  const ServeRequest req =
      parse_request(R"({"function": "sigmoid", "xs": [0.5]})");
  ASSERT_EQ(req.programs.size(), 1u);
  EXPECT_EQ(req.programs[0].function_id, "sigmoid");
  EXPECT_EQ(req.stream_lengths, (std::vector<std::size_t>{4096}));
  EXPECT_EQ(req.repeats, 8u);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_FALSE(req.sng_width.has_value());

  const ServeRequest raw =
      parse_request(R"({"coefficients": [0.25, 0.75], "xs": [0.5]})");
  ASSERT_EQ(raw.programs.size(), 1u);
  EXPECT_TRUE(raw.programs[0].is_raw());
  EXPECT_EQ(raw.programs[0].display_id(), "coefficients[2]");
}

TEST(ParseRequest, ParsesExplicitOperatingPoint) {
  const ServeRequest req = parse_request(
      R"({"function": "sigmoid", "xs": [0.5],
          "operating_point": {"probe_power_mw": 0.5, "ber": 0.01,
                              "stream_length": 2048, "sng_width": 10}})");
  ASSERT_TRUE(req.operating_point.has_value());
  EXPECT_EQ(req.operating_point->probe_power_mw, 0.5);
  EXPECT_EQ(req.operating_point->ber, 0.01);
  EXPECT_EQ(req.operating_point->stream_length, 2048u);
  EXPECT_EQ(req.operating_point->sng_width, 10u);
}

TEST(ParseRequest, MetricsAndPingNeedNoPrograms) {
  EXPECT_EQ(parse_request(R"({"op": "metrics"})").op, RequestOp::kMetrics);
  EXPECT_EQ(parse_request(R"({"op": "ping", "id": "p"})").op,
            RequestOp::kPing);
}

void expect_bad_request(const std::string& text) {
  try {
    (void)parse_request(text);
    FAIL() << "accepted: " << text;
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), 400) << text;
    EXPECT_EQ(e.reason(), "bad_request") << text;
  }
}

TEST(ParseRequest, RejectsMalformedRequests) {
  expect_bad_request("not json");
  expect_bad_request("[1, 2]");                        // not an object
  expect_bad_request(R"({"xs": [0.5]})");              // no programs
  expect_bad_request(R"({"function": "f"})");          // no xs
  expect_bad_request(R"({"function": "f", "xs": []})");
  expect_bad_request(R"({"function": "f", "xs": [0.5], "repeats": 0})");
  expect_bad_request(
      R"({"function": "f", "xs": [0.5], "stream_lengths": []})");
  expect_bad_request(R"({"op": "delete", "function": "f", "xs": [0.5]})");
  expect_bad_request(R"({"function": "f", "xs": [0.5], "bogus": 1})");
  expect_bad_request(R"({"function": "f", "coefficients": [0.5],
                         "xs": [0.5]})");              // both program forms
  expect_bad_request(R"({"programs": [{}], "xs": [0.5]})");
  expect_bad_request(R"({"programs": [{"function": "f",
                         "coefficients": [0.1]}], "xs": [0.5]})");
  expect_bad_request(R"({"programs": [{"coefficients": [0.1],
                         "degree": 2}], "xs": [0.5]})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "repeats": -1})");            // negative integer
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "repeats": 1.5})");           // fractional integer
  expect_bad_request(R"({"function": "f", "xs": ["a"]})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "operating_point": {"bogus": 1}})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "operating_point": {"probe_power_mw": 1},
                         "probe_power_mw": 1})");      // both op forms
  expect_bad_request(R"({"coefficients": [], "xs": [0.5]})");
  expect_bad_request(R"({"degree": 3, "xs": [0.5]})"); // degree w/o function
  expect_bad_request(R"({"function": "", "xs": [0.5]})");  // empty sugar id
  // Sugar form must reject degree-on-coefficients exactly like 'programs'.
  expect_bad_request(R"({"coefficients": [0.1, 0.5], "degree": 4,
                         "xs": [0.5]})");
  // SNG width outside the serving LFSR's [3, 32] is rejected before any
  // narrowing cast can silently wrap it (4294967312 = 2^32 + 16).
  expect_bad_request(R"({"function": "f", "xs": [0.5], "sng_width": 0})");
  expect_bad_request(R"({"function": "f", "xs": [0.5], "sng_width": 63})");
  expect_bad_request(R"({"function": "f", "xs": [0.5], "sng_width": 2})");
  expect_bad_request(R"({"function": "f", "xs": [0.5], "sng_width": 33})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "operating_point": {"sng_width": 2}})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "operating_point": {"sng_width": 33}})");
  expect_bad_request(
      R"({"function": "f", "xs": [0.5], "sng_width": 4294967312})");
  expect_bad_request(R"({"function": "f", "xs": [0.5],
                         "operating_point": {"sng_width": 4294967312}})");
}

TEST(WriteResponse, RoundTripsThroughStrictParser) {
  ServeResponse response;
  response.id = "req-9";
  response.fused = true;
  response.programs = {"sigmoid", "ramp\n\"x\""};  // hostile display id
  response.op.probe_power_mw = 0.5;
  response.op.ber = 0.01;
  response.op.stream_length = 1024;
  CellResult cell;
  cell.program = "sigmoid";
  cell.x = 0.25;
  cell.stream_length = 1024;
  cell.repeats = 4;
  cell.expected = 0.5621765008857981;
  cell.optical_mean = 0.55913;
  cell.optical_ci = 0.003;
  response.cells.push_back(cell);
  response.optical_mae = 0.0031;
  response.total_bits = 4096;
  response.latency.parse_us = 12.5;
  response.latency.total_us = 180.0;

  const std::string line = write_response(response);
  // Exactly one line: compact body plus the trailing frame newline.
  EXPECT_EQ(line.find('\n'), line.size() - 1);

  const JsonValue doc = json_parse(line);
  EXPECT_EQ(doc.find("id")->as_string(), "req-9");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("fused")->as_bool());
  EXPECT_EQ(doc.find("programs")->items()[1].as_string(), "ramp\n\"x\"");
  EXPECT_EQ(doc.find("op")->find("ber")->as_number(), 0.01);
  const JsonValue& parsed_cell = doc.find("cells")->items()[0];
  EXPECT_EQ(parsed_cell.find("x")->as_number(), 0.25);
  EXPECT_EQ(parsed_cell.find("expected")->as_number(), cell.expected);
  EXPECT_EQ(doc.find("latency_us")->find("total")->as_number(), 180.0);
}

TEST(WriteError, RoundTripsThroughStrictParser) {
  const std::string line =
      write_error("req-1", 429, "busy", "server at capacity");
  const JsonValue doc = json_parse(line);
  EXPECT_EQ(doc.find("id")->as_string(), "req-1");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 429.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "busy");

  // Anonymous requests get no id member at all.
  const JsonValue anon = json_parse(write_error("", 400, "bad_request", "x"));
  EXPECT_EQ(anon.find("id"), nullptr);
}

}  // namespace
}  // namespace oscs::serve
