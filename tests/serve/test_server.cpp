/// ProgramServer tests over the in-process handle()/handle_json() API:
/// evaluation correctness against the engine run directly, fused
/// multi-program requests, admission control (busy gate + cold-compile
/// budget), per-request operating points, the metrics endpoint, and
/// concurrent requests on the one engine pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "compile/registry.hpp"
#include "engine/batch.hpp"
#include "optsc/defaults.hpp"
#include "serve/server.hpp"
#include "stochastic/bernstein.hpp"

namespace oscs::serve {
namespace {

/// Fast server for tests: certification off (the pipeline's MC stage is
/// the bulk of cold-compile time and is covered elsewhere).
ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

TEST(ProgramServerTest, EvaluatesSigmoidCloseToReference) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"id": "r1", "function": "sigmoid", "xs": [0.25, 0.5, 0.75],
          "stream_lengths": [4096], "repeats": 4})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
  EXPECT_EQ(doc.find("id")->as_string(), "r1");
  EXPECT_FALSE(doc.find("fused")->as_bool());
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 3u);
  const compile::RegistryFunction* fn = compile::find_function("sigmoid");
  ASSERT_NE(fn, nullptr);
  for (const JsonValue& cell : cells) {
    const double x = cell.find("x")->as_number();
    const double mean = cell.find("optical_mean")->as_number();
    // Design-point noise + compile approximation error: loose budget.
    EXPECT_NEAR(mean, fn->f(x), 0.05) << "x = " << x;
    EXPECT_EQ(cell.find("program")->as_string(), "sigmoid");
  }
  EXPECT_GT(doc.find("total_bits")->as_number(), 0.0);
  EXPECT_GT(doc.find("latency_us")->find("total")->as_number(), 0.0);
}

TEST(ProgramServerTest, RawCoefficientsMatchDirectEngineRun) {
  // The serving path must be bit-identical to driving the engine by hand
  // through the legacy spellings, with the same seed, programs elevated
  // exactly as resolve elevates them, and the same kernel (the fallback
  // order engine for raw programs, the compiled program's own otherwise).
  namespace sc = oscs::stochastic;
  const auto fallback = [](std::size_t order) {
    return optsc::OpticalScCircuit(optsc::paper_defaults(order));
  };
  struct Case {
    const char* name;
    std::string line;
    std::function<engine::BatchSummary(ProgramServer&)> direct;
  };
  const std::vector<Case> cases = {
      {"raw 1D",
       R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.3, 0.6],
           "stream_lengths": [1024], "repeats": 3, "seed": 42})",
       [&](ProgramServer&) {
         engine::BatchRequest req;
         req.polynomials = {sc::BernsteinPoly({0.2, 0.9, 0.4})};
         req.xs = {0.3, 0.6};
         req.stream_lengths = {1024};
         req.repeats = 3;
         req.seed = 42;
         return engine::BatchRunner(fallback(2)).run_nd(req, /*threads=*/1);
       }},
      {"raw 2D grid",
       R"({"coefficients": [[0.1, 0.6], [0.8, 0.3], [0.5, 0.9]],
           "xs": [0.2, 0.7], "ys": [0.4, 0.9],
           "stream_lengths": [512, 1024], "repeats": 3, "seed": 7})",
       [&](ProgramServer&) {
         engine::BatchRequest req;
         req.polynomials2 = {
             sc::BernsteinPoly2({{0.1, 0.6}, {0.8, 0.3}, {0.5, 0.9}})};
         req.xs = {0.2, 0.7};
         req.ys = {0.4, 0.9};
         req.stream_lengths = {512, 1024};
         req.repeats = 3;
         req.seed = 7;
         return engine::BatchRunner(fallback(2), 2, 1).run_nd(req, 1);
       }},
      {"fused 1D raw, mixed degrees",
       R"({"programs": [{"coefficients": [0.2, 0.9, 0.4]},
                        {"coefficients": [0.3, 0.7]},
                        {"coefficients": [0.6]}],
           "xs": [0.25, 0.75], "stream_lengths": [1024], "repeats": 4,
           "seed": 11})",
       [&](ProgramServer&) {
         engine::BatchRequest req;
         req.polynomials = {
             sc::BernsteinPoly({0.2, 0.9, 0.4}),
             sc::BernsteinPoly({0.3, 0.7}).elevated(1),
             // Degree 0 first meets the order-1 circuit minimum.
             sc::BernsteinPoly({0.6}).elevated().elevated(1)};
         req.xs = {0.25, 0.75};
         req.stream_lengths = {1024};
         req.repeats = 4;
         req.seed = 11;
         return engine::BatchRunner(fallback(2)).run_fused(req, 1);
       }},
      {"fused 2D, registry + raw grid",
       R"({"programs": [{"function": "mul"},
                        {"coefficients": [[0.1, 0.5, 0.9], [0.3, 0.7, 0.2],
                                          [0.8, 0.4, 0.6]]}],
           "xs": [0.3, 0.6], "ys": [0.5, 0.2], "stream_lengths": [1024],
           "repeats": 3, "seed": 5})",
       [&](ProgramServer& server) {
         const sc::BernsteinPoly2 mul =
             server.compiler().compile2("mul")->poly2();
         EXPECT_LT(mul.deg_x(), 2u);
         EXPECT_LT(mul.deg_y(), 2u);
         engine::BatchRequest req;
         req.polynomials2 = {
             mul.elevated(2 - mul.deg_x(), 2 - mul.deg_y()),
             sc::BernsteinPoly2(
                 {{0.1, 0.5, 0.9}, {0.3, 0.7, 0.2}, {0.8, 0.4, 0.6}})};
         req.xs = {0.3, 0.6};
         req.ys = {0.5, 0.2};
         req.stream_lengths = {1024};
         req.repeats = 3;
         req.seed = 5;
         return engine::BatchRunner(fallback(2), 2, 2).run_fused(req, 1);
       }},
      {"3-input rgb_luma",
       R"({"function": "rgb_luma",
           "inputs": [[0.2, 0.6], [0.5, 0.3], [0.8, 0.1]],
           "stream_lengths": [1024], "repeats": 3, "seed": 3})",
       [&](ProgramServer& server) {
         const auto program = server.compiler().compile_nd("rgb_luma");
         engine::BatchRequest req;
         req.programs_nd = {program->program_nd()};
         req.inputs = {{0.2, 0.6}, {0.5, 0.3}, {0.8, 0.1}};
         req.stream_lengths = {1024};
         req.repeats = 3;
         req.seed = 3;
         return engine::BatchRunner(program->kernel(), program->design_point())
             .run_nd(req, 1);
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ProgramServer server(fast_options());
    const std::string line = server.handle_json(c.line);
    const JsonValue doc = json_parse(line);
    ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
    const engine::BatchSummary expected = c.direct(server);
    const auto& cells = doc.find("cells")->items();
    ASSERT_EQ(cells.size(), expected.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].find("optical_mean")->as_number(),
                expected.cells[i].optical_mean)
          << "cell " << i;
      EXPECT_EQ(cells[i].find("expected")->as_number(),
                expected.cells[i].expected)
          << "cell " << i;
    }
  }
}

TEST(ProgramServerTest, MultiProgramRequestRunsFusedWithPerProgramCells) {
  ProgramServer server(fast_options());
  const std::string line = server.handle_json(
      R"({"programs": [{"function": "sigmoid"}, {"function": "tanh"},
                       {"coefficients": [0.1, 0.4, 0.8], "id": "ramp"}],
          "xs": [0.25, 0.75], "stream_lengths": [1024], "repeats": 2})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool()) << line;
  EXPECT_TRUE(doc.find("fused")->as_bool());
  const auto& programs = doc.find("programs")->items();
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_EQ(programs[2].as_string(), "ramp");
  // Program-major cell order, every program present at every x.
  const auto& cells = doc.find("cells")->items();
  ASSERT_EQ(cells.size(), 6u);
  EXPECT_EQ(cells[0].find("program")->as_string(), "sigmoid");
  EXPECT_EQ(cells[2].find("program")->as_string(), "tanh");
  EXPECT_EQ(cells[4].find("program")->as_string(), "ramp");
}

TEST(ProgramServerTest, WarmRequestsHitTheSharedCache) {
  ProgramServer server(fast_options());
  const std::string request =
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})";
  ASSERT_TRUE(json_parse(server.handle_json(request)).find("ok")->as_bool());
  ASSERT_TRUE(json_parse(server.handle_json(request)).find("ok")->as_bool());
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.inserts, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.received, 2u);
}

TEST(ProgramServerTest, UnknownFunctionIs404) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"function": "nope", "xs": [0.5]})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 404.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(),
            "unknown_function");
  EXPECT_EQ(server.metrics().failed, 1u);
}

TEST(ProgramServerTest, MalformedJsonIs400AndOutOfRangeXIs400) {
  ProgramServer server(fast_options());
  {
    const JsonValue doc = json_parse(server.handle_json("{boom"));
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0);
  }
  {
    // Shape-valid but semantically bad: x outside [0, 1] is rejected by
    // the hardened BatchRequest contract and surfaces as 400.
    const JsonValue doc = json_parse(server.handle_json(
        R"({"function": "sigmoid", "xs": [1.5]})"));
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0);
  }
}

TEST(ProgramServerTest, OutOfRangeCoordinatesAreRejectedBeforeResolve) {
  // A bad coordinate costs no compile work: 400 naming the wire member,
  // no cache traffic, no resolve stage, no in-flight slot left behind.
  ProgramServer server(fast_options());
  const struct {
    const char* line;
    const char* member;
  } cases[] = {
      {R"({"function": "tanh", "xs": [1.5]})", "'xs'"},
      {R"({"function": "mul", "xs": [0.5], "ys": [-0.5]})", "'ys'"},
      {R"({"function": "mul", "xs": [0.5], "y": 2.0})", "'ys'"},
      {R"({"function": "rgb_luma", "inputs": [[0.1], [0.2], [1.3]]})",
       "'inputs[2]'"},
      {R"({"function": "sigmoid", "inputs": [[1.5]]})", "'inputs[0]'"},
  };
  for (const auto& c : cases) {
    const JsonValue doc = json_parse(server.handle_json(c.line));
    ASSERT_FALSE(doc.find("ok")->as_bool()) << c.line;
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0)
        << c.line;
    EXPECT_EQ(doc.find("error")->find("message")->as_string(),
              std::string(c.member) + " values must be finite and in [0, 1]");
  }
  // The typed entry point applies the same check (NaN has no JSON form).
  ServeRequest typed;
  ProgramSpec spec;
  spec.function_id = "sigmoid";
  typed.programs.push_back(spec);
  typed.xs = {0.5, std::nan("")};
  try {
    (void)server.handle(typed);
    FAIL() << "NaN coordinate accepted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_NE(std::string(e.what()).find("'xs'"), std::string::npos);
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache.misses, 0u);
  EXPECT_EQ(m.cache.inserts, 0u);
  EXPECT_EQ(m.resolve.count, 0u);
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(ProgramServerTest, UnsupportedSngWidthIsRejectedBeforeResolve) {
  // Serving SNGs are LFSRs of the lane loop's widths, 3..16: a width
  // outside that range answers 400 naming the wire member - on the wire
  // and through the typed entry point, top level or in operating_point -
  // before any cold compile attempt, cache traffic or in-flight slot.
  ProgramServer server(fast_options());
  std::vector<std::string> lines = {
      R"({"coefficients": [0.1, 0.5, 0.9], "xs": [0.5], "sng_width": 2})",
      // 2^32 + 16: a narrowing cast would wrap it to the valid width 16.
      R"({"function": "sigmoid", "xs": [0.5], "sng_width": 4294967312})",
  };
  for (unsigned width : {0u, 2u, 17u, 24u, 32u, 33u, 40u}) {
    const std::string w = std::to_string(width);
    lines.push_back(R"({"function": "sigmoid", "xs": [0.5], "sng_width": )" +
                    w + "}");
    lines.push_back(R"({"function": "sigmoid", "xs": [0.5],
                        "operating_point": {"sng_width": )" +
                    w + "}}");
  }
  for (const std::string& line : lines) {
    const JsonValue doc = json_parse(server.handle_json(line));
    ASSERT_FALSE(doc.find("ok")->as_bool()) << line;
    EXPECT_EQ(doc.find("error")->find("status")->as_number(), 400.0) << line;
    EXPECT_EQ(doc.find("error")->find("message")->as_string(),
              "'sng_width' must lie in [3, 16]")
        << line;
  }
  for (unsigned width : {0u, 2u, 17u, 24u, 32u, 33u, 40u}) {
    for (bool in_op : {false, true}) {
      ServeRequest typed;
      ProgramSpec spec;
      spec.function_id = "sigmoid";
      typed.programs.push_back(spec);
      typed.xs = {0.5};
      if (in_op) {
        typed.operating_point = oscs::OperatingPoint{}.with_sng_width(width);
      } else {
        typed.sng_width = width;
      }
      const std::string where = "typed width " + std::to_string(width) +
                                (in_op ? " in operating_point" : "");
      try {
        (void)server.handle(typed);
        ADD_FAILURE() << where << " accepted";
      } catch (const ServeError& e) {
        EXPECT_EQ(e.status(), 400) << where;
        EXPECT_EQ(e.reason(), "bad_request") << where;
        EXPECT_EQ(std::string(e.what()), "'sng_width' must lie in [3, 16]")
            << where;
      }
    }
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.cache.misses, 0u);
  EXPECT_EQ(m.cache.inserts, 0u);
  EXPECT_EQ(m.resolve.count, 0u);
  EXPECT_EQ(m.in_flight, 0u);
  // A server whose compiler defaults to such a width refuses to start.
  for (unsigned width : {2u, 17u, 24u, 32u}) {
    ServerOptions options = fast_options();
    options.compile.sng_width = width;
    EXPECT_THROW({ ProgramServer rejected(options); }, std::invalid_argument)
        << "compile width " << width;
  }
}

TEST(ProgramServerTest, EdgeSngWidthsAreServed) {
  // The range is inclusive: widths 3 and 16, top level or in
  // operating_point, on the wire and through the typed entry point, run
  // at the width asked for.
  ProgramServer server(fast_options());
  for (unsigned width : {3u, 16u}) {
    const std::string w = std::to_string(width);
    for (bool in_op : {false, true}) {
      const std::string where =
          "width " + w + (in_op ? " in operating_point" : "");
      const std::string member =
          in_op ? R"("operating_point": {"sng_width": )" + w + "}"
                : R"("sng_width": )" + w;
      const std::string line = server.handle_json(
          R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
              "repeats": 2, )" +
          member + "}");
      const JsonValue doc = json_parse(line);
      ASSERT_TRUE(doc.find("ok")->as_bool()) << where << ": " << line;
      EXPECT_EQ(doc.find("op")->find("sng_width")->as_number(),
                static_cast<double>(width))
          << where;

      ServeRequest typed;
      ProgramSpec spec;
      spec.function_id = "sigmoid";
      typed.programs.push_back(spec);
      typed.xs = {0.5};
      typed.stream_lengths = {256};
      typed.repeats = 2;
      if (in_op) {
        typed.operating_point = oscs::OperatingPoint{}.with_sng_width(width);
      } else {
        typed.sng_width = width;
      }
      const ServeResponse response = server.handle(typed);
      EXPECT_EQ(response.cells.size(), 1u) << "typed " << where;
      EXPECT_EQ(response.op.sng_width, width) << "typed " << where;
    }
  }
}

TEST(ProgramServerTest, ColdCompileBudgetRejectsThenServesWhenWarm) {
  ServerOptions options = fast_options();
  options.max_cold_degree = 2;  // sigmoid's registry degree is above this
  ProgramServer server(options);

  const std::string request =
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})";
  const JsonValue rejected = json_parse(server.handle_json(request));
  EXPECT_FALSE(rejected.find("ok")->as_bool());
  EXPECT_EQ(rejected.find("error")->find("status")->as_number(), 429.0);
  EXPECT_EQ(rejected.find("error")->find("reason")->as_string(),
            "compile_budget");

  // Pre-warm through the compiler (an operator action), then the same
  // request is admitted: resident programs always serve.
  const compile::RegistryFunction* fn = compile::find_function("sigmoid");
  compile::CompileOptions opts = server.options().compile;
  opts.projection.max_degree = fn->degree;
  (void)server.compiler().compile("sigmoid", fn->f, opts);
  const JsonValue served = json_parse(server.handle_json(request));
  EXPECT_TRUE(served.find("ok")->as_bool());

  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected_budget, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(ProgramServerTest, BusyGateRejectsWithZeroInFlightBudget) {
  ServerOptions options = fast_options();
  options.max_in_flight = 0;
  ProgramServer server(options);
  const JsonValue doc = json_parse(server.handle_json(
      R"({"function": "sigmoid", "xs": [0.5]})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 429.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "busy");
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected_busy, 1u);
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(ProgramServerTest, PerRequestOperatingPointControlsNoise) {
  ProgramServer server(fast_options());
  // A noiseless explicit operating point must produce zero flips.
  const JsonValue quiet = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "operating_point": {"probe_power_mw": 1.0, "ber": 0.0}})"));
  ASSERT_TRUE(quiet.find("ok")->as_bool());
  EXPECT_EQ(quiet.find("cells")->items()[0].find("flip_rate")->as_number(),
            0.0);
  EXPECT_EQ(quiet.find("op")->find("ber")->as_number(), 0.0);

  // A heavy explicit BER must show up as flips.
  const JsonValue noisy = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "operating_point": {"probe_power_mw": 1.0, "ber": 0.2}})"));
  ASSERT_TRUE(noisy.find("ok")->as_bool());
  EXPECT_GT(noisy.find("cells")->items()[0].find("flip_rate")->as_number(),
            0.05);

  // Link-budget derivation: a starved probe power yields a worse (higher-
  // BER) operating point than a strong one.
  const JsonValue starved = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "probe_power_mw": 0.05})"));
  const JsonValue strong = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [1024], "repeats": 2,
          "probe_power_mw": 5.0})"));
  ASSERT_TRUE(starved.find("ok")->as_bool());
  ASSERT_TRUE(strong.find("ok")->as_bool());
  EXPECT_GT(starved.find("op")->find("ber")->as_number(),
            strong.find("op")->find("ber")->as_number());

  // An invalid explicit operating point is a 400.
  const JsonValue bad = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "operating_point": {"probe_power_mw": -1.0}})"));
  EXPECT_EQ(bad.find("error")->find("status")->as_number(), 400.0);
}

TEST(ProgramServerTest, MetricsEndpointExportsCacheAndLatencyCounters) {
  ProgramServer server(fast_options());
  (void)server.handle_json(
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})");
  const std::string line =
      server.handle_json(R"({"op": "metrics", "id": "m1"})");
  const JsonValue doc = json_parse(line);
  ASSERT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("id")->as_string(), "m1");
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("cache")->find("misses")->as_number(), 1.0);
  EXPECT_EQ(metrics->find("cache")->find("size")->as_number(), 1.0);
  EXPECT_EQ(metrics->find("requests")->find("received")->as_number(), 2.0);
  EXPECT_EQ(metrics->find("requests")->find("completed")->as_number(), 1.0);
  const JsonValue* latency = metrics->find("latency_us");
  EXPECT_EQ(latency->find("parse")->find("count")->as_number(), 2.0);
  EXPECT_EQ(latency->find("execute")->find("count")->as_number(), 1.0);
  EXPECT_GT(latency->find("execute")->find("mean_us")->as_number(), 0.0);

  // Ping answers without touching the evaluate counters.
  const JsonValue pong = json_parse(server.handle_json(R"({"op": "ping"})"));
  EXPECT_TRUE(pong.find("pong")->as_bool());
}

TEST(ProgramServerTest, TypedHandleMatchesJsonPath) {
  ProgramServer server(fast_options());
  ServeRequest request;
  request.id = "typed";
  ProgramSpec spec;
  spec.coefficients = {0.2, 0.9, 0.4};
  request.programs.push_back(spec);
  request.xs = {0.5};
  request.stream_lengths = {512};
  request.repeats = 2;
  request.seed = 9;
  const ServeResponse typed = server.handle(request);
  ASSERT_EQ(typed.cells.size(), 1u);

  const JsonValue doc = json_parse(server.handle_json(
      R"({"id": "wire", "coefficients": [0.2, 0.9, 0.4], "xs": [0.5],
          "stream_lengths": [512], "repeats": 2, "seed": 9})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("cells")->items()[0].find("optical_mean")->as_number(),
            typed.cells[0].optical_mean);
  EXPECT_EQ(server.metrics().received, 2u);
  EXPECT_EQ(server.metrics().completed, 2u);
}

TEST(ProgramServerTest, TypedHandleRejectsMalformedRequestsWithServeError) {
  // Regression: the typed path bypasses parse_request's shape checks, so
  // handle() must re-validate instead of dereferencing empty vectors.
  ProgramServer server(fast_options());
  ServeRequest base;
  ProgramSpec spec;
  spec.coefficients = {0.2, 0.8};
  base.programs.push_back(spec);
  base.xs = {0.5};
  base.probe_power_mw = 1.0;

  const auto expect_400 = [&server](ServeRequest req, const char* what) {
    try {
      (void)server.handle(req);
      FAIL() << what;
    } catch (const ServeError& e) {
      EXPECT_EQ(e.status(), 400) << what;
    }
  };
  {
    ServeRequest req = base;
    req.stream_lengths.clear();
    expect_400(req, "empty stream_lengths");
  }
  {
    ServeRequest req = base;
    req.xs.clear();
    expect_400(req, "empty xs");
  }
  {
    ServeRequest req = base;
    req.programs.clear();
    expect_400(req, "no programs");
  }
  {
    ServeRequest req = base;
    req.repeats = 0;
    expect_400(req, "zero repeats");
  }
  {
    // The wire answers 400 to a request carrying both; the typed path
    // must not serve it at the explicit point and drop the probe power.
    ServeRequest req = base;
    req.operating_point = oscs::OperatingPoint{}.with_stream_length(256);
    expect_400(req, "both operating_point and probe_power_mw");
  }
}

TEST(ProgramServerTest, TypedAndWireRejectBothOperatingPointFormsAlike) {
  // One rule answers a request that carries both an explicit operating
  // point and a probe power, whichever entry point it arrives on: the
  // same status, reason and message, and nothing is served.
  ProgramServer server(fast_options());
  const JsonValue wire = json_parse(server.handle_json(
      R"({"coefficients": [0.2, 0.8], "xs": [0.5], "stream_lengths": [256],)"
      R"( "operating_point": {"stream_length": 256}, "probe_power_mw": 0.03})"));
  ASSERT_FALSE(wire.find("ok")->as_bool());
  const JsonValue* error = wire.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("status")->as_number(), 400.0);

  ServeRequest typed;
  ProgramSpec spec;
  spec.coefficients = {0.2, 0.8};
  typed.programs.push_back(spec);
  typed.xs = {0.5};
  typed.stream_lengths = {256};
  typed.operating_point = oscs::OperatingPoint{}.with_stream_length(256);
  typed.probe_power_mw = 0.03;
  try {
    (void)server.handle(typed);
    FAIL() << "typed handle served a request carrying both forms";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), 400);
    EXPECT_EQ(e.reason(), error->find("reason")->as_string());
    EXPECT_EQ(std::string(e.what()), error->find("message")->as_string());
  }
  EXPECT_EQ(server.metrics().completed, 0u);
}

TEST(ProgramServerTest, OversizedRequestsAreRejectedBeforeExecution) {
  // One absurd repeats value must not wedge an in-flight slot: the
  // evaluate-cost gate answers 413 before any work starts.
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5], "stream_lengths": [1],)"
      R"( "repeats": 18446744073709551615})"));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("status")->as_number(), 413.0);
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "too_large");
  EXPECT_EQ(server.metrics().in_flight, 0u);

  // Same gate on huge stream lengths.
  const JsonValue huge = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5],)"
      R"( "stream_lengths": [1099511627776], "repeats": 1})"));
  EXPECT_EQ(huge.find("error")->find("reason")->as_string(), "too_large");

  // A request within the budget still serves.
  const JsonValue ok = json_parse(server.handle_json(
      R"({"coefficients": [0.0, 1.0], "xs": [0.5], "stream_lengths": [256],)"
      R"( "repeats": 2})"));
  EXPECT_TRUE(ok.find("ok")->as_bool());
}

TEST(ProgramServerTest, MixedDegreeFusionElevatesToCommonOrder) {
  // sigmoid (registry degree 3+) fused with an order-1 raw ramp: the ramp
  // is degree-elevated to the shared circuit order and still evaluates to
  // ~x at the design point.
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"programs": [{"function": "sigmoid"},
                       {"coefficients": [0.0, 1.0], "id": "identity"}],
          "xs": [0.3, 0.7], "stream_lengths": [4096], "repeats": 4})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  for (const JsonValue& cell : doc.find("cells")->items()) {
    if (cell.find("program")->as_string() != "identity") continue;
    const double x = cell.find("x")->as_number();
    // Degree elevation is value-preserving up to rounding.
    EXPECT_NEAR(cell.find("expected")->as_number(), x, 1e-12);
    EXPECT_NEAR(cell.find("optical_mean")->as_number(), x, 0.05);
  }
}

/// Threads of this process: the entries under /proc/self/task.
std::size_t process_threads() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

TEST(ProgramServerTest, ConcurrentRequestsShareOneEnginePool) {
  // Concurrent requests and a mid-storm prewarm pass fork-join on the
  // server's one engine pool: every reply matches the sequential one, and
  // the storm leaves no engine thread behind.
  ServerOptions options = fast_options();
  options.threads = 2;
  ProgramServer server(options);
  // 9 points x 8 repeats at 4096 bits: several slabs, so every request
  // queues pool helpers.
  const std::string request =
      R"({"function": "sigmoid",
          "xs": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
          "stream_lengths": [4096], "repeats": 8, "seed": 9})";
  const JsonValue warm = json_parse(server.handle_json(request));
  ASSERT_TRUE(warm.find("ok")->as_bool());
  const JsonValue cells = *warm.find("cells");
  const std::size_t threads_before = process_threads();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 20;
  std::latch start(kClients + 1);
  std::atomic<int> served{0};
  std::vector<int> mismatches(kClients, 0);  // one slot per client
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const JsonValue doc = json_parse(server.handle_json(request));
        const JsonValue* got = doc.find("cells");
        if (got == nullptr || !(*got == cells)) ++mismatches[c];
        ++served;
      }
    });
  }
  start.arrive_and_wait();
  // Mid-storm: the prewarm pass starts once the first replies are in.
  while (served.load() < kClients) std::this_thread::yield();
  PrewarmOptions manifest;
  manifest.compile_missing = true;
  manifest.functions = {"tanh", "exp_neg"};
  const PrewarmReport report = server.prewarm(manifest);
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  EXPECT_EQ(report.compiled, 2u);
  EXPECT_EQ(report.compile_errors, 0u) << report.message;
  EXPECT_EQ(server.metrics().completed,
            std::size_t{1} + kClients * kRequestsPerClient);
  EXPECT_EQ(process_threads(), threads_before);
}

}  // namespace
}  // namespace oscs::serve
