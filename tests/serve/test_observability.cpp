/// End-to-end observability tests: the trace-id request/response contract,
/// metrics JSON back-compat plus the new percentile fields, the Prometheus
/// envelope endpoint, the completed == univariate + bivariate snapshot
/// invariant under a concurrent storm, and the CI smoke shape - a loopback
/// ProgramServer driven with mixed-arity traffic whose scraped counters
/// must reconcile with the requests actually sent.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"

namespace oscs::serve {
namespace {

ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  return options;
}

const char* kUnivariate =
    R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256], "repeats": 2})";
const char* kBivariate =
    R"({"function": "mul", "xs": [0.5], "ys": [0.25], "stream_lengths": [256], "repeats": 2})";

TEST(ServeTrace, ResponseCarriesAServerGeneratedTraceId) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(kUnivariate));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  const JsonValue* trace_id = doc.find("trace_id");
  ASSERT_NE(trace_id, nullptr);
  EXPECT_EQ(trace_id->as_string().size(), 16u);
}

TEST(ServeTrace, ClientSuppliedTraceIdIsEchoed) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"trace": "client-trace-42", "function": "sigmoid", "xs": [0.5], "stream_lengths": [128], "repeats": 2})"));
  ASSERT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("trace_id")->as_string(), "client-trace-42");
}

TEST(ServeTrace, ErrorResponsesCarryTheTraceIdToo) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(server.handle_json(
      R"({"trace": "err-trace", "function": "no_such_fn", "xs": [0.5]})"));
  ASSERT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("trace_id")->as_string(), "err-trace");
  EXPECT_EQ(doc.find("error")->find("reason")->as_string(),
            "unknown_function");
}

TEST(ServeTrace, TypedPathEchoesTraceIds) {
  ProgramServer server(fast_options());
  ServeRequest request;
  request.programs.push_back({"sigmoid", {}, {}, "", std::nullopt});
  request.xs = {0.5};
  request.stream_lengths = {128};
  request.repeats = 2;
  request.trace = "typed-trace";
  const ServeResponse response = server.handle(request);
  EXPECT_EQ(response.trace_id, "typed-trace");

  request.trace.clear();
  const ServeResponse generated = server.handle(request);
  EXPECT_EQ(generated.trace_id.size(), 16u);
}

TEST(ServeTrace, SampledTraceLogRecordsTheStageTree) {
  const auto dir =
      std::filesystem::temp_directory_path() / "oscs_serve_trace_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "traces.jsonl").string();
  std::filesystem::remove(path);

  ServerOptions options = fast_options();
  options.trace_log = {path, 1};
  ProgramServer server(options);
  ASSERT_TRUE(json_parse(server.handle_json(kUnivariate))
                  .find("ok")
                  ->as_bool());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue doc = json_parse(line);
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  std::vector<std::string> names;
  for (const JsonValue& span : doc.find("spans")->items()) {
    names.push_back(span.find("name")->as_string());
  }
  // The serving layer's span tree: parse, resolve (with the cold compile
  // nested under it through the thread-local scope), execute, serialize.
  EXPECT_NE(std::find(names.begin(), names.end(), "parse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "resolve"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "compile"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "execute"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "serialize"), names.end());
  std::filesystem::remove_all(dir);
}

TEST(ServeMetricsJson, KeepsBackCompatKeysAndAddsPercentiles) {
  ProgramServer server(fast_options());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(json_parse(server.handle_json(kUnivariate))
                    .find("ok")
                    ->as_bool());
  }
  const JsonValue doc =
      json_parse(server.handle_json(R"({"op": "metrics"})"));
  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);

  // Back-compat: every pre-existing key keeps its place and meaning.
  const JsonValue* requests = metrics->find("requests");
  EXPECT_EQ(requests->find("received")->as_number(), 4.0);
  EXPECT_EQ(requests->find("completed")->as_number(), 3.0);
  EXPECT_EQ(requests->find("completed_univariate")->as_number(), 3.0);
  EXPECT_EQ(requests->find("completed_bivariate")->as_number(), 0.0);
  EXPECT_EQ(requests->find("rejected_busy")->as_number(), 0.0);
  EXPECT_EQ(requests->find("rejected_budget")->as_number(), 0.0);
  EXPECT_EQ(requests->find("failed")->as_number(), 0.0);
  EXPECT_EQ(requests->find("in_flight")->as_number(), 0.0);
  const JsonValue* cache = metrics->find("cache");
  EXPECT_EQ(cache->find("misses")->as_number(), 1.0);
  EXPECT_EQ(cache->find("hits")->as_number(), 2.0);
  EXPECT_EQ(cache->find("size")->as_number(), 1.0);

  // New surface: per-stage percentiles, serialize/total stages, errors.
  const JsonValue* latency = metrics->find("latency_us");
  for (const char* stage :
       {"parse", "resolve", "execute", "serialize", "total"}) {
    const JsonValue* s = latency->find(stage);
    ASSERT_NE(s, nullptr) << stage;
    EXPECT_GE(s->find("count")->as_number(), 3.0) << stage;
    EXPECT_GT(s->find("mean_us")->as_number(), 0.0) << stage;
    EXPECT_GT(s->find("p50_us")->as_number(), 0.0) << stage;
    EXPECT_GE(s->find("p95_us")->as_number(),
              s->find("p50_us")->as_number())
        << stage;
    EXPECT_GE(s->find("p99_us")->as_number(),
              s->find("p95_us")->as_number())
        << stage;
    EXPECT_GE(s->find("max_us")->as_number(),
              s->find("p50_us")->as_number())
        << stage;
  }
  const JsonValue* errors = metrics->find("errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->find("busy")->as_number(), 0.0);
  EXPECT_EQ(errors->find("unknown_function")->as_number(), 0.0);
}

TEST(ServeMetricsJson, ErrorBreakdownCountsByReason) {
  ProgramServer server(fast_options());
  (void)server.handle_json(R"({"function": "no_such_fn", "xs": [0.5]})");
  (void)server.handle_json("{not json");
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.errors.at("unknown_function"), 1u);
  EXPECT_EQ(m.errors.at("bad_request"), 1u);
  EXPECT_EQ(m.failed, 2u);
}

TEST(ServeMetricsProm, EnvelopeWrapsScrapableExposition) {
  ProgramServer server(fast_options());
  ASSERT_TRUE(json_parse(server.handle_json(kUnivariate))
                  .find("ok")
                  ->as_bool());
  const std::string line =
      server.handle_json(R"({"id": "scrape-1", "op": "metrics_prom"})");
  // One line on the wire, like every other response.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  const JsonValue doc = json_parse(line);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("id")->as_string(), "scrape-1");
  EXPECT_EQ(doc.find("content_type")->as_string(),
            "text/plain; version=0.0.4");

  const std::string body = doc.find("body")->as_string();
  // Serve families: counters, the stage histogram with quantiles.
  EXPECT_NE(body.find("oscs_serve_requests_received_total 2"),
            std::string::npos);
  EXPECT_NE(
      body.find("oscs_serve_requests_completed_total{arity=\"univariate\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("# TYPE oscs_serve_stage_latency_us histogram"),
            std::string::npos);
  for (const char* stage :
       {"parse", "resolve", "execute", "serialize", "total"}) {
    EXPECT_NE(body.find("oscs_serve_stage_latency_us_count{stage=\"" +
                        std::string(stage) + "\"}"),
              std::string::npos)
        << stage;
    EXPECT_NE(body.find("oscs_serve_stage_latency_us_p99{stage=\"" +
                        std::string(stage) + "\"}"),
              std::string::npos)
        << stage;
  }
  EXPECT_NE(body.find("oscs_serve_cache_size 1"), std::string::npos);
  // Global families ride along in the same scrape: engine pools, batch
  // throughput, compile pipeline.
  EXPECT_NE(body.find("oscs_engine_bits_evaluated_total"),
            std::string::npos);
  EXPECT_NE(body.find("oscs_engine_pool_task_wait_us_bucket"),
            std::string::npos);
  EXPECT_NE(body.find("oscs_compile_cache_events_total{event=\"miss\"}"),
            std::string::npos);
  EXPECT_NE(body.find("oscs_compile_cold_us_count"), std::string::npos);
}

TEST(ServeMetricsProm, DirectMethodMatchesTheEndpointBody) {
  ProgramServer server(fast_options());
  const std::string text = server.metrics_prometheus();
  EXPECT_NE(text.find("# TYPE oscs_serve_requests_received_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("oscs_serve_in_flight 0"), std::string::npos);
}

TEST(ServeMetrics, CompletedAlwaysEqualsAritySumMidStorm) {
  // Snapshot invariant under fire: completed is derived from the two
  // arity counters, so no interleaving of completions and scrapes may
  // ever show completed != univariate + bivariate.
  ProgramServer server(fast_options());
  // Warm both programs so the storm is all cache hits.
  ASSERT_TRUE(json_parse(server.handle_json(kUnivariate))
                  .find("ok")
                  ->as_bool());
  ASSERT_TRUE(json_parse(server.handle_json(kBivariate))
                  .find("ok")
                  ->as_bool());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const ServerMetrics m = server.metrics();
      if (m.completed != m.completed_univariate + m.completed_bivariate) {
        violations.fetch_add(1);
      }
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> workers;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const char* request = (t % 2 == 0) ? kUnivariate : kBivariate;
        if (json_parse(server.handle_json(request)).find("ok")->as_bool()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.completed, static_cast<std::size_t>(kThreads * kPerThread + 2));
  EXPECT_EQ(m.completed, m.completed_univariate + m.completed_bivariate);
}

TEST(ServeObservability, BuildInfoGaugeMatchesHealth) {
  // The configuration actually serving is exported, not inferred: one
  // oscs_build_info series (value 1) whose labels equal the health
  // reply's "build" object.
  ProgramServer server(fast_options());
  const BuildInfo info = current_build_info();
  EXPECT_EQ(info.kernel_backend, oscs::simd_backend_name(oscs::simd_backend()));
  EXPECT_EQ(info.avx2_compiled, oscs::simd_avx2_compiled());
  EXPECT_EQ(info.cache_format, 2u);
  EXPECT_EQ(info.stimulus_version, 2u);

  const std::string series =
      "oscs_build_info{kernel_backend=\"" + info.kernel_backend +
      "\",avx2_compiled=\"" + (info.avx2_compiled ? "true" : "false") +
      "\",cache_format=\"2\",stimulus_version=\"2\"} 1\n";
  const std::string text = server.metrics_prometheus();
  EXPECT_NE(text.find("# TYPE oscs_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find(series), std::string::npos) << text;

  const JsonValue doc = json_parse(server.handle_json(R"({"op": "health"})"));
  const JsonValue* build = doc.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->find("kernel_backend")->as_string(), info.kernel_backend);
  EXPECT_EQ(build->find("avx2_compiled")->as_bool(), info.avx2_compiled);
  EXPECT_EQ(build->find("cache_format")->as_number(), 2.0);
  EXPECT_EQ(build->find("stimulus_version")->as_number(), 2.0);
}

TEST(ServeObservabilitySmoke, MetricsScrapeReconcilesOverLoopback) {
  // The CI smoke shape: a real TCP server on loopback, mixed-arity
  // traffic from concurrent clients, then both metrics endpoints scraped
  // over the same transport - every counter must reconcile with the
  // traffic actually sent.
  ProgramServer server(fast_options());
  TcpServer tcp(server, /*port=*/0);
  ASSERT_GT(tcp.port(), 0);

  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient client(tcp.port());
      for (int r = 0; r < kPerClient; ++r) {
        const char* request = (c % 2 == 0) ? kUnivariate : kBivariate;
        if (json_parse(client.request(request)).find("ok")->as_bool()) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_EQ(ok_count.load(), kClients * kPerClient);

  TcpClient scraper(tcp.port());
  const JsonValue metrics =
      json_parse(scraper.request(R"({"op": "metrics"})"));
  const JsonValue* requests = metrics.find("metrics")->find("requests");
  const double uni = kClients / 2 * kPerClient;
  const double bi = kClients / 2 * kPerClient;
  EXPECT_EQ(requests->find("completed")->as_number(), uni + bi);
  EXPECT_EQ(requests->find("completed_univariate")->as_number(), uni);
  EXPECT_EQ(requests->find("completed_bivariate")->as_number(), bi);
  // received counts the evaluates plus this very metrics scrape.
  EXPECT_EQ(requests->find("received")->as_number(), uni + bi + 1);
  EXPECT_EQ(requests->find("failed")->as_number(), 0.0);

  const JsonValue prom =
      json_parse(scraper.request(R"({"op": "metrics_prom"})"));
  ASSERT_TRUE(prom.find("ok")->as_bool());
  const std::string body = prom.find("body")->as_string();
  EXPECT_NE(
      body.find("oscs_serve_requests_completed_total{arity=\"univariate\"} " +
                std::to_string(static_cast<int>(uni))),
      std::string::npos)
      << body.substr(0, 2000);
  EXPECT_NE(
      body.find("oscs_serve_requests_completed_total{arity=\"bivariate\"} " +
                std::to_string(static_cast<int>(bi))),
      std::string::npos);
  // Stage histogram count for the execute stage covers every evaluate.
  EXPECT_NE(body.find("oscs_serve_stage_latency_us_count{stage=\"execute\"} " +
                      std::to_string(static_cast<int>(uni + bi))),
            std::string::npos);
}

TEST(ServeMetrics, BusyRejectionsCountLockFreeAndRelease) {
  // max_in_flight = 0 rejects everything at the gate; the gauge must
  // return to zero and the busy counter must see every rejection.
  ServerOptions options = fast_options();
  options.max_in_flight = 0;
  ProgramServer server(options);
  for (int i = 0; i < 5; ++i) {
    const JsonValue doc = json_parse(server.handle_json(kUnivariate));
    EXPECT_FALSE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("error")->find("reason")->as_string(), "busy");
  }
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.rejected_busy, 5u);
  EXPECT_EQ(m.errors.at("busy"), 5u);
  EXPECT_EQ(m.in_flight, 0u);
  EXPECT_EQ(m.failed, 0u);  // rejections are not failures
}

TEST(ServeMetrics, PingEchoesTraceIdAndCountsAsReceived) {
  ProgramServer server(fast_options());
  const JsonValue doc = json_parse(
      server.handle_json(R"({"op": "ping", "trace": "ping-trace"})"));
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("pong")->as_bool());
  EXPECT_EQ(doc.find("trace_id")->as_string(), "ping-trace");
  EXPECT_EQ(server.metrics().received, 1u);
}

}  // namespace
}  // namespace oscs::serve
