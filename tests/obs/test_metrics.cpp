#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace oscs::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, AddReturnsTheNewValue) {
  // The serving layer's admission gate relies on add() handing back the
  // post-update value - claim a slot and test the limit in one atomic.
  Gauge g;
  EXPECT_EQ(g.add(1), 1);
  EXPECT_EQ(g.add(1), 2);
  EXPECT_EQ(g.add(-1), 1);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Registry, SameNameAndLabelsShareOneMetric) {
  Registry r;
  Counter& a = r.counter("requests_total", "requests");
  Counter& b = r.counter("requests_total", "requests");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, DifferentLabelsAreDistinctSeries) {
  Registry r;
  Counter& uni = r.counter("completed_total", "done", {{"arity", "uni"}});
  Counter& bi = r.counter("completed_total", "done", {{"arity", "bi"}});
  EXPECT_NE(&uni, &bi);
  EXPECT_EQ(r.size(), 2u);
}

TEST(Registry, KindConflictThrows) {
  Registry r;
  (void)r.counter("mixed", "first registration wins the kind");
  EXPECT_THROW((void)r.gauge("mixed", "now as a gauge"),
               std::invalid_argument);
  EXPECT_THROW((void)r.histogram("mixed", "now as a histogram"),
               std::invalid_argument);
}

TEST(Registry, EmptyNameThrows) {
  Registry r;
  EXPECT_THROW((void)r.counter("", "nameless"), std::invalid_argument);
}

TEST(Registry, FindReturnsNullWhenAbsent) {
  Registry r;
  EXPECT_EQ(r.find_counter("nope"), nullptr);
  EXPECT_EQ(r.find_gauge("nope"), nullptr);
  EXPECT_EQ(r.find_histogram("nope"), nullptr);
  (void)r.counter("present", "here");
  EXPECT_NE(r.find_counter("present"), nullptr);
  // Same name, different labels: still absent.
  EXPECT_EQ(r.find_counter("present", {{"k", "v"}}), nullptr);
}

TEST(Registry, ResetAllZeroesEveryMetric) {
  Registry r;
  Counter& c = r.counter("c", "counter");
  Gauge& g = r.gauge("g", "gauge");
  Histogram& h = r.histogram("h", "histogram");
  c.inc(3);
  g.set(9);
  h.record(100.0);
  r.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.snapshot().count(), 0u);
}

TEST(Registry, ReferencesStayValidAcrossGrowth) {
  Registry r;
  Counter& first = r.counter("first", "registered before the flood");
  for (int i = 0; i < 200; ++i) {
    (void)r.counter(std::string("c").append(std::to_string(i)), "filler");
  }
  first.inc();
  EXPECT_EQ(r.find_counter("first")->value(), 1u);
}

TEST(PrometheusExposition, CounterAndGaugeLines) {
  Registry r;
  r.counter("oscs_test_requests_total", "requests served",
            {{"arity", "univariate"}})
      .inc(7);
  r.gauge("oscs_test_in_flight", "live requests").set(3);
  const std::string text = r.prometheus();
  EXPECT_NE(text.find("# HELP oscs_test_requests_total requests served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE oscs_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("oscs_test_requests_total{arity=\"univariate\"} 7"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE oscs_test_in_flight gauge"),
            std::string::npos);
  EXPECT_NE(text.find("oscs_test_in_flight 3"), std::string::npos);
}

TEST(PrometheusExposition, HelpAndTypeEmittedOncePerFamily) {
  Registry r;
  r.counter("family_total", "one help line", {{"k", "a"}}).inc();
  r.counter("family_total", "one help line", {{"k", "b"}}).inc();
  const std::string text = r.prometheus();
  std::size_t help_count = 0;
  for (std::size_t pos = text.find("# HELP family_total");
       pos != std::string::npos;
       pos = text.find("# HELP family_total", pos + 1)) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u);
}

TEST(PrometheusExposition, HistogramEmitsBucketsSumCountAndQuantiles) {
  Registry r;
  Histogram& h = r.histogram("oscs_test_latency_us", "latency", {},
                             Histogram::Options{1.0, 2.0, 4});
  h.record(1.5);   // bucket le=2
  h.record(3.0);   // bucket le=4
  h.record(100.0); // overflow
  const std::string text = r.prometheus();
  EXPECT_NE(text.find("# TYPE oscs_test_latency_us histogram"),
            std::string::npos);
  // Cumulative buckets: le=2 holds 1, le=4 holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("oscs_test_latency_us_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_sum 104.5"), std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_count 3"), std::string::npos);
  // Pre-extracted quantile families ride along.
  EXPECT_NE(text.find("oscs_test_latency_us_p50"), std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_p95"), std::string::npos);
  EXPECT_NE(text.find("oscs_test_latency_us_p99"), std::string::npos);
}

TEST(PrometheusExposition, LabelValuesAreEscaped) {
  Registry r;
  r.counter("esc_total", "escaping", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = r.prometheus();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(PrometheusLabels, RendersOrderedPairs) {
  EXPECT_EQ(prometheus_labels({}), "");
  EXPECT_EQ(prometheus_labels({{"a", "1"}, {"b", "2"}}),
            "{a=\"1\",b=\"2\"}");
}

TEST(Registry, GlobalIsOneSharedInstance) {
  Registry& a = Registry::global();
  Registry& b = Registry::global();
  EXPECT_EQ(&a, &b);
}

TEST(Registry, ConcurrentRegistrationAndRecordingIsSafe) {
  // Races registration (mutex-guarded) against hot-path recording
  // (lock-free) - the shape the TSan job verifies.
  Registry r;
  Counter& shared = r.counter("shared_total", "hammered");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, &shared, t] {
      for (int i = 0; i < kPerThread; ++i) {
        shared.inc();
        (void)r.counter("per_thread_total", "registered concurrently",
                        {{"thread", std::to_string(t % 4)}});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.size(), 1u + 4u);
}

}  // namespace
}  // namespace oscs::obs
