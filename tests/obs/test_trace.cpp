#include "obs/trace.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace oscs::obs {
namespace {

TEST(Trace, MakeIdIs16HexAndUnique) {
  const std::string a = Trace::make_id();
  const std::string b = Trace::make_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
  for (char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
  }
}

TEST(Trace, SpanTreeRecordsParents) {
  Trace trace("deadbeef00000000");
  const int root = trace.begin_span("request");
  const int child = trace.begin_span("resolve");
  const int grandchild = trace.begin_span("compile");
  trace.end_span(grandchild);
  const int sibling = trace.begin_span("certify");
  trace.end_span(sibling);
  trace.end_span(child);
  const int second = trace.begin_span("execute");
  trace.end_span(second);
  trace.end_span(root);

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[root].parent, -1);
  EXPECT_EQ(spans[child].parent, root);
  EXPECT_EQ(spans[grandchild].parent, child);
  EXPECT_EQ(spans[sibling].parent, child);
  EXPECT_EQ(spans[second].parent, root);
  for (const Trace::SpanRecord& span : spans) {
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_GE(span.duration_us, 0.0) << span.name;
    EXPECT_GE(span.start_us, 0.0) << span.name;
  }
  EXPECT_EQ(spans[root].name, "request");
  EXPECT_EQ(spans[grandchild].name, "compile");
}

TEST(Trace, OutOfOrderCloseUnwindsTheOpenStack) {
  Trace trace;
  const int outer = trace.begin_span("outer");
  const int inner = trace.begin_span("inner");
  // Closing the outer span first must also settle the inner one so no
  // span dangles open.
  trace.end_span(outer);
  EXPECT_FALSE(trace.spans()[outer].open);
  EXPECT_FALSE(trace.spans()[inner].open);
  // A follow-up span is a root again, not a child of a closed span.
  const int next = trace.begin_span("next");
  trace.end_span(next);
  EXPECT_EQ(trace.spans()[next].parent, -1);
}

TEST(Trace, SetIdReplacesTheGeneratedOne) {
  Trace trace;
  trace.set_id("client-supplied-id");
  EXPECT_EQ(trace.id(), "client-supplied-id");
}

TEST(Span, RaiiOpensAndCloses) {
  Trace trace;
  {
    Span outer(&trace, "outer");
    Span inner(&trace, "inner");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_FALSE(trace.spans()[0].open);
  EXPECT_FALSE(trace.spans()[1].open);
  EXPECT_EQ(trace.spans()[1].parent, 0);
}

TEST(Span, NullTraceIsANoOp) {
  Span span(nullptr, "nowhere");
  span.end();  // must not crash; end() is idempotent
}

TEST(Span, EndIsIdempotent) {
  Trace trace;
  Span span(&trace, "once");
  span.end();
  span.end();
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_FALSE(trace.spans()[0].open);
}

TEST(TraceScope, InstallsAndRestoresThreadLocal) {
  EXPECT_EQ(current_trace(), nullptr);
  Trace outer;
  {
    TraceScope outer_scope(&outer);
    EXPECT_EQ(current_trace(), &outer);
    Trace inner;
    {
      TraceScope inner_scope(&inner);
      EXPECT_EQ(current_trace(), &inner);
    }
    EXPECT_EQ(current_trace(), &outer);
  }
  EXPECT_EQ(current_trace(), nullptr);
}

TEST(TraceScope, IsPerThread) {
  Trace trace;
  TraceScope scope(&trace);
  Trace* seen_on_other_thread = &trace;  // sentinel: must be overwritten
  std::thread([&seen_on_other_thread] {
    seen_on_other_thread = current_trace();
  }).join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(current_trace(), &trace);
}

class TraceLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: ctest -j runs this fixture's tests as parallel
    // processes, which must not remove each other's trace files.
    dir_ = std::filesystem::temp_directory_path() /
           ("oscs_trace_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "traces.jsonl").string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::vector<std::string> lines() const {
    std::vector<std::string> out;
    std::ifstream in(path_);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) out.push_back(line);
    }
    return out;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(TraceLogTest, DisabledByDefault) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  Trace trace;
  log.observe(trace, "req", "ok");  // must be a cheap no-op
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(TraceLogTest, WritesParseableJsonlWithSpanTree) {
  TraceLog log(TraceLog::Options{path_, 1});
  ASSERT_TRUE(log.enabled());
  Trace trace("00000000cafe0000");
  {
    Span request(&trace, "request");
    Span resolve(&trace, "resolve");
  }
  log.observe(trace, "req-7", "ok");

  const auto all = lines();
  ASSERT_EQ(all.size(), 1u);
  const JsonValue doc = json_parse(all.front());
  EXPECT_EQ(doc.find("trace_id")->as_string(), "00000000cafe0000");
  EXPECT_EQ(doc.find("request_id")->as_string(), "req-7");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_GE(doc.find("total_us")->as_number(), 0.0);
  const JsonValue* spans = doc.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items().size(), 2u);
  EXPECT_EQ(spans->items()[0].find("name")->as_string(), "request");
  EXPECT_EQ(spans->items()[0].find("parent")->as_number(), -1.0);
  EXPECT_EQ(spans->items()[1].find("name")->as_string(), "resolve");
  EXPECT_EQ(spans->items()[1].find("parent")->as_number(), 0.0);
}

TEST_F(TraceLogTest, SamplesEveryNth) {
  TraceLog log(TraceLog::Options{path_, 3});
  Trace trace;
  for (int i = 0; i < 9; ++i) log.observe(trace, "req", "ok");
  EXPECT_EQ(lines().size(), 3u);
}

TEST_F(TraceLogTest, ConcurrentObserveKeepsLinesIntact) {
  TraceLog log(TraceLog::Options{path_, 1});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      Trace trace;
      Span span(&trace, "work");
      span.end();
      for (int i = 0; i < kPerThread; ++i) log.observe(trace, "req", "ok");
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto all = lines();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (const std::string& line : all) {
    EXPECT_NO_THROW((void)json_parse(line));
  }
}

}  // namespace
}  // namespace oscs::obs
