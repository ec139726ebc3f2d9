/// Startup prewarm tests: a server restarted against a persisted cache
/// file serves the full 1D/2D/N-ary registry with ZERO cold compiles on
/// the request path (the ISSUE acceptance criterion), corrupt or missing
/// cache files degrade to cold compiles without failing startup, and the
/// compile_missing manifest fans the registry across the pool.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "compile/registry.hpp"
#include "serve/server.hpp"

namespace oscs::serve {
namespace {

/// Certification off so the prewarm compile pass is fast; BOTH servers in
/// a save/restore pair must use the same compile options - the options
/// digest is part of the cache identity, exactly like a real deployment
/// where the restarted server runs the same config.
ServerOptions fast_options() {
  ServerOptions options;
  options.compile.certify = false;
  options.threads = 1;
  options.cache_capacity = 64;  // hold the whole registry
  return options;
}

std::size_t registry_total() {
  return compile::registry_ids().size() + compile::registry2_ids().size() +
         compile::registry_nd_ids().size();
}

std::string temp_cache_path(const std::string& tag) {
  return ::testing::TempDir() + "oscs_prewarm_" + tag + ".bin";
}

/// Drive one evaluate request per registry entry (all three arities)
/// through handle_json and assert every response is ok.
void serve_full_registry(ProgramServer& server) {
  for (const std::string& id : compile::registry_ids()) {
    const JsonValue doc = json_parse(server.handle_json(
        R"({"function": ")" + id +
        R"(", "xs": [0.25, 0.75], "stream_lengths": [256], "repeats": 2})"));
    ASSERT_TRUE(doc.find("ok")->as_bool()) << id;
  }
  for (const std::string& id : compile::registry2_ids()) {
    const JsonValue doc = json_parse(server.handle_json(
        R"({"function": ")" + id +
        R"(", "xs": [0.25], "ys": [0.5], "stream_lengths": [256],)"
        R"( "repeats": 2})"));
    ASSERT_TRUE(doc.find("ok")->as_bool()) << id;
  }
  for (const std::string& id : compile::registry_nd_ids()) {
    const compile::RegistryFunctionN* fn = compile::find_function_nd(id);
    ASSERT_NE(fn, nullptr) << id;
    std::string inputs = "[";
    for (std::size_t axis = 0; axis < fn->arity; ++axis) {
      inputs += axis == 0 ? "[0.25, 0.75]" : ", [0.25, 0.75]";
    }
    inputs += "]";
    const JsonValue doc = json_parse(server.handle_json(
        R"({"function": ")" + id + R"(", "inputs": )" + inputs +
        R"(, "stream_lengths": [256], "repeats": 2})"));
    ASSERT_TRUE(doc.find("ok")->as_bool()) << id;
  }
}

TEST(PrewarmTest, RestartedServerServesRegistryWithZeroColdCompiles) {
  const std::string path = temp_cache_path("restart");

  // "First boot": compile the whole registry through the manifest, then
  // persist the cache - the operational save-before-shutdown flow.
  {
    ProgramServer server(fast_options());
    PrewarmOptions manifest;
    manifest.compile_missing = true;
    const PrewarmReport report = server.prewarm(manifest);
    EXPECT_EQ(report.compiled, registry_total());
    EXPECT_EQ(report.compile_errors, 0u);
    EXPECT_EQ(server.save_cache(path), registry_total());
  }

  // "Restart": a fresh server loads the file at construction. Every
  // registry program must already be resident - the whole catalogue
  // serves without a single cache miss (miss == cold compile on the
  // request path).
  {
    ServerOptions options = fast_options();
    options.prewarm.cache_file = path;
    ProgramServer server(options);

    ServerMetrics metrics = server.metrics();
    EXPECT_EQ(metrics.cache_loaded, registry_total());
    EXPECT_EQ(metrics.cache_load_errors, 0u);
    EXPECT_EQ(metrics.cache_prewarmed, 0u);  // file covered everything
    EXPECT_EQ(metrics.cache_size, registry_total());

    serve_full_registry(server);

    metrics = server.metrics();
    EXPECT_EQ(metrics.cache.misses, 0u) << "cold compile after prewarm";
    EXPECT_GT(metrics.cache.hits, 0u);
    EXPECT_EQ(metrics.failed, 0u);
  }
  std::remove(path.c_str());
}

TEST(PrewarmTest, CacheFileAndCompileMissingCompose) {
  const std::string path = temp_cache_path("compose");

  // Save a cache holding ONLY the univariate catalogue.
  {
    ProgramServer server(fast_options());
    PrewarmOptions manifest;
    manifest.compile_missing = true;
    manifest.functions = compile::registry_ids();
    const PrewarmReport report = server.prewarm(manifest);
    EXPECT_EQ(report.compiled, compile::registry_ids().size());
    (void)server.save_cache(path);
  }

  // Restart with the partial file plus compile_missing: the loader seeds
  // the univariate entries, the manifest compiles only the rest.
  {
    ServerOptions options = fast_options();
    options.prewarm.cache_file = path;
    options.prewarm.compile_missing = true;
    ProgramServer server(options);

    const ServerMetrics metrics = server.metrics();
    EXPECT_EQ(metrics.cache_loaded, compile::registry_ids().size());
    EXPECT_EQ(metrics.cache_prewarmed,
              registry_total() - compile::registry_ids().size());
    EXPECT_EQ(metrics.cache_size, registry_total());
  }
  std::remove(path.c_str());
}

TEST(PrewarmTest, CorruptCacheFileDoesNotFailStartup) {
  const std::string path = temp_cache_path("corrupt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a cache file at all, not even close";
  }

  ServerOptions options = fast_options();
  options.prewarm.cache_file = path;
  ProgramServer server(options);  // must not throw

  ServerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.cache_loaded, 0u);
  EXPECT_GE(metrics.cache_load_errors, 1u);

  // Cold serving still works - the file only cost us the warm start.
  const JsonValue doc = json_parse(server.handle_json(
      R"({"function": "sigmoid", "xs": [0.5], "stream_lengths": [256],
          "repeats": 2})"));
  EXPECT_TRUE(doc.find("ok")->as_bool());
  std::remove(path.c_str());
}

TEST(PrewarmTest, VersionOneCacheFileCountsOneLoadErrorAndRecompiles) {
  // A file written before stimulus contract v2 carries format version 1:
  // its certificates describe the old stimulus, so the whole file takes
  // the counted fail-soft path and the manifest compiles the program
  // again.
  const std::string path = temp_cache_path("version1");
  {
    ProgramServer server(fast_options());
    PrewarmOptions manifest;
    manifest.compile_missing = true;
    manifest.functions = {"sigmoid"};
    ASSERT_EQ(server.prewarm(manifest).compiled, 1u);
    ASSERT_EQ(server.save_cache(path), 1u);
  }
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8);  // the u32 format version follows the 8-byte magic
    const char version1[4] = {1, 0, 0, 0};
    file.write(version1, sizeof(version1));
  }

  ServerOptions options = fast_options();
  options.prewarm.cache_file = path;
  options.prewarm.compile_missing = true;
  options.prewarm.functions = {"sigmoid"};
  ProgramServer server(options);

  const ServerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.cache_load_errors, 1u);
  EXPECT_EQ(metrics.cache_loaded, 0u);
  EXPECT_EQ(metrics.cache_prewarmed, 1u);
  EXPECT_EQ(metrics.cache_size, 1u);
  std::remove(path.c_str());
}

TEST(PrewarmTest, MissingCacheFileDoesNotFailStartup) {
  ServerOptions options = fast_options();
  options.prewarm.cache_file = temp_cache_path("never_written_gone");
  ProgramServer server(options);  // must not throw
  const ServerMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.cache_loaded, 0u);
  EXPECT_EQ(metrics.cache_load_errors, 1u);
}

TEST(PrewarmTest, SecondManifestPassCompilesNothing) {
  ProgramServer server(fast_options());
  PrewarmOptions manifest;
  manifest.compile_missing = true;
  const PrewarmReport first = server.prewarm(manifest);
  EXPECT_EQ(first.compiled, registry_total());
  // Everything is resident now: the manifest probe must find each key
  // and skip the compile (no cache churn, no duplicate work).
  const PrewarmReport second = server.prewarm(manifest);
  EXPECT_EQ(second.compiled, 0u);
  EXPECT_EQ(second.compile_errors, 0u);
}

TEST(PrewarmTest, UnknownManifestIdsAreCountedNotFatal) {
  ProgramServer server(fast_options());
  PrewarmOptions manifest;
  manifest.compile_missing = true;
  manifest.functions = {"sigmoid", "no_such_function"};
  const PrewarmReport report = server.prewarm(manifest);
  EXPECT_EQ(report.compiled, 1u);
  EXPECT_EQ(report.compile_errors, 1u);
  EXPECT_FALSE(report.message.empty());
}

}  // namespace
}  // namespace oscs::serve
