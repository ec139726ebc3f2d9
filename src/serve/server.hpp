#pragma once
/// \file server.hpp
/// \brief The compiled-program serving core: resolve JSON requests through
///        the compiler's shared warm cache (single-flight, so a miss storm
///        compiles once), execute them on the batch engine - fused kernel
///        when one request carries several programs - and answer with JSON.
///        Transport-free by design: handle_json() maps one request line to
///        one response line, so tests and benches call it in-process and
///        the TCP front end (serve/tcp.hpp) is a thin wrapper.
///
/// Admission control:
///   * a bounded in-flight gate - at most `max_in_flight` evaluate
///     requests execute concurrently; the rest are rejected immediately
///     with a 429 "busy" error instead of queueing without bound;
///   * a cold-compile budget - a request whose function would compile at a
///     degree above `max_cold_degree` is rejected with 429
///     "compile_budget" unless the program is already resident, keeping
///     expensive cold pipelines from starving cheap warm traffic.
///
/// Observability (src/obs): every request-path record is a lock-free
/// atomic - counters per outcome (arity, error reason), the in-flight
/// gauge doubling as the admission gate, and per-stage log-bucket latency
/// histograms (parse/resolve/execute/serialize/total) - so metric
/// recording never serializes concurrent requests; the only lock left in
/// the server guards the fallback kernel cache. Each request runs under a
/// trace (parse -> resolve -> compile/certify -> execute -> serialize
/// spans; the id is echoed as "trace_id", client-suppliable via "trace")
/// with an optional sampled JSONL trace log. Export goes two ways:
///   * {"op": "metrics"} - the JSON document (back-compatible keys, now
///     with *_p50/_p95/_p99 per stage plus serialize/total stages and a
///     per-reason error breakdown);
///   * {"op": "metrics_prom"} - the Prometheus text exposition (server
///     families plus the process-global engine/compile registry) wrapped
///     in a one-line JSON envelope {"ok", "content_type", "body"}.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/operating_point.hpp"
#include "compile/compiler.hpp"
#include "engine/batch.hpp"
#include "engine/thread_pool.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/accuracy.hpp"
#include "serve/protocol.hpp"

namespace oscs::serve {

/// Startup prewarm manifest: seed the program cache from a persisted
/// cache file (compile/serialize.hpp format) and optionally compile
/// whatever the file did not cover, so a restarted server serves its
/// registry with zero cold compiles on the request path. Loading is
/// fail-soft - a missing or corrupt file degrades to cold compiles with
/// counted `oscs_cache_load_errors_total`, never a startup failure.
struct PrewarmOptions {
  /// Cache file to load at construction; empty disables loading.
  std::string cache_file;
  /// After the load, compile every manifest function still missing from
  /// the cache, fanned across the server's engine pool. With an empty
  /// `functions` list the manifest is the full registry (univariate +
  /// bivariate + N-ary catalogues).
  bool compile_missing = false;
  /// Registry ids to prewarm when `compile_missing` is set (unknown ids
  /// are counted as errors, not fatal). Empty means every registry entry.
  std::vector<std::string> functions;

  [[nodiscard]] bool enabled() const noexcept {
    return !cache_file.empty() || compile_missing;
  }
};

/// Outcome of one prewarm pass (also exported through the
/// oscs_cache_{loaded,load_errors,prewarmed}_total counters).
struct PrewarmReport {
  bool file_opened = false;    ///< cache file header parsed
  std::size_t loaded = 0;      ///< programs restored from the file
  std::size_t load_errors = 0; ///< header/record failures (fail-soft)
  std::size_t compiled = 0;    ///< manifest functions compiled cold
  std::size_t compile_errors = 0;  ///< manifest entries that failed
  std::string message;         ///< first failure description, if any
};

/// Server construction knobs.
struct ServerOptions {
  std::size_t cache_capacity = 32;  ///< program cache entries
  /// Evaluate requests allowed to execute concurrently; further ones are
  /// rejected with 429 "busy".
  std::size_t max_in_flight = 64;
  /// Highest degree admitted for a cold compile; resident programs of any
  /// degree always serve. Rejection carries 429 "compile_budget".
  std::size_t max_cold_degree = 8;
  /// Evaluate-cost ceiling: total stream bits one request may demand
  /// (programs x xs x repeats x sum of stream lengths). Without it a
  /// single absurd repeats/length value wedges an in-flight slot
  /// indefinitely. Rejection carries 413 "too_large".
  double max_request_bits = 4.0e9;
  /// Engine pool workers, built once at construction and shared by every
  /// request and prewarm pass (0 picks hardware concurrency). Each
  /// request's calling thread computes beside them, so the server never
  /// holds more than this many engine threads.
  std::size_t threads = 2;
  /// Compiler pipeline defaults (certification settings etc.).
  compile::CompileOptions compile{};
  /// Sampled JSONL trace sink (disabled by default; set a path and
  /// sample_every >= 1 to log every N-th request's span tree).
  obs::TraceLog::Options trace_log{};
  /// Accuracy plane: shadow sampling fraction, error-budget SLO knobs and
  /// the degraded/slow-request log (see serve/accuracy.hpp).
  AccuracyOptions accuracy{};
  /// Startup cache prewarm (load a persisted cache file, compile the
  /// rest); disabled by default.
  PrewarmOptions prewarm{};
};

/// One stage's latency snapshot (microseconds). Derived at export time
/// from the stage's lock-free histogram; the legacy mean/max fields are
/// preserved and tail quantiles ride alongside.
struct StageStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;

  [[nodiscard]] double mean_us() const noexcept {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};

/// The build and runtime configuration a server answers with, fixed at
/// construction: exported as the `oscs_build_info` gauge (value 1, the
/// fields as labels) and echoed under "build" by {"op":"health"}.
struct BuildInfo {
  std::string kernel_backend;  ///< active SIMD backend ("scalar"/"avx2")
  bool avx2_compiled = false;  ///< AVX2 translation units in this binary
  std::uint32_t cache_format = 0;  ///< compile::kCacheFormatVersion
  unsigned stimulus_version = 0;   ///< stochastic::kStimulusVersion
};

/// This process's BuildInfo, resolved now.
[[nodiscard]] BuildInfo current_build_info();

/// Snapshot exported by the metrics endpoint.
struct ServerMetrics {
  compile::ProgramCache::Stats cache{};
  std::size_t cache_size = 0;
  std::size_t cache_capacity = 0;
  std::size_t cache_loaded = 0;       ///< programs restored from a cache file
  std::size_t cache_load_errors = 0;  ///< prewarm load failures (fail-soft)
  std::size_t cache_prewarmed = 0;    ///< programs compiled by the prewarm

  std::size_t received = 0;         ///< requests of any op
  /// Successful evaluates. Derived as the sum of the per-arity counters
  /// at snapshot time, so the invariant completed == completed_univariate
  /// + completed_bivariate + completed_nd holds even while requests are
  /// landing.
  std::size_t completed = 0;
  std::size_t completed_univariate = 0;
  std::size_t completed_bivariate = 0;
  std::size_t completed_nd = 0;  ///< N-ary ("inputs") evaluates
  std::size_t rejected_busy = 0;    ///< 429 in-flight gate
  std::size_t rejected_budget = 0;  ///< 429 cold-compile budget
  std::size_t failed = 0;           ///< every other error response
  std::size_t in_flight = 0;        ///< evaluates executing right now
  /// Error responses by reason (includes busy/compile_budget; `failed`
  /// equals the sum of the non-rejection reasons).
  std::map<std::string, std::size_t> errors;

  StageStats parse;      ///< request text -> ServeRequest
  StageStats resolve;    ///< program resolution incl. compiles
  StageStats execute;    ///< batch engine run
  StageStats serialize;  ///< response -> JSON line
  StageStats total;      ///< request in -> response out

  /// Accuracy-plane totals (program detail lives on {"op":"health"}).
  std::size_t shadow_sampled = 0;    ///< requests that ran the reference
  std::size_t shadow_unsampled = 0;  ///< requests that skipped it
  std::size_t accuracy_drift = 0;    ///< drift edges across all programs
};

/// The serving core. Thread-safe: any number of transport threads may call
/// handle_json()/handle() concurrently; they share one compiler cache.
class ProgramServer {
 public:
  explicit ProgramServer(ServerOptions options = {});

  /// One request line in, one response line out (always terminated with
  /// '\n'). Never throws: every failure becomes an error document.
  [[nodiscard]] std::string handle_json(const std::string& line);

  /// Typed evaluate path (admission control included) for in-process
  /// callers that want structured results.
  /// \throws ServeError on rejection or a bad request; the request must
  ///         carry op == kEvaluate.
  [[nodiscard]] ServeResponse handle(const ServeRequest& request);

  [[nodiscard]] ServerMetrics metrics() const;
  /// The metrics snapshot as a JSON document (compact single line when
  /// `pretty` is false - the wire format). `request_id` is echoed when
  /// nonempty.
  [[nodiscard]] std::string metrics_json(
      bool pretty = false, const std::string& request_id = "") const;
  /// The Prometheus text exposition: this server's families (requests,
  /// errors, stage latency histograms with p50/p95/p99, cache size,
  /// accuracy plane) followed by the process-global registry (engine
  /// pools, batch throughput, compile pipeline). Scrape-ready as-is.
  [[nodiscard]] std::string metrics_prometheus() const;

  /// The accuracy-plane snapshot behind {"op":"health"} (per-program SLO
  /// states, shadow totals, observed-error distribution).
  [[nodiscard]] AccuracyReport accuracy_report() const {
    return accuracy_.report();
  }
  /// The {"op":"health"} response document (compact single line - the
  /// wire format). `request_id` is echoed when nonempty.
  [[nodiscard]] std::string health_json(
      const std::string& request_id = "") const;

  /// The shared compiler (e.g. to pre-warm the cache before traffic).
  [[nodiscard]] compile::Compiler& compiler() noexcept { return compiler_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Run a prewarm pass now (the constructor runs one automatically when
  /// options.prewarm.enabled()): load `prewarm.cache_file` into the
  /// program cache, then - when `compile_missing` is set - fan the
  /// manifest functions still absent across the server's engine pool,
  /// the calling thread compiling beside its workers (requests in flight
  /// share the same workers). Certification is whatever the compile
  /// defaults say; loaded programs keep their persisted certificates and
  /// are re-certified lazily only if a caller compiles past them. Never
  /// throws: every failure is counted in the report (and the cache
  /// counters) instead.
  PrewarmReport prewarm(const PrewarmOptions& options);

  /// Persist the current program cache for a future prewarm.
  /// \throws std::runtime_error when the file cannot be written.
  std::size_t save_cache(const std::string& path) const {
    return compiler_.cache().save(path);
  }

 private:
  /// A request's programs resolved onto one common kernel shape.
  struct Resolved {
    /// Request input count: the number of input axes every program takes.
    std::size_t arity = 1;
    /// Programs in request order, elevated to the kernel shape: dense
    /// univariate / bivariate delegation forms or general sum-of-separable
    /// programs (factors at the common order).
    std::vector<stochastic::SeparableProgram> programs;
    std::vector<std::string> labels;  ///< request order
    /// Double-precision reference functions over coordinate tuples,
    /// parallel to `labels`: the registry f for registry programs, empty
    /// for raw-coefficient ones (their reference is the cell's exact
    /// Bernstein `expected`). The shadow path reads these.
    std::vector<std::function<double(const std::vector<double>&)>> refs;
    /// The kernel shape's backend: a compiled program's own, or a fallback
    /// for shapes no compiled program provides (raw-coefficient programs,
    /// mixed-order fusions).
    engine::KernelBackend engine;
    /// Keeps compiled programs (and their kernels/circuits) alive.
    std::vector<std::shared_ptr<const compile::CompiledProgram>> holds;
  };

  /// Per-reason error counters: a fixed set of lock-free counters (the
  /// reasons ServeError can carry are bounded), so the rejection storm
  /// path stays atomic-only.
  struct ErrorCounters {
    obs::Counter& bad_request;
    obs::Counter& unknown_function;
    obs::Counter& too_large;
    obs::Counter& busy;
    obs::Counter& compile_budget;
    obs::Counter& internal;
    obs::Counter& other;
  };

  /// The evaluate path both public entry points share (admission gate,
  /// resolution, execution); counting happens in the callers. `trace`
  /// receives the resolve/execute spans (compile spans attach through the
  /// thread-local scope).
  [[nodiscard]] ServeResponse evaluate(const ServeRequest& request,
                                       obs::Trace& trace);
  /// Resolve every program onto one kernel shape for a request of `arity`
  /// input axes: one catalogue lookup per registry id (all three
  /// registries), raw coefficients for the dense arities.
  [[nodiscard]] Resolved resolve(const ServeRequest& request,
                                 std::size_t arity);
  /// Fallback backend for a kernel shape (engine::make_backend at the
  /// default operating point's SNG width), built once per shape.
  [[nodiscard]] const engine::KernelBackend& order_engine(std::size_t order_x,
                                                          std::size_t order_y);
  [[nodiscard]] oscs::OperatingPoint resolve_operating_point(
      const ServeRequest& request, const Resolved& resolved) const;
  void count_error(const std::string& reason);
  [[nodiscard]] std::string metrics_prom_json(
      const std::string& request_id) const;

  ServerOptions options_;
  BuildInfo build_info_;
  compile::Compiler compiler_;
  /// The one engine pool: run_range is thread-safe and each call waits
  /// only for its own indices, so concurrent requests share it.
  engine::ThreadPool pool_;

  mutable std::mutex engines_mutex_;
  std::map<std::pair<std::size_t, std::size_t>, engine::KernelBackend>
      order_engines_;

  /// Per-instance metric registry (declared before the references into
  /// it). Request counting is lock-free; this registry also renders the
  /// serve families of metrics_prometheus().
  obs::Registry registry_;
  obs::Counter& received_;
  obs::Counter& completed_univariate_;
  obs::Counter& completed_bivariate_;
  obs::Counter& completed_nd_;
  ErrorCounters errors_;
  /// Doubles as the admission gate: add(1) returning a value above
  /// max_in_flight means the slot must be given back and the request
  /// rejected - no mutex on the gate.
  obs::Gauge& in_flight_;
  obs::Gauge& cache_size_gauge_;      ///< refreshed at scrape time
  obs::Gauge& cache_capacity_gauge_;  ///< refreshed at scrape time
  obs::Counter& cache_loaded_;        ///< programs restored from cache files
  obs::Counter& cache_load_errors_;   ///< prewarm load failures (fail-soft)
  obs::Counter& cache_prewarmed_;     ///< programs compiled by prewarm passes
  obs::Histogram& parse_hist_;
  obs::Histogram& resolve_hist_;
  obs::Histogram& execute_hist_;
  obs::Histogram& serialize_hist_;
  obs::Histogram& total_hist_;
  /// Accuracy plane (registers its families on registry_ above).
  AccuracyObserver accuracy_;
  obs::TraceLog trace_log_;
};

}  // namespace oscs::serve
