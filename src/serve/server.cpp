#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/arity_guard.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "compile/registry.hpp"
#include "compile/serialize.hpp"
#include "optsc/link_budget.hpp"
#include "stochastic/lfsr.hpp"
#include "stochastic/resc.hpp"

namespace oscs::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

constexpr const char* kRequestsHelp = "requests received (any op)";
constexpr const char* kCompletedHelp = "successful evaluate responses";
constexpr const char* kErrorsHelp = "error responses by reason";
constexpr const char* kStageHelp = "per-stage request latency [microseconds]";

/// RAII slot in the bounded in-flight gate. Lock-free: one atomic add
/// claims a slot, and a result above the limit means the claim loses -
/// give the slot back and reject. Rejection storms never serialize.
class InFlightGuard {
 public:
  InFlightGuard(obs::Gauge& in_flight, std::size_t limit)
      : in_flight_(in_flight) {
    if (in_flight_.add(1) > static_cast<std::int64_t>(limit)) {
      in_flight_.add(-1);
      armed_ = false;
      throw ServeError(429, "busy",
                       "server at capacity (" + std::to_string(limit) +
                           " requests in flight)");
    }
  }

  ~InFlightGuard() {
    if (armed_) in_flight_.add(-1);
  }

  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  obs::Gauge& in_flight_;
  bool armed_ = true;
};

StageStats stage_snapshot(const obs::Histogram& histogram) {
  const obs::Histogram::Snapshot s = histogram.snapshot();
  StageStats out;
  out.count = static_cast<std::size_t>(s.count());
  out.total_us = s.sum;
  out.max_us = s.max;
  out.p50_us = s.quantile(0.50);
  out.p95_us = s.quantile(0.95);
  out.p99_us = s.quantile(0.99);
  return out;
}

void stage_json(JsonWriter& json, const char* name, const StageStats& stage) {
  json.key(name)
      .begin_object()
      .field("count", stage.count)
      .field("total_us", stage.total_us)
      .field("mean_us", stage.mean_us())
      .field("max_us", stage.max_us)
      .field("p50_us", stage.p50_us)
      .field("p95_us", stage.p95_us)
      .field("p99_us", stage.p99_us)
      .end_object();
}

/// One catalogue entry under a request's compile options: the arity it
/// takes, its cache key, a compile thunk and its reference over coordinate
/// tuples. Serve resolution and the prewarm manifest both key programs
/// through find_catalogue_entry(), so the two cannot derive keys
/// differently.
struct CatalogueEntry {
  std::size_t arity = 1;
  compile::ProgramKey key;
  std::function<std::shared_ptr<const compile::CompiledProgram>()> compile;
  std::function<double(const std::vector<double>&)> reference;
};

/// Look `id` up across the univariate, bivariate and N-ary catalogues.
/// `opts` carries the server's compile defaults (plus any request SNG
/// width); `degree` - a request's cap, on both axes for bivariate ids -
/// overrides the registry's recommendation. nullopt when no catalogue
/// knows the id.
std::optional<CatalogueEntry> find_catalogue_entry(
    compile::Compiler& compiler, const std::string& id,
    compile::CompileOptions opts, std::optional<std::size_t> degree) {
  if (const compile::RegistryFunction* fn = compile::find_function(id)) {
    opts.projection.max_degree = degree.value_or(fn->degree);
    return CatalogueEntry{
        1, compile::make_program_key(id, opts),
        [&compiler, fn, opts] { return compiler.compile(fn->id, fn->f, opts); },
        [fn](const std::vector<double>& p) { return fn->f(p[0]); }};
  }
  if (const compile::RegistryFunction2* fn = compile::find_function2(id)) {
    opts.projection2.max_degree_x = degree.value_or(fn->degree_x);
    opts.projection2.max_degree_y = degree.value_or(fn->degree_y);
    return CatalogueEntry{
        2, compile::make_program_key2(id, opts),
        [&compiler, fn, opts] {
          return compiler.compile2(fn->id, fn->f, opts);
        },
        [fn](const std::vector<double>& p) { return fn->f(p[0], p[1]); }};
  }
  if (const compile::RegistryFunctionN* fn = compile::find_function_nd(id)) {
    opts.projection_nd.degree = degree.value_or(fn->degree);
    opts.projection_nd.max_terms = fn->max_terms;
    return CatalogueEntry{
        fn->arity, compile::make_program_key_nd(id, fn->arity, opts),
        [&compiler, fn, opts] {
          return compiler.compile_nd(fn->id, fn->arity, fn->f, opts);
        },
        [fn](const std::vector<double>& p) { return fn->f(p); }};
  }
  return std::nullopt;
}

/// The 400 message for a catalogue function taking `takes` inputs named
/// in a request that carries `carries` input axes.
std::string arity_mismatch(const std::string& id, std::size_t takes,
                           std::size_t carries) {
  if (takes <= 2 && carries <= 2) {
    return takes == 1 ? "function '" + id +
                            "' is univariate but the request carries 'ys' "
                            "(arities cannot mix)"
                      : "bivariate function '" + id +
                            "' needs 'ys' (arities cannot mix)";
  }
  if (takes > 2 && carries > 2) {
    return "function '" + id + "' takes " + std::to_string(takes) +
           " inputs but the request carries " + std::to_string(carries) +
           " 'inputs' axes";
  }
  return "function '" + id + "' does not take " + std::to_string(carries) +
         " inputs (arities cannot mix)";
}

/// Value-preserving degree elevation of `program` to the kernel shape.
stochastic::SeparableProgram elevated_to_shape(
    stochastic::SeparableProgram program, std::size_t order_x,
    std::size_t order_y) {
  const auto [px, py] = engine::kernel_shape(program);
  if (px == order_x && py == order_y) return program;
  if (program.has_dense2()) {
    return stochastic::SeparableProgram(
        program.dense2().elevated(order_x - px, order_y - py));
  }
  if (program.has_dense1()) {
    return stochastic::SeparableProgram(
        program.dense1().elevated(order_x - px));
  }
  return program.elevated_to(order_x);
}

/// A raw-coefficient program (flat vector for one input axis, nested grid
/// for two), checked and elevated to the circuit minimum of one data
/// channel per input bank.
stochastic::SeparableProgram raw_program(const ProgramSpec& spec,
                                         std::size_t arity) {
  const auto bad_request = [](const std::string& message) {
    return ServeError(400, "bad_request", message);
  };
  if (arity > 2) {
    throw bad_request(
        "raw 'coefficients' programs are univariate or bivariate; N-ary "
        "'inputs' requests name separable catalogue functions");
  }
  if (spec.coefficients.empty() && spec.coefficients2.empty()) {
    // Typed-path callers can hand over an all-empty spec; keep it a
    // client error instead of a 500 out of BernsteinPoly.
    throw bad_request(
        "each program needs exactly one of 'function'/'coefficients'");
  }
  if (spec.is_raw_bivariate() != (arity == 2)) {
    throw bad_request(arity == 2
                          ? "'ys' requires bivariate programs; got a flat "
                            "coefficient vector (arities cannot mix)"
                          : "bivariate coefficient grid in a request without "
                            "'ys' (arities cannot mix)");
  }
  const auto check_unit_box = [&](const std::vector<double>& coefficients) {
    for (double c : coefficients) {
      if (!(c >= 0.0 && c <= 1.0)) {
        throw bad_request("coefficients must be finite and lie in [0, 1]");
      }
    }
  };
  std::optional<stochastic::SeparableProgram> program;
  if (arity == 2) {
    for (const std::vector<double>& row : spec.coefficients2) {
      check_unit_box(row);
    }
    // Typed-path callers can hand over a ragged or empty-row grid; keep
    // it a client error instead of a 500 out of BernsteinPoly2.
    std::optional<stochastic::BernsteinPoly2> grid;
    try {
      grid.emplace(spec.coefficients2);
    } catch (const std::invalid_argument& e) {
      throw bad_request(e.what());
    }
    program.emplace(grid->elevated(grid->deg_x() == 0 ? 1 : 0,
                                   grid->deg_y() == 0 ? 1 : 0));
  } else {
    check_unit_box(spec.coefficients);
    const stochastic::BernsteinPoly poly(spec.coefficients);
    program.emplace(poly.degree() == 0 ? poly.elevated() : poly);
  }
  const auto [order_x, order_y] = engine::kernel_shape(*program);
  if (order_x > engine::PackedKernel::kMaxOrder ||
      order_y > engine::PackedKernel::kMaxOrder) {
    throw bad_request("coefficient degree exceeds the kernel order limit (" +
                      std::to_string(engine::PackedKernel::kMaxOrder) + ")");
  }
  return std::move(*program);
}

/// `options` with its compile width checked, before any server member
/// (the engine pool's threads among them) is built.
ServerOptions checked(ServerOptions options) {
  stochastic::check_lfsr_width(options.compile.sng_width,
                               "ProgramServer: compile.sng_width");
  return options;
}

}  // namespace

BuildInfo current_build_info() {
  return {oscs::simd_backend_name(oscs::simd_backend()),
          oscs::simd_avx2_compiled(), compile::kCacheFormatVersion,
          stochastic::kStimulusVersion};
}

ProgramServer::ProgramServer(ServerOptions options)
    : options_(checked(options)),
      build_info_(current_build_info()),
      compiler_(options.compile, options.cache_capacity),
      pool_(options.threads),
      received_(registry_.counter("oscs_serve_requests_received_total",
                                  kRequestsHelp)),
      completed_univariate_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "univariate"}})),
      completed_bivariate_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "bivariate"}})),
      completed_nd_(
          registry_.counter("oscs_serve_requests_completed_total",
                            kCompletedHelp, {{"arity", "nd"}})),
      errors_{registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "bad_request"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "unknown_function"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "too_large"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "busy"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "compile_budget"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "internal"}}),
              registry_.counter("oscs_serve_errors_total", kErrorsHelp,
                                {{"reason", "other"}})},
      in_flight_(registry_.gauge("oscs_serve_in_flight",
                                 "evaluate requests executing right now")),
      cache_size_gauge_(registry_.gauge("oscs_serve_cache_size",
                                        "compiled programs resident")),
      cache_capacity_gauge_(registry_.gauge("oscs_serve_cache_capacity",
                                            "program cache capacity")),
      cache_loaded_(registry_.counter(
          "oscs_cache_loaded_total",
          "compiled programs restored from persisted cache files")),
      cache_load_errors_(registry_.counter(
          "oscs_cache_load_errors_total",
          "cache-file load failures (corrupt records fall back to cold "
          "compiles)")),
      cache_prewarmed_(registry_.counter(
          "oscs_cache_prewarmed_total",
          "programs compiled by startup prewarm passes")),
      parse_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                      kStageHelp, {{"stage", "parse"}},
                                      obs::Histogram::latency_us())),
      resolve_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                        kStageHelp, {{"stage", "resolve"}},
                                        obs::Histogram::latency_us())),
      execute_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                        kStageHelp, {{"stage", "execute"}},
                                        obs::Histogram::latency_us())),
      serialize_hist_(registry_.histogram(
          "oscs_serve_stage_latency_us", kStageHelp,
          {{"stage", "serialize"}}, obs::Histogram::latency_us())),
      total_hist_(registry_.histogram("oscs_serve_stage_latency_us",
                                      kStageHelp, {{"stage", "total"}},
                                      obs::Histogram::latency_us())),
      accuracy_(registry_, options.accuracy),
      trace_log_(options.trace_log) {
  cache_capacity_gauge_.set(
      static_cast<std::int64_t>(compiler_.cache().capacity()));
  registry_
      .gauge("oscs_build_info",
             "build and runtime configuration serving requests (always 1)",
             {{"kernel_backend", build_info_.kernel_backend},
              {"avx2_compiled", build_info_.avx2_compiled ? "true" : "false"},
              {"cache_format", std::to_string(build_info_.cache_format)},
              {"stimulus_version",
               std::to_string(build_info_.stimulus_version)}})
      .set(1);
  if (options_.prewarm.enabled()) {
    // Fail-soft by contract: prewarm() never throws, so a missing or
    // corrupt cache file can never take server startup down with it.
    (void)prewarm(options_.prewarm);
  }
}

PrewarmReport ProgramServer::prewarm(const PrewarmOptions& options) {
  PrewarmReport report;
  if (!options.cache_file.empty()) {
    const compile::CacheLoadReport loaded =
        compiler_.cache().load(options.cache_file);
    report.file_opened = loaded.opened;
    report.loaded = loaded.loaded;
    report.load_errors = loaded.errors;
    report.message = loaded.message;
    if (loaded.loaded > 0) cache_loaded_.inc(loaded.loaded);
    if (loaded.errors > 0) cache_load_errors_.inc(loaded.errors);
  }
  if (!options.compile_missing) return report;

  // Resolve the manifest: the named registry functions, or - with an
  // empty list - every entry across the three catalogues, keyed through
  // the same catalogue lookup the serve resolve path uses (compiler
  // defaults plus the registry degree), so a prewarmed program is the one
  // traffic hits.
  std::vector<CatalogueEntry> manifest;
  auto add_id = [&](const std::string& id) -> bool {
    std::optional<CatalogueEntry> entry =
        find_catalogue_entry(compiler_, id, options_.compile, std::nullopt);
    if (entry.has_value()) manifest.push_back(std::move(*entry));
    return entry.has_value();
  };
  if (options.functions.empty()) {
    for (const std::string& id : compile::registry_ids()) add_id(id);
    for (const std::string& id : compile::registry2_ids()) add_id(id);
    for (const std::string& id : compile::registry_nd_ids()) add_id(id);
  } else {
    for (const std::string& id : options.functions) {
      if (!add_id(id)) {
        ++report.compile_errors;
        if (report.message.empty()) {
          report.message = "prewarm: unknown registry function '" + id + "'";
        }
      }
    }
  }

  // Fan the missing compiles across the engine pool. get_or_compile's
  // single-flight makes this idempotent against concurrent traffic, and
  // entries the cache file already covered are skipped by the residency
  // probe (contains() perturbs neither the LRU order nor the counters).
  std::mutex report_mutex;
  pool_.run_range(manifest.size(), [&](std::size_t i) {
    const CatalogueEntry& entry = manifest[i];
    if (compiler_.cache().contains(entry.key)) return;
    try {
      (void)entry.compile();
      cache_prewarmed_.inc();
      std::lock_guard<std::mutex> lock(report_mutex);
      ++report.compiled;
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(report_mutex);
      ++report.compile_errors;
      if (report.message.empty()) {
        report.message = "prewarm: compile '" + entry.key.function_id +
                         "': " + e.what();
      }
    }
  });
  return report;
}

const engine::KernelBackend& ProgramServer::order_engine(
    std::size_t order_x, std::size_t order_y) {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  auto it = order_engines_.find({order_x, order_y});
  if (it == order_engines_.end()) {
    it = order_engines_
             .emplace(std::make_pair(order_x, order_y),
                      engine::make_backend({order_x, order_y},
                                           oscs::OperatingPoint{}.sng_width))
             .first;
  }
  return it->second;
}

ProgramServer::Resolved ProgramServer::resolve(const ServeRequest& request,
                                               std::size_t arity) {
  Resolved resolved;
  resolved.arity = arity;
  resolved.labels.reserve(request.programs.size());
  resolved.programs.reserve(request.programs.size());
  compile::CompileOptions defaults = options_.compile;
  if (request.sng_width.has_value()) defaults.sng_width = *request.sng_width;

  // Pass 1: compile (or accept) every program - each must take the
  // request's axis count, arities cannot mix in one batch - and find the
  // common kernel shape the batch runs at. `holds` and `refs` stay
  // parallel to the request's program list (empty for raw entries).
  std::size_t order_x = 1;
  std::size_t order_y = arity == 2 ? 1 : 0;
  for (const ProgramSpec& spec : request.programs) {
    resolved.labels.push_back(spec.display_id());
    if (spec.is_raw()) {
      resolved.programs.push_back(raw_program(spec, arity));
      resolved.holds.emplace_back();
      resolved.refs.emplace_back();  // raw: reference = cell expected
    } else {
      std::optional<CatalogueEntry> entry = find_catalogue_entry(
          compiler_, spec.function_id, defaults, spec.degree);
      if (!entry.has_value()) {
        throw ServeError(404, "unknown_function",
                         "unknown function '" + spec.function_id + "'");
      }
      if (entry->arity != arity) {
        throw ServeError(400, "bad_request",
                         arity_mismatch(spec.function_id, entry->arity, arity));
      }
      // Cold-compile admission: expensive high-degree pipelines only run
      // when the program is already resident. A bivariate program counts
      // its larger axis cap - either axis can blow up the grid.
      const std::size_t cold_degree =
          std::max(entry->key.degree, entry->key.degree_y);
      if (cold_degree > options_.max_cold_degree &&
          !compiler_.cache().contains(entry->key)) {
        throw ServeError(
            429, "compile_budget",
            "cold compile at degree " + std::to_string(cold_degree) +
                " exceeds the admission budget (max_cold_degree = " +
                std::to_string(options_.max_cold_degree) + ")");
      }
      std::shared_ptr<const compile::CompiledProgram> program;
      try {
        program = entry->compile();
      } catch (const std::invalid_argument& e) {
        throw ServeError(400, "bad_request", e.what());
      }
      resolved.programs.push_back(program->program_nd());
      resolved.holds.push_back(std::move(program));
      resolved.refs.push_back(std::move(entry->reference));
    }
    const auto [px, py] = engine::kernel_shape(resolved.programs.back());
    order_x = std::max(order_x, px);
    order_y = std::max(order_y, py);
  }

  // Pass 2: elevate every program to the common shape (value-preserving)
  // so one kernel pass can evaluate them all.
  for (stochastic::SeparableProgram& program : resolved.programs) {
    program = elevated_to_shape(std::move(program), order_x, order_y);
  }

  for (const auto& program : resolved.holds) {
    if (program != nullptr &&
        program->kernel()->shape() == engine::KernelShape{order_x, order_y}) {
      resolved.engine = program->backend();
      return resolved;
    }
  }
  resolved.engine = order_engine(order_x, order_y);
  return resolved;
}

oscs::OperatingPoint ProgramServer::resolve_operating_point(
    const ServeRequest& request, const Resolved& resolved) const {
  oscs::OperatingPoint op;
  if (request.operating_point.has_value()) {
    op = *request.operating_point;
    if (request.sng_width.has_value()) op = op.with_sng_width(*request.sng_width);
  } else if (request.probe_power_mw.has_value()) {
    const unsigned width =
        request.sng_width.value_or(resolved.engine.design_point.sng_width);
    try {
      op = optsc::LinkBudget(*resolved.engine.circuit,
                             optsc::EyeModel::kPhysical)
               .operating_point(*request.probe_power_mw,
                                request.stream_lengths.front(), width);
    } catch (const std::invalid_argument& e) {
      throw ServeError(400, "bad_request", e.what());
    }
  } else {
    op = resolved.engine.design_point;
    if (request.sng_width.has_value()) op = op.with_sng_width(*request.sng_width);
  }
  try {
    op.validate();
  } catch (const std::invalid_argument& e) {
    throw ServeError(400, "bad_request", e.what());
  }
  return op;
}

ServeResponse ProgramServer::handle(const ServeRequest& request) {
  received_.inc();
  obs::Trace trace(request.trace.empty() ? obs::Trace::make_id()
                                         : request.trace);
  obs::TraceScope scope(&trace);
  try {
    ServeResponse response = evaluate(request, trace);
    response.trace_id = trace.id();
    const double total_us = trace.elapsed_us();
    total_hist_.record(total_us);
    accuracy_.log_slow(trace.id(), total_us);
    trace_log_.observe(trace, request.id, "ok");
    return response;
  } catch (const ServeError& e) {
    count_error(e.reason());
    trace_log_.observe(trace, request.id, e.reason());
    throw;
  } catch (const std::exception&) {
    count_error("internal");
    trace_log_.observe(trace, request.id, "internal");
    throw;
  }
}

void ProgramServer::count_error(const std::string& reason) {
  if (reason == "busy") {
    errors_.busy.inc();
  } else if (reason == "compile_budget") {
    errors_.compile_budget.inc();
  } else if (reason == "bad_request") {
    errors_.bad_request.inc();
  } else if (reason == "unknown_function") {
    errors_.unknown_function.inc();
  } else if (reason == "too_large") {
    errors_.too_large.inc();
  } else if (reason == "internal") {
    errors_.internal.inc();
  } else {
    errors_.other.inc();
  }
}

ServeResponse ProgramServer::evaluate(const ServeRequest& request,
                                      obs::Trace& trace) {
  if (request.op != RequestOp::kEvaluate) {
    throw ServeError(400, "bad_request",
                     "handle() only serves evaluate requests");
  }
  // The typed entry point bypasses parse_request; repeat the shape and
  // width checks before anything dereferences the request. The axes lift
  // 'xs' and 'ys' into the one spelling everything downstream sees, and
  // their coordinates are checked here - before a bad point costs compile
  // work, an admission gate or an in-flight slot.
  if (request.sng_width.has_value()) check_sng_width(*request.sng_width);
  if (request.operating_point.has_value()) {
    check_sng_width(request.operating_point->sng_width);
  }
  std::vector<std::vector<double>> axes;
  for (const NamedAxis& axis : evaluate_axes(request)) {
    const std::string error =
        arity::unit_range_error(arity::kWireStyle, axis.name, *axis.values);
    if (!error.empty()) throw ServeError(400, "bad_request", error);
    axes.push_back(*axis.values);
  }
  // Evaluate-cost admission, in floating point so absurd uint64 values
  // cannot overflow their way past the gate. Checked before any compile
  // work and before an in-flight slot is taken.
  double length_bits = 0.0;
  for (std::size_t len : request.stream_lengths) {
    length_bits += static_cast<double>(len);
  }
  const double work_bits = static_cast<double>(request.programs.size()) *
                           static_cast<double>(axes.front().size()) *
                           static_cast<double>(request.repeats) * length_bits;
  if (work_bits > options_.max_request_bits) {
    throw ServeError(413, "too_large",
                     "request demands " + std::to_string(work_bits) +
                         " stream bits, above the per-request budget of " +
                         std::to_string(options_.max_request_bits));
  }
  InFlightGuard guard(in_flight_, options_.max_in_flight);

  ServeResponse response;
  response.id = request.id;

  const auto t_resolve = Clock::now();
  Resolved resolved;
  {
    // Compile/certify spans attach under this one through the thread-
    // local trace scope (the compiler runs inside the cache factory).
    obs::Span span(&trace, "resolve");
    resolved = resolve(request, axes.size());
  }
  response.latency.resolve_us = us_since(t_resolve);
  resolve_hist_.record(response.latency.resolve_us);

  const oscs::OperatingPoint op = resolve_operating_point(request, resolved);

  engine::BatchRequest batch;
  batch.programs_nd = std::move(resolved.programs);
  batch.inputs = std::move(axes);
  batch.stream_lengths = request.stream_lengths;
  batch.repeats = request.repeats;
  batch.seed = request.seed;
  batch.op = op;

  const auto t_execute = Clock::now();
  engine::BatchSummary summary;
  // The fused kernel is a dense-path optimization; N-ary programs run
  // the separable lattice whatever the program count.
  response.fused = resolved.arity <= 2 && request.programs.size() > 1;
  {
    obs::Span span(&trace, "execute");
    try {
      const engine::BatchRunner runner(resolved.engine.kernel,
                                       resolved.engine.design_point);
      summary = response.fused ? runner.run_fused(batch, pool_)
                               : runner.run_nd(batch, pool_);
    } catch (const std::invalid_argument& e) {
      // Everything the engine rejects traces back to request content.
      throw ServeError(400, "bad_request", e.what());
    }
  }
  response.latency.execute_us = us_since(t_execute);
  execute_hist_.record(response.latency.execute_us);

  // Accuracy plane: per-cell telemetry is free (the numbers are already
  // in the summary); the double-precision shadow reference only runs for
  // deterministically sampled requests.
  accuracy_.record_cells(summary, resolved.labels, resolved.arity);
  if (accuracy_.should_sample(trace.id())) {
    std::vector<ShadowObservation> shadow(resolved.labels.size());
    std::vector<std::size_t> counts(resolved.labels.size(), 0);
    for (const engine::BatchCell& cell : summary.cells) {
      const std::size_t pi = cell.poly_index;
      // Registry programs compare against the original f (what their
      // certificate measured); raw-coefficient programs against the
      // engine's exact Bernstein value - the same reference that already
      // backs the response's `expected` field.
      const double reference =
          resolved.refs[pi] ? resolved.refs[pi](cell.point) : cell.expected;
      shadow[pi].observed_error += std::abs(cell.optical_mean - reference);
      ++counts[pi];
    }
    for (std::size_t pi = 0; pi < shadow.size(); ++pi) {
      shadow[pi].program = resolved.labels[pi];
      shadow[pi].arity = resolved.arity;
      if (counts[pi] > 0) {
        shadow[pi].observed_error /= static_cast<double>(counts[pi]);
      }
      if (resolved.holds[pi] != nullptr) {
        if (const auto& cert = resolved.holds[pi]->certification()) {
          shadow[pi].certified_mae = cert->mc_mae;
          shadow[pi].certified_ci = cert->mc_mae_ci;
        }
      }
    }
    accuracy_.record_shadow(trace.id(), shadow);
  } else {
    accuracy_.count_unsampled();
  }

  response.op = summary.op;
  response.optical_mae = summary.optical_mae;
  response.worst_cell_error = summary.worst_cell_error;
  response.total_bits = summary.total_bits;
  response.cells.reserve(summary.cells.size());
  for (engine::BatchCell& cell : summary.cells) {
    CellResult out;
    out.program = resolved.labels[cell.poly_index];
    out.x = cell.x;
    out.bivariate = resolved.arity == 2;
    out.y = cell.y;
    out.point = std::move(cell.point);  // "inputs" beyond two axes
    out.stream_length = cell.stream_length;
    out.repeats = cell.repeats;
    out.expected = cell.expected;
    out.optical_mean = cell.optical_mean;
    out.optical_ci = cell.optical_ci;
    out.abs_error_mean = cell.optical_abs_error_mean;
    out.abs_error_ci = cell.optical_abs_error_ci;
    out.flip_rate = cell.flip_rate_mean;
    response.cells.push_back(std::move(out));
  }
  response.programs = std::move(resolved.labels);

  response.latency.total_us = trace.elapsed_us();
  // Completion is three arity counters; `completed` is derived as their
  // sum at snapshot time, so the invariant holds without a lock here.
  (resolved.arity > 2    ? completed_nd_
   : resolved.arity == 2 ? completed_bivariate_
                         : completed_univariate_)
      .inc();
  return response;
}

std::string ProgramServer::handle_json(const std::string& line) {
  const auto t0 = Clock::now();
  received_.inc();
  obs::Trace trace;
  obs::TraceScope scope(&trace);
  std::string request_id;
  try {
    ServeRequest request;
    {
      obs::Span span(&trace, "parse");
      request = parse_request(line);
    }
    request_id = request.id;
    if (!request.trace.empty()) trace.set_id(request.trace);
    const double parse_us = us_since(t0);
    parse_hist_.record(parse_us);

    switch (request.op) {
      case RequestOp::kPing: {
        JsonWriter json(/*pretty=*/false);
        json.begin_object();
        if (!request.id.empty()) json.field("id", request.id);
        json.field("ok", true)
            .field("trace_id", trace.id())
            .field("pong", true)
            .end_object();
        return json.str();
      }
      case RequestOp::kMetrics:
        return metrics_json(/*pretty=*/false, request.id);
      case RequestOp::kMetricsProm:
        return metrics_prom_json(request.id);
      case RequestOp::kHealth:
        return health_json(request.id);
      case RequestOp::kEvaluate: {
        ServeResponse response = evaluate(request, trace);
        response.latency.parse_us = parse_us;
        response.trace_id = trace.id();
        std::string text;
        {
          obs::Span span(&trace, "serialize");
          const auto t_serialize = Clock::now();
          response.latency.total_us = us_since(t0);
          text = write_response(response);
          serialize_hist_.record(us_since(t_serialize));
        }
        const double total_us = us_since(t0);
        total_hist_.record(total_us);
        accuracy_.log_slow(trace.id(), total_us);
        trace_log_.observe(trace, request_id, "ok");
        return text;
      }
    }
    throw ServeError(500, "internal", "unhandled request op");
  } catch (const ServeError& e) {
    count_error(e.reason());
    trace_log_.observe(trace, request_id, e.reason());
    return write_error(request_id, e.status(), e.reason(), e.what(),
                       trace.id());
  } catch (const std::exception& e) {
    count_error("internal");
    trace_log_.observe(trace, request_id, "internal");
    return write_error(request_id, 500, "internal", e.what(), trace.id());
  }
}

ServerMetrics ProgramServer::metrics() const {
  ServerMetrics snapshot;
  snapshot.cache = compiler_.cache().stats();
  snapshot.cache_size = compiler_.cache().size();
  snapshot.cache_capacity = compiler_.cache().capacity();
  snapshot.cache_loaded = static_cast<std::size_t>(cache_loaded_.value());
  snapshot.cache_load_errors =
      static_cast<std::size_t>(cache_load_errors_.value());
  snapshot.cache_prewarmed =
      static_cast<std::size_t>(cache_prewarmed_.value());

  snapshot.received = static_cast<std::size_t>(received_.value());
  snapshot.completed_univariate =
      static_cast<std::size_t>(completed_univariate_.value());
  snapshot.completed_bivariate =
      static_cast<std::size_t>(completed_bivariate_.value());
  snapshot.completed_nd = static_cast<std::size_t>(completed_nd_.value());
  // Derived, never stored: the invariant survives any interleaving of
  // concurrent completions with this read.
  snapshot.completed = snapshot.completed_univariate +
                       snapshot.completed_bivariate + snapshot.completed_nd;

  snapshot.errors = {
      {"bad_request", static_cast<std::size_t>(errors_.bad_request.value())},
      {"unknown_function",
       static_cast<std::size_t>(errors_.unknown_function.value())},
      {"too_large", static_cast<std::size_t>(errors_.too_large.value())},
      {"busy", static_cast<std::size_t>(errors_.busy.value())},
      {"compile_budget",
       static_cast<std::size_t>(errors_.compile_budget.value())},
      {"internal", static_cast<std::size_t>(errors_.internal.value())},
      {"other", static_cast<std::size_t>(errors_.other.value())},
  };
  snapshot.rejected_busy = snapshot.errors["busy"];
  snapshot.rejected_budget = snapshot.errors["compile_budget"];
  snapshot.failed = snapshot.errors["bad_request"] +
                    snapshot.errors["unknown_function"] +
                    snapshot.errors["too_large"] +
                    snapshot.errors["internal"] + snapshot.errors["other"];
  const std::int64_t in_flight = in_flight_.value();
  snapshot.in_flight =
      in_flight > 0 ? static_cast<std::size_t>(in_flight) : 0;

  snapshot.parse = stage_snapshot(parse_hist_);
  snapshot.resolve = stage_snapshot(resolve_hist_);
  snapshot.execute = stage_snapshot(execute_hist_);
  snapshot.serialize = stage_snapshot(serialize_hist_);
  snapshot.total = stage_snapshot(total_hist_);

  const AccuracyReport accuracy = accuracy_.report();
  snapshot.shadow_sampled = static_cast<std::size_t>(accuracy.sampled);
  snapshot.shadow_unsampled = static_cast<std::size_t>(accuracy.unsampled);
  snapshot.accuracy_drift = static_cast<std::size_t>(accuracy.drift_total);
  return snapshot;
}

std::string ProgramServer::metrics_json(bool pretty,
                                        const std::string& request_id) const {
  const ServerMetrics m = metrics();
  JsonWriter json(pretty);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true).key("metrics").begin_object();
  json.key("cache")
      .begin_object()
      .field("hits", m.cache.hits)
      .field("misses", m.cache.misses)
      .field("inserts", m.cache.inserts)
      .field("evictions", m.cache.evictions)
      .field("coalesced", m.cache.coalesced)
      .field("size", m.cache_size)
      .field("capacity", m.cache_capacity)
      .field("loaded", m.cache_loaded)
      .field("load_errors", m.cache_load_errors)
      .field("prewarmed", m.cache_prewarmed)
      .end_object();
  json.key("requests")
      .begin_object()
      .field("received", m.received)
      .field("completed", m.completed)
      .field("completed_univariate", m.completed_univariate)
      .field("completed_bivariate", m.completed_bivariate)
      .field("completed_nd", m.completed_nd)
      .field("rejected_busy", m.rejected_busy)
      .field("rejected_budget", m.rejected_budget)
      .field("failed", m.failed)
      .field("in_flight", m.in_flight)
      .end_object();
  json.key("errors").begin_object();
  for (const auto& [reason, count] : m.errors) {
    json.field(reason.c_str(), count);
  }
  json.end_object();
  json.key("latency_us").begin_object();
  stage_json(json, "parse", m.parse);
  stage_json(json, "resolve", m.resolve);
  stage_json(json, "execute", m.execute);
  stage_json(json, "serialize", m.serialize);
  stage_json(json, "total", m.total);
  json.end_object();
  // Accuracy-plane totals; per-program detail answers on {"op":"health"}.
  json.key("accuracy")
      .begin_object()
      .field("shadow_sampled", m.shadow_sampled)
      .field("shadow_unsampled", m.shadow_unsampled)
      .field("drift_total", m.accuracy_drift)
      .end_object();
  json.end_object().end_object();
  return json.str();
}

std::string ProgramServer::metrics_prometheus() const {
  // Scrape-time gauges: the cache answers for itself, the exposition just
  // reflects it.
  cache_size_gauge_.set(static_cast<std::int64_t>(compiler_.cache().size()));
  cache_capacity_gauge_.set(
      static_cast<std::int64_t>(compiler_.cache().capacity()));
  // Serve families first (this instance), then the process-global
  // registry (engine pools, batch throughput, compile pipeline).
  return registry_.prometheus() + obs::Registry::global().prometheus();
}

std::string ProgramServer::health_json(const std::string& request_id) const {
  const AccuracyReport report = accuracy_.report();
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true).field("status",
                               obs::slo_state_name(report.status));
  json.key("build")
      .begin_object()
      .field("kernel_backend", build_info_.kernel_backend)
      .field("avx2_compiled", build_info_.avx2_compiled)
      .field("cache_format", build_info_.cache_format)
      .field("stimulus_version", build_info_.stimulus_version)
      .end_object();
  json.key("shadow")
      .begin_object()
      .field("fraction", report.shadow_fraction)
      .field("sampled", report.sampled)
      .field("unsampled", report.unsampled)
      .end_object();
  json.field("drift_total", report.drift_total);
  json.key("observed")
      .begin_object()
      .field("count", report.observed.count)
      .field("mean", report.observed.mean)
      .field("p50", report.observed.p50)
      .field("p95", report.observed.p95)
      .field("p99", report.observed.p99)
      .field("max", report.observed.max)
      .end_object();
  json.key("programs").begin_array();
  for (const ProgramHealth& program : report.programs) {
    json.begin_object()
        .field("program", program.program)
        .field("arity", program.arity)
        .field("state", obs::slo_state_name(program.state))
        .field("certified", program.certified)
        .field("certified_mae", program.certified_mae)
        .field("certified_ci", program.certified_ci)
        .field("budget", program.budget)
        .field("ewma", program.ewma)
        .field("samples", program.samples)
        .field("drift_total", program.drift_total)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

std::string ProgramServer::metrics_prom_json(
    const std::string& request_id) const {
  // The exposition text is multi-line; the wire protocol is one document
  // per line - so the text ships inside a JSON envelope whose writer
  // escapes the newlines.
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", true)
      .field("content_type", "text/plain; version=0.0.4")
      .field("body", metrics_prometheus())
      .end_object();
  return json.str();
}

}  // namespace oscs::serve
