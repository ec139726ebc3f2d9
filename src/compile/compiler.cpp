#include "compile/compiler.hpp"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/binio.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oscs::compile {

namespace {

/// Cold-compile and certification durations (global registry); every cold
/// pipeline run also opens a span on the calling request's trace when one
/// is installed (thread-local), so serving traces show compile time under
/// their resolve span.

obs::Histogram& cold_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_compile_cold_us",
      "full cold-compile pipeline duration [microseconds]", {},
      obs::Histogram::latency_us());
  return histogram;
}

obs::Histogram& certify_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_compile_certify_us",
      "Monte-Carlo certification stage duration [microseconds]", {},
      obs::Histogram::latency_us());
  return histogram;
}

double us_between(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Fold the certification block into an options digest. The digest runs
/// over the canonical FNV-1a byte encoding (fixed-width little-endian, see
/// common/binio.hpp) so it is identical across builds and platforms - it
/// is part of the on-disk cache-file identity, not just an in-memory hash.
void certification_digest(Fnv1a& digest, const CompileOptions& options) {
  digest.u64(options.certify ? 1u : 0u);
  if (options.certify) {
    digest.u64(options.certification.stream_length);
    digest.u64(options.certification.repeats);
    digest.u64(options.certification.grid_points);
    digest.u64(options.certification.seed);
    digest.u64(static_cast<std::uint64_t>(options.certification.source_kind));
    digest.u64(options.certification.noise_enabled ? 1u : 0u);
  }
}

/// The pipeline frame every arity shares: `build` runs projection,
/// quantization and codegen under the "compile" span; the program is then
/// certified against `reference` under its own span, and both stage
/// histograms record.
template <typename Build>
std::shared_ptr<const CompiledProgram> run_pipeline(
    const CompileOptions& options, const PointReference& reference,
    Build&& build) {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span(obs::current_trace(), "compile");
  std::shared_ptr<CompiledProgram> program = build();
  if (options.certify) {
    obs::Span certify_span(obs::current_trace(), "certify");
    const auto t_certify = std::chrono::steady_clock::now();
    program->attach_certification(
        certify_program(*program, reference, options.certification));
    certify_histogram().record(
        us_between(t_certify, std::chrono::steady_clock::now()));
  }
  cold_histogram().record(us_between(t0, std::chrono::steady_clock::now()));
  return program;
}

}  // namespace

ProgramKey make_program_key(const std::string& function_id,
                            const CompileOptions& options) {
  // Every arity's digest leads with its arity salt - the historical
  // univariate digest started unsalted, which left collisions with wider
  // arities down to the explicit key fields alone.
  Fnv1a digest;
  digest.u64(1);
  digest.u64(options.projection.min_degree);
  digest.f64(options.projection.target_max_error);
  digest.u64(options.projection.error_samples);
  digest.u64(options.projection.quadrature_points);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection.max_degree,
                    /*degree_y=*/0, options.sng_width, digest.value(),
                    /*arity=*/1};
}

ProgramKey make_program_key2(const std::string& function_id,
                             const CompileOptions& options) {
  Fnv1a digest;
  digest.u64(2);
  digest.u64(options.projection2.min_degree_x);
  digest.u64(options.projection2.min_degree_y);
  digest.f64(options.projection2.target_max_error);
  digest.u64(options.projection2.error_samples);
  digest.u64(options.projection2.quadrature_points);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection2.max_degree_x,
                    options.projection2.max_degree_y, options.sng_width,
                    digest.value(), /*arity=*/2};
}

ProgramKey make_program_key_nd(const std::string& function_id,
                               std::size_t arity,
                               const CompileOptions& options) {
  if (arity == 0) {
    throw std::invalid_argument("make_program_key_nd: zero arity");
  }
  Fnv1a digest;
  digest.u64(static_cast<std::uint64_t>(arity));
  digest.u64(options.projection_nd.max_terms);
  digest.f64(options.projection_nd.target_max_error);
  digest.u64(options.projection_nd.grid_samples);
  digest.u64(options.projection_nd.als_sweeps);
  certification_digest(digest, options);
  return ProgramKey{function_id, options.projection_nd.degree,
                    /*degree_y=*/0, options.sng_width, digest.value(), arity};
}

std::shared_ptr<const CompiledProgram> compile_function(
    const std::string& function_id, const std::function<double(double)>& f,
    const CompileOptions& options) {
  return run_pipeline(
      options, [&](const std::vector<double>& p) { return f(p[0]); }, [&] {
        ProjectionResult projection = project(f, options.projection);
        QuantizationResult quantized =
            quantize(projection.poly, options.sng_width);
        return std::make_shared<CompiledProgram>(
            make_program_key(function_id, options), std::move(projection),
            std::move(quantized));
      });
}

Compiler::Compiler(CompileOptions defaults, std::size_t cache_capacity)
    : defaults_(std::move(defaults)), cache_(cache_capacity) {}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id, const std::function<double(double)>& f) {
  return compile(function_id, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id, const std::function<double(double)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key(function_id, options);
  // Single-flight: concurrent misses on the same key run the pipeline
  // once; the other callers block on that result (the lock is never held
  // across the compile itself).
  return cache_.get_or_compile(
      key, [&] { return compile_function(function_id, f, options); });
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const RegistryFunction& fn) {
  CompileOptions options = defaults_;
  options.projection.max_degree = fn.degree;
  return compile(fn.id, fn.f, options);
}

std::shared_ptr<const CompiledProgram> Compiler::compile(
    const std::string& function_id) {
  const RegistryFunction* fn = find_function(function_id);
  if (fn == nullptr) {
    throw std::invalid_argument("Compiler: unknown registry function '" +
                                function_id + "'");
  }
  return compile(*fn);
}

std::shared_ptr<const CompiledProgram> compile_function2(
    const std::string& function_id,
    const std::function<double(double, double)>& f,
    const CompileOptions& options) {
  return run_pipeline(
      options,
      [&](const std::vector<double>& p) { return f(p[0], p[1]); }, [&] {
        ProjectionResult2 projection = project2(f, options.projection2);
        QuantizationResult2 quantized =
            quantize2(projection.poly, options.sng_width);
        return std::make_shared<CompiledProgram>(
            make_program_key2(function_id, options), std::move(projection),
            std::move(quantized));
      });
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id,
    const std::function<double(double, double)>& f) {
  return compile2(function_id, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id,
    const std::function<double(double, double)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key2(function_id, options);
  return cache_.get_or_compile(
      key, [&] { return compile_function2(function_id, f, options); });
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const RegistryFunction2& fn) {
  CompileOptions options = defaults_;
  options.projection2.max_degree_x = fn.degree_x;
  options.projection2.max_degree_y = fn.degree_y;
  return compile2(fn.id, fn.f, options);
}

std::shared_ptr<const CompiledProgram> Compiler::compile2(
    const std::string& function_id) {
  const RegistryFunction2* fn = find_function2(function_id);
  if (fn == nullptr) {
    throw std::invalid_argument(
        "Compiler: unknown bivariate registry function '" + function_id +
        "'");
  }
  return compile2(*fn);
}

std::shared_ptr<const CompiledProgram> compile_function_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f,
    const CompileOptions& options) {
  return run_pipeline(options, f, [&] {
    ProjectionResultN projection = project_nd(f, arity, options.projection_nd);

    // Per-factor quantization onto the shared SNG comparator grid, then the
    // program is rebuilt from the quantized factors (weights fold
    // arithmetically in the engine and stay unquantized).
    std::vector<QuantizationResult> factor_quant;
    std::vector<stochastic::SeparableTerm> quantized_terms;
    quantized_terms.reserve(projection.program.term_count());
    for (const stochastic::SeparableTerm& term : projection.program.terms()) {
      stochastic::SeparableTerm quantized_term;
      quantized_term.weight = term.weight;
      quantized_term.factors.reserve(term.factors.size());
      for (const stochastic::SeparableFactor& factor : term.factors) {
        QuantizationResult q = quantize(factor.poly, options.sng_width);
        quantized_term.factors.push_back(
            stochastic::SeparableFactor{factor.axis, q.poly});
        factor_quant.push_back(std::move(q));
      }
      quantized_terms.push_back(std::move(quantized_term));
    }
    stochastic::SeparableProgram quantized(arity, std::move(quantized_terms));
    return std::make_shared<CompiledProgram>(
        make_program_key_nd(function_id, arity, options),
        std::move(projection), std::move(factor_quant), std::move(quantized));
  });
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f) {
  return compile_nd(function_id, arity, f, defaults_);
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id, std::size_t arity,
    const std::function<double(const std::vector<double>&)>& f,
    const CompileOptions& options) {
  const ProgramKey key = make_program_key_nd(function_id, arity, options);
  return cache_.get_or_compile(key, [&] {
    return compile_function_nd(function_id, arity, f, options);
  });
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const RegistryFunctionN& fn) {
  CompileOptions options = defaults_;
  options.projection_nd.degree = fn.degree;
  options.projection_nd.max_terms = fn.max_terms;
  return compile_nd(fn.id, fn.arity, fn.f, options);
}

std::shared_ptr<const CompiledProgram> Compiler::compile_nd(
    const std::string& function_id) {
  const RegistryFunctionN* fn = find_function_nd(function_id);
  if (fn == nullptr) {
    throw std::invalid_argument("Compiler: unknown N-ary registry function '" +
                                function_id + "'");
  }
  return compile_nd(*fn);
}

}  // namespace oscs::compile
