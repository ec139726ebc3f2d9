#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "compile/quantize.hpp"
#include "engine/batch.hpp"
#include "engine/packed_sim.hpp"
#include "engine/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "stochastic/resc.hpp"
#include "traffic.hpp"

namespace perfbench {

namespace {

namespace cp = oscs::compile;
namespace en = oscs::engine;
namespace st = oscs::stochastic;
using Clock = std::chrono::steady_clock;
using Program = std::shared_ptr<const cp::CompiledProgram>;

/// Stream length the certification stage evaluates at.
constexpr std::size_t kCertifyLength = 4096;
/// Wall time each repeated-call timing loop runs at least [s].
constexpr double kMinLoopSeconds = 0.15;
/// Evaluations (and requests) sampled per layer timing.
constexpr std::size_t kMaxEvals = 64;
constexpr std::size_t kMaxScheduled = 24;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mean microseconds per call of body(i), cycling i over [0, n) until the
/// loop has run kMinLoopSeconds and every index at least once.
template <typename Body>
double mean_us_per_call(std::size_t n, Body&& body) {
  if (n == 0) return 0.0;
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) body(i);
    calls += n;
    elapsed = seconds_since(t0);
  } while (elapsed < kMinLoopSeconds);
  return elapsed * 1e6 / static_cast<double>(calls);
}

template <typename Body>
double time_ms(Body&& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0) * 1e3;
}

/// One kernel evaluation the workload makes.
struct Eval {
  Program program;
  std::vector<double> point;
  std::size_t length = 0;

  [[nodiscard]] en::PackedRunConfig config(std::size_t i) const {
    en::PackedRunConfig c;
    c.op = program->design_point().with_stream_length(length);
    c.stimulus_seed = 1 + i;
    c.noise_seed = 0x5EED + i;
    return c;
  }
};

Program lookup(cp::Compiler& compiler, const std::string& id) {
  switch (registry_arity(id)) {
    case 1:
      return compiler.compile(id);
    case 2:
      return compiler.compile2(id);
    default:
      return compiler.compile_nd(id);
  }
}

void add(Metrics& out, std::string name, double value, std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

}  // namespace

void measure_serve_codec(oscs::serve::ProgramServer& server,
                         const std::vector<Request>& samples, Metrics& out) {
  namespace sv = oscs::serve;
  add(out, "serve.parse_us", mean_us_per_call(samples.size(), [&](std::size_t i) {
        (void)sv::parse_request(samples[i].line);
      }),
      "us");
  std::vector<sv::ServeResponse> responses;
  for (std::size_t i = 0; i < samples.size() && i < kMaxEvals; ++i) {
    responses.push_back(server.handle(sv::parse_request(samples[i].line)));
  }
  add(out, "serve.serialize_us",
      mean_us_per_call(responses.size(), [&](std::size_t i) {
        (void)sv::write_response(responses[i]);
      }),
      "us");
}

void measure_engine(Workload workload, const std::vector<Request>& samples,
                    const std::string& cache_file, Metrics& out) {
  cp::Compiler compiler({}, 64);
  compiler.cache().load(cache_file);

  // The evaluations behind the sampled requests: dense (1D/2D) and N-ary.
  std::vector<Eval> dense, nd;
  std::size_t workload_length = 0;
  for (const Request& r : samples) {
    const std::size_t length =
        workload == Workload::kCompileCold ? kCertifyLength : r.length;
    workload_length = length;
    for (const std::string& id : r.functions) {
      const Program program = lookup(compiler, id);
      auto& bucket = r.arity <= 2 ? dense : nd;
      for (const auto& point : r.points) {
        if (bucket.size() < kMaxEvals) bucket.push_back({program, point, length});
      }
    }
  }
  if (nd.empty()) {
    // The workload has no N-ary traffic: time the N-ary catalogue at its
    // stream length so the row stays comparable across workloads.
    for (const std::string& id : cp::registry_nd_ids()) {
      const Program program = lookup(compiler, id);
      nd.push_back({program, std::vector<double>(program->arity(), 0.5),
                    workload_length});
    }
  }

  // Stimulus (SNG fill), then the kernel pass over that stimulus.
  std::vector<st::ScInputs> inputs1(dense.size());
  std::vector<st::ScInputs2> inputs2(dense.size());
  std::size_t salt = 0;
  const double stimulus_us =
      mean_us_per_call(dense.size(), [&](std::size_t i) {
        const Eval& e = dense[i];
        st::ScInputConfig cfg;
        cfg.width = e.program->design_point().sng_width;
        cfg.seed = ++salt;
        if (e.program->arity() == 1) {
          const auto& poly = e.program->poly();
          inputs1[i] = st::make_sc_inputs(e.point[0], poly.coeffs(),
                                          poly.degree(), e.length, cfg);
        } else {
          const auto& poly = e.program->poly2();
          inputs2[i] = st::make_sc_inputs2(e.point[0], e.point[1],
                                           poly.coeffs(), poly.deg_x(),
                                           poly.deg_y(), e.length, cfg);
        }
      });
  std::vector<st::Bitstream> decisions(dense.size());
  const double kernel_us = mean_us_per_call(dense.size(), [&](std::size_t i) {
    const Eval& e = dense[i];
    decisions[i] = e.program->arity() == 1
                       ? e.program->kernel()->evaluate(inputs1[i]).optical
                       : e.program->kernel()->evaluate2(inputs2[i]).optical;
  });
  oscs::Xoshiro256 rng(7);
  const double noise_us = mean_us_per_call(dense.size(), [&](std::size_t i) {
    const Eval& e = dense[i];
    const auto positions = en::sample_flip_positions(
        e.length, e.program->design_point().ber, rng);
    en::flip_positions(decisions[i], positions);
  });
  std::size_t run_index = 0;
  const auto run_once = [&](const Eval& e, std::size_t i) {
    const en::PackedRunConfig cfg = e.config(i);
    switch (e.program->arity()) {
      case 1:
        return e.program->run(e.point[0], cfg);
      case 2:
        return e.program->run2(e.point[0], e.point[1], cfg);
      default:
        return e.program->run_nd(e.point, cfg);
    }
  };
  const double run_us = mean_us_per_call(dense.size(), [&](std::size_t i) {
    (void)run_once(dense[i], run_index++);
  });
  const double nd_run_us = mean_us_per_call(nd.size(), [&](std::size_t i) {
    (void)run_once(nd[i], run_index++);
  });
  add(out, "engine.stimulus_us_per_eval", stimulus_us, "us");
  add(out, "engine.kernel_us_per_eval", kernel_us, "us");
  add(out, "engine.noise_us_per_eval", noise_us, "us");
  add(out, "engine.run_us_per_eval", run_us, "us");
  add(out, "engine.decode_us_per_eval",
      run_us - stimulus_us - kernel_us - noise_us, "us");
  add(out, "engine.nd_run_us_per_eval", nd_run_us, "us");

  // Scheduling: one request's grid through BatchRunner::run_nd on a
  // one-worker pool, minus the same tasks run back to back.
  en::ThreadPool pool(1);
  std::vector<double> overheads;
  for (const Request& r : samples) {
    if (overheads.size() >= kMaxScheduled) break;
    if (r.fused()) continue;
    const std::size_t length =
        workload == Workload::kCompileCold ? kCertifyLength : r.length;
    const Program program = lookup(compiler, r.functions.front());
    en::BatchRequest batch;
    if (r.arity == 1) {
      batch.polynomials = {program->poly()};
      for (const auto& p : r.points) batch.xs.push_back(p[0]);
    } else if (r.arity == 2) {
      batch.polynomials2 = {program->poly2()};
      for (const auto& p : r.points) {
        batch.xs.push_back(p[0]);
        batch.ys.push_back(p[1]);
      }
    } else {
      batch.programs_nd = {program->program_nd()};
      batch.inputs.assign(r.arity, {});
      for (const auto& p : r.points) {
        for (std::size_t a = 0; a < r.arity; ++a) batch.inputs[a].push_back(p[a]);
      }
    }
    batch.stream_lengths = {length};
    batch.repeats = r.repeats;
    batch.seed = r.seed;
    batch.op = program->design_point().with_stream_length(length);
    const en::BatchRunner runner(program->kernel(), program->design_point());
    // Alternate the two and keep each one's fastest pass, so interference
    // from other processes does not land on one side only.
    double batch_ms = 1e300;
    double tasks_ms = 1e300;
    for (int pass = 0; pass < 3; ++pass) {
      batch_ms = std::min(
          batch_ms, time_ms([&] { (void)runner.run_nd(batch, pool); }));
      // The tasks run on the same worker thread, timed from inside.
      pool.submit([&] {
        tasks_ms = std::min(tasks_ms, time_ms([&] {
          for (const auto& p : r.points) {
            for (std::size_t k = 0; k < r.repeats; ++k) {
              (void)run_once(Eval{program, p, length}, k);
            }
          }
        }));
      });
      pool.wait_idle();
    }
    overheads.push_back((batch_ms - tasks_ms) * 1e3);
  }
  add(out, "engine.schedule_us", percentile(overheads, 0.5), "us");
}

void measure_compile(const std::string& cache_file, Metrics& out) {
  std::vector<double> loads;
  for (int i = 0; i < 5; ++i) {
    cp::ProgramCache cache(64);
    loads.push_back(time_ms([&] { (void)cache.load(cache_file); }));
  }
  add(out, "compile.cache_load_ms", percentile(loads, 0.5), "ms");

  cp::Compiler loaded({}, 64);
  loaded.cache().load(cache_file);
  const cp::CompileOptions defaults;

  // Mean per registry function of each stage, per arity.
  struct Stages {
    double project = 0, quantize = 0, certify = 0, compile = 0;
    std::size_t n = 0;
  };
  Stages s1, s2, sn;
  for (const cp::RegistryFunction& fn : cp::function_registry()) {
    cp::CompileOptions options = defaults;
    options.projection.max_degree = fn.degree;
    cp::ProjectionResult projection;
    s1.project += time_ms([&] { projection = cp::project(fn.f, options.projection); });
    s1.quantize += time_ms(
        [&] { (void)cp::quantize(projection.poly, options.sng_width); });
    const Program program = loaded.compile(fn);
    s1.certify += time_ms(
        [&] { (void)cp::certify(*program, fn.f, options.certification); });
    s1.compile += time_ms(
        [&] { (void)cp::compile_function(fn.id, fn.f, options); });
    ++s1.n;
  }
  for (const cp::RegistryFunction2& fn : cp::function_registry2()) {
    cp::CompileOptions options = defaults;
    options.projection2.max_degree_x = fn.degree_x;
    options.projection2.max_degree_y = fn.degree_y;
    cp::ProjectionResult2 projection;
    s2.project += time_ms(
        [&] { projection = cp::project2(fn.f, options.projection2); });
    s2.quantize += time_ms(
        [&] { (void)cp::quantize2(projection.poly, options.sng_width); });
    const Program program = loaded.compile2(fn);
    s2.certify += time_ms(
        [&] { (void)cp::certify2(*program, fn.f, options.certification); });
    s2.compile += time_ms(
        [&] { (void)cp::compile_function2(fn.id, fn.f, options); });
    ++s2.n;
  }
  for (const cp::RegistryFunctionN& fn : cp::function_registry_nd()) {
    cp::CompileOptions options = defaults;
    options.projection_nd.degree = fn.degree;
    options.projection_nd.max_terms = fn.max_terms;
    cp::ProjectionResultN projection;
    sn.project += time_ms([&] {
      projection = cp::project_nd(fn.f, fn.arity, options.projection_nd);
    });
    sn.quantize += time_ms([&] {
      for (const st::SeparableTerm& term : projection.program.terms()) {
        for (const st::SeparableFactor& factor : term.factors) {
          (void)cp::quantize(factor.poly, options.sng_width);
        }
      }
    });
    const Program program = loaded.compile_nd(fn);
    sn.certify += time_ms(
        [&] { (void)cp::certify_nd(*program, fn.f, options.certification); });
    sn.compile += time_ms([&] {
      (void)cp::compile_function_nd(fn.id, fn.arity, fn.f, options);
    });
    ++sn.n;
  }
  for (const auto& [suffix, s] :
       {std::pair<const char*, const Stages*>{"1d", &s1},
        {"2d", &s2},
        {"nd", &sn}}) {
    const double n = static_cast<double>(s->n);
    const std::string tail = std::string(".") + suffix;
    add(out, "compile.project_ms" + tail, s->project / n, "ms");
    add(out, "compile.quantize_ms" + tail, s->quantize / n, "ms");
    add(out, "compile.certify_ms" + tail, s->certify / n, "ms");
    add(out, "compile.compile_ms" + tail, s->compile / n, "ms");
  }
}

}  // namespace perfbench
