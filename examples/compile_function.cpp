/// Compiler demo: lower an arbitrary function to a ready-to-run packed
/// program and simulate it, end to end. Shows every pipeline stage -
/// projection (degree auto-selection + constrained solve), quantization
/// to the SNG grid, codegen (circuit + packed kernel), Monte-Carlo
/// certification - plus the program cache serving a repeated request.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "compile/compiler.hpp"

using namespace oscs;
namespace cc = oscs::compile;
namespace eng = oscs::engine;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int run_demo(int argc, char** argv) {
  ArgParser args("compile_function",
                 "Compile a registry function to a Bernstein program and "
                 "certify it on the optical SC engine");
  args.add_string("function", "sigmoid",
                  "registry id (sigmoid, tanh, sin, cos, exp_neg, sqrt, "
                  "square, cube, gamma)");
  args.add_int("width", 16,
               "SNG resolution [bits]: an LFSR width, 3..16 (the widths "
               "the engine's lane loop runs)");
  args.add_int("length", 4096, "certification stream length [bits]");
  args.add_int("repeats", 16, "certification MC repeats per grid point");
  if (!args.parse(argc, argv)) return 0;

  const std::string id = args.get_string("function");
  const cc::RegistryFunction* fn = cc::find_function(id);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown function '%s'; known ids:", id.c_str());
    for (const std::string& known : cc::registry_ids()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  cc::CompileOptions options;
  options.projection.max_degree = fn->degree;
  options.sng_width = static_cast<unsigned>(args.get_int("width"));
  options.certification.stream_length =
      static_cast<std::size_t>(args.get_int("length"));
  options.certification.repeats =
      static_cast<std::size_t>(args.get_int("repeats"));
  cc::Compiler compiler(options);

  std::printf("compiling %s(x) = %s  (degree cap %zu, SNG width %u)\n\n",
              fn->id.c_str(), fn->expression.c_str(), fn->degree,
              options.sng_width);

  auto t0 = std::chrono::steady_clock::now();
  const auto program = compiler.compile(*fn);
  const double cold_ms = ms_since(t0);

  const cc::ProjectionResult& proj = program->projection();
  std::printf("projection : degree %zu%s, sup error %.2e, L2 error %.2e\n",
              proj.degree, proj.target_met ? "" : " (best effort)",
              proj.max_error, proj.l2_error);
  if (proj.clamped) {
    std::printf("             [0,1] constraint active, feasibility gap %.3g\n",
                proj.feasibility_gap);
  }
  std::printf("coefficients:");
  for (double b : program->poly().coeffs()) std::printf(" %.4f", b);
  std::printf("\n");
  std::printf("quantization: width %u, max coeff delta %.2e "
              "(induced error bound %.2e)\n",
              program->quantization().width,
              program->quantization().max_coeff_delta,
              program->quantization().induced_error_bound);
  std::printf("codegen    : order-%zu circuit, design-point BER %.2g "
              "(probe %.2f mW), mux-exact %s%s\n",
              program->circuit_order(), program->design_point().ber,
              program->design_point().probe_power_mw,
              program->kernel()->mux_exact() ? "yes" : "no",
              program->elevated() ? " (degree-0 fit elevated)" : "");

  const cc::Certification& cert = *program->certification();
  std::printf("certified  : MC MAE %.4f +/- %.4f (95%% CI), worst grid "
              "point %.4f\n",
              cert.mc_mae, cert.mc_mae_ci, cert.mc_worst);
  std::printf("             %zu-bit streams x %zu repeats x %zu grid "
              "points, noise %s\n",
              cert.stream_length, cert.repeats, cert.grid_points,
              cert.noise_enabled ? "on" : "off");
  std::printf("             approximation floor (no sampling): %.2e\n",
              cert.approx_max_error);

  // A repeated request is served from the program cache without
  // re-solving.
  t0 = std::chrono::steady_clock::now();
  const auto again = compiler.compile(*fn);
  const double warm_ms = ms_since(t0);
  std::printf("\nprogram cache: cold compile %.2f ms, repeat request "
              "%.4f ms (%s, %zu hit%s)\n",
              cold_ms, warm_ms,
              again.get() == program.get() ? "same program instance"
                                           : "MISS - unexpected",
              compiler.cache().stats().hits,
              compiler.cache().stats().hits == 1 ? "" : "s");

  // Compile-then-simulate: a few spot evaluations through the program.
  std::printf("\nspot checks (4096-bit single runs):\n");
  std::printf("  %-6s %-10s %-10s %-9s\n", "x", "f(x)", "optical", "|err|");
  for (double x : {0.15, 0.35, 0.55, 0.75, 0.95}) {
    eng::PackedRunConfig cfg;
    cfg.op = program->design_point().with_stream_length(4096);
    cfg.stimulus_seed = 2024 + static_cast<std::uint64_t>(1000 * x);
    const eng::PackedRunResult r = program->run(x, cfg);
    const double ref = fn->f(x);
    std::printf("  %-6.2f %-10.4f %-10.4f %-9.4f\n", x, ref,
                r.optical_estimate, std::abs(r.optical_estimate - ref));
  }
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_demo(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile_function: %s\n", e.what());
    return 1;
  }
}
