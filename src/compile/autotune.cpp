#include "compile/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "compile/compiler.hpp"
#include "compile/registry.hpp"

namespace oscs::compile {

void AutoTuneOptions::validate() const {
  if (degrees.empty() || widths.empty() || stream_lengths.empty()) {
    throw std::invalid_argument("AutoTuneOptions: empty candidate dimension");
  }
  for (unsigned w : widths) {
    if (w == 0 || w > 62) {
      throw std::invalid_argument("AutoTuneOptions: width out of [1, 62]");
    }
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument("AutoTuneOptions: zero stream length");
    }
  }
  if (repeats == 0 || grid_points == 0) {
    throw std::invalid_argument("AutoTuneOptions: zero repeats/grid points");
  }
}

namespace {

/// Dense-grid mean |poly - f|: the deterministic floor the MC MAE
/// converges to as streams grow (mean, not sup, to match the MAE metric).
double approx_floor(const CompiledProgram& program,
                    const std::function<double(double)>& f) {
  constexpr std::size_t kSamples = 512;
  double sum = 0.0;
  for (std::size_t s = 0; s <= kSamples; ++s) {
    const double x = static_cast<double>(s) / kSamples;
    sum += std::abs(program.poly()(x) - f(x));
  }
  return sum / static_cast<double>(kSamples + 1);
}

/// Grid mean |poly2 - f| - the bivariate deterministic floor.
double approx_floor2(const CompiledProgram& program,
                     const std::function<double(double, double)>& f) {
  constexpr std::size_t kSamples = 64;
  double sum = 0.0;
  for (std::size_t sx = 0; sx <= kSamples; ++sx) {
    const double x = static_cast<double>(sx) / kSamples;
    for (std::size_t sy = 0; sy <= kSamples; ++sy) {
      const double y = static_cast<double>(sy) / kSamples;
      sum += std::abs(program.poly2()(x, y) - f(x, y));
    }
  }
  return sum / static_cast<double>((kSamples + 1) * (kSamples + 1));
}

/// The candidate walk both tuners share: (degree, width, stream length)
/// candidates in increasing `cost` order, one `compile(degree, width)` per
/// (degree cap, width) reused by every stream length, floor-pruned by
/// `floor(program)`, certified against `reference` at each candidate's
/// stream length. `name` prefixes the budget error.
template <typename Cost, typename Compile, typename Floor>
AutoTuneResult walk_candidates(const char* name,
                               const PointReference& reference,
                               double accuracy_budget,
                               const AutoTuneOptions& options, Cost&& cost,
                               Compile&& compile, Floor&& floor) {
  if (!(accuracy_budget > 0.0)) {
    throw std::invalid_argument(std::string(name) +
                                ": accuracy budget must be > 0");
  }
  options.validate();

  struct Candidate {
    std::size_t degree;
    unsigned width;
    std::size_t stream_length;
    double cost;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(options.degrees.size() * options.widths.size() *
                     options.stream_lengths.size());
  for (std::size_t degree : options.degrees) {
    for (unsigned width : options.widths) {
      for (std::size_t length : options.stream_lengths) {
        candidates.push_back(
            {degree, width, length, cost(degree, width, length)});
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     if (a.stream_length != b.stream_length) {
                       return a.stream_length < b.stream_length;
                     }
                     if (a.degree != b.degree) return a.degree < b.degree;
                     return a.width < b.width;
                   });

  CertificationOptions cert_options;
  cert_options.repeats = options.repeats;
  cert_options.grid_points = options.grid_points;
  cert_options.seed = options.seed;
  cert_options.source_kind = options.source_kind;
  cert_options.threads = options.threads;

  // One compile per (degree cap, width); every stream length reuses it.
  struct Fit {
    std::shared_ptr<const CompiledProgram> program;
    double floor = 0.0;
  };
  std::map<std::pair<std::size_t, unsigned>, Fit> fits;

  AutoTuneResult result;
  result.accuracy_budget = accuracy_budget;
  double best_score = std::numeric_limits<double>::infinity();

  for (const Candidate& cand : candidates) {
    Fit& fit = fits[{cand.degree, cand.width}];
    if (!fit.program) {
      fit.program = compile(cand.degree, cand.width);
      fit.floor = floor(*fit.program);
    }

    AutoTuneCandidate visited;
    visited.degree = cand.degree;
    visited.width = cand.width;
    visited.stream_length = cand.stream_length;
    visited.cost = cand.cost;
    visited.approx_floor = fit.floor;

    double score = std::numeric_limits<double>::infinity();
    const oscs::OperatingPoint op =
        fit.program->design_point().with_stream_length(cand.stream_length);
    if (fit.floor > accuracy_budget) {
      // No stream length can undo the projection/quantization bias.
      visited.floor_rejected = true;
    } else {
      const Certification cert =
          certify_program_at(*fit.program, reference, op, cert_options);
      visited.mc_mae = cert.mc_mae;
      visited.mc_mae_ci = cert.mc_mae_ci;
      visited.met = cert.mc_mae + cert.mc_mae_ci <= accuracy_budget;
      score = cert.mc_mae;
    }
    result.trace.push_back(visited);

    const bool better = result.program == nullptr || score < best_score;
    if (better) {
      best_score = score;
      result.program = fit.program;
      result.op = op;
      result.chosen = visited;
    }
    if (visited.met) {
      // Candidates are cost-sorted: the first hit is the cheapest.
      result.met = true;
      result.program = fit.program;
      result.op = op;
      result.chosen = visited;
      break;
    }
  }
  return result;
}

}  // namespace

AutoTuneResult auto_tune(const std::string& function_id,
                         const std::function<double(double)>& f,
                         double accuracy_budget,
                         const AutoTuneOptions& options) {
  return walk_candidates(
      "auto_tune", [&f](const std::vector<double>& p) { return f(p[0]); },
      accuracy_budget, options,
      [](std::size_t degree, unsigned width, std::size_t length) {
        return static_cast<double>(length) *
               static_cast<double>(degree + 1) * static_cast<double>(width);
      },
      [&](std::size_t degree, unsigned width) {
        CompileOptions copt;
        copt.projection.min_degree = std::min<std::size_t>(1, degree);
        copt.projection.max_degree = degree;
        copt.sng_width = width;
        copt.certify = false;  // the tuner certifies at its own lengths
        return compile_function(function_id, f, copt);
      },
      [&f](const CompiledProgram& program) {
        return approx_floor(program, f);
      });
}

AutoTuneResult auto_tune(const std::string& registry_id,
                         double accuracy_budget,
                         const AutoTuneOptions& options) {
  const RegistryFunction* fn = find_function(registry_id);
  if (fn == nullptr) {
    throw std::invalid_argument("auto_tune: unknown registry function '" +
                                registry_id + "'");
  }
  return auto_tune(fn->id, fn->f, accuracy_budget, options);
}

AutoTuneResult auto_tune2(const std::string& function_id,
                          const std::function<double(double, double)>& f,
                          double accuracy_budget,
                          const AutoTuneOptions& options) {
  return walk_candidates(
      "auto_tune2",
      [&f](const std::vector<double>& p) { return f(p[0], p[1]); },
      accuracy_budget, options,
      [](std::size_t degree, unsigned width, std::size_t length) {
        // Both input banks scale the hardware: (degree+1)^2 coefficient
        // channels dominate the 2D LUT cost.
        return static_cast<double>(length) *
               static_cast<double>(degree + 1) *
               static_cast<double>(degree + 1) * static_cast<double>(width);
      },
      [&](std::size_t degree, unsigned width) {
        CompileOptions copt;
        copt.projection2.min_degree_x = std::min<std::size_t>(1, degree);
        copt.projection2.min_degree_y = copt.projection2.min_degree_x;
        copt.projection2.max_degree_x = degree;
        copt.projection2.max_degree_y = degree;
        copt.sng_width = width;
        copt.certify = false;  // the tuner certifies at its own lengths
        return compile_function2(function_id, f, copt);
      },
      [&f](const CompiledProgram& program) {
        return approx_floor2(program, f);
      });
}

AutoTuneResult auto_tune2(const std::string& registry_id,
                          double accuracy_budget,
                          const AutoTuneOptions& options) {
  const RegistryFunction2* fn = find_function2(registry_id);
  if (fn == nullptr) {
    throw std::invalid_argument(
        "auto_tune2: unknown bivariate registry function '" + registry_id +
        "'");
  }
  return auto_tune2(fn->id, fn->f, accuracy_budget, options);
}

}  // namespace oscs::compile
