#pragma once
/// \file layers.hpp
/// \brief Per-layer timings for the traced run. Every number comes from
///        calling a layer's public functions from outside, on the
///        workload's own requests: the serve codec, the engine stages
///        (stimulus, kernel, noise, run, scheduling) and the compiler
///        stages (project, quantize, certify, cache load).

#include <string>
#include <vector>

#include "serve/server.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// `serve.parse_us` and `serve.serialize_us` on the sampled requests.
void measure_serve_codec(oscs::serve::ProgramServer& server,
                         const std::vector<Request>& samples, Metrics& out);

/// The engine stages on the evaluations the sampled requests make
/// (compile_cold: at the certification stream length instead), with the
/// programs loaded from the prewarm cache file.
void measure_engine(Workload workload, const std::vector<Request>& samples,
                    const std::string& cache_file, Metrics& out);

/// `compile.cache_load_ms` and the project / quantize / certify / compile
/// stages over the whole registry, per arity.
void measure_compile(const std::string& cache_file, Metrics& out);

}  // namespace perfbench
