#pragma once
/// \file workload.hpp
/// \brief Seeded request generation for the three benchmark workloads.
///        The server only ever sees the generated JSON lines; the
///        structured copy rides along so the benchmark can check responses
///        and replay the same evaluations against single layers.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kServeSmall, kServeMixed, kCompileCold };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the library's RNGs do.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// One generated evaluate request.
struct Request {
  std::string line;                    ///< what goes on the wire
  std::vector<std::string> functions;  ///< registry ids, request order
  std::size_t arity = 1;
  /// Evaluation points, each a coordinate tuple of `arity` values.
  std::vector<std::vector<double>> points;
  std::size_t length = 0;   ///< stream length [bits]
  std::size_t repeats = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t cells() const {
    return functions.size() * points.size();
  }
  [[nodiscard]] bool fused() const { return arity <= 2 && functions.size() > 1; }
};

/// Endless request stream of one workload for one client.
class RequestGenerator {
 public:
  RequestGenerator(Workload workload, std::uint64_t seed, std::size_t client);
  Request next();

 private:
  Workload workload_;
  SplitMix64 rng_;
  /// compile_cold: the registry in one seeded order, cycled unchanged so a
  /// function recurs only after every other one was requested.
  std::vector<std::string> cycle_;
  std::size_t index_ = 0;
};

/// Registry functions in the compile_cold cycle (every arity).
std::size_t registry_size();

/// Registry arity of a function id (1, 2 or the N-ary input count); 0 when
/// unknown.
std::size_t registry_arity(const std::string& id);

/// A fixed request for the set-up probe of the warm workloads (independent
/// of the seed, so set-up time compares across seeds).
std::string setup_probe_line(Workload workload);

}  // namespace perfbench
