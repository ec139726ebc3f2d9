#pragma once
/// \file traffic.hpp
/// \brief Closed-loop TCP traffic against a running server: every client
///        thread owns one connection and sends its next generated request
///        only after the previous reply arrived. Every reply is checked.
///        Memory stays flat however fast the server is: latencies are kept
///        as fixed-size uniform samples and rates as per-window counts, so
///        the process's peak RSS measures the server, not the bookkeeping.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "workload.hpp"

namespace perfbench {

struct TrafficOptions {
  Workload workload = Workload::kServeSmall;
  std::uint64_t seed = 1;
  std::size_t clients = 1;
  double seconds = 1.0;
  /// Request-stream offset: distinct phases of one run draw distinct
  /// requests from the same seed.
  std::size_t stream = 0;
  /// Record each reply's stage latencies and keep request samples for the
  /// per-layer replays.
  bool traced = false;
  /// Requests of client 0 kept (with their reply cells) for the
  /// determinism replay.
  std::size_t replay_first = 0;
};

/// Run-aggregate of optical_mean - expected over one program's cells.
struct ProgramError {
  std::size_t arity = 1;
  std::size_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double max_ber = 0.0;
};

struct TrafficResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double bits = 0.0;  ///< sum of the replies' total_bits
  /// CPU time the process spent outside the client threads during the
  /// run, i.e. the server's share [s].
  double server_cpu_s = 0.0;
  /// Uniform sample of the reply latencies [us].
  std::vector<double> rtt_us;
  /// Successful replies and their bits per fixed window of the run.
  std::vector<std::pair<std::size_t, double>> windows;
  /// Whole-cycle runs: duration [s] and bits of each registry cycle, and
  /// every reply latency [us] per function.
  std::vector<std::pair<double, double>> cycles;
  std::map<std::string, std::vector<double>> rtt_by_function;
  std::map<std::string, ProgramError> errors;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Request> replay_requests;
  std::vector<oscs::JsonValue> replay_cells;
  /// Traced runs: uniform samples of the replies' stage latencies [us]
  /// and of the requests.
  std::vector<double> wire_us, parse_us, resolve_us, execute_us,
      unattributed_us;
  std::vector<Request> samples;
};

/// Drive the server listening on 127.0.0.1:`port`. compile_cold runs
/// whole registry cycles, at least three, past the deadline if need be.
TrafficResult run_traffic(std::uint16_t port, const TrafficOptions& options);

/// Send the kept requests again on a fresh connection; returns how many
/// replies differ from the recorded cells.
std::size_t replay_mismatches(std::uint16_t port, const TrafficResult& run);

/// Check that every program's run-aggregate mean of optical_mean -
/// expected lies within 4 standard errors plus the bias the operating
/// point's flip rate and the SNG allow; appends a description per
/// violation to `failures` and returns the number of violations.
std::size_t check_program_errors(const TrafficResult& run,
                                 std::vector<std::string>& failures);

/// Request and bit rates as interquartile means over the run's windows,
/// or over its registry cycles when it has any: dropping the outer
/// quarters keeps a burst of outside load from moving the whole figure.
struct Rates {
  double requests_per_s = 0.0;
  double bits_per_s = 0.0;
};
Rates window_rates(const TrafficResult& run);

/// Mean of the values between the first and third quartiles.
double interquartile_mean(std::vector<double> values);

/// Exact percentile (q in [0, 1]) of `values` by nearest rank; 0 on empty.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
