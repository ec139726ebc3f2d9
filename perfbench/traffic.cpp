#include "traffic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include <time.h>

#include "serve/tcp.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxFailures = 8;
/// Requests kept per client for the per-layer replays.
constexpr std::size_t kMaxSamples = 256;
/// Latency samples kept per client.
constexpr std::size_t kReservoir = std::size_t{1} << 16;
/// Rate window length [s].
constexpr double kWindowSeconds = 0.5;
/// Registry cycles a compile_cold client completes at least.
constexpr std::size_t kMinCycles = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time [s] of the process or of the calling thread.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Uniform sample of at most `capacity` values (Algorithm R). The storage
/// is allocated and touched up front, so memory does not follow the run.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : values_(capacity), rng_(seed) {}

  void add(const T& value) {
    ++seen_;
    if (seen_ <= values_.size()) {
      values_[seen_ - 1] = value;
    } else if (const std::size_t j = rng_.below(seen_); j < values_.size()) {
      values_[j] = value;
    }
  }
  [[nodiscard]] std::size_t size() const {
    return std::min(seen_, values_.size());
  }
  [[nodiscard]] const T& operator[](std::size_t i) const { return values_[i]; }

 private:
  std::vector<T> values_;
  SplitMix64 rng_;
  std::size_t seen_ = 0;
};

/// One reply's latency split [us]: wire is the RTT beyond the server's
/// total; unattributed is the total beyond parse + resolve + execute.
struct Stages {
  double wire = 0, parse = 0, resolve = 0, execute = 0, unattributed = 0;
};

struct Client {
  explicit Client(const TrafficOptions& options, std::size_t index)
      : rtt(kReservoir, options.seed + index),
        stages(options.traced ? kReservoir : 0, options.seed + index),
        windows(static_cast<std::size_t>(options.seconds / kWindowSeconds)) {}

  TrafficResult out;
  Reservoir<double> rtt;
  Reservoir<Stages> stages;
  std::vector<std::pair<std::size_t, double>> windows;
  Clock::time_point last_done{};
  double cpu_s = 0.0;  ///< this client thread's CPU time in the loop
};

double number_at(const oscs::JsonValue& object, const char* key) {
  const oscs::JsonValue* v = object.find(key);
  if (v == nullptr) throw std::invalid_argument(std::string("missing ") + key);
  return v->as_number();
}

void fail(TrafficResult& out, std::string message) {
  ++out.failed;
  if (out.failures.size() < kMaxFailures) {
    out.failures.push_back(std::move(message));
  }
}

/// Check one reply and fold its cells into `out.errors`. Returns the
/// reply's total_bits, or a negative value when the reply failed. Fills
/// `stages` and `cells` when given.
double check_reply(const Request& request, const std::string& text,
                   double rtt_us, TrafficResult& out, Stages* stages,
                   oscs::JsonValue* cells) {
  try {
    const oscs::JsonValue doc = oscs::json_parse(text);
    const oscs::JsonValue* ok = doc.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      fail(out, "not ok: " + text.substr(0, 300));
      return -1.0;
    }
    const oscs::JsonValue* reply_cells = doc.find("cells");
    if (reply_cells == nullptr ||
        reply_cells->items().size() != request.cells()) {
      fail(out, "wrong cell count for " + request.line);
      return -1.0;
    }
    const oscs::JsonValue* op = doc.find("op");
    if (op == nullptr) throw std::invalid_argument("missing op");
    const double ber = number_at(*op, "ber");
    for (const oscs::JsonValue& cell : reply_cells->items()) {
      const oscs::JsonValue* program = cell.find("program");
      if (program == nullptr) throw std::invalid_argument("cell without program");
      ProgramError& e = out.errors[program->as_string()];
      const double d =
          number_at(cell, "optical_mean") - number_at(cell, "expected");
      e.arity = request.arity;
      ++e.n;
      e.sum += d;
      e.sum_sq += d * d;
      e.max_ber = std::max(e.max_ber, ber);
    }
    if (stages != nullptr) {
      const oscs::JsonValue* lat = doc.find("latency_us");
      if (lat == nullptr) throw std::invalid_argument("missing latency_us");
      stages->parse = number_at(*lat, "parse");
      stages->resolve = number_at(*lat, "resolve");
      stages->execute = number_at(*lat, "execute");
      const double total = number_at(*lat, "total");
      stages->wire = rtt_us - total;
      stages->unattributed =
          total - stages->parse - stages->resolve - stages->execute;
    }
    if (cells != nullptr) *cells = *reply_cells;
    return number_at(doc, "total_bits");
  } catch (const std::exception& e) {
    fail(out, std::string("malformed reply (") + e.what() + ")");
    return -1.0;
  }
}

/// Connects, reports in on `connected`, waits for `go`, then loops until
/// `deadline`. `start` and `deadline` are written before `go` opens.
void client_loop(std::uint16_t port, const TrafficOptions& options,
                 std::size_t index, const Clock::time_point& start,
                 const Clock::time_point& deadline, std::latch& connected,
                 std::latch& go, Client& client) {
  TrafficResult& out = client.out;
  RequestGenerator gen(options.workload, options.seed,
                       options.stream * 64 + index);
  bool reported = false;
  try {
    oscs::serve::TcpClient tcp(port);
    connected.count_down();
    reported = true;
    go.wait();
    const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const bool whole_cycles = options.workload == Workload::kCompileCold;
    const std::size_t cycle = registry_size();
    std::size_t sent = 0;
    Clock::time_point cycle_start = start;
    double cycle_bits = 0.0;
    while (Clock::now() < deadline ||
           (whole_cycles &&
            (sent % cycle != 0 || sent < kMinCycles * cycle))) {
      Request request = gen.next();
      const auto t0 = Clock::now();
      const std::string reply = tcp.request(request.line);
      const auto t1 = Clock::now();
      client.last_done = t1;
      ++sent;
      ++out.attempted;
      const double rtt = seconds_between(t0, t1) * 1e6;
      client.rtt.add(rtt);
      if (whole_cycles) {
        out.rtt_by_function[request.functions.front()].push_back(rtt);
      }
      const bool keep_replay =
          index == 0 && out.replay_requests.size() < options.replay_first;
      Stages stages;
      oscs::JsonValue cells;
      const double bits =
          check_reply(request, reply, rtt, out,
                      options.traced ? &stages : nullptr,
                      keep_replay ? &cells : nullptr);
      if (bits < 0) continue;
      out.bits += bits;
      if (options.traced) client.stages.add(stages);
      const auto w = static_cast<std::size_t>(seconds_between(start, t1) /
                                              kWindowSeconds);
      if (w < client.windows.size()) {
        ++client.windows[w].first;
        client.windows[w].second += bits;
      }
      cycle_bits += bits;
      if (whole_cycles && sent % cycle == 0) {
        out.cycles.emplace_back(seconds_between(cycle_start, t1), cycle_bits);
        cycle_start = t1;
        cycle_bits = 0.0;
      }
      if (keep_replay) {
        out.replay_cells.push_back(std::move(cells));
        out.replay_requests.push_back(request);
      }
      if (options.traced && out.samples.size() < kMaxSamples) {
        out.samples.push_back(std::move(request));
      }
    }
    client.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  } catch (const std::exception& e) {
    // A broken connection ends this client; the request counts as failed.
    ++out.attempted;
    fail(out, std::string("transport: ") + e.what());
    if (!reported) connected.count_down();
  }
}

}  // namespace

TrafficResult run_traffic(std::uint16_t port, const TrafficOptions& options) {
  const std::size_t n = std::max<std::size_t>(1, options.clients);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < n; ++c) {
    clients.push_back(std::make_unique<Client>(options, c));
  }
  std::latch connected(static_cast<std::ptrdiff_t>(n));
  std::latch go(1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      client_loop(port, options, c, start, deadline, connected, go,
                  *clients[c]);
    });
  }
  connected.wait();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  const double process_cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  go.count_down();
  for (auto& t : threads) t.join();
  const double process_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;

  TrafficResult out;
  out.server_cpu_s = process_cpu;
  out.windows = clients.front()->windows;
  Clock::time_point end = start;
  for (std::size_t c = 0; c < n; ++c) {
    Client& client = *clients[c];
    TrafficResult& p = client.out;
    end = std::max(end, client.last_done);
    out.server_cpu_s -= client.cpu_s;
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.bits += p.bits;
    for (const auto& f : p.failures) {
      if (out.failures.size() < kMaxFailures) out.failures.push_back(f);
    }
    for (const auto& [id, e] : p.errors) {
      ProgramError& o = out.errors[id];
      o.arity = e.arity;
      o.n += e.n;
      o.sum += e.sum;
      o.sum_sq += e.sum_sq;
      o.max_ber = std::max(o.max_ber, e.max_ber);
    }
    for (std::size_t i = 0; i < client.rtt.size(); ++i) {
      out.rtt_us.push_back(client.rtt[i]);
    }
    for (std::size_t i = 0; i < client.stages.size(); ++i) {
      const Stages& s = client.stages[i];
      out.wire_us.push_back(s.wire);
      out.parse_us.push_back(s.parse);
      out.resolve_us.push_back(s.resolve);
      out.execute_us.push_back(s.execute);
      out.unattributed_us.push_back(s.unattributed);
    }
    if (c > 0) {
      for (std::size_t w = 0; w < out.windows.size(); ++w) {
        out.windows[w].first += client.windows[w].first;
        out.windows[w].second += client.windows[w].second;
      }
    }
    out.cycles.insert(out.cycles.end(), p.cycles.begin(), p.cycles.end());
    for (auto& [id, rtts] : p.rtt_by_function) {
      auto& to = out.rtt_by_function[id];
      to.insert(to.end(), rtts.begin(), rtts.end());
    }
    for (auto& s : p.samples) {
      if (out.samples.size() < kMaxSamples) out.samples.push_back(std::move(s));
    }
    if (c == 0) {
      out.replay_requests = std::move(p.replay_requests);
      out.replay_cells = std::move(p.replay_cells);
    }
  }
  out.wall_s = seconds_between(start, end);
  return out;
}

Rates window_rates(const TrafficResult& run) {
  std::vector<double> requests, bits;
  if (!run.cycles.empty()) {
    const auto per_cycle = static_cast<double>(registry_size());
    for (const auto& [seconds, cycle_bits] : run.cycles) {
      requests.push_back(per_cycle / seconds);
      bits.push_back(cycle_bits / seconds);
    }
  } else {
    for (const auto& [count, window_bits] : run.windows) {
      requests.push_back(static_cast<double>(count) / kWindowSeconds);
      bits.push_back(window_bits / kWindowSeconds);
    }
  }
  return {interquartile_mean(requests), interquartile_mean(bits)};
}

std::size_t replay_mismatches(std::uint16_t port, const TrafficResult& run) {
  oscs::serve::TcpClient tcp(port);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < run.replay_requests.size(); ++i) {
    const oscs::JsonValue doc =
        oscs::json_parse(tcp.request(run.replay_requests[i].line));
    const oscs::JsonValue* cells = doc.find("cells");
    if (cells == nullptr || !(*cells == run.replay_cells[i])) ++mismatches;
  }
  return mismatches;
}

std::size_t check_program_errors(const TrafficResult& run,
                                 std::vector<std::string>& failures) {
  // SNG thresholds are multiples of 2^-16, and each stream's finite LFSR
  // window leaves a small deterministic bias; 2e-3 per input absorbs both.
  constexpr double kBiasPerInput = 2e-3;
  std::size_t violations = 0;
  double worst = 0.0;
  std::string worst_id;
  for (const auto& [id, e] : run.errors) {
    const double n = static_cast<double>(e.n);
    const double mean = e.sum / n;
    const double var = std::max(0.0, e.sum_sq / n - mean * mean);
    const double bound = 4.0 * std::sqrt(var / n) +
                         static_cast<double>(e.arity) *
                             (e.max_ber + kBiasPerInput);
    if (std::abs(mean) / bound >= worst) {
      worst = std::abs(mean) / bound;
      worst_id = id;
    }
    if (!(std::abs(mean) <= bound)) {
      ++violations;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s: mean optical - expected %.3g over %zu cells exceeds "
                    "%.3g",
                    id.c_str(), mean, e.n, bound);
      failures.push_back(buf);
    }
  }
  std::printf("# accuracy: %zu programs, worst %s at %.2f of its bound\n",
              run.errors.size(), worst_id.c_str(), worst);
  return violations;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = values.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

}  // namespace perfbench
