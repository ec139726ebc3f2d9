/// The repository benchmark program: runs one named workload from a seed
/// against an in-process ProgramServer behind its loopback TcpServer,
/// checks every reply, and prints the metrics as one JSON line last.
///
///   oscs_perfbench --prep FILE
///       compile and certify the whole registry, save it as a cache file
///   oscs_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  --cache-file FILE
///       run; --trace 0 prints the end-to-end metrics, --trace 1 the
///       per-layer ones
///
/// run.py builds this program and calls it; see README.md there.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "traffic.hpp"
#include "workload.hpp"

using namespace perfbench;
namespace sv = oscs::serve;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up samples per batch: at least this many, for at least this long
/// [s]. One batch runs before the traffic and one after it.
constexpr int kSetupSamples = 11;
constexpr double kSetupSeconds = 0.25;
/// Warm-up before the timed window of the warm workloads [s].
constexpr double kWarmupSeconds = 0.5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::string cache_file;
  std::string prep;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (key == "--cache-file") {
      a.cache_file = value;
    } else if (key == "--prep") {
      a.prep = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (!a.prep.empty() || (!a.workload.empty() && !a.cache_file.empty() &&
                              a.seconds > 0.0 && (a.trace == 0 || a.trace == 1)));
}

/// Compile and certify the full registry once and persist it.
int prep(const std::string& path) {
  sv::ServerOptions options;
  options.cache_capacity = 64;
  sv::ProgramServer server(options);
  sv::PrewarmOptions manifest;
  manifest.compile_missing = true;
  const sv::PrewarmReport report = server.prewarm(manifest);
  if (report.compile_errors != 0 || report.compiled != registry_size()) {
    std::fprintf(stderr, "prep: %zu/%zu compiled: %s\n", report.compiled,
                 registry_size(), report.message.c_str());
    return 1;
  }
  const std::size_t saved = server.save_cache(path);
  std::printf("# prep: saved %zu programs to %s\n", saved, path.c_str());
  return saved == registry_size() ? 0 : 1;
}

/// Calibrated spin probe: how many cores run a pure-CPU loop in parallel
/// as fast as one runs it alone.
double effective_cores(unsigned nproc) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&](std::uint64_t iterations) {
    std::uint64_t x = iterations;
    for (std::uint64_t i = 0; i < iterations; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    sink += x;
  };
  std::uint64_t iterations = 1 << 16;
  double single = 0.0;
  while (true) {
    const auto t0 = Clock::now();
    spin(iterations);
    single = seconds_since(t0);
    if (single > 0.03) break;
    iterations *= 2;
  }
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc; ++t) threads.emplace_back(spin, iterations);
  for (auto& t : threads) t.join();
  const double parallel = seconds_since(t0);
  return static_cast<double>(nproc) * single / parallel;
}

/// One set-up sample: fresh server (with its prewarm load), listener,
/// client connection and the first reply.
double setup_once(const sv::ServerOptions& options, const std::string& line) {
  const auto t0 = Clock::now();
  sv::ProgramServer server(options);
  sv::TcpServer tcp(server);
  sv::TcpClient client(tcp.port());
  const std::string reply = client.request(line);
  const double elapsed = seconds_since(t0);
  const oscs::JsonValue* ok = oscs::json_parse(reply).find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    throw std::runtime_error("set-up probe failed: " + reply);
  }
  return elapsed;
}

/// This process's own high-water mark. getrusage's ru_maxrss would not do:
/// Linux carries it across exec, so it would report the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The engine pool's queue-wait histogram on the global registry (the
/// instance the thread pool records into).
oscs::obs::Histogram& queue_wait_histogram() {
  return oscs::obs::Registry::global().histogram(
      "oscs_engine_pool_task_wait_us",
      "time from task submit to a worker dequeuing it [microseconds]");
}

/// End-to-end figures of one traffic phase.
struct EndToEnd {
  double throughput_rps = 0, p50_ms = 0, tail_ms = 0, mbit_per_s = 0;
  double cpu_us_per_request = 0;
};

/// Rates are interquartile means over half-second windows, or over
/// registry cycles on compile_cold. Latency is p50 and p99 of the replies
/// on the warm workloads. A compile_cold run holds a few cycles of 16
/// fixed costs, too few replies for a p99, so there each function's
/// latency is first reduced to its median over the cycles, and p50 and
/// p75 are taken over those 16 medians.
EndToEnd end_to_end(const TrafficResult& r, bool warm) {
  const Rates rates = window_rates(r);
  EndToEnd e;
  e.throughput_rps = rates.requests_per_s;
  e.mbit_per_s = rates.bits_per_s / 1e6;
  e.cpu_us_per_request =
      r.server_cpu_s * 1e6 / static_cast<double>(r.attempted - r.failed);
  if (warm) {
    e.p50_ms = percentile(r.rtt_us, 0.5) / 1e3;
    e.tail_ms = percentile(r.rtt_us, 0.99) / 1e3;
  } else {
    std::vector<double> medians;
    for (const auto& [id, rtts] : r.rtt_by_function) {
      medians.push_back(percentile(rtts, 0.5));
    }
    e.p50_ms = percentile(medians, 0.5) / 1e3;
    e.tail_ms = percentile(medians, 0.75) / 1e3;
  }
  return e;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  oscs::JsonWriter json(/*pretty=*/false);
  json.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name)
        .begin_object()
        .field("value", m.value)
        .field("unit", m.unit)
        .end_object();
  }
  json.end_object().end_object();
  std::fputs(json.str().c_str(), stdout);
}

int run(const Args& args, Workload workload) {
  const bool warm = workload != Workload::kCompileCold;
  const bool traced = args.trace == 1;
  sv::ServerOptions options;
  if (warm) {
    options.prewarm.cache_file = args.cache_file;
  } else {
    // Smaller than the registry cycle, so every request compiles.
    options.cache_capacity = 8;
  }
  const std::size_t clients = warm ? 2 : 1;

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double cores = effective_cores(nproc);
  std::printf("# workload %s seed %llu seconds %g trace %d: nproc %u, "
              "effective_cores %.2f\n",
              workload_name(workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, nproc, cores);

  std::vector<double> setups;
  const std::string probe =
      warm ? setup_probe_line(workload) : std::string("{\"op\":\"ping\"}");
  const auto sample_setup = [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupSamples || seconds_since(t0) < kSetupSeconds;
         ++i) {
      setups.push_back(setup_once(options, probe));
    }
  };
  sample_setup();

  sv::ProgramServer server(options);
  sv::TcpServer tcp(server);
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto absorb = [&](const TrafficResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  };

  if (warm) {
    TrafficOptions w;
    w.workload = workload;
    w.seed = args.seed;
    w.clients = clients;
    w.seconds = kWarmupSeconds;
    w.stream = 1;
    absorb(run_traffic(tcp.port(), w));
  }
  const std::size_t warmup_attempted = attempted;

  TrafficOptions t;
  t.workload = workload;
  t.seed = args.seed;
  t.clients = clients;
  t.seconds = traced ? args.seconds / 2 : args.seconds;
  t.replay_first = warm ? 8 : 3;
  const TrafficResult main_run = run_traffic(tcp.port(), t);
  absorb(main_run);

  TrafficResult traced_run;
  if (traced) {
    queue_wait_histogram().reset();
    TrafficOptions tt = t;
    tt.stream = 2;
    tt.traced = true;
    tt.replay_first = 0;
    traced_run = run_traffic(tcp.port(), tt);
    absorb(traced_run);
  }
  const double queue_wait_p50 = queue_wait_histogram().snapshot().quantile(0.5);

  // Cache traffic as the metrics endpoint reports it.
  double hits = 0, lookups = 0;
  {
    sv::TcpClient client(tcp.port());
    const oscs::JsonValue doc =
        oscs::json_parse(client.request("{\"op\":\"metrics\"}"));
    const oscs::JsonValue* m = doc.find("metrics");
    const oscs::JsonValue* cache = m == nullptr ? nullptr : m->find("cache");
    const auto count = [&](const char* key) {
      const oscs::JsonValue* v = cache == nullptr ? nullptr : cache->find(key);
      if (v == nullptr) throw std::runtime_error("metrics reply lacks cache counters");
      return v->as_number();
    };
    hits = count("hits");
    lookups = hits + count("misses") + count("coalesced");
  }

  std::size_t violations = check_program_errors(main_run, failures);
  if (traced) violations += check_program_errors(traced_run, failures);
  if (!warm) {
    // Every timed request compiled, and every certificate fits the
    // registry budget.
    const double requests =
        static_cast<double>(attempted - warmup_attempted);
    if (hits != 0 || lookups != requests) {
      ++violations;
      failures.push_back("compile_cold: " + std::to_string(hits) +
                         " cache hits over " + std::to_string(lookups) +
                         " lookups for " + std::to_string(requests) +
                         " requests");
    }
    const sv::AccuracyReport report = server.accuracy_report();
    if (report.programs.size() != registry_size()) {
      ++violations;
      failures.push_back("compile_cold: " +
                         std::to_string(report.programs.size()) +
                         " programs seen");
    }
    for (const sv::ProgramHealth& p : report.programs) {
      const double budget = p.arity > 2 ? 0.03 : 0.02;
      if (!p.certified || p.certified_mae + p.certified_ci > budget) {
        ++violations;
        failures.push_back("compile_cold: " + p.program + " certificate " +
                           std::to_string(p.certified_mae) + " + " +
                           std::to_string(p.certified_ci) +
                           " outside budget");
      }
    }
  }
  const std::size_t mismatches = replay_mismatches(tcp.port(), main_run);
  attempted += main_run.replay_requests.size();
  failed += mismatches;
  if (mismatches != 0) {
    failures.push_back(std::to_string(mismatches) +
                       " replayed requests returned different cells");
  }
  tcp.stop();
  sample_setup();

  const EndToEnd e = end_to_end(main_run, warm);
  const std::string tail_name = warm ? "latency_p99_ms" : "latency_p75_ms";
  std::printf("# %zu replies in %.3f s; %zu replayed\n", main_run.attempted,
              main_run.wall_s, main_run.replay_requests.size());
  Metrics metrics;
  if (!traced) {
    metrics = {
        {"throughput_rps", e.throughput_rps, "1/s"},
        {"latency_p50_ms", e.p50_ms, "ms"},
        {tail_name, e.tail_ms, "ms"},
        {"served_mbit_per_s", e.mbit_per_s, "Mbit/s"},
        {"cpu_us_per_request", e.cpu_us_per_request, "us"},
        {"ok_ratio",
         static_cast<double>(attempted - failed) / static_cast<double>(attempted),
         "ratio"},
        {"setup_s", percentile(setups, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    if (warm) {
      std::printf("# latency over %zu sampled replies\n",
                  main_run.rtt_us.size());
    } else {
      std::printf("# latency p50 and p75 over %zu function medians of "
                  "%zu cycles\n",
                  main_run.rtt_by_function.size(),
                  main_run.rtt_us.size() / registry_size());
    }
  } else {
    const TrafficResult& r = traced_run;
    const double rtt = percentile(r.rtt_us, 0.5);
    const double wire = percentile(r.wire_us, 0.5);
    const double parse = percentile(r.parse_us, 0.5);
    const double resolve = percentile(r.resolve_us, 0.5);
    const double execute = percentile(r.execute_us, 0.5);
    const double unattributed = percentile(r.unattributed_us, 0.5);
    metrics = {
        {"serve.requests", static_cast<double>(r.attempted), "count"},
        {"serve.rtt_us", rtt, "us"},
        {"serve.wire_us", wire, "us"},
        {"serve.resolve_us", resolve, "us"},
        {"serve.execute_us", execute, "us"},
        {"serve.unattributed_us", unattributed, "us"},
        {"engine.bits", r.bits, "bit"},
        {"engine.queue_wait_us", queue_wait_p50, "us"},
        {"compile.cache_hit_ratio", lookups == 0 ? 0.0 : hits / lookups,
         "ratio"},
    };
    measure_serve_codec(server, r.samples, metrics);
    measure_engine(workload, r.samples, args.cache_file, metrics);
    measure_compile(args.cache_file, metrics);
    // Tracing overhead: how much worse each end-to-end figure reads in the
    // traced phase than in the untraced one [% of the untraced value].
    const EndToEnd te = end_to_end(r, warm);
    const auto cost = [](double traced_v, double plain, bool higher_better) {
      const double d = higher_better ? plain - traced_v : traced_v - plain;
      return plain == 0.0 ? 0.0 : d / plain * 100.0;
    };
    metrics.insert(
        metrics.end(),
        {{"trace.overhead.throughput_rps",
          cost(te.throughput_rps, e.throughput_rps, true), "%"},
         {"trace.overhead.latency_p50_ms", cost(te.p50_ms, e.p50_ms, false),
          "%"},
         {"trace.overhead." + tail_name, cost(te.tail_ms, e.tail_ms, false),
          "%"},
         {"trace.overhead.served_mbit_per_s",
          cost(te.mbit_per_s, e.mbit_per_s, true), "%"},
         {"trace.overhead.cpu_us_per_request",
          cost(te.cpu_us_per_request, e.cpu_us_per_request, false), "%"},
         {"host.nproc", static_cast<double>(nproc), "count"},
         {"host.effective_cores", cores, "count"}});
    // Reconciliation: the median RTT against the stage self times. Wire is
    // the RTT beyond the server's total, which ends before serialization,
    // so serialize is carved out of it.
    double serialize = 0.0;
    for (const Metric& m : metrics) {
      if (m.name == "serve.serialize_us") serialize = m.value;
    }
    const double residual =
        rtt - (wire + parse + resolve + execute + unattributed);
    metrics.push_back({"serve.residual_us", residual, "us"});
    std::printf("# rtt p50 %.1f us = wire %.1f + serialize %.1f + parse "
                "%.1f + resolve %.1f + execute %.1f + unattributed %.1f + "
                "residual %.1f\n",
                rtt, wire - serialize, serialize, parse, resolve, execute,
                unattributed, residual);
  }
  for (const std::string& f : failures) std::printf("# FAIL %s\n", f.c_str());
  const bool correct = failures.empty() && violations == 0 && failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: oscs_perfbench --prep FILE | --workload NAME --seed N "
                 "--seconds S --trace 0|1 --cache-file FILE\n");
    return 2;
  }
  try {
    if (!args.prep.empty()) return prep(args.prep);
    Workload workload;
    if (!parse_workload(args.workload, workload)) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    return run(args, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oscs_perfbench: %s\n", e.what());
    return 1;
  }
}
