#include "engine/batch.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/arity_guard.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::engine {

namespace sc = oscs::stochastic;

namespace {

// Engine throughput metrics (global registry; references resolved once).

obs::Counter& bits_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "oscs_engine_bits_evaluated_total",
      "stream bits evaluated by the batch engine");
  return counter;
}

obs::Counter& words_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "oscs_engine_words_processed_total",
      "64-bit stimulus words processed by the packed kernel");
  return counter;
}

obs::Histogram& request_bits_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_request_bits",
      "stream bits evaluated per batch run [bits]", {},
      obs::Histogram::size_units());
  return histogram;
}

obs::Histogram& fused_k_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_fused_k", "programs fused into one kernel pass", {},
      obs::Histogram::Options{/*min_value=*/1.0, /*growth=*/2.0,
                              /*buckets=*/12});
  return histogram;
}

obs::Histogram& slab_tasks_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "oscs_engine_slab_tasks", "tasks per scheduled slab", {},
      obs::Histogram::Options{/*min_value=*/1.0, /*growth=*/2.0,
                              /*buckets=*/16});
  return histogram;
}

/// 64-bit words one evaluation of a `length`-bit stream touches.
std::size_t words_for(std::size_t length) noexcept {
  return (length + 63) / 64;
}

/// Stream-bit budget per slab in auto mode: chunky enough that a slab is
/// on the order of a millisecond of packed-kernel work, so scheduling
/// overhead (one shared-counter claim per slab, one wake-up per helper)
/// disappears into the noise even for dense grids of short streams.
constexpr std::size_t kSlabTargetBits = std::size_t{1} << 20;

/// Slabs-per-worker floor in auto mode, for load balance on ragged work.
constexpr std::size_t kSlabsPerWorker = 4;

/// Tasks per slab for this request. `passes_per_task` scales the per-task
/// work estimate: the fused mode evaluates every program in one task, and
/// a general separable program makes one kernel pass per factor axis.
std::size_t slab_size(const BatchRequest& request, std::size_t workers,
                      std::size_t n_tasks, std::size_t passes_per_task) {
  if (n_tasks == 0) return 1;
  if (request.slab_tasks != 0) return std::min(request.slab_tasks, n_tasks);
  std::size_t total_len = 0;
  for (std::size_t length : request.stream_lengths) total_len += length;
  const std::size_t mean_bits_per_task = std::max<std::size_t>(
      1, total_len / request.stream_lengths.size() * passes_per_task);
  const std::size_t by_target =
      std::max<std::size_t>(1, kSlabTargetBits / mean_bits_per_task);
  const std::size_t by_balance = std::max<std::size_t>(
      1, n_tasks / (kSlabsPerWorker * std::max<std::size_t>(1, workers)));
  return std::min({by_target, by_balance, n_tasks});
}

/// Export one finished batch into the engine counters. `passes_per_task`
/// is the number of kernel passes per (point, length, repeat): the sum of
/// kernel_passes() over the programs for run(), 1 for the fused mode
/// (shared stimulus).
void record_batch(const BatchRequest& request, const BatchSummary& summary,
                  std::size_t passes_per_task) {
  bits_counter().inc(summary.total_bits);
  request_bits_histogram().record(static_cast<double>(summary.total_bits));
  std::size_t words = 0;
  for (std::size_t length : request.stream_lengths) {
    words += words_for(length) * request.points() * request.repeats;
  }
  words_counter().inc(words * passes_per_task);
}

/// The unified separable view of a request: N-ary programs run as
/// themselves (no copy), the legacy arities wrap into their dense
/// delegation forms in `storage` (bit-identical execution through
/// PackedKernel::run_nd).
const std::vector<sc::SeparableProgram>& separable_view(
    const BatchRequest& request, std::vector<sc::SeparableProgram>& storage) {
  if (request.nd()) return request.programs_nd;
  storage.reserve(request.program_count());
  for (const sc::BernsteinPoly2& poly : request.polynomials2) {
    storage.emplace_back(poly);
  }
  for (const sc::BernsteinPoly& poly : request.polynomials) {
    storage.emplace_back(poly);
  }
  return storage;
}

}  // namespace

std::size_t BatchRequest::cells() const noexcept {
  return program_count() * points() * stream_lengths.size();
}

std::size_t BatchRequest::tasks() const noexcept { return cells() * repeats; }

std::vector<double> BatchRequest::point(std::size_t i) const {
  if (nd()) {
    std::vector<double> pt;
    pt.reserve(inputs.size());
    for (const std::vector<double>& axis : inputs) {
      pt.push_back(axis.at(i));
    }
    return pt;
  }
  if (bivariate()) return {xs.at(i), ys.at(i)};
  return {xs.at(i)};
}

void BatchRequest::validate() const {
  // Shared arity-guard rendering keeps these messages in lockstep with the
  // serve-layer checks; "" means the check passed.
  const arity::GuardStyle& style = arity::kEngineStyle;
  const auto raise = [](const std::string& message) {
    if (!message.empty()) throw std::invalid_argument(message);
  };
  const std::size_t populated =
      static_cast<std::size_t>(!polynomials.empty()) +
      static_cast<std::size_t>(!polynomials2.empty()) +
      static_cast<std::size_t>(!programs_nd.empty());
  raise(arity::exactly_one_error(
      style, populated, "polynomials/polynomials2/programs_nd",
      "polynomials"));
  if (nd()) {
    if (!xs.empty() || !ys.empty()) {
      throw std::invalid_argument(
          "BatchRequest: xs/ys are only legal with polynomials/polynomials2 "
          "(N-ary points ride in inputs)");
    }
    if (inputs.empty()) {
      throw std::invalid_argument("BatchRequest: no inputs axes");
    }
    for (const sc::SeparableProgram& program : programs_nd) {
      if (program.arity() != inputs.size()) {
        throw std::invalid_argument(
            "BatchRequest: program arity " + std::to_string(program.arity()) +
            " does not match the " + std::to_string(inputs.size()) +
            " inputs axes");
      }
    }
    raise(arity::nonempty_error(style, "inputs[0]", inputs.front().size()));
    for (std::size_t a = 1; a < inputs.size(); ++a) {
      // Evaluation points are coordinate TUPLES across the axis columns; a
      // length mismatch would silently truncate or read past one of them.
      const std::string axis = "inputs[" + std::to_string(a) + "]";
      raise(arity::pairwise_error(style, "inputs[0]", inputs.front().size(),
                                  axis, inputs[a].size()));
    }
    for (std::size_t a = 0; a < inputs.size(); ++a) {
      // SC encodes each coordinate as a bit probability: anything outside
      // [0, 1] (or a NaN smuggled in through a parsed request) would
      // silently produce a meaningless stream instead of an error.
      raise(arity::unit_range_error(
          style, "inputs[" + std::to_string(a) + "]", inputs[a]));
    }
  } else {
    if (!inputs.empty()) {
      throw std::invalid_argument(
          "BatchRequest: inputs is only legal with programs_nd");
    }
    raise(arity::nonempty_error(style, "x", xs.size()));
    if (bivariate()) {
      raise(arity::pairwise_error(style, "xs", xs.size(), "ys", ys.size()));
    } else if (!ys.empty()) {
      throw std::invalid_argument(
          "BatchRequest: ys is only legal with bivariate polynomials2");
    }
    raise(arity::unit_range_error(style, "x", xs));
    raise(arity::unit_range_error(style, "y", ys));
  }
  if (stream_lengths.empty()) {
    throw std::invalid_argument("BatchRequest: no stream lengths");
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument("BatchRequest: zero stream length");
    }
  }
  if (repeats == 0) {
    throw std::invalid_argument("BatchRequest: zero repeats");
  }
  if (op.has_value()) {
    op->validate();
  }
}

std::uint64_t derive_task_seed(std::uint64_t master, std::size_t task_index,
                               std::uint64_t lane) {
  // Decorrelate (task, lane) pairs before the SplitMix64 expansion so
  // nearby indices do not share low-entropy state.
  oscs::SplitMix64 sm(master ^
                      (0x9E3779B97F4A7C15ULL * (2 * task_index + lane + 1)));
  return sm.next();
}

BatchRunner::BatchRunner(const optsc::OpticalScCircuit& circuit)
    : kernel_(std::make_shared<PackedKernel>(circuit)),
      design_point_(optsc::design_operating_point(circuit)) {}

BatchRunner::BatchRunner(const optsc::OpticalScCircuit& circuit,
                         std::size_t order_x, std::size_t order_y)
    : kernel_(std::make_shared<PackedKernel>(circuit, order_x, order_y)),
      design_point_(optsc::design_operating_point(circuit)) {}

BatchRunner::BatchRunner(std::shared_ptr<const PackedKernel> kernel,
                         oscs::OperatingPoint design_point)
    : kernel_(std::move(kernel)), design_point_(design_point) {
  if (!kernel_) {
    throw std::invalid_argument("BatchRunner: null kernel");
  }
  design_point_.validate();
}

template <typename SlotFn>
BatchSummary BatchRunner::aggregate(
    const BatchRequest& request,
    const std::vector<sc::SeparableProgram>& programs,
    const std::vector<std::vector<double>>& points,
    const std::vector<TaskOut>& outs, const oscs::OperatingPoint& op,
    SlotFn&& slot) const {
  BatchSummary summary;
  summary.tasks = outs.size();
  summary.op = op.with_stream_length(
      request.stream_lengths.size() == 1 ? request.stream_lengths.front() : 0);
  summary.cells.reserve(request.cells());
  const std::size_t n_lengths = request.stream_lengths.size();
  const std::size_t n_xs = request.points();
  summary.program_accuracy.resize(request.program_count());
  for (std::size_t pi = 0; pi < request.program_count(); ++pi) {
    ProgramAccuracy& acc = summary.program_accuracy[pi];
    for (std::size_t xi = 0; xi < n_xs; ++xi) {
      const std::vector<double>& point = points[xi];
      // For dense delegation forms operator() is the same arithmetic the
      // legacy per-arity paths evaluated, so roll-ups are bit-identical.
      const double expected = programs[pi](point);
      for (std::size_t li = 0; li < n_lengths; ++li) {
        const std::size_t length = request.stream_lengths[li];
        oscs::Accumulator optical;
        oscs::Accumulator optical_err;
        oscs::Accumulator electronic_err;
        oscs::Accumulator flip_rate;
        for (std::size_t rep = 0; rep < request.repeats; ++rep) {
          const TaskOut& out = outs[slot(pi, xi, li, rep)];
          optical.add(out.optical);
          optical_err.add(std::abs(out.optical - expected));
          electronic_err.add(std::abs(out.electronic - expected));
          flip_rate.add(static_cast<double>(out.flips) /
                        static_cast<double>(length));
          summary.total_bits += length;
        }
        BatchCell cell;
        cell.poly_index = pi;
        cell.point = point;
        cell.x = point[0];
        if (point.size() > 1) cell.y = point[1];
        cell.stream_length = length;
        cell.repeats = request.repeats;
        cell.expected = expected;
        cell.optical_mean = optical.mean();
        cell.optical_ci = optical.ci_halfwidth();
        cell.optical_abs_error_mean = optical_err.mean();
        cell.optical_abs_error_ci = optical_err.ci_halfwidth();
        cell.electronic_abs_error_mean = electronic_err.mean();
        cell.flip_rate_mean = flip_rate.mean();
        summary.optical_mae += cell.optical_abs_error_mean;
        summary.electronic_mae += cell.electronic_abs_error_mean;
        summary.worst_cell_error =
            std::max(summary.worst_cell_error, cell.optical_abs_error_mean);
        // Certification-aligned roll-up: deviation of the mean estimate,
        // not the mean of per-repeat deviations.
        const double mean_err = std::abs(cell.optical_mean - expected);
        acc.cells += 1;
        acc.mean_error += mean_err;
        acc.worst_error = std::max(acc.worst_error, mean_err);
        acc.ci_mean += cell.optical_ci;
        summary.cells.push_back(cell);
      }
    }
  }
  for (ProgramAccuracy& acc : summary.program_accuracy) {
    if (acc.cells > 0) {
      acc.mean_error /= static_cast<double>(acc.cells);
      acc.ci_mean /= static_cast<double>(acc.cells);
    }
  }
  const double n_cells = static_cast<double>(summary.cells.size());
  summary.optical_mae /= n_cells;
  summary.electronic_mae /= n_cells;
  return summary;
}

BatchSummary BatchRunner::run_lattice(const BatchRequest& request,
                                      ThreadPool& pool, bool fused) const {
  request.validate();
  // Legacy polynomial lists wrap into dense delegation forms; the task
  // lattice, seed derivation and kernel arithmetic below are unchanged
  // from the historical run() body, so those requests stay bit-identical.
  std::vector<sc::SeparableProgram> storage;
  const std::vector<sc::SeparableProgram>& programs =
      separable_view(request, storage);
  for (const sc::SeparableProgram& program : programs) {
    // Fusion shares one stimulus bank across dense programs; a general
    // sum-of-rank-1 program runs each term on its own factor streams, so
    // it only runs unfused.
    if (fused && !program.has_dense1() && !program.has_dense2()) {
      throw std::invalid_argument(
          "BatchRunner: fused mode takes dense programs; run general "
          "separable programs through run_nd");
    }
    kernel_->check_program(program);
  }
  const oscs::OperatingPoint base = request.op.value_or(design_point_);

  // Task t evaluates program group g at point xi, length li and repeat rep
  // (repeat innermost): one program per task unfused; every program on
  // one shared stimulus and flip mask fused (g == 0). Each task derives
  // its seeds from t alone and writes only its own output slots, so
  // results are independent of scheduling order, thread count and slab
  // grain. Tasks go out in contiguous-index slabs.
  const std::size_t n_programs = request.program_count();
  const std::size_t per_task = fused ? n_programs : 1;
  const std::size_t n_lengths = request.stream_lengths.size();
  const std::size_t n_xs = request.points();
  const std::size_t repeats = request.repeats;
  const std::size_t n_tasks = request.tasks() / per_task;
  std::vector<TaskOut> outs(n_tasks * per_task);
  // Kernel passes per (point, length, repeat) across the unfused programs;
  // a task runs one program, so the slab estimate takes their mean.
  std::size_t passes = 0;
  for (const sc::SeparableProgram& program : programs) {
    passes += kernel_passes(program);
  }
  const std::size_t slab = slab_size(
      request, pool.size(), n_tasks,
      fused ? n_programs : (passes + n_programs - 1) / n_programs);
  slab_tasks_histogram().record(static_cast<double>(slab));
  // The evaluation points, materialized once for every task and the
  // aggregation pass.
  std::vector<std::vector<double>> points;
  points.reserve(n_xs);
  for (std::size_t xi = 0; xi < n_xs; ++xi) points.push_back(request.point(xi));
  pool.run_range((n_tasks + slab - 1) / slab, [&](std::size_t si) {
    const std::size_t end = std::min(n_tasks, (si + 1) * slab);
    // A cell's repeats are contiguous tasks, so the slab prepares each
    // cell it touches once (PackedCell) and runs it per repeat.
    std::optional<PackedCell> prepared;
    std::size_t prepared_cell = 0;
    PackedRunResult one;
    std::vector<PackedRunResult> many(fused ? per_task : 0);
    PackedRunResult* results = fused ? many.data() : &one;
    for (std::size_t t = si * slab; t < end; ++t) {
      const std::size_t cell = t / repeats;
      if (!prepared || cell != prepared_cell) {
        const std::size_t li = cell % n_lengths;
        const std::size_t xi = (cell / n_lengths) % n_xs;
        const oscs::OperatingPoint op =
            base.with_stream_length(request.stream_lengths[li]);
        prepared.reset();
        if (fused) {
          prepared.emplace(*kernel_, std::span(programs), points[xi], op,
                           request.source_kind);
        } else {
          prepared.emplace(*kernel_, programs[cell / (n_lengths * n_xs)],
                           points[xi], op, request.source_kind);
        }
        prepared_cell = cell;
      }
      prepared->run(derive_task_seed(request.seed, t, 0),
                    derive_task_seed(request.seed, t, 1), results);
      for (std::size_t k = 0; k < per_task; ++k) {
        const PackedRunResult& r = results[k];
        outs[t * per_task + k] = {r.optical_estimate, r.electronic_estimate,
                                  r.transmission_flips};
      }
    }
  });

  BatchSummary summary = aggregate(
      request, programs, points, outs, base,
      [=](std::size_t pi, std::size_t xi, std::size_t li, std::size_t rep) {
        const std::size_t g = fused ? 0 : pi;
        const std::size_t t =
            ((g * n_xs + xi) * n_lengths + li) * repeats + rep;
        return t * per_task + (fused ? pi : 0);
      });
  // A fused task is one shared stimulus pass for all K programs - that is
  // the point of fusion, and the words counter reflects it.
  record_batch(request, summary, fused ? 1 : passes);
  if (fused) fused_k_histogram().record(static_cast<double>(n_programs));
  return summary;
}

BatchSummary BatchRunner::run_nd(const BatchRequest& request,
                                 ThreadPool& pool) const {
  return run_lattice(request, pool, /*fused=*/false);
}

BatchSummary BatchRunner::run_nd(const BatchRequest& request,
                                 std::size_t threads) const {
  ThreadPool pool(threads);
  return run_nd(request, pool);
}

BatchSummary BatchRunner::run(const BatchRequest& request,
                              ThreadPool& pool) const {
  return run_nd(request, pool);
}

BatchSummary BatchRunner::run(const BatchRequest& request,
                              std::size_t threads) const {
  ThreadPool pool(threads);
  return run_nd(request, pool);
}

BatchSummary BatchRunner::run_fused(const BatchRequest& request,
                                    ThreadPool& pool) const {
  return run_lattice(request, pool, /*fused=*/true);
}

BatchSummary BatchRunner::run_fused(const BatchRequest& request,
                                    std::size_t threads) const {
  ThreadPool pool(threads);
  return run_fused(request, pool);
}

}  // namespace oscs::engine
