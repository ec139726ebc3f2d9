#include "compile/certify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/batch.hpp"
#include "optsc/link_budget.hpp"

namespace oscs::compile {

namespace eng = oscs::engine;

void CertificationOptions::validate() const {
  if (stream_length == 0) {
    throw std::invalid_argument("CertificationOptions: zero stream length");
  }
  if (repeats == 0) {
    throw std::invalid_argument("CertificationOptions: zero repeats");
  }
  if (grid_points == 0) {
    throw std::invalid_argument("CertificationOptions: zero grid points");
  }
}

void GridCertificationOptions::validate() const {
  if (probe_powers_mw.empty() && probe_scales.empty()) {
    throw std::invalid_argument("GridCertificationOptions: no probe powers");
  }
  for (double p : probe_powers_mw) {
    if (!(p > 0.0)) {
      throw std::invalid_argument(
          "GridCertificationOptions: probe power must be > 0 mW");
    }
  }
  for (double s : probe_scales) {
    if (!(s > 0.0)) {
      throw std::invalid_argument(
          "GridCertificationOptions: probe scale must be > 0");
    }
  }
  if (stream_lengths.empty()) {
    throw std::invalid_argument("GridCertificationOptions: no stream lengths");
  }
  for (std::size_t len : stream_lengths) {
    if (len == 0) {
      throw std::invalid_argument(
          "GridCertificationOptions: zero stream length");
    }
  }
  if (repeats == 0) {
    throw std::invalid_argument("GridCertificationOptions: zero repeats");
  }
  if (grid_points == 0) {
    throw std::invalid_argument("GridCertificationOptions: zero grid points");
  }
}

namespace {

/// Visit every point of the per_axis^arity lattice, last axis fastest;
/// axis index i maps to coordinate coord(i).
template <typename Coord, typename Visit>
void for_each_lattice_point(std::size_t arity, std::size_t per_axis,
                            Coord&& coord, Visit&& visit) {
  std::size_t total = 1;
  for (std::size_t j = 0; j < arity; ++j) total *= per_axis;
  std::vector<double> point(arity, 0.0);
  for (std::size_t g = 0; g < total; ++g) {
    std::size_t rest = g;
    for (std::size_t j = arity; j-- > 0;) {
      point[j] = coord(rest % per_axis);
      rest /= per_axis;
    }
    visit(point);
  }
}

void require(bool holds, const char* message) {
  if (!holds) throw std::invalid_argument(message);
}

/// Point-form views of the dense-arity references; they borrow `f`.
PointReference point_form(const std::function<double(double)>& f) {
  return [&f](const std::vector<double>& p) { return f(p[0]); };
}

PointReference point_form(const std::function<double(double, double)>& f) {
  return [&f](const std::vector<double>& p) { return f(p[0], p[1]); };
}

}  // namespace

Certification certify_program_at(const CompiledProgram& program,
                                 const PointReference& reference,
                                 const oscs::OperatingPoint& op,
                                 const CertificationOptions& options) {
  options.validate();
  op.validate();
  const stochastic::SeparableProgram& run = program.program_nd();
  const std::size_t arity = run.arity();

  // The engine evaluates coordinate tuples, not cross products, so the
  // lattice is enumerated explicitly as one column per axis, once per
  // draw: cells [r * n, (r + 1) * n) of the summary are draw r, and the
  // per-task seeds make the draws independent.
  eng::BatchRequest request;
  request.programs_nd.push_back(run);
  request.inputs.assign(arity, {});
  const double grid_denominator =
      static_cast<double>(options.grid_points + 1);
  for_each_lattice_point(
      arity, options.grid_points,
      [grid_denominator](std::size_t i) {
        return static_cast<double>(i + 1) / grid_denominator;
      },
      [&request](const std::vector<double>& point) {
        for (std::size_t j = 0; j < point.size(); ++j) {
          request.inputs[j].push_back(point[j]);
        }
      });
  const std::size_t grid_cells = request.inputs.front().size();
  for (std::vector<double>& column : request.inputs) {
    column.reserve(grid_cells * kCertificationDraws);
    for (std::size_t i = grid_cells; i < grid_cells * kCertificationDraws;
         ++i) {
      column.push_back(column[i - grid_cells]);
    }
  }
  request.stream_lengths = {op.stream_length};
  request.repeats = options.repeats;
  request.seed = options.seed;
  request.source_kind = options.source_kind;
  request.op = op;

  // Reuse the program's prebuilt kernel: certification shares the decision
  // LUT codegen already paid for. The kernel's LUT is probe-power
  // invariant (transmissions scale linearly), so one kernel serves every
  // operating point; only the BER inside `op` changes.
  const eng::BatchRunner runner(program.kernel(), program.design_point());
  const eng::BatchSummary summary = runner.run_nd(request, options.threads);

  Certification cert;
  cert.op = op;
  cert.stream_length = op.stream_length;
  cert.repeats = options.repeats;
  cert.grid_points = options.grid_points;
  cert.noise_enabled = op.noisy();

  // Per draw: the error of each cell versus the double-precision
  // reference, averaged over the grid (the MAE), its worst cell, and the
  // MAE's CI - the cells carry the MC mean and its CI, and by independence
  // of the per-cell estimates CI(mean of means) = sqrt(sum ci_i^2) / N.
  const auto n = static_cast<double>(grid_cells);
  for (std::size_t r = 0; r < kCertificationDraws; ++r) {
    double mae = 0.0;
    double worst = 0.0;
    double ci_sq_sum = 0.0;
    for (std::size_t c = r * grid_cells; c < (r + 1) * grid_cells; ++c) {
      const eng::BatchCell& cell = summary.cells[c];
      const double err = std::abs(cell.optical_mean - reference(cell.point));
      mae += err;
      worst = std::max(worst, err);
      ci_sq_sum += cell.optical_ci * cell.optical_ci;
    }
    cert.mc_mae += mae / n;
    cert.mc_worst += worst;
    cert.mc_mae_ci += std::sqrt(ci_sq_sum) / n;
  }
  const auto draws = static_cast<double>(kCertificationDraws);
  cert.mc_mae /= draws;
  cert.mc_worst /= draws;
  cert.mc_mae_ci /= draws;
  cert.electronic_mae = summary.electronic_mae;

  // Deterministic pipeline error (projection + quantization), sampled on a
  // dense lattice - the floor the MC estimate converges to as streams
  // grow. Coarser per axis for the wider forms: the tuple count is
  // exponential in the arity.
  const std::size_t dense_steps =
      program.is_nd() ? 24 : (program.is_bivariate() ? 128 : 512);
  for_each_lattice_point(
      arity, dense_steps + 1,
      [dense_steps](std::size_t s) {
        return static_cast<double>(s) / static_cast<double>(dense_steps);
      },
      [&](const std::vector<double>& point) {
        cert.approx_max_error = std::max(
            cert.approx_max_error, std::abs(run(point) - reference(point)));
      });
  return cert;
}

Certification certify_program(const CompiledProgram& program,
                              const PointReference& reference,
                              const CertificationOptions& options) {
  options.validate();
  oscs::OperatingPoint op =
      program.design_point().with_stream_length(options.stream_length);
  if (!options.noise_enabled) op = op.noiseless();
  return certify_program_at(program, reference, op, options);
}

Certification certify_at(const CompiledProgram& program,
                         const std::function<double(double)>& reference,
                         const oscs::OperatingPoint& op,
                         const CertificationOptions& options) {
  require(program.program_nd().has_dense1(),
          "certify_at: program is not univariate");
  return certify_program_at(program, point_form(reference), op, options);
}

Certification certify(const CompiledProgram& program,
                      const std::function<double(double)>& reference,
                      const CertificationOptions& options) {
  require(program.program_nd().has_dense1(),
          "certify: program is not univariate");
  return certify_program(program, point_form(reference), options);
}

Certification certify2(const CompiledProgram& program,
                       const std::function<double(double, double)>& reference,
                       const CertificationOptions& options) {
  require(program.is_bivariate(), "certify2: univariate program");
  return certify_program(program, point_form(reference), options);
}

Certification certify_nd(const CompiledProgram& program,
                         const PointReference& reference,
                         const CertificationOptions& options) {
  require(program.is_nd(), "certify_nd: dense program");
  return certify_program(program, reference, options);
}

GridCertification certify_grid(const CompiledProgram& program,
                               const std::function<double(double)>& reference,
                               const GridCertificationOptions& options) {
  options.validate();

  std::vector<double> probes = options.probe_powers_mw;
  if (probes.empty()) {
    const double design_probe = program.design_point().probe_power_mw;
    probes.reserve(options.probe_scales.size());
    for (double s : options.probe_scales) probes.push_back(s * design_probe);
  }

  CertificationOptions cell_options;
  cell_options.repeats = options.repeats;
  cell_options.grid_points = options.grid_points;
  cell_options.seed = options.seed;
  cell_options.source_kind = options.source_kind;
  cell_options.threads = options.threads;

  const optsc::LinkBudget budget(program.circuit(),
                                 optsc::EyeModel::kPhysical);
  GridCertification grid;
  grid.function_id = program.function_id();
  grid.cells.reserve(probes.size() * options.stream_lengths.size());
  for (double probe : probes) {
    for (std::size_t length : options.stream_lengths) {
      GridCell cell;
      cell.op =
          budget.operating_point(probe, length, program.key().width);
      cell.cert = certify_at(program, reference, cell.op, cell_options);
      const std::size_t index = grid.cells.size();
      if (grid.cells.empty() ||
          cell.cert.mc_mae < grid.cells[grid.best_cell].cert.mc_mae) {
        grid.best_cell = index;
      }
      if (grid.cells.empty() ||
          cell.cert.mc_mae > grid.cells[grid.worst_cell].cert.mc_mae) {
        grid.worst_cell = index;
      }
      grid.cells.push_back(std::move(cell));
    }
  }
  return grid;
}

}  // namespace oscs::compile
