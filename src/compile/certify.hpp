#pragma once
/// \file certify.hpp
/// \brief Certification stage of the function compiler: run a compiled
///        program through the BatchRunner Monte-Carlo engine and measure
///        its empirical accuracy against the double-precision reference
///        function - an MAE with a 95% confidence interval over an x grid,
///        plus the deterministic approximation-error component.
///
/// One body serves every arity: certify_program_at() runs the program's
/// separable form over the grid^arity lattice. The entry points on it:
///   * certify_program() / certify_program_at() - any program, reference
///                      over coordinate tuples;
///   * certify() / certify2() / certify_nd() - per-arity wrappers at the
///                      program's design operating point, and their
///                      `_at` forms at an explicit `oscs::OperatingPoint`;
///   * certify_grid() - an MAE/CI surface across a grid of probe powers
///                      and stream lengths (the link budget maps each
///                      probe power to its BER; ROADMAP "noise-aware
///                      certification")

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/operating_point.hpp"
#include "compile/program.hpp"
#include "stochastic/sng.hpp"

namespace oscs::compile {

/// Independent draws of the whole certification grid; a certificate's
/// Monte-Carlo figures are per-draw statistics averaged over them.
inline constexpr std::size_t kCertificationDraws = 8;

/// Controls for the Monte-Carlo certification run.
struct CertificationOptions {
  std::size_t stream_length = 4096;  ///< bits per evaluation
  std::size_t repeats = 16;          ///< MC repeats per grid point
  std::size_t grid_points = 9;       ///< interior x grid: i/(grid_points+1)
  std::uint64_t seed = 0xCE47;       ///< master seed (deterministic result)
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  bool noise_enabled = true;  ///< apply the link-budget BER noise model
  std::size_t threads = 0;    ///< BatchRunner workers (0 = hardware)

  /// \throws std::invalid_argument on a zero dimension.
  void validate() const;
};

/// Reference function over a coordinate tuple (point.size() == arity):
/// the one signature that covers every program arity.
using PointReference = std::function<double(const std::vector<double>&)>;

/// The certification body every arity shares. The MC grid is the tensor
/// of options.grid_points interior points i/(grid_points+1) per axis -
/// grid_points^arity coordinate tuples, last axis fastest - evaluated
/// through BatchRunner::run_nd on the program's prebuilt kernel (BER,
/// stream length and SNG width all come from `op`). One draw is that grid
/// at options.repeats repeats per point - the statistic one request at
/// the certified setting measures - and the run makes kCertificationDraws
/// independent draws in one batch: mc_mae, mc_mae_ci and mc_worst are the
/// per-draw figures averaged over the draws, so a certificate estimates
/// what a request should see instead of carrying one draw's luck. The
/// deterministic approximation error samples a dense lattice of 512
/// (univariate), 128 (bivariate) or 24 (N-ary separable) steps per axis.
/// \throws std::invalid_argument on invalid options or operating point.
[[nodiscard]] Certification certify_program_at(
    const CompiledProgram& program, const PointReference& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options = {});

/// certify_program_at() at the program's design operating point, with
/// options.stream_length and options.noise_enabled applied on top.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] Certification certify_program(
    const CompiledProgram& program, const PointReference& reference,
    const CertificationOptions& options = {});

/// Certify `program` against `reference` (the original double(double)
/// function) at its design operating point, with options.stream_length
/// and options.noise_enabled applied on top. Deterministic for a fixed
/// seed and any thread count, per the BatchRunner contract.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] Certification certify(
    const CompiledProgram& program,
    const std::function<double(double)>& reference,
    const CertificationOptions& options = {});

/// Certify at an explicit operating point (BER, stream length and SNG
/// width all come from `op`; options.stream_length / noise_enabled are
/// ignored). The building block certify_grid() uses.
/// \throws std::invalid_argument on invalid options or operating point,
///         or a bivariate / N-ary program.
[[nodiscard]] Certification certify_at(
    const CompiledProgram& program,
    const std::function<double(double)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options = {});

/// Certify a bivariate `program` against its two-input reference at its
/// design operating point. The MC grid is the tensor of
/// options.grid_points interior points per axis - grid_points^2 (x, y)
/// cells, every pair evaluated through the two-input kernel mode.
/// \throws std::invalid_argument on invalid options or a univariate
///         program.
[[nodiscard]] Certification certify2(
    const CompiledProgram& program,
    const std::function<double(double, double)>& reference,
    const CertificationOptions& options = {});

/// Bivariate certification at an explicit operating point (BER, stream
/// length and SNG width all come from `op`).
/// \throws std::invalid_argument on invalid options, an invalid operating
///         point or a univariate program.
[[nodiscard]] Certification certify2_at(
    const CompiledProgram& program,
    const std::function<double(double, double)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options = {});

/// Certify an N-ary separable `program` against its reference at its
/// design operating point. The MC grid is the tensor of
/// options.grid_points interior points per axis - grid_points^arity
/// coordinate tuples, every tuple evaluated through the engine's N-ary
/// entry point (BatchRunner::run_nd).
/// \throws std::invalid_argument on invalid options or a dense
///         (uni/bivariate) program.
[[nodiscard]] Certification certify_nd(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const CertificationOptions& options = {});

/// N-ary certification at an explicit operating point (BER, stream length
/// and SNG width all come from `op`).
/// \throws std::invalid_argument on invalid options, an invalid operating
///         point or a dense (uni/bivariate) program.
[[nodiscard]] Certification certify_nd_at(
    const CompiledProgram& program,
    const std::function<double(const std::vector<double>&)>& reference,
    const oscs::OperatingPoint& op, const CertificationOptions& options = {});

/// Controls for the operating-point grid sweep.
struct GridCertificationOptions {
  /// Explicit per-channel probe powers [mW]. When empty, `probe_scales`
  /// times the program's design probe power are used instead.
  std::vector<double> probe_powers_mw{};
  std::vector<double> probe_scales{0.5, 1.0, 2.0};
  std::vector<std::size_t> stream_lengths{4096};
  std::size_t repeats = 8;
  std::size_t grid_points = 9;
  std::uint64_t seed = 0xCE47;
  stochastic::SourceKind source_kind = stochastic::SourceKind::kLfsr;
  std::size_t threads = 0;

  /// \throws std::invalid_argument on an empty probe/length grid, a
  ///         non-positive probe power or scale, or a zero dimension.
  void validate() const;
};

/// One grid entry: the operating point (carrying the link-budget BER at
/// that probe power) and the certification measured there.
struct GridCell {
  oscs::OperatingPoint op{};
  Certification cert{};
};

/// MAE/CI surface over (probe power x stream length).
struct GridCertification {
  std::string function_id;
  std::vector<GridCell> cells;  ///< probe-major, then stream length
  std::size_t best_cell = 0;    ///< index of the lowest-MAE cell
  std::size_t worst_cell = 0;   ///< index of the highest-MAE cell

  [[nodiscard]] double best_mc_mae() const {
    return cells.empty() ? 0.0 : cells[best_cell].cert.mc_mae;
  }
  [[nodiscard]] double worst_mc_mae() const {
    return cells.empty() ? 0.0 : cells[worst_cell].cert.mc_mae;
  }
};

/// Certify `program` across a grid of operating points: every probe power
/// is mapped through the program circuit's link budget (physical eye) to
/// its BER, then certified at every stream length. The common random
/// numbers (one seed for all cells) make adjacent cells directly
/// comparable.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] GridCertification certify_grid(
    const CompiledProgram& program,
    const std::function<double(double)>& reference,
    const GridCertificationOptions& options = {});

}  // namespace oscs::compile
