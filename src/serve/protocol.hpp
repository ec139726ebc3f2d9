#pragma once
/// \file protocol.hpp
/// \brief Wire schema of the compiled-program serving layer: JSON requests
///        in, JSON responses out, one document per line. The request names
///        one or more programs (registry function ids or raw Bernstein
///        coefficients), an evaluation grid, and optionally the link
///        conditions to run under; the response carries per-cell Monte-
///        Carlo estimates plus stage latencies. Everything round-trips
///        through common/json.hpp - the strict parser on the way in, the
///        compact writer on the way out.
///
/// Request:
///   {"op": "evaluate",                 // default; also "metrics",
///                                      // "metrics_prom", "health", "ping"
///    "id": "client-42",                // optional, echoed back
///    "trace": "abcd0123",              // optional client trace id; the
///                                      // server generates one otherwise
///                                      // and echoes it as "trace_id"
///    "programs": [{"function": "sigmoid"},
///                 {"function": "tanh", "degree": 4},
///                 {"coefficients": [0.1, 0.5, 0.9], "id": "ramp"}],
///    "xs": [0.25, 0.5, 0.75],
///    "ys": [0.5, 0.5, 0.75],           // bivariate only: pairs with "xs"
///    "inputs": [[...], [...], [...]],  // N-ary alternative to "xs"/"ys":
///                                      // one array per input axis, all
///                                      // pairing element-wise
///    "stream_lengths": [4096],         // default [4096]
///    "repeats": 8,                     // default 8
///    "seed": 1,                        // default 1
///    "sng_width": 16,                  // optional override, in [3, 16]
///    "operating_point": {...},         // optional explicit op, or
///    "probe_power_mw": 0.8}            // optional link-budget derivation
/// Single-program sugar: a top-level "function" or "coefficients" member
/// instead of "programs".
///
/// Bivariate (tensor-product ReSC) requests name two-input programs -
/// registry ids from the bivariate catalogue ("mul", "alpha_blend", ...)
/// or a nested coefficient grid ("coefficients": [[...], [...]]) - and
/// carry the second input coordinate as "ys" (an array pairing
/// element-wise with "xs") or the single-point sugar "y". A request
/// without "ys"/"y" takes the univariate path unchanged; arities cannot
/// mix within one request.
///
/// N-ary requests carry every input axis in "inputs" - an array of
/// per-axis coordinate arrays pairing element-wise (point k is column k
/// across the axes) - and name functions from the N-ary separable
/// catalogue ("rgb_luma", "trilinear_mix", ...). "inputs" excludes
/// "xs"/"ys"/"y"; it is the superset wire format - "xs" (plus "ys") is
/// its one- and two-axis spelling, and every request runs as input axes.
/// Cells of three or more axes echo their coordinates as "inputs":
/// [x0, x1, ...] instead of "x"/"y".
///
/// Response (success):
///   {"id": ..., "ok": true, "trace_id": ..., "fused": bool,
///    "programs": [ids...],
///    "op": {...}, "cells": [{"program", "x", "stream_length", "repeats",
///    "expected", "optical_mean", "optical_ci", "abs_error_mean",
///    "abs_error_ci", "flip_rate"}...], "optical_mae": ...,
///    "worst_cell_error": ..., "total_bits": ...,
///    "latency_us": {"parse", "resolve", "execute", "total"}}
/// Response (failure):
///   {"id": ..., "ok": false,
///    "error": {"status": 4xx/5xx, "reason": ..., "message": ...}}
///
/// Health ({"op": "health"}): the accuracy-SLO surface (serve/accuracy.hpp)
///   {"id": ..., "ok": true, "status": "ok"|"degraded"|"violating",
///    "shadow": {"fraction", "sampled", "unsampled"},
///    "drift_total": ...,
///    "observed": {"count", "mean", "p50", "p95", "p99", "max"},
///    "programs": [{"program", "arity", "state", "certified",
///    "certified_mae", "certified_ci", "budget", "ewma", "samples",
///    "drift_total"}...]}   // sorted by program id; "status" is the worst
///                          // per-program state (ok when nothing shadowed)

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/operating_point.hpp"

namespace oscs::serve {

/// Request-level failure carrying an HTTP-style status code and a short
/// machine-readable reason ("bad_request", "unknown_function", "busy",
/// "compile_budget", "internal").
class ServeError : public std::runtime_error {
 public:
  ServeError(int status, std::string reason, const std::string& message)
      : std::runtime_error(message), status_(status),
        reason_(std::move(reason)) {}

  [[nodiscard]] int status() const noexcept { return status_; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

 private:
  int status_;
  std::string reason_;
};

/// One program in a request: either a registry/compilable function id
/// (univariate or bivariate catalogue) or raw Bernstein coefficients that
/// bypass the compiler - a flat vector (univariate) or a nested
/// row-major grid (bivariate tensor-product surface).
struct ProgramSpec {
  std::string function_id;           ///< registry id; empty for raw specs
  std::vector<double> coefficients;  ///< raw univariate spec
  /// Raw bivariate spec: coefficient grid rows (c[i][j] multiplies
  /// B_i(x) B_j(y)); empty for univariate/function specs.
  std::vector<std::vector<double>> coefficients2;
  std::string raw_id;                ///< optional display id for raw specs
  std::optional<std::size_t> degree;  ///< degree-cap override (function;
                                      ///< per-axis cap for bivariate ids)

  [[nodiscard]] bool is_raw() const noexcept { return function_id.empty(); }
  [[nodiscard]] bool is_raw_bivariate() const noexcept {
    return !coefficients2.empty();
  }
  /// The id echoed into response cells.
  [[nodiscard]] std::string display_id() const;
};

enum class RequestOp : std::uint8_t {
  kEvaluate,
  kMetrics,      ///< JSON metrics document
  kMetricsProm,  ///< Prometheus text exposition (JSON envelope with "body")
  kHealth,       ///< accuracy SLO state per program (ok/degraded/violating)
  kPing,
};

/// A parsed, shape-validated request (semantic checks - registry lookup,
/// admission - happen in the server).
struct ServeRequest {
  RequestOp op = RequestOp::kEvaluate;
  std::string id;  ///< echoed into the response; may be empty
  /// Client-supplied trace id; empty lets the server generate one. The
  /// response carries the effective id as "trace_id" either way.
  std::string trace;
  std::vector<ProgramSpec> programs;
  std::vector<double> xs;
  /// Second input coordinate (bivariate requests): pairs element-wise
  /// with `xs`. Empty selects the univariate path.
  std::vector<double> ys;
  /// N-ary input axes ("inputs" wire member): inputs[k] carries axis k's
  /// coordinate for every evaluation point, all axes pairing element-wise.
  /// Mutually exclusive with `xs`/`ys`, which the server lifts into the
  /// same one- or two-axis form.
  std::vector<std::vector<double>> inputs;
  std::vector<std::size_t> stream_lengths{4096};
  std::size_t repeats = 8;
  std::uint64_t seed = 1;
  std::optional<unsigned> sng_width;
  /// Explicit operating point; a request carries at most one of it and
  /// probe_power_mw (evaluate_axes rejects both).
  std::optional<oscs::OperatingPoint> operating_point;
  /// Probe power to map through the execution circuit's link budget.
  std::optional<double> probe_power_mw;
};

/// Serving drives its SNGs from LFSRs, so a request's "sng_width", top
/// level or inside "operating_point", must lie in stochastic::kLfsrWidths
/// (the widths the lane loop runs; OperatingPoint itself admits [1, 62]
/// for the counter and low-discrepancy sources). parse_request and the
/// typed ProgramServer::handle both check it before any compile, cache
/// lookup or admission slot.
/// \throws ServeError(400, "bad_request") naming 'sng_width' otherwise.
void check_sng_width(std::uint64_t width);

/// Parse and shape-validate one request document.
/// \throws ServeError(400, "bad_request") on malformed JSON, unknown
///         members, wrong types or out-of-range scalar values.
[[nodiscard]] ServeRequest parse_request(const std::string& text);

/// One input axis of an evaluate request under its wire member name
/// ('xs', 'ys' or 'inputs[k]'); `values` points into the request.
struct NamedAxis {
  std::string name;
  const std::vector<double>* values = nullptr;
};

/// The evaluate shape rules every entry point shares - programs present,
/// "inputs" exclusive with "xs"/"ys", every axis nonempty and pairing
/// element-wise with the first, stream lengths present, repeats positive,
/// at most one of "operating_point"/"probe_power_mw" - then the request's
/// input axes: "inputs" as given, or "xs" (plus "ys") as the one- and
/// two-axis spelling. The axes borrow from `request`.
/// \throws ServeError(400, "bad_request") on the first rule broken.
[[nodiscard]] std::vector<NamedAxis> evaluate_axes(
    const ServeRequest& request);

/// One evaluation-grid cell of a response.
struct CellResult {
  std::string program;  ///< display id of the program this cell belongs to
  double x = 0.0;
  bool bivariate = false;  ///< cell carries a y coordinate
  double y = 0.0;          ///< second input coordinate (bivariate cells)
  /// Full input point of the cell; serialized as "inputs" (instead of
  /// "x"/"y") when it carries more than two coordinates.
  std::vector<double> point;
  std::size_t stream_length = 0;
  std::size_t repeats = 0;
  double expected = 0.0;      ///< double-precision reference value
  double optical_mean = 0.0;  ///< MC mean of the optical estimate
  double optical_ci = 0.0;    ///< 95% CI half-width of that mean
  double abs_error_mean = 0.0;
  double abs_error_ci = 0.0;
  double flip_rate = 0.0;  ///< transmission flips per bit
};

/// Stage latencies of one request [microseconds].
struct StageLatency {
  double parse_us = 0.0;
  double resolve_us = 0.0;  ///< program resolution incl. compiles
  double execute_us = 0.0;  ///< batch engine run
  double total_us = 0.0;
};

/// A successful evaluation outcome.
struct ServeResponse {
  std::string id;
  std::string trace_id;  ///< request-scoped trace id (see obs/trace.hpp)
  bool fused = false;  ///< multi-program request ran the fused kernel
  std::vector<std::string> programs;  ///< display ids, request order
  oscs::OperatingPoint op{};          ///< operating point the batch ran at
  std::vector<CellResult> cells;      ///< program-major, then x, then length
  double optical_mae = 0.0;
  double worst_cell_error = 0.0;
  std::size_t total_bits = 0;
  StageLatency latency{};
};

/// Serialize a success response as one compact JSON line (trailing '\n').
[[nodiscard]] std::string write_response(const ServeResponse& response);

/// Serialize a failure as one compact JSON line (trailing '\n').
/// `trace_id` is echoed when nonempty.
[[nodiscard]] std::string write_error(const std::string& request_id,
                                      int status, const std::string& reason,
                                      const std::string& message,
                                      const std::string& trace_id = "");

}  // namespace oscs::serve
