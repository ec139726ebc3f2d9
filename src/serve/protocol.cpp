#include "serve/protocol.hpp"

#include <utility>

#include "common/arity_guard.hpp"
#include "common/json.hpp"
#include "stochastic/lfsr.hpp"

namespace oscs::serve {

std::string ProgramSpec::display_id() const {
  if (!function_id.empty()) return function_id;
  if (!raw_id.empty()) return raw_id;
  if (!coefficients2.empty()) {
    return "coefficients[" + std::to_string(coefficients2.size()) + "x" +
           std::to_string(coefficients2.front().size()) + "]";
  }
  return "coefficients[" + std::to_string(coefficients.size()) + "]";
}

namespace {

[[noreturn]] void bad_request(const std::string& message) {
  throw ServeError(400, "bad_request", message);
}

/// Every shape accessor funnels through these so the 400 message names
/// the offending member.
double member_number(const JsonValue& v, const std::string& name) {
  if (!v.is_number()) bad_request("'" + name + "' must be a number");
  return v.as_number();
}

std::uint64_t member_uint(const JsonValue& v, const std::string& name) {
  if (!v.is_number()) bad_request("'" + name + "' must be an integer");
  try {
    return v.as_uint64();
  } catch (const std::invalid_argument&) {
    bad_request("'" + name + "' must be a non-negative integer");
  }
}

std::string member_string(const JsonValue& v, const std::string& name) {
  if (!v.is_string()) bad_request("'" + name + "' must be a string");
  return v.as_string();
}

/// "sng_width", range-checked before any narrowing cast: a silent wrap
/// would run the request at a width the client never asked for (and
/// poison the cache key).
unsigned member_sng_width(const JsonValue& v) {
  const std::uint64_t width = member_uint(v, "sng_width");
  check_sng_width(width);
  return static_cast<unsigned>(width);
}

std::vector<double> number_array(const JsonValue& v, const std::string& name) {
  if (!v.is_array()) bad_request("'" + name + "' must be an array of numbers");
  std::vector<double> out;
  out.reserve(v.items().size());
  for (const JsonValue& item : v.items()) {
    out.push_back(member_number(item, name));
  }
  return out;
}

/// "coefficients" accepts a flat number array (univariate) or a nested
/// row-major grid of equal-length nonempty rows (bivariate surface).
void parse_coefficients(const JsonValue& v, ProgramSpec& spec) {
  if (!v.is_array() || v.items().empty()) {
    bad_request("'coefficients' must be nonempty");
  }
  if (!v.items().front().is_array()) {
    spec.coefficients = number_array(v, "coefficients");
    return;
  }
  spec.coefficients2.reserve(v.items().size());
  for (const JsonValue& row : v.items()) {
    if (!row.is_array() || row.items().empty()) {
      bad_request("'coefficients' grid rows must be nonempty arrays");
    }
    spec.coefficients2.push_back(number_array(row, "coefficients"));
    if (spec.coefficients2.back().size() !=
        spec.coefficients2.front().size()) {
      bad_request("'coefficients' grid rows must have equal length");
    }
  }
}

ProgramSpec parse_program_spec(const JsonValue& v) {
  if (!v.is_object()) bad_request("'programs' entries must be objects");
  ProgramSpec spec;
  for (const auto& [key, value] : v.members()) {
    if (key == "function") {
      spec.function_id = member_string(value, "function");
      if (spec.function_id.empty()) bad_request("'function' must be nonempty");
    } else if (key == "coefficients") {
      parse_coefficients(value, spec);
    } else if (key == "degree") {
      spec.degree = static_cast<std::size_t>(member_uint(value, "degree"));
    } else if (key == "id") {
      spec.raw_id = member_string(value, "id");
    } else {
      bad_request("unknown program member '" + key + "'");
    }
  }
  const bool has_fn = !spec.function_id.empty();
  const bool has_raw =
      !spec.coefficients.empty() || !spec.coefficients2.empty();
  if (has_fn == has_raw) {
    bad_request("each program needs exactly one of 'function'/'coefficients'");
  }
  if (has_raw && spec.degree.has_value()) {
    bad_request("'degree' only applies to 'function' programs");
  }
  return spec;
}

oscs::OperatingPoint parse_operating_point(const JsonValue& v) {
  if (!v.is_object()) bad_request("'operating_point' must be an object");
  oscs::OperatingPoint op;
  for (const auto& [key, value] : v.members()) {
    if (key == "probe_power_mw") {
      op.probe_power_mw = member_number(value, "probe_power_mw");
    } else if (key == "ber") {
      op.ber = member_number(value, "ber");
    } else if (key == "snr") {
      op.snr = member_number(value, "snr");
    } else if (key == "threshold_mw") {
      op.threshold_mw = member_number(value, "threshold_mw");
    } else if (key == "stream_length") {
      op.stream_length =
          static_cast<std::size_t>(member_uint(value, "stream_length"));
    } else if (key == "sng_width") {
      op.sng_width = member_sng_width(value);
    } else {
      bad_request("unknown operating_point member '" + key + "'");
    }
  }
  return op;
}

}  // namespace

void check_sng_width(std::uint64_t width) {
  if (!stochastic::kLfsrWidths.contains(width)) {
    bad_request("'sng_width' must lie in [" +
                std::to_string(stochastic::kLfsrWidths.min) + ", " +
                std::to_string(stochastic::kLfsrWidths.max) + "]");
  }
}

ServeRequest parse_request(const std::string& text) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const std::invalid_argument& e) {
    bad_request(e.what());
  }
  if (!doc.is_object()) bad_request("request must be a JSON object");

  ServeRequest req;
  // Single-program sugar collected here, merged after the loop.
  ProgramSpec sugar;
  bool has_sugar_fn = false;
  bool has_sugar_raw = false;
  // Single-point "y" sugar, merged with "ys" after the loop.
  std::optional<double> y_sugar;
  bool has_ys = false;

  for (const auto& [key, value] : doc.members()) {
    if (key == "op") {
      const std::string op = member_string(value, "op");
      if (op == "evaluate") {
        req.op = RequestOp::kEvaluate;
      } else if (op == "metrics") {
        req.op = RequestOp::kMetrics;
      } else if (op == "metrics_prom") {
        req.op = RequestOp::kMetricsProm;
      } else if (op == "health") {
        req.op = RequestOp::kHealth;
      } else if (op == "ping") {
        req.op = RequestOp::kPing;
      } else {
        bad_request("unknown op '" + op + "'");
      }
    } else if (key == "id") {
      req.id = member_string(value, "id");
    } else if (key == "trace") {
      req.trace = member_string(value, "trace");
    } else if (key == "programs") {
      if (!value.is_array()) bad_request("'programs' must be an array");
      for (const JsonValue& entry : value.items()) {
        req.programs.push_back(parse_program_spec(entry));
      }
    } else if (key == "function") {
      sugar.function_id = member_string(value, "function");
      if (sugar.function_id.empty()) bad_request("'function' must be nonempty");
      has_sugar_fn = true;
    } else if (key == "coefficients") {
      parse_coefficients(value, sugar);
      has_sugar_raw = true;
    } else if (key == "degree") {
      sugar.degree = static_cast<std::size_t>(member_uint(value, "degree"));
    } else if (key == "xs") {
      req.xs = number_array(value, "xs");
    } else if (key == "ys") {
      req.ys = number_array(value, "ys");
      has_ys = true;
    } else if (key == "y") {
      y_sugar = member_number(value, "y");
    } else if (key == "inputs") {
      if (!value.is_array() || value.items().empty()) {
        bad_request("'inputs' must be a nonempty array of per-axis arrays");
      }
      req.inputs.reserve(value.items().size());
      for (const JsonValue& axis : value.items()) {
        req.inputs.push_back(number_array(axis, "inputs"));
      }
    } else if (key == "stream_lengths") {
      if (!value.is_array()) bad_request("'stream_lengths' must be an array");
      req.stream_lengths.clear();
      for (const JsonValue& item : value.items()) {
        req.stream_lengths.push_back(
            static_cast<std::size_t>(member_uint(item, "stream_lengths")));
      }
    } else if (key == "repeats") {
      req.repeats = static_cast<std::size_t>(member_uint(value, "repeats"));
    } else if (key == "seed") {
      req.seed = member_uint(value, "seed");
    } else if (key == "sng_width") {
      req.sng_width = member_sng_width(value);
    } else if (key == "operating_point") {
      req.operating_point = parse_operating_point(value);
    } else if (key == "probe_power_mw") {
      req.probe_power_mw = member_number(value, "probe_power_mw");
    } else {
      bad_request("unknown request member '" + key + "'");
    }
  }

  if (has_sugar_fn || has_sugar_raw) {
    if (!req.programs.empty()) {
      bad_request("'programs' excludes top-level 'function'/'coefficients'");
    }
    if (has_sugar_fn && has_sugar_raw) {
      bad_request("request needs exactly one of 'function'/'coefficients'");
    }
    if (has_sugar_raw && sugar.degree.has_value()) {
      // Same contract as the 'programs' form - never silently ignored.
      bad_request("'degree' only applies to 'function' programs");
    }
    req.programs.push_back(std::move(sugar));
  } else if (sugar.degree.has_value()) {
    bad_request("'degree' needs a top-level 'function'");
  }

  // Shared arity-guard rules render the wire-style strings; an empty
  // result means the rule holds.
  const auto raise = [](const std::string& message) {
    if (!message.empty()) bad_request(message);
  };

  if (y_sugar.has_value()) {
    raise(arity::both_error(arity::kWireStyle, "y", "ys", true, has_ys));
    // The single-point sugar broadcasts over every x (mirroring how one
    // "y" naturally reads against an "xs" array).
    req.ys.assign(req.xs.empty() ? 1 : req.xs.size(), *y_sugar);
  }

  if (req.op == RequestOp::kEvaluate) (void)evaluate_axes(req);
  return req;
}

std::vector<NamedAxis> evaluate_axes(const ServeRequest& request) {
  // Shared arity-guard rules render the wire-style strings; an empty
  // result means the rule holds.
  const auto raise = [](const std::string& message) {
    if (!message.empty()) bad_request(message);
  };
  if (request.programs.empty()) {
    bad_request("evaluate request names no programs");
  }
  std::vector<NamedAxis> axes;
  if (!request.inputs.empty()) {
    // The N-ary axes member carries every coordinate; mixing it with the
    // legacy members would leave the point pairing ambiguous.
    raise(arity::both_error(arity::kWireStyle, "inputs", "xs", true,
                            !request.xs.empty()));
    raise(arity::both_error(arity::kWireStyle, "inputs", "ys", true,
                            !request.ys.empty()));
    for (std::size_t axis = 0; axis < request.inputs.size(); ++axis) {
      axes.push_back({"inputs[" + std::to_string(axis) + "]",
                      &request.inputs[axis]});
    }
  } else {
    axes.push_back({"xs", &request.xs});
    if (!request.ys.empty()) axes.push_back({"ys", &request.ys});
  }
  for (const NamedAxis& axis : axes) {
    raise(arity::nonempty_error(arity::kWireStyle, axis.name,
                                axis.values->size()));
    raise(arity::pairwise_error(arity::kWireStyle, axes.front().name,
                                axes.front().values->size(), axis.name,
                                axis.values->size()));
  }
  if (request.stream_lengths.empty()) {
    bad_request("'stream_lengths' must be nonempty");
  }
  if (request.repeats == 0) bad_request("'repeats' must be positive");
  raise(arity::both_error(arity::kWireStyle, "operating_point",
                          "probe_power_mw", request.operating_point.has_value(),
                          request.probe_power_mw.has_value()));
  return axes;
}

std::string write_response(const ServeResponse& response) {
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!response.id.empty()) json.field("id", response.id);
  json.field("ok", true);
  if (!response.trace_id.empty()) json.field("trace_id", response.trace_id);
  json.field("fused", response.fused);
  json.key("programs").begin_array();
  for (const std::string& id : response.programs) json.value(id);
  json.end_array();
  json.key("op");
  operating_point_json(json, response.op);
  json.key("cells").begin_array();
  for (const CellResult& cell : response.cells) {
    json.begin_object().field("program", cell.program);
    if (cell.point.size() > 2) {
      // N-ary cells echo the whole input point; "x"/"y" stay the legacy
      // one- and two-axis spellings.
      json.key("inputs").begin_array();
      for (double coordinate : cell.point) json.value(coordinate);
      json.end_array();
    } else {
      json.field("x", cell.x);
      if (cell.bivariate) json.field("y", cell.y);
    }
    json.field("stream_length", cell.stream_length)
        .field("repeats", cell.repeats)
        .field("expected", cell.expected)
        .field("optical_mean", cell.optical_mean)
        .field("optical_ci", cell.optical_ci)
        .field("abs_error_mean", cell.abs_error_mean)
        .field("abs_error_ci", cell.abs_error_ci)
        .field("flip_rate", cell.flip_rate)
        .end_object();
  }
  json.end_array();
  json.field("optical_mae", response.optical_mae)
      .field("worst_cell_error", response.worst_cell_error)
      .field("total_bits", response.total_bits);
  json.key("latency_us")
      .begin_object()
      .field("parse", response.latency.parse_us)
      .field("resolve", response.latency.resolve_us)
      .field("execute", response.latency.execute_us)
      .field("total", response.latency.total_us)
      .end_object();
  json.end_object();
  return json.str();
}

std::string write_error(const std::string& request_id, int status,
                        const std::string& reason,
                        const std::string& message,
                        const std::string& trace_id) {
  JsonWriter json(/*pretty=*/false);
  json.begin_object();
  if (!request_id.empty()) json.field("id", request_id);
  json.field("ok", false);
  if (!trace_id.empty()) json.field("trace_id", trace_id);
  json
      .key("error")
      .begin_object()
      .field("status", status)
      .field("reason", reason)
      .field("message", message)
      .end_object()
      .end_object();
  return json.str();
}

}  // namespace oscs::serve
