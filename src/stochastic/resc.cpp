#include "stochastic/resc.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "stochastic/bernstein.hpp"
#include "stochastic/wordops.hpp"

namespace oscs::stochastic {

std::size_t ScInputs::select(std::size_t t) const {
  std::size_t k = 0;
  for (const auto& xs : x_streams) k += xs.bit(t) ? 1 : 0;
  return k;
}

ScInputs make_sc_inputs(double x, const std::vector<double>& coeffs,
                        std::size_t order, std::size_t length,
                        const ScInputConfig& config, StimulusLayout layout) {
  FusedScInputs2 fused = make_fused_sc_inputs2(x, 0.0, {coeffs}, order, 0,
                                               length, config, layout);
  return ScInputs{std::move(fused.x_streams),
                  std::move(fused.z_streams.front())};
}

std::size_t ScInputs2::select_x(std::size_t t) const {
  std::size_t k = 0;
  for (const auto& xs : x_streams) k += xs.bit(t) ? 1 : 0;
  return k;
}

std::size_t ScInputs2::select_y(std::size_t t) const {
  std::size_t k = 0;
  for (const auto& ys : y_streams) k += ys.bit(t) ? 1 : 0;
  return k;
}

ScInputs2 make_sc_inputs2(double x, double y,
                          const std::vector<double>& coeffs,
                          std::size_t order_x, std::size_t order_y,
                          std::size_t length, const ScInputConfig& config,
                          StimulusLayout layout) {
  FusedScInputs2 fused = make_fused_sc_inputs2(x, y, {coeffs}, order_x,
                                               order_y, length, config, layout);
  return ScInputs2{std::move(fused.x_streams), std::move(fused.y_streams),
                   std::move(fused.z_streams.front())};
}

ScInputs2 FusedScInputs2::program(std::size_t k) const {
  if (k >= z_streams.size()) {
    throw std::out_of_range("FusedScInputs2::program: index out of range");
  }
  return ScInputs2{x_streams, y_streams, z_streams[k]};
}

void fill_fused_stimulus(double x, double y,
                         std::span<const double* const> coeff_sets,
                         std::size_t order_x, std::size_t order_y,
                         std::size_t length, const ScInputConfig& config,
                         StimulusLayout layout, std::uint64_t* const* rows) {
  std::size_t stream = 0;
  const auto fill = [&](double p) {
    fill_stream(config.kind, config.width,
                detail::stimulus_salt(config, stream++), p, length, *rows++);
  };
  for (std::size_t i = 0; i < order_x; ++i) fill(x);
  for (std::size_t j = 0; j < order_y; ++j) fill(y);
  const std::size_t cells = (order_x + 1) * (order_y + 1);
  for (const double* coeffs : coeff_sets) {
    if (layout == StimulusLayout::kPerCell) {
      for (std::size_t c = 0; c < cells; ++c) fill(coeffs[c]);
      continue;
    }
    fill_set_streams(config.kind, config.width,
                     detail::stimulus_salt(config, stream++), {coeffs, cells},
                     length, rows);
    rows += cells;
  }
}

namespace detail {

LfsrStart v2_walk_start(const LfsrCycle& cycle, const ScInputConfig& config,
                        std::size_t banks, std::size_t i) {
  return lfsr_start(cycle, stimulus_salt(config, i),
                    i < banks ? LfsrWalk::kClock : LfsrWalk::kLeap);
}

}  // namespace detail

FusedScInputs2 make_fused_sc_inputs2(
    double x, double y, const std::vector<std::vector<double>>& coeffs,
    std::size_t order_x, std::size_t order_y, std::size_t length,
    const ScInputConfig& config, StimulusLayout layout) {
  if (coeffs.empty()) {
    throw std::invalid_argument("SC stimulus: no programs");
  }
  const std::size_t cells = (order_x + 1) * (order_y + 1);
  std::vector<const double*> coeff_sets;
  coeff_sets.reserve(coeffs.size());
  for (const std::vector<double>& c : coeffs) {
    if (c.size() != cells) {
      throw std::invalid_argument(
          "SC stimulus: need (order_x+1)*(order_y+1) coefficients per "
          "program, got " +
          std::to_string(c.size()));
    }
    coeff_sets.push_back(c.data());
  }
  const std::size_t nwords = (length + 63) / 64;
  std::vector<std::vector<std::uint64_t>> words(
      order_x + order_y + coeffs.size() * cells,
      std::vector<std::uint64_t>(nwords));
  std::vector<std::uint64_t*> rows;
  rows.reserve(words.size());
  for (std::vector<std::uint64_t>& row : words) rows.push_back(row.data());
  fill_fused_stimulus(x, y, coeff_sets, order_x, order_y, length, config,
                      layout, rows.data());

  auto next = words.begin();
  const auto take = [&next, length] {
    return Bitstream::from_words(std::move(*next++), length);
  };
  FusedScInputs2 inputs;
  inputs.x_streams.reserve(order_x);
  inputs.y_streams.reserve(order_y);
  inputs.z_streams.resize(coeffs.size());
  for (std::size_t i = 0; i < order_x; ++i) inputs.x_streams.push_back(take());
  for (std::size_t j = 0; j < order_y; ++j) inputs.y_streams.push_back(take());
  for (std::vector<Bitstream>& grid : inputs.z_streams) {
    grid.reserve(cells);
    for (std::size_t c = 0; c < cells; ++c) grid.push_back(take());
  }
  return inputs;
}

ReSCUnit::ReSCUnit(BernsteinPoly poly) : poly_(std::move(poly)) {
  if (!poly_.is_sc_compatible(1e-9)) {
    throw std::invalid_argument(
        "ReSCUnit: Bernstein coefficients must lie in [0, 1] for a "
        "stochastic implementation");
  }
}

Bitstream ReSCUnit::output_stream(const ScInputs& inputs) const {
  if (inputs.order() != order()) {
    throw std::invalid_argument("ReSCUnit: stimulus order mismatch");
  }
  if (inputs.z_streams.size() != order() + 1) {
    throw std::invalid_argument("ReSCUnit: coefficient stream count mismatch");
  }
  const std::size_t n = order();
  const std::size_t n_cycles = inputs.length();
  for (const Bitstream& s : inputs.x_streams) {
    if (s.size() != n_cycles) {
      throw std::invalid_argument("ReSCUnit: ragged x streams");
    }
  }
  for (const Bitstream& s : inputs.z_streams) {
    if (s.size() != n_cycles) {
      throw std::invalid_argument("ReSCUnit: ragged z streams");
    }
  }
  // Word-parallel adder + MUX: a carry-save accumulation over the packed x
  // words leaves bit j of the per-lane ones count in plane j; bitwise
  // equality against each k then selects 64 coefficient bits at a time.
  const std::size_t planes_needed =
      static_cast<std::size_t>(std::bit_width(n));
  std::vector<std::uint64_t> planes(planes_needed, 0);
  const std::size_t n_words = (n_cycles + 63) / 64;
  std::vector<std::uint64_t> out_words(n_words, 0);
  for (std::size_t w = 0; w < n_words; ++w) {
    std::fill(planes.begin(), planes.end(), 0);
    accumulate_count_planes(inputs.x_streams, w, planes.data(), planes_needed);
    std::uint64_t out = 0;
    for (std::size_t k = 0; k <= n; ++k) {
      out |= count_equals_mask(planes.data(), planes_needed, k) &
             inputs.z_streams[k].word(w);
    }
    out_words[w] = out;
  }
  return Bitstream::from_words(std::move(out_words), n_cycles);
}

double ReSCUnit::evaluate(const ScInputs& inputs) const {
  return output_stream(inputs).probability();
}

double ReSCUnit::evaluate(double x, std::size_t length,
                          const ScInputConfig& config) const {
  const ScInputs inputs =
      make_sc_inputs(x, poly_.coeffs(), order(), length, config);
  return evaluate(inputs);
}

double ReSCUnit::exact_expectation(double x) const {
  const std::size_t n = order();
  double s = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    s += poly_.coeffs()[k] * bernstein_basis(k, n, x);
  }
  return s;
}

ReSC2Unit::ReSC2Unit(BernsteinPoly2 poly) : poly_(std::move(poly)) {
  if (!poly_.is_sc_compatible(1e-9)) {
    throw std::invalid_argument(
        "ReSC2Unit: Bernstein coefficients must lie in [0, 1] for a "
        "stochastic implementation");
  }
}

Bitstream ReSC2Unit::output_stream(const ScInputs2& inputs) const {
  const std::size_t n = order_x();
  const std::size_t m = order_y();
  if (inputs.order_x() != n || inputs.order_y() != m) {
    throw std::invalid_argument("ReSC2Unit: stimulus order mismatch");
  }
  if (inputs.z_streams.size() != (n + 1) * (m + 1)) {
    throw std::invalid_argument(
        "ReSC2Unit: coefficient stream count mismatch");
  }
  const std::size_t n_cycles = inputs.length();
  for (const Bitstream& s : inputs.x_streams) {
    if (s.size() != n_cycles) {
      throw std::invalid_argument("ReSC2Unit: ragged x streams");
    }
  }
  for (const Bitstream& s : inputs.y_streams) {
    if (s.size() != n_cycles) {
      throw std::invalid_argument("ReSC2Unit: ragged y streams");
    }
  }
  for (const Bitstream& s : inputs.z_streams) {
    if (s.size() != n_cycles) {
      throw std::invalid_argument("ReSC2Unit: ragged z streams");
    }
  }
  // Two word-parallel adders (one carry-save bit-plane accumulation per
  // input bank), then the 2D MUX: the (i, j) select mask is the AND of
  // the per-axis equality masks and routes 64 coefficient bits at a time.
  const std::size_t planes_x = static_cast<std::size_t>(std::bit_width(n));
  const std::size_t planes_y = static_cast<std::size_t>(std::bit_width(m));
  std::vector<std::uint64_t> px(planes_x, 0);
  std::vector<std::uint64_t> py(planes_y, 0);
  std::vector<std::uint64_t> sel_y(m + 1, 0);
  const std::size_t n_words = (n_cycles + 63) / 64;
  std::vector<std::uint64_t> out_words(n_words, 0);
  for (std::size_t w = 0; w < n_words; ++w) {
    std::fill(px.begin(), px.end(), 0);
    std::fill(py.begin(), py.end(), 0);
    accumulate_count_planes(inputs.x_streams, w, px.data(), planes_x);
    accumulate_count_planes(inputs.y_streams, w, py.data(), planes_y);
    for (std::size_t j = 0; j <= m; ++j) {
      sel_y[j] = count_equals_mask(py.data(), planes_y, j);
    }
    std::uint64_t out = 0;
    for (std::size_t i = 0; i <= n; ++i) {
      const std::uint64_t sx = count_equals_mask(px.data(), planes_x, i);
      if (sx == 0) continue;
      for (std::size_t j = 0; j <= m; ++j) {
        const std::uint64_t sel = sx & sel_y[j];
        if (sel == 0) continue;
        out |= sel & inputs.z_streams[i * (m + 1) + j].word(w);
      }
    }
    out_words[w] = out;
  }
  return Bitstream::from_words(std::move(out_words), n_cycles);
}

double ReSC2Unit::evaluate(const ScInputs2& inputs) const {
  return output_stream(inputs).probability();
}

double ReSC2Unit::evaluate(double x, double y, std::size_t length,
                           const ScInputConfig& config) const {
  const ScInputs2 inputs = make_sc_inputs2(x, y, poly_.coeffs(), order_x(),
                                           order_y(), length, config);
  return evaluate(inputs);
}

double ReSC2Unit::exact_expectation(double x, double y) const {
  const std::size_t n = order_x();
  const std::size_t m = order_y();
  double s = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = 0; j <= m; ++j) {
      s += poly_.coeff(i, j) * bernstein_basis2(i, j, n, m, x, y);
    }
  }
  return s;
}

}  // namespace oscs::stochastic
