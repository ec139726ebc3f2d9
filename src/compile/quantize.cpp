#include "compile/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oscs::compile {

namespace sc = oscs::stochastic;

QuantizationResult quantize(const sc::BernsteinPoly& poly, unsigned width) {
  if (width == 0 || width > 62) {
    throw std::invalid_argument("quantize: SNG width must be in [1, 62]");
  }
  if (!poly.is_sc_compatible()) {
    throw std::invalid_argument(
        "quantize: coefficients must lie in [0, 1] (run projection first)");
  }
  const double scale = std::ldexp(1.0, static_cast<int>(width));
  QuantizationResult result;
  result.width = width;
  std::vector<double> values;
  values.reserve(poly.coeffs().size());
  result.levels.reserve(poly.coeffs().size());
  for (double b : poly.coeffs()) {
    // Same rounding as Sng::threshold_for, so the quantized coefficient is
    // exactly the probability the comparator realizes over a full period.
    const auto level = static_cast<std::uint64_t>(std::llround(b * scale));
    result.levels.push_back(level);
    const double q = static_cast<double>(level) / scale;
    values.push_back(q);
    result.max_coeff_delta = std::max(result.max_coeff_delta, std::abs(q - b));
  }
  result.poly = sc::BernsteinPoly(std::move(values));
  result.induced_error_bound = result.max_coeff_delta;
  return result;
}

QuantizationResult2 quantize2(const sc::BernsteinPoly2& poly,
                              unsigned width) {
  // A grid quantizes coefficient-wise, exactly like a flat vector.
  QuantizationResult flat = quantize(sc::BernsteinPoly(poly.coeffs()), width);
  QuantizationResult2 result;
  result.poly = sc::BernsteinPoly2(poly.deg_x(), poly.deg_y(),
                                   flat.poly.coeffs());
  result.levels = std::move(flat.levels);
  result.width = flat.width;
  result.max_coeff_delta = flat.max_coeff_delta;
  result.induced_error_bound = flat.induced_error_bound;
  return result;
}

}  // namespace oscs::compile
