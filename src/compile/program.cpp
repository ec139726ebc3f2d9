#include "compile/program.hpp"

#include <stdexcept>
#include <utility>

#include "common/binio.hpp"

namespace oscs::compile {

std::uint64_t ProgramKey::digest() const noexcept {
  // Canonical byte encoding: arity salt first (programs of different arity
  // can never collide even when every other field coincides), then every
  // identity field fixed-width little-endian. The field order is part of
  // the on-disk cache-file contract.
  Fnv1a d;
  d.u64(arity);
  d.str(function_id);
  d.u64(degree);
  d.u64(degree_y);
  d.u64(width);
  d.u64(options_digest);
  return d.value();
}

std::size_t ProgramKeyHash::operator()(const ProgramKey& key) const noexcept {
  return static_cast<std::size_t>(key.digest());
}

namespace {

/// The circuit needs at least one data channel per input bank. Elevation
/// duplicates a degenerate axis's coefficients, value-preserving, so the
/// comparator grid is preserved exactly.
stochastic::SeparableProgram circuit_minimum(
    const stochastic::BernsteinPoly& poly) {
  return stochastic::SeparableProgram(poly.degree() == 0 ? poly.elevated()
                                                         : poly);
}

stochastic::SeparableProgram circuit_minimum(
    const stochastic::BernsteinPoly2& poly) {
  return stochastic::SeparableProgram(poly.elevated(
      poly.deg_x() == 0 ? 1 : 0, poly.deg_y() == 0 ? 1 : 0));
}

}  // namespace

void CompiledProgram::build_backend() {
  backend_ = engine::make_backend(engine::kernel_shape(program_), key_.width);
}

CompiledProgram::CompiledProgram(ProgramKey key, ProjectionResult projection,
                                 QuantizationResult quantization)
    : key_(std::move(key)),
      projection_(std::move(projection)),
      quantization_(std::move(quantization)),
      program_(circuit_minimum(quantization_.poly)) {
  build_backend();
}

CompiledProgram::CompiledProgram(ProgramKey key, ProjectionResult2 projection,
                                 QuantizationResult2 quantization)
    : key_(std::move(key)),
      projection2_(std::move(projection)),
      quantization2_(std::move(quantization)),
      program_(circuit_minimum(quantization2_->poly)) {
  build_backend();
}

CompiledProgram::CompiledProgram(
    ProgramKey key, ProjectionResultN projection,
    std::vector<QuantizationResult> factor_quantizations,
    stochastic::SeparableProgram quantized)
    : key_(std::move(key)),
      projection_nd_(std::move(projection)),
      factor_quantizations_(std::move(factor_quantizations)),
      program_(std::move(quantized)) {
  if (!is_nd()) {
    throw std::invalid_argument(
        "CompiledProgram: dense delegation forms compile through the "
        "uni/bivariate constructors");
  }
  // Every factor stream runs through one shared univariate circuit, so
  // all factor degrees must agree on its order.
  const std::size_t order = program_.factor_degree();
  for (const stochastic::SeparableTerm& term : program_.terms()) {
    for (const stochastic::SeparableFactor& factor : term.factors) {
      if (factor.poly.degree() != order) {
        throw std::invalid_argument(
            "CompiledProgram: separable factor degrees disagree");
      }
    }
  }
  if (order == 0) {
    throw std::invalid_argument(
        "CompiledProgram: factor degree outside the packed-kernel order "
        "range");
  }
  build_backend();
}

}  // namespace oscs::compile
