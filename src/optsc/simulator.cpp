#include "optsc/simulator.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "engine/packed_sim.hpp"

namespace oscs::optsc {

namespace sc = oscs::stochastic;

TransientSimulator::TransientSimulator(const OpticalScCircuit& circuit)
    : circuit_(&circuit) {
  // One link-budget pass defines the operating point (slicer threshold +
  // BER) for both inner loops; the packed kernel carries no noise model of
  // its own.
  design_point_ = design_operating_point(circuit);
  threshold_mw_ = design_point_.threshold_mw;
  if (circuit.order() <= engine::PackedKernel::kMaxOrder) {
    kernel_ = std::make_shared<const engine::PackedKernel>(circuit);
  }
}

SimulationResult TransientSimulator::run(const sc::BernsteinPoly& poly,
                                         double x,
                                         const SimulationConfig& config) const {
  const std::size_t n = circuit_->order();
  if (poly.degree() != n) {
    throw std::invalid_argument(
        "TransientSimulator: polynomial order does not match the circuit");
  }
  if (config.stream_length == 0) {
    throw std::invalid_argument("TransientSimulator: empty stream");
  }
  if (config.engine == SimEngine::kPacked && kernel_ != nullptr) {
    return run_packed(poly, x, config);
  }
  return run_per_bit(poly, x, config);
}

SimulationResult TransientSimulator::run_packed(
    const sc::BernsteinPoly& poly, double x,
    const SimulationConfig& config) const {
  engine::PackedRunConfig cfg;
  cfg.op = design_point_.with_stream_length(config.stream_length)
               .with_sng_width(config.stimulus.width);
  if (!config.noise_enabled) cfg.op = cfg.op.noiseless();
  cfg.source_kind = config.stimulus.kind;
  cfg.stimulus_seed = config.stimulus.seed;
  cfg.noise_seed = config.noise_seed;
  const engine::PackedRunResult packed = kernel_->run(poly, x, cfg);

  SimulationResult r;
  r.input_x = x;
  r.expected = poly(x);
  r.optical_estimate = packed.optical_estimate;
  r.electronic_estimate = packed.electronic_estimate;
  r.optical_abs_error = std::abs(r.optical_estimate - r.expected);
  r.electronic_abs_error = std::abs(r.electronic_estimate - r.expected);
  r.transmission_flips = packed.transmission_flips;
  r.threshold_mw = threshold_mw_;
  r.length = config.stream_length;
  return r;
}

SimulationResult TransientSimulator::run_per_bit(
    const sc::BernsteinPoly& poly, double x,
    const SimulationConfig& config) const {
  const std::size_t n = circuit_->order();
  // The packed loop's stimulus layout (v2 when its kernel is mux-exact),
  // so both engines read the same streams; past the LUT limit there is
  // no packed loop and the stimulus keeps one stream per coefficient.
  const sc::ScInputs inputs = sc::make_sc_inputs(
      x, poly.coeffs(), n, config.stream_length, config.stimulus,
      kernel_ != nullptr ? kernel_->stimulus_layout()
                         : sc::StimulusLayout::kPerCell);
  const sc::ReSCUnit electronic(poly);
  const sc::Bitstream electronic_out = electronic.output_stream(inputs);

  oscs::Xoshiro256 noise_rng(config.noise_seed);
  const double probe_mw = circuit_->params().lasers.probe_power_mw;

  std::vector<bool> z(n + 1, false);
  std::vector<bool> xbits(n, false);
  std::size_t ones = 0;
  std::size_t flips = 0;
  for (std::size_t t = 0; t < config.stream_length; ++t) {
    for (std::size_t i = 0; i < n; ++i) xbits[i] = inputs.x_streams[i].bit(t);
    for (std::size_t j = 0; j <= n; ++j) z[j] = inputs.z_streams[j].bit(t);

    const double received_mw =
        circuit_->received_power_mw(z, xbits, probe_mw);
    bool bit;
    if (config.noise_enabled) {
      bit = circuit_->detector().detect(received_mw, threshold_mw_, noise_rng);
    } else {
      bit = received_mw > threshold_mw_;
    }
    ones += bit ? 1 : 0;
    if (bit != electronic_out.bit(t)) ++flips;
  }

  SimulationResult r;
  r.input_x = x;
  r.expected = poly(x);
  r.optical_estimate = static_cast<double>(ones) /
                       static_cast<double>(config.stream_length);
  r.electronic_estimate = electronic_out.probability();
  r.optical_abs_error = std::abs(r.optical_estimate - r.expected);
  r.electronic_abs_error = std::abs(r.electronic_estimate - r.expected);
  r.transmission_flips = flips;
  r.threshold_mw = threshold_mw_;
  r.length = config.stream_length;
  return r;
}

double TransientSimulator::measure_transmission_ber(std::size_t trials,
                                                    std::uint64_t seed) const {
  if (trials == 0) {
    throw std::invalid_argument("measure_transmission_ber: trials == 0");
  }
  const std::size_t n = circuit_->order();
  const double probe_mw = circuit_->params().lasers.probe_power_mw;
  oscs::Xoshiro256 rng(seed);
  oscs::Xoshiro256 noise_rng(seed ^ 0x9E3779B97F4A7C15ULL);

  std::size_t errors = 0;
  std::vector<bool> z(n + 1, false);
  std::vector<bool> xbits(n, false);
  for (std::size_t t = 0; t < trials; ++t) {
    // Random data and coefficient bits: the intended output is the
    // coefficient selected by the number of ones among the data bits.
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      xbits[i] = rng.bernoulli(0.5);
      k += xbits[i] ? 1 : 0;
    }
    for (std::size_t j = 0; j <= n; ++j) z[j] = rng.bernoulli(0.5);

    const double received_mw = circuit_->received_power_mw(z, xbits, probe_mw);
    const bool bit =
        circuit_->detector().detect(received_mw, threshold_mw_, noise_rng);
    if (bit != z[k]) ++errors;
  }
  return static_cast<double>(errors) / static_cast<double>(trials);
}

}  // namespace oscs::optsc
