#include "stochastic/sng.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>

#include "common/math.hpp"
#include "stochastic/sng_fill.hpp"

namespace oscs::stochastic {

namespace {

/// Register seed and odd scramble multiplier an LFSR source's salt
/// expands to (SplitMix64), shared by make_source and fill_stream.
struct LfsrSeed {
  std::uint32_t seed;
  std::uint64_t scramble;
};

LfsrSeed lfsr_seed(std::uint64_t salt) {
  oscs::SplitMix64 sm(salt);
  const auto seed = static_cast<std::uint32_t>(sm.next());
  const std::uint64_t scramble = sm.next() | 1ULL;
  return {seed == 0 ? 1u : seed, scramble};
}

/// Cycle phase of the first value an LFSR at register `state` emits:
/// next() emits the state AFTER each clock, so one phase past the state.
std::size_t first_phase(const detail::LfsrCycle& cycle,
                        std::uint32_t state) noexcept {
  const std::size_t phase = cycle.phase[state] + std::size_t{1};
  return phase == cycle.period() ? 0 : phase;
}

}  // namespace

std::uint64_t comparator_threshold(double p, unsigned width) noexcept {
  // Scaling by a power of two is exact, so the fraction left after
  // truncation is exact as well and one compare rounds it (llround's
  // rule) - no libm call.
  const double clamped = oscs::clamp01(p);
  if (!(clamped >= 0.0)) return 0;
  const double scaled =
      clamped * std::bit_cast<double>(std::uint64_t{1023u + width} << 52);
  const auto whole = static_cast<std::uint64_t>(scaled);
  return whole + (scaled - static_cast<double>(whole) >= 0.5 ? 1u : 0u);
}

namespace detail {

LfsrStart lfsr_start(const LfsrCycle& cycle, std::uint64_t salt,
                     LfsrWalk walk) {
  const LfsrSeed s = lfsr_seed(salt);
  // The state Lfsr(cycle.width, s.seed) starts in: the seed's low bits,
  // the all-zero fixed point moved to 1.
  const auto state =
      static_cast<std::uint32_t>(s.seed & cycle.period());
  const std::size_t phase = first_phase(cycle, state == 0 ? 1 : state);
  return {walk == LfsrWalk::kClock ? phase : cycle.leap_index(phase),
          s.scramble};
}

}  // namespace detail

bool RandomSource::fill_comparator_words(std::uint64_t /*threshold*/,
                                         std::size_t /*length*/,
                                         std::uint64_t* /*words*/) {
  return false;  // no bulk path; the caller runs the per-bit loop
}

LfsrSource::LfsrSource(unsigned width, std::uint32_t seed,
                       std::uint64_t scramble)
    : lfsr_(width, seed),  // validates the width
      scramble_(scramble | 1ULL),  // must be odd to stay bijective
      mask_((std::uint64_t{1} << width) - 1) {}

unsigned LfsrSource::width() const noexcept { return lfsr_.width(); }

std::uint64_t LfsrSource::next() {
  return (static_cast<std::uint64_t>(lfsr_.step()) * scramble_) & mask_;
}

bool LfsrSource::fill_comparator_words(std::uint64_t threshold,
                                       std::size_t length,
                                       std::uint64_t* words) {
  if (length == 0) return true;
  const detail::LfsrCycle& cycle = detail::lfsr_cycle(lfsr_.width());
  const std::size_t phase0 = first_phase(cycle, lfsr_.state());
  detail::fill_lfsr_words(cycle, phase0, scramble_, mask_, threshold, length,
                          words);
  lfsr_.set_state(cycle.state((phase0 + length - 1) % cycle.period()));
  return true;
}

CounterSource::CounterSource(unsigned width, std::uint64_t start)
    : width_(width), state_(start) {
  if (width == 0 || width > 63) {
    throw std::invalid_argument("CounterSource: width must be 1..63");
  }
}

unsigned CounterSource::width() const noexcept { return width_; }

std::uint64_t CounterSource::next() {
  const std::uint64_t v = state_ & ((1ULL << width_) - 1ULL);
  ++state_;
  return v;
}

bool CounterSource::fill_comparator_words(std::uint64_t threshold,
                                          std::size_t length,
                                          std::uint64_t* words) {
  detail::fill_counter_words(state_, (1ULL << width_) - 1ULL, threshold,
                             length, words);
  state_ += length;
  return true;
}

VanDerCorputSource::VanDerCorputSource(unsigned width, std::uint64_t start)
    : width_(width), state_(start) {
  if (width == 0 || width > 63) {
    throw std::invalid_argument("VanDerCorputSource: width must be 1..63");
  }
}

unsigned VanDerCorputSource::width() const noexcept { return width_; }

std::uint64_t VanDerCorputSource::next() {
  std::uint64_t v = state_ & ((1ULL << width_) - 1ULL);
  ++state_;
  // Reverse the low `width_` bits.
  std::uint64_t r = 0;
  for (unsigned i = 0; i < width_; ++i) {
    r = (r << 1) | (v & 1ULL);
    v >>= 1;
  }
  return r;
}

ChaoticLaserSource::ChaoticLaserSource(unsigned width, std::uint64_t seed)
    : width_(width), rng_(seed) {
  if (width == 0 || width > 63) {
    throw std::invalid_argument("ChaoticLaserSource: width must be 1..63");
  }
}

unsigned ChaoticLaserSource::width() const noexcept { return width_; }

std::uint64_t ChaoticLaserSource::next() { return rng_() >> (64 - width_); }

Sng::Sng(std::unique_ptr<RandomSource> source) : source_(std::move(source)) {
  if (!source_) {
    throw std::invalid_argument("Sng: null randomness source");
  }
}

std::uint64_t Sng::threshold_for(double p) const noexcept {
  return comparator_threshold(p, source_->width());
}

bool Sng::next_bit(double p) { return source_->next() < threshold_for(p); }

Bitstream Sng::generate(double p, std::size_t length) {
  const std::uint64_t threshold = threshold_for(p);
  std::vector<std::uint64_t> words((length + 63) / 64, 0);
  // Sources with a word-parallel path fill whole packed words per call
  // (bit-identical to the reference loop below, by contract and by the
  // equivalence suite); the rest take one virtual next() per bit.
  if (source_->fill_comparator_words(threshold, length, words.data())) {
    return Bitstream::from_words(std::move(words), length);
  }
  return generate_reference(p, length);
}

Bitstream Sng::generate_reference(double p, std::size_t length) {
  const std::uint64_t threshold = threshold_for(p);
  // Pack comparator decisions 64 at a time into whole words: the batch
  // engine consumes streams word-wise, and building words locally avoids a
  // bounds-checked set_bit per bit.
  std::vector<std::uint64_t> words((length + 63) / 64, 0);
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < length; ++i) {
    w |= static_cast<std::uint64_t>(source_->next() < threshold) << (i % 64);
    if ((i + 1) % 64 == 0) {
      words[i / 64] = w;
      w = 0;
    }
  }
  if (length % 64 != 0) words[length / 64] = w;
  return Bitstream::from_words(std::move(words), length);
}

std::unique_ptr<RandomSource> make_source(SourceKind kind, unsigned width,
                                          std::uint64_t salt) {
  switch (kind) {
    case SourceKind::kLfsr: {
      const LfsrSeed s = lfsr_seed(salt);
      return std::make_unique<LfsrSource>(width, s.seed, s.scramble);
    }
    case SourceKind::kCounter:
      return std::make_unique<CounterSource>(width,
                                             salt * 0x9E3779B97F4A7C15ULL);
    case SourceKind::kVanDerCorput:
      return std::make_unique<VanDerCorputSource>(width, salt * 2654435761ULL);
    case SourceKind::kChaoticLaser:
      return std::make_unique<ChaoticLaserSource>(width, salt + 1);
  }
  throw std::logic_error("make_source: unknown kind");
}

void fill_stream(SourceKind kind, unsigned width, std::uint64_t salt,
                 double p, std::size_t length, std::uint64_t* words) {
  if (kind == SourceKind::kLfsr) {
    // The table walk LfsrSource::fill_comparator_words makes, started
    // straight from the seeded register state; nothing is left to reseat.
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const detail::LfsrStart start = detail::lfsr_start(cycle, salt);
    detail::fill_lfsr_words(cycle, start.index, start.scramble,
                            (std::uint64_t{1} << width) - 1,
                            comparator_threshold(p, width), length, words);
    return;
  }
  const Bitstream stream =
      Sng(make_source(kind, width, salt)).generate(p, length);
  std::copy_n(stream.words_data(), stream.word_count(), words);
}

void fill_set_streams(SourceKind kind, unsigned width, std::uint64_t salt,
                      std::span<const double> coeffs, std::size_t length,
                      std::uint64_t* const* rows) {
  if (kind == SourceKind::kLfsr) {
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const detail::LfsrStart start =
        detail::lfsr_start(cycle, salt, detail::LfsrWalk::kLeap);
    for (std::size_t c = 0; c < coeffs.size(); ++c) {
      detail::fill_lfsr_words(cycle, start.index, start.scramble,
                              (std::uint64_t{1} << width) - 1,
                              comparator_threshold(coeffs[c], width), length,
                              rows[c], detail::LfsrWalk::kLeap);
    }
    return;
  }
  // Every other source draws the set's comparator sequence once, 64
  // values at a time; each cell then compares them against its own
  // threshold.
  const std::unique_ptr<RandomSource> source = make_source(kind, width, salt);
  std::uint64_t block[64];
  for (std::size_t w = 0, t = 0; t < length; ++w, t += 64) {
    const std::size_t bits = std::min<std::size_t>(64, length - t);
    for (std::size_t b = 0; b < bits; ++b) block[b] = source->next();
    for (std::size_t c = 0; c < coeffs.size(); ++c) {
      const std::uint64_t threshold = comparator_threshold(coeffs[c], width);
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        word |= static_cast<std::uint64_t>(block[b] < threshold) << b;
      }
      rows[c][w] = word;
    }
  }
}

}  // namespace oscs::stochastic
