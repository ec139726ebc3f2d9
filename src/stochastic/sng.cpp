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
/// expands to (SplitMix64), shared by make_source and detail::lfsr_start.
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
  // next() emits the state AFTER each clock: the first value sits one
  // phase past the start state.
  std::size_t phase = cycle.phase[state == 0 ? 1 : state] + std::size_t{1};
  if (phase == cycle.period()) phase = 0;
  return {walk == LfsrWalk::kClock ? phase : cycle.leap_index(phase),
          s.scramble};
}

}  // namespace detail

LfsrSource::LfsrSource(unsigned width, std::uint32_t seed,
                       std::uint64_t scramble)
    : lfsr_(width, seed),  // validates the width
      scramble_(scramble | 1ULL),  // must be odd to stay bijective
      mask_((std::uint64_t{1} << width) - 1) {}

unsigned LfsrSource::width() const noexcept { return lfsr_.width(); }

std::uint64_t LfsrSource::next() {
  return (static_cast<std::uint64_t>(lfsr_.step()) * scramble_) & mask_;
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

Bitstream Sng::generate(double p, std::size_t length) {
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
    const detail::LfsrCycle& cycle = detail::lfsr_cycle(width);
    const detail::LfsrStart start = detail::lfsr_start(cycle, salt);
    detail::fill_lfsr_words(cycle, start.index, start.scramble,
                            (std::uint64_t{1} << width) - 1,
                            comparator_threshold(p, width), length, words);
    return;
  }
  fill_set_streams(kind, width, salt, {&p, 1}, length, &words);
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
