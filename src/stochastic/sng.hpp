#pragma once
/// \file sng.hpp
/// \brief Stochastic number generators: a randomness source feeding a
///        comparator (paper Fig. 1 SNG blocks). Several source flavours
///        are provided, including a model of the chaotic-laser true random
///        source the paper proposes for the all-optical randomizer
///        (future-work item iii, ref. [20]).

#include <cstdint>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "stochastic/bitstream.hpp"
#include "stochastic/lfsr.hpp"
#include "stochastic/sng_fill.hpp"

namespace oscs::stochastic {

/// Uniform w-bit randomness source driving a comparator SNG.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  /// Bits of resolution; values are uniform over [0, 2^width).
  [[nodiscard]] virtual unsigned width() const noexcept = 0;
  /// Next raw value.
  virtual std::uint64_t next() = 0;

  /// Bulk comparator fill: pack `length` decisions next() < threshold
  /// into `words` (ceil(length/64) entries, stream bit t = bit t%64 of
  /// word t/64, padding past `length` zero) and advance the source by
  /// `length` steps. Returns false when the source has no word-parallel
  /// path (the caller falls back to the per-bit loop); implementations
  /// that return true must be bit-identical to that loop.
  virtual bool fill_comparator_words(std::uint64_t threshold,
                                     std::size_t length, std::uint64_t* words);
};

/// LFSR-state source - the conventional hardware SNG, of a width in
/// kLfsrWidths (lfsr.hpp). Different seeds of the same LFSR produce
/// *phase-shifted copies of one sequence*, whose comparator outputs
/// correlate at fixed lags and bias multi-stream SC arithmetic. The
/// optional odd `scramble` multiplier (a bijection on Z/2^w,
/// hardware-wise a trivial remap of the state bits) decorrelates streams
/// sharing a polynomial while preserving the exact full-period balance.
class LfsrSource final : public RandomSource {
 public:
  explicit LfsrSource(unsigned width, std::uint32_t seed = 1,
                      std::uint64_t scramble = 1);
  [[nodiscard]] unsigned width() const noexcept override;
  std::uint64_t next() override;

  /// Word-parallel fill via the canonical cycle table. Walks the
  /// precomputed state cycle from this source's phase - scalar or AVX2
  /// per the active `oscs::simd_backend()` - then reseats the register,
  /// so interleaving with next() stays exact.
  bool fill_comparator_words(std::uint64_t threshold, std::size_t length,
                             std::uint64_t* words) override;

 private:
  Lfsr lfsr_;
  std::uint64_t scramble_;
  std::uint64_t mask_;
};

/// Plain incrementing counter - fully deterministic, gives exact one
/// counts for any p that is a multiple of 2^-width over a full period.
class CounterSource final : public RandomSource {
 public:
  explicit CounterSource(unsigned width, std::uint64_t start = 0);
  [[nodiscard]] unsigned width() const noexcept override;
  std::uint64_t next() override;

  /// Word-parallel fill: the counter is pure arithmetic, so the bulk
  /// comparator loop devirtualizes trivially.
  bool fill_comparator_words(std::uint64_t threshold, std::size_t length,
                             std::uint64_t* words) override;

 private:
  unsigned width_;
  std::uint64_t state_;
};

/// Bit-reversed counter (van der Corput sequence) - low-discrepancy source
/// that spreads ones evenly through the stream, reducing SC variance.
class VanDerCorputSource final : public RandomSource {
 public:
  explicit VanDerCorputSource(unsigned width, std::uint64_t start = 0);
  [[nodiscard]] unsigned width() const noexcept override;
  std::uint64_t next() override;

 private:
  unsigned width_;
  std::uint64_t state_;
};

/// True-random source; stands in for the 640 Gb/s chaotic-laser physical
/// RNG of ref. [20] in the all-optical randomizer study.
class ChaoticLaserSource final : public RandomSource {
 public:
  explicit ChaoticLaserSource(unsigned width, std::uint64_t seed);
  [[nodiscard]] unsigned width() const noexcept override;
  std::uint64_t next() override;

 private:
  unsigned width_;
  oscs::Xoshiro256 rng_;
};

/// Comparator stochastic number generator: emits 1 when the source value
/// falls below round(p * 2^width).
class Sng {
 public:
  explicit Sng(std::unique_ptr<RandomSource> source);

  /// Quantized comparator threshold for probability p (clamped to [0,1]).
  [[nodiscard]] std::uint64_t threshold_for(double p) const noexcept;

  /// One stream bit encoding probability p.
  [[nodiscard]] bool next_bit(double p);

  /// A full stream of `length` bits encoding probability p. Uses the
  /// source's bulk word-parallel fill when it has one (LFSR via the
  /// canonical cycle table, counter; scalar or AVX2 per the active
  /// `oscs::simd_backend()`), else the per-bit reference loop - the
  /// output is bit-identical either way.
  [[nodiscard]] Bitstream generate(double p, std::size_t length);

  /// The per-bit reference loop (one virtual next() per bit). Exposed so
  /// the equivalence suite can pin every bulk fill against it.
  [[nodiscard]] Bitstream generate_reference(double p, std::size_t length);

  [[nodiscard]] unsigned width() const noexcept { return source_->width(); }

 private:
  std::unique_ptr<RandomSource> source_;
};

/// Kinds of randomness source, for configuration surfaces.
enum class SourceKind { kLfsr, kCounter, kVanDerCorput, kChaoticLaser };

/// Factory: build a source of the given kind. `salt` decorrelates multiple
/// sources of the same kind (seed / phase offset).
/// \throws std::invalid_argument on a width the source kind cannot run
///         (an LFSR outside kLfsrWidths).
[[nodiscard]] std::unique_ptr<RandomSource> make_source(SourceKind kind,
                                                        unsigned width,
                                                        std::uint64_t salt);

/// Quantized comparator threshold round(clamp01(p) * 2^width), halves
/// rounded away from zero; a NaN p takes 0. Sng::threshold_for and every
/// stream fill use it.
[[nodiscard]] std::uint64_t comparator_threshold(double p,
                                                 unsigned width) noexcept;

/// Fill one SNG stream into caller memory: `words` (ceil(length/64)
/// entries) receives exactly the words of
/// Sng(make_source(kind, width, salt)).generate(p, length). An LFSR
/// starts the bulk cycle-table fill at its seeded register's phase - no
/// source object, no register reseat - so that path never allocates;
/// other kinds generate through make_source and copy.
/// \throws std::invalid_argument on a width the source kind cannot run
///         (an LFSR outside kLfsrWidths).
void fill_stream(SourceKind kind, unsigned width, std::uint64_t salt,
                 double p, std::size_t length, std::uint64_t* words);

/// Fill every cell of one coefficient set under the v2 stimulus layout
/// (stochastic/resc.hpp): `rows[c]` (ceil(length/64) words) compares the
/// set's ONE comparator sequence, drawn from `salt`, against the
/// threshold of coeffs[c]. An LFSR comparator leaps detail::kLeapClocks
/// clocks per bit: bit 0 reads the state one clock past the seeded
/// register (as fill_stream's bit 0 does), bit t the state 16t clocks
/// later: it walks the cycle table's leap row. Other kinds compare their
/// own sequence for `salt`, drawn once for the whole set 64 values at a
/// time (memory stays constant in `length`), so each row equals
/// fill_stream(kind, width, salt, coeffs[c], ...).
/// \throws std::invalid_argument on a width the source kind cannot run
///         (an LFSR outside kLfsrWidths).
void fill_set_streams(SourceKind kind, unsigned width, std::uint64_t salt,
                      std::span<const double> coeffs, std::size_t length,
                      std::uint64_t* const* rows);

namespace detail {

/// Where the stream an LFSR salt seeds starts on a walk of the width's
/// cycle table: `index` is the entry of `walk`'s row holding its first
/// emitted state (< period; for the one-clock row that is the phase),
/// `scramble` its odd multiplier.
struct LfsrStart {
  std::size_t index = 0;
  std::uint64_t scramble = 1;
};
[[nodiscard]] LfsrStart lfsr_start(const LfsrCycle& cycle, std::uint64_t salt,
                                   LfsrWalk walk = LfsrWalk::kClock);

}  // namespace detail

}  // namespace oscs::stochastic
