#pragma once
/// \file simd_kernel_count.hpp
/// \brief The counting bodies behind `KernelOps::count_product` and the
///        count sink of `KernelOps::select_compare`. Both backend
///        translation units compile it, so one source compiles twice: to
///        libgcc's software popcount in the baseline-ISA scalar TU and to
///        the hardware `popcnt` that -mavx2 enables in the AVX2 TU. The
///        bodies have internal linkage and call only builtins and
///        out-of-line functions (stochastic/sng_lanes.hpp says why), so
///        neither copy can stand in for the other at link time. Include
///        it only through simd_kernel_body.hpp.

#include <cstddef>
#include <cstdint>

#include "engine/simd_kernel.hpp"

namespace oscs::engine::simd {
namespace {

inline std::size_t ones(std::uint64_t word) {
  return static_cast<std::size_t>(__builtin_popcountll(word));
}

inline ProductCounts count_product_body(
    const std::uint64_t* const* optical,
    const std::uint64_t* const* electronic, std::size_t factors,
    std::size_t length) {
  ProductCounts counts;
  const std::size_t nwords = (length + 63) / 64;
  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t opt = ~std::uint64_t{0};
    std::uint64_t elec = ~std::uint64_t{0};
    for (std::size_t f = 0; f < factors; ++f) {
      opt &= optical[f][w];
      elec &= electronic[f][w];
    }
    if (w + 1 == nwords && length % 64 != 0) {
      const std::uint64_t tail = (std::uint64_t{1} << (length % 64)) - 1;
      opt &= tail;
      elec &= tail;
    }
    counts.optical += ones(opt);
    counts.electronic += ones(elec);
    counts.differ += ones(opt ^ elec);
  }
  return counts;
}

/// The count sink of a SelectCompareJob, fed one block of at most
/// kLaneBlockWords words at a time: `block` holds each set's decision
/// words for the block (set g's at block + g * kLaneBlockWords, padding
/// bits zero), and past them one scratch row per flip draw. Optical ones
/// equal electronic ones except where a flip lands, so only a block that
/// holds flips (or any block, when the job asks for rows) takes the slow
/// path: it drains each draw's flips in the block into its row, records
/// how they move each term's optical count and writes the rows. Then the
/// sink counts the block's electronic products. finish() adds the
/// electronic counts to the recorded moves.
class LaneSink {
 public:
  explicit LaneSink(const SelectCompareJob& job)
      : counts_(job.counts),
        factor_set_(job.factor_set),
        factors_(job.factor_count),
        term_end_(job.term_end),
        terms_(job.term_count),
        flips_(job.flips),
        draws_(job.flip_count),
        electronic_(job.electronic),
        optical_(job.optical),
        last_(job.length == 0 ? 0 : (job.length - 1) / 64),
        tail_(job.length % 64 == 0
                  ? ~std::uint64_t{0}
                  : ~std::uint64_t{0} >> (64 - job.length % 64)) {
    for (std::size_t t = 0; t < terms_; ++t) counts_[t] = {};
    next_flip_word();
  }

  /// Count words [w0, w0 + words) from `block`, which it may overwrite.
  void block(std::size_t w0, std::size_t words, std::uint64_t* block) {
    if (flip_word_ < w0 + words || electronic_ != nullptr) {
      visit_words(w0, words, block);
    }
    count_words(w0, words, block);
  }

  /// Turn the recorded optical moves into optical counts (modular sums,
  /// so a move's wrap-around cancels exactly).
  void finish() {
    for (std::size_t t = 0; t < terms_; ++t) {
      counts_[t].optical += counts_[t].electronic;
    }
  }

 private:
  /// The set a factor reads.
  [[nodiscard]] std::size_t set_of(std::size_t f) const {
    return factor_set_ != nullptr ? factor_set_[f] : f;
  }

  /// Electronic ones of every term over words [w0, w0 + words);
  /// `block` + g * kLaneBlockWords + j is set g's word w0 + j. A term's
  /// first factor row becomes its product in place (each set is one
  /// factor), so the ANDs and counts run along whole rows.
  void count_words(std::size_t w0, std::size_t words, std::uint64_t* block) {
    std::size_t f = 0;
    for (std::size_t t = 0; t < terms_; ++t) {
      const std::size_t begin = f;
      f = term_end_ != nullptr ? term_end_[t] : t + 1;
      std::size_t ones_sum = 0;
      if (begin == f) {
        // An empty term is the constant 1 over the stream's bits.
        for (std::size_t j = 0; j < words; ++j) {
          ones_sum += w0 + j == last_ ? ones(tail_) : 64;
        }
      } else {
        std::uint64_t* product = block + set_of(begin) * kLaneBlockWords;
        for (std::size_t k = begin + 1; k < f; ++k) {
          const std::uint64_t* factor = block + set_of(k) * kLaneBlockWords;
          for (std::size_t j = 0; j < words; ++j) product[j] &= factor[j];
        }
        for (std::size_t j = 0; j < words; ++j) ones_sum += ones(product[j]);
      }
      counts_[t].electronic += ones_sum;
    }
  }

  /// Drain every draw's flips in the block into its mask row, then, term
  /// by term along whole rows, record how the flips move the optical
  /// count and which bits differ, writing each factor's rows when the job
  /// asks for them.
  [[gnu::noinline]] void visit_words(std::size_t w0, std::size_t words,
                                     std::uint64_t* block) {
    std::uint64_t* masks = block + factors_ * kLaneBlockWords;
    const std::size_t end_bit = 64 * (w0 + words);
    for (std::size_t i = 0; i < draws_; ++i) {
      std::uint64_t* row = masks + i * kLaneBlockWords;
      for (std::size_t j = 0; j < words; ++j) row[j] = 0;
      for (FlipDraw& draw = flips_[i]; draw.next < end_bit; draw.advance()) {
        row[draw.next / 64 - w0] |= std::uint64_t{1} << (draw.next % 64);
      }
    }
    next_flip_word();
    std::uint64_t electronic[kLaneBlockWords];
    std::uint64_t optical[kLaneBlockWords];
    std::size_t f = 0;
    for (std::size_t t = 0; t < terms_; ++t) {
      const std::size_t begin = f;
      f = term_end_ != nullptr ? term_end_[t] : t + 1;
      for (std::size_t k = begin; k < f; ++k) {
        const std::uint64_t* decided = block + set_of(k) * kLaneBlockWords;
        const std::uint64_t* flips =
            masks + (draws_ == 1 ? 0 : k) * kLaneBlockWords;
        if (electronic_ != nullptr) {
          for (std::size_t j = 0; j < words; ++j) {
            electronic_[k][w0 + j] = decided[j];
            optical_[k][w0 + j] = decided[j] ^ flips[j];
          }
        }
        if (k == begin) {
          for (std::size_t j = 0; j < words; ++j) {
            electronic[j] = decided[j];
            optical[j] = decided[j] ^ flips[j];
          }
        } else {
          for (std::size_t j = 0; j < words; ++j) {
            electronic[j] &= decided[j];
            optical[j] &= decided[j] ^ flips[j];
          }
        }
      }
      if (begin == f) continue;  // a constant term sees no flips
      std::size_t moved = 0;
      std::size_t differ = 0;
      for (std::size_t j = 0; j < words; ++j) {
        moved += ones(optical[j]) - ones(electronic[j]);
        differ += ones(optical[j] ^ electronic[j]);
      }
      counts_[t].optical += moved;
      counts_[t].differ += differ;
    }
  }

  /// The word holding the next flip of any draw.
  void next_flip_word() {
    std::size_t next = FlipDraw::kNone;
    for (std::size_t i = 0; i < draws_; ++i) {
      if (flips_[i].next < next) next = flips_[i].next;
    }
    flip_word_ = next == FlipDraw::kNone ? next : next / 64;
  }

  ProductCounts* counts_;
  const std::uint32_t* factor_set_;
  std::size_t factors_;
  const std::uint32_t* term_end_;
  std::size_t terms_;
  FlipDraw* flips_;
  std::size_t draws_;
  std::uint64_t* const* electronic_;
  std::uint64_t* const* optical_;
  std::size_t last_;     ///< index of the stream's last word
  std::uint64_t tail_;   ///< the stream's bits within its last word
  std::size_t flip_word_ = FlipDraw::kNone;
};

}  // namespace
}  // namespace oscs::engine::simd
