/// \file test_simd.cpp
/// \brief The kernel-backend knob: what `OSCS_KERNEL_BACKEND` resolves to
///        through reset_simd_backend(), for each documented value, an
///        empty one and a malformed one.

#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

namespace oscs {
namespace {

constexpr const char* kKnob = "OSCS_KERNEL_BACKEND";

bool avx2_available() {
  return simd_avx2_compiled() && simd_avx2_runtime();
}

/// What `auto` and an unset knob resolve to.
SimdBackend detected() {
  return avx2_available() ? SimdBackend::kAvx2 : SimdBackend::kScalar;
}

/// Sets the knob and drops any resolved backend, so the next
/// simd_backend() resolves it afresh; restores the knob's previous value
/// (or its absence) and drops the resolution again on exit.
class ScopedKnob {
 public:
  explicit ScopedKnob(const char* value) {
    if (const char* previous = std::getenv(kKnob)) saved_ = previous;
    setenv(kKnob, value, 1);
    reset_simd_backend();
  }
  ~ScopedKnob() {
    if (saved_) {
      setenv(kKnob, saved_->c_str(), 1);
    } else {
      unsetenv(kKnob);
    }
    reset_simd_backend();
  }
  ScopedKnob(const ScopedKnob&) = delete;
  ScopedKnob& operator=(const ScopedKnob&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(SimdBackend, ScalarValueSelectsScalar) {
  ScopedKnob knob("scalar");
  EXPECT_EQ(simd_backend(), SimdBackend::kScalar);
}

TEST(SimdBackend, AutoValueFollowsDetection) {
  ScopedKnob knob("auto");
  EXPECT_EQ(simd_backend(), detected());
}

TEST(SimdBackend, EmptyValueFollowsDetection) {
  ScopedKnob knob("");
  EXPECT_EQ(simd_backend(), detected());
}

TEST(SimdBackend, Avx2ValueSelectsAvx2) {
  if (!avx2_available()) GTEST_SKIP() << "AVX2 backend not available";
  ScopedKnob knob("avx2");
  EXPECT_EQ(simd_backend(), SimdBackend::kAvx2);
}

TEST(SimdBackend, MalformedValueFallsBackToScalar) {
  ScopedKnob knob("AVX2 ");
  EXPECT_EQ(simd_backend(), SimdBackend::kScalar);
}

TEST(SimdBackend, ExplicitOverrideBeatsTheKnob) {
  ScopedKnob knob("auto");
  set_simd_backend(SimdBackend::kScalar);
  EXPECT_EQ(simd_backend(), SimdBackend::kScalar);
}

}  // namespace
}  // namespace oscs
