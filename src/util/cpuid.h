// Runtime CPU feature probe and the process-wide SIMD dispatch level.
//
// The distance kernels (core/distance.h), the quantized candidate-pass
// kernels (core/quantizer.h), and the GEMM kernels behind MatMul's forward
// and backward (tensor/ops.cc) each ship a portable scalar implementation
// plus an AVX2 variant compiled with function-level target attributes.
// Which variant runs is decided
// ONCE per process from this header — never per call site — so a run is
// internally consistent: every kernel sees the same level for the whole
// process lifetime (tests may flip it explicitly via SetSimdLevel).
//
// Determinism contract (DESIGN.md §10):
//   * kScalar ("--simd=off" / GP_SIMD=off) reproduces the historical
//     ascending-index double-accumulation kernels bit for bit — golden
//     pins are defined at this level.
//   * kAvx2 uses wider accumulators (vector lanes reduced in a fixed
//     order), so float results may differ from scalar in the last ULPs;
//     the documented bounds are pinned by tests/simd_kernels_test.cc.
//     The three GEMM kernels are the exception: each vectorizes across
//     independent output elements and keeps every element's scalar
//     sequence of mul-then-add steps (no reduction order changes, no FMA),
//     so they stay bitwise identical to the scalar loops at every level.
//     The forward panel and the dW kernel put the lanes over output
//     columns j; the dA kernel puts them over k, reading B transposed, so
//     each lane still sums its ascending-j products from +0 on its own.
//
// Resolution order: SetSimdLevel()/ConfigureSimdFromFlags (--simd) >
// GP_SIMD env ("off"|"scalar", "avx2", "auto") > auto-detect. Requesting
// avx2 on a CPU without it falls back to scalar with a warning.

#ifndef GRAPHPROMPTER_UTIL_CPUID_H_
#define GRAPHPROMPTER_UTIL_CPUID_H_

#include <atomic>
#include <string>

#include "util/status.h"

namespace gp {

class Flags;

enum class SimdLevel {
  kScalar = 0,  // portable C++ loops; the bitwise-pinned reference
  kAvx2 = 1,    // AVX2(+FMA) kernels where provided
};

const char* SimdLevelName(SimdLevel level);

// Parses "off"/"scalar" -> kScalar, "avx2" -> kAvx2. "auto" resolves to
// the detected level. Anything else is an error.
StatusOr<SimdLevel> ParseSimdLevel(const std::string& name);

// What the CPU supports (probed once; AVX2 requires AVX2 + FMA).
SimdLevel DetectedSimdLevel();

// The level kernels dispatch on. First read resolves GP_SIMD (else
// auto-detect); SetSimdLevel overrides, clamped to DetectedSimdLevel().
SimdLevel ActiveSimdLevel();
void SetSimdLevel(SimdLevel level);

// Applies --simd=off|avx2|auto on top of the current level (env fallback
// included), publishes the simd/dispatch gauge, and returns the resolved
// level. Aborts on an unparseable --simd.
SimdLevel ConfigureSimdFromFlags(const Flags& flags);

namespace simd_internal {
// Hot-path dispatch bit, kept branch-cheap: a relaxed atomic bool the
// inline kernel wrappers test. Maintained by SetSimdLevel/ActiveSimdLevel.
extern std::atomic<bool> g_avx2_active;
}  // namespace simd_internal

// True when kernels should take their AVX2 variant. Inline: this sits
// inside O(P*Q) scoring loops.
inline bool Avx2Enabled() {
  return simd_internal::g_avx2_active.load(std::memory_order_relaxed);
}

}  // namespace gp

#endif  // GRAPHPROMPTER_UTIL_CPUID_H_
