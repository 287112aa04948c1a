// Dependency-free SIMD abstraction for the hot kernels in src/util/math.cc.
//
// One backend is selected per translation unit at compile time, from the instruction sets the
// TU is compiled for:
//
//   FMOE_SIMD_FORCE_SCALAR  -> scalar   (reference backend; plain C++ loops)
//   __AVX2__                -> avx2     (8-wide float, 4-wide double, 8-wide int32)
//   __SSE2__ / x86-64       -> sse2     (two 4-wide float halves, two 2-wide double halves)
//   __ARM_NEON              -> neon     (two 4-wide float halves; double/int paths scalar)
//   otherwise               -> scalar
//
// The abstraction deliberately fixes the *logical* lane group independent of the hardware
// width: F32x8 is always eight float lanes, F64x4 always four double lanes, I32x8 always
// eight int32 lanes. A kernel written against these groups performs the same arithmetic, in
// the same per-lane order, on every backend — lane k of F32x8 accumulates exactly the same
// float addition chain whether it lives in one __m256 lane, one of two __m128 lanes, or a
// plain float array slot. Combined with the reduction helpers below (which commit to one
// fixed pairwise tree), this makes the vectorized kernels bitwise identical to the scalar
// reference, which is the determinism contract the Expert Map Store's goldens rely on
// (DESIGN.md §5g).
//
// Rules for kernel authors:
//   * Never use fused multiply-add: Add(acc, Mul(a, b)) must stay two rounding steps on every
//     backend. (The build compiles kernel TUs with -ffp-contract=off so the scalar reference
//     cannot be silently contracted either.)
//   * Reductions must go through ReduceAddPairwise / ReduceAddPairwiseF64 (fixed trees) or
//     ReduceMax (exact, order-free for finite inputs).
//   * Integer arithmetic (I32x8) is exact, so any evaluation order is bitwise-safe; it exists
//     for throughput only.
//
// All functions are `static`: every TU gets private copies, so TUs compiled with different
// backends (math.cc vs math_scalar.cc) can coexist in one binary without ODR violations.
#ifndef FMOE_SRC_UTIL_SIMD_H_
#define FMOE_SRC_UTIL_SIMD_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(FMOE_SIMD_FORCE_SCALAR)
#define FMOE_SIMD_LEVEL_SCALAR 1
#elif defined(__AVX2__)
#define FMOE_SIMD_LEVEL_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define FMOE_SIMD_LEVEL_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define FMOE_SIMD_LEVEL_NEON 1
#include <arm_neon.h>
#else
#define FMOE_SIMD_LEVEL_SCALAR 1
#endif

namespace fmoe {
namespace simd {

#if defined(FMOE_SIMD_LEVEL_AVX2)
inline constexpr const char* kLevelName = "avx2";
#elif defined(FMOE_SIMD_LEVEL_SSE2)
inline constexpr const char* kLevelName = "sse2";
#elif defined(FMOE_SIMD_LEVEL_NEON)
inline constexpr const char* kLevelName = "neon";
#else
inline constexpr const char* kLevelName = "scalar";
#endif

// ---------------------------------------------------------------------------
// F32x8: eight float lanes.
// ---------------------------------------------------------------------------

#if defined(FMOE_SIMD_LEVEL_AVX2)

struct F32x8 {
  __m256 v;
};

static inline F32x8 ZeroF32x8() { return {_mm256_setzero_ps()}; }
static inline F32x8 LoadF32x8(const float* p) { return {_mm256_loadu_ps(p)}; }
static inline F32x8 BroadcastF32x8(float x) { return {_mm256_set1_ps(x)}; }
static inline F32x8 Add(F32x8 a, F32x8 b) { return {_mm256_add_ps(a.v, b.v)}; }
static inline F32x8 Mul(F32x8 a, F32x8 b) { return {_mm256_mul_ps(a.v, b.v)}; }
static inline void Store(float* p, F32x8 a) { _mm256_storeu_ps(p, a.v); }

#if defined(__F16C__)
// Eight IEEE binary16 values widened to float lanes. half->float conversion is *exact*
// (every binary16 value, including subnormals and infinities, is representable in binary32),
// and VCVTPH2PS implements exactly that mapping, so this agrees bit-for-bit with the software
// KHalfToFloat path for every non-signaling-NaN input — the only values the map store can
// hold. Kernels gate on FMOE_SIMD_HAS_F16C and fall back to the software widen otherwise.
#define FMOE_SIMD_HAS_F16C 1
static inline F32x8 WidenF16x8(const uint16_t* p) {
  __m128i halves;
  std::memcpy(&halves, p, 16);  // loadu_si128 without strict-aliasing concerns
  return {_mm256_cvtph_ps(halves)};
}
#endif

// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), all additions in float — the exact tree the scalar
// reference uses to flush an 8-lane accumulator block.
static inline double ReduceAddPairwise(F32x8 a) {
  const __m128 lo = _mm256_castps256_ps128(a.v);
  const __m128 hi = _mm256_extractf128_ps(a.v, 1);
  const auto pair4 = [](__m128 q) {
    const __m128 swapped = _mm_shuffle_ps(q, q, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128 p = _mm_add_ps(q, swapped);  // [l0+l1, l1+l0, l2+l3, l3+l2]
    const __m128 cross = _mm_shuffle_ps(p, p, _MM_SHUFFLE(1, 0, 3, 2));
    return _mm_add_ss(p, cross);  // lane0 = (l0+l1)+(l2+l3)
  };
  return static_cast<double>(_mm_cvtss_f32(_mm_add_ss(pair4(lo), pair4(hi))));
}

#elif defined(FMOE_SIMD_LEVEL_SSE2)

struct F32x8 {
  __m128 lo;
  __m128 hi;
};

static inline F32x8 ZeroF32x8() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
static inline F32x8 LoadF32x8(const float* p) { return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)}; }
static inline F32x8 BroadcastF32x8(float x) { return {_mm_set1_ps(x), _mm_set1_ps(x)}; }
static inline F32x8 Add(F32x8 a, F32x8 b) {
  return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
}
static inline F32x8 Mul(F32x8 a, F32x8 b) {
  return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
}
static inline void Store(float* p, F32x8 a) {
  _mm_storeu_ps(p, a.lo);
  _mm_storeu_ps(p + 4, a.hi);
}

static inline double ReduceAddPairwise(F32x8 a) {
  const auto pair4 = [](__m128 q) {
    const __m128 swapped = _mm_shuffle_ps(q, q, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128 p = _mm_add_ps(q, swapped);
    const __m128 cross = _mm_shuffle_ps(p, p, _MM_SHUFFLE(1, 0, 3, 2));
    return _mm_add_ss(p, cross);
  };
  return static_cast<double>(_mm_cvtss_f32(_mm_add_ss(pair4(a.lo), pair4(a.hi))));
}

#elif defined(FMOE_SIMD_LEVEL_NEON)

struct F32x8 {
  float32x4_t lo;
  float32x4_t hi;
};

static inline F32x8 ZeroF32x8() { return {vdupq_n_f32(0.0f), vdupq_n_f32(0.0f)}; }
static inline F32x8 LoadF32x8(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
static inline F32x8 BroadcastF32x8(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
static inline F32x8 Add(F32x8 a, F32x8 b) {
  return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
}
static inline F32x8 Mul(F32x8 a, F32x8 b) {
  return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
}
static inline void Store(float* p, F32x8 a) {
  vst1q_f32(p, a.lo);
  vst1q_f32(p + 4, a.hi);
}

static inline double ReduceAddPairwise(F32x8 a) {
  const auto pair4 = [](float32x4_t q) {
    const float32x2_t p = vpadd_f32(vget_low_f32(q), vget_high_f32(q));  // [l0+l1, l2+l3]
    return vget_lane_f32(vpadd_f32(p, p), 0);                            // (l0+l1)+(l2+l3)
  };
  return static_cast<double>(pair4(a.lo) + pair4(a.hi));
}

#else  // scalar

struct F32x8 {
  float v[8];
};

static inline F32x8 ZeroF32x8() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
static inline F32x8 LoadF32x8(const float* p) {
  F32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = p[k];
  return r;
}
static inline F32x8 BroadcastF32x8(float x) { return {{x, x, x, x, x, x, x, x}}; }
static inline F32x8 Add(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = a.v[k] + b.v[k];
  return r;
}
static inline F32x8 Mul(F32x8 a, F32x8 b) {
  F32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = a.v[k] * b.v[k];
  return r;
}
static inline void Store(float* p, F32x8 a) {
  for (int k = 0; k < 8; ++k) p[k] = a.v[k];
}

static inline double ReduceAddPairwise(F32x8 a) {
  return static_cast<double>(((a.v[0] + a.v[1]) + (a.v[2] + a.v[3])) +
                             ((a.v[4] + a.v[5]) + (a.v[6] + a.v[7])));
}

#endif

// ---------------------------------------------------------------------------
// F64x4: four double lanes. NEON builds fall back to the scalar form (armv7 has no f64
// vectors and the double paths are not the hot loops).
// ---------------------------------------------------------------------------

#if defined(FMOE_SIMD_LEVEL_AVX2)

struct F64x4 {
  __m256d v;
};

static inline F64x4 ZeroF64x4() { return {_mm256_setzero_pd()}; }
static inline F64x4 LoadF64x4(const double* p) { return {_mm256_loadu_pd(p)}; }
static inline F64x4 BroadcastF64x4(double x) { return {_mm256_set1_pd(x)}; }
static inline F64x4 Add(F64x4 a, F64x4 b) { return {_mm256_add_pd(a.v, b.v)}; }
static inline F64x4 Mul(F64x4 a, F64x4 b) { return {_mm256_mul_pd(a.v, b.v)}; }
static inline F64x4 Div(F64x4 a, F64x4 b) { return {_mm256_div_pd(a.v, b.v)}; }
static inline F64x4 Max(F64x4 a, F64x4 b) { return {_mm256_max_pd(a.v, b.v)}; }
static inline void Store(double* p, F64x4 a) { _mm256_storeu_pd(p, a.v); }
// Four floats widened to four doubles (exact).
static inline F64x4 WidenF32x4(const float* p) {
  return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
}
// Bit i set iff lane i of a > lane i of b (ordered compare: false for NaN).
static inline int GtMask(F64x4 a, F64x4 b) {
  return _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ));
}
// Bit i set iff lane i is finite ((v - v) == 0 fails for inf and NaN).
static inline int FiniteMask(F64x4 a) {
  const __m256d diff = _mm256_sub_pd(a.v, a.v);
  return _mm256_movemask_pd(_mm256_cmp_pd(diff, _mm256_setzero_pd(), _CMP_EQ_OQ));
}
static inline double ReduceMax(F64x4 a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}
// (l0+l1) + (l2+l3), the exact tree of the 4-lane double accumulator flush.
static inline double ReduceAddPairwiseF64(F64x4 a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  const __m128d s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
  return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
}

#elif defined(FMOE_SIMD_LEVEL_SSE2)

struct F64x4 {
  __m128d lo;
  __m128d hi;
};

static inline F64x4 ZeroF64x4() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
static inline F64x4 LoadF64x4(const double* p) { return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)}; }
static inline F64x4 BroadcastF64x4(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
static inline F64x4 Add(F64x4 a, F64x4 b) {
  return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
}
static inline F64x4 Mul(F64x4 a, F64x4 b) {
  return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
}
static inline F64x4 Div(F64x4 a, F64x4 b) {
  return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
}
static inline F64x4 Max(F64x4 a, F64x4 b) {
  return {_mm_max_pd(a.lo, b.lo), _mm_max_pd(a.hi, b.hi)};
}
static inline void Store(double* p, F64x4 a) {
  _mm_storeu_pd(p, a.lo);
  _mm_storeu_pd(p + 2, a.hi);
}
static inline F64x4 WidenF32x4(const float* p) {
  const __m128 f = _mm_loadu_ps(p);
  return {_mm_cvtps_pd(f), _mm_cvtps_pd(_mm_movehl_ps(f, f))};
}
static inline int GtMask(F64x4 a, F64x4 b) {
  return _mm_movemask_pd(_mm_cmpgt_pd(a.lo, b.lo)) |
         (_mm_movemask_pd(_mm_cmpgt_pd(a.hi, b.hi)) << 2);
}
static inline int FiniteMask(F64x4 a) {
  const __m128d zero = _mm_setzero_pd();
  return _mm_movemask_pd(_mm_cmpeq_pd(_mm_sub_pd(a.lo, a.lo), zero)) |
         (_mm_movemask_pd(_mm_cmpeq_pd(_mm_sub_pd(a.hi, a.hi), zero)) << 2);
}
static inline double ReduceMax(F64x4 a) {
  const __m128d m = _mm_max_pd(a.lo, a.hi);
  return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}
static inline double ReduceAddPairwiseF64(F64x4 a) {
  const __m128d s01 = _mm_add_sd(a.lo, _mm_unpackhi_pd(a.lo, a.lo));
  const __m128d s23 = _mm_add_sd(a.hi, _mm_unpackhi_pd(a.hi, a.hi));
  return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
}

#else  // NEON double paths and scalar share the plain form.

struct F64x4 {
  double v[4];
};

static inline F64x4 ZeroF64x4() { return {{0, 0, 0, 0}}; }
static inline F64x4 LoadF64x4(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
static inline F64x4 BroadcastF64x4(double x) { return {{x, x, x, x}}; }
static inline F64x4 Add(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] + b.v[k];
  return r;
}
static inline F64x4 Mul(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] * b.v[k];
  return r;
}
static inline F64x4 Div(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] / b.v[k];
  return r;
}
static inline F64x4 Max(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
  return r;
}
static inline void Store(double* p, F64x4 a) {
  for (int k = 0; k < 4; ++k) p[k] = a.v[k];
}
static inline F64x4 WidenF32x4(const float* p) {
  F64x4 r;
  for (int k = 0; k < 4; ++k) r.v[k] = static_cast<double>(p[k]);
  return r;
}
static inline int GtMask(F64x4 a, F64x4 b) {
  int mask = 0;
  for (int k = 0; k < 4; ++k) mask |= (a.v[k] > b.v[k]) ? (1 << k) : 0;
  return mask;
}
static inline int FiniteMask(F64x4 a) {
  int mask = 0;
  for (int k = 0; k < 4; ++k) mask |= (a.v[k] - a.v[k] == 0.0) ? (1 << k) : 0;
  return mask;
}
static inline double ReduceMax(F64x4 a) {
  const double m01 = a.v[0] > a.v[1] ? a.v[0] : a.v[1];
  const double m23 = a.v[2] > a.v[3] ? a.v[2] : a.v[3];
  return m01 > m23 ? m01 : m23;
}
static inline double ReduceAddPairwiseF64(F64x4 a) {
  return (a.v[0] + a.v[1]) + (a.v[2] + a.v[3]);
}

#endif

// ---------------------------------------------------------------------------
// I32x8: eight int32 lanes for the quantized (int8) column kernel. Integer arithmetic is
// exact, so only the AVX2 backend bothers with intrinsics; every other backend uses the
// scalar form and still produces bitwise-identical results.
// ---------------------------------------------------------------------------

#if defined(FMOE_SIMD_LEVEL_AVX2)

struct I32x8 {
  __m256i v;
};

static inline I32x8 ZeroI32x8() { return {_mm256_setzero_si256()}; }
static inline I32x8 LoadI32x8(const int32_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
static inline I32x8 BroadcastI32x8(int32_t x) { return {_mm256_set1_epi32(x)}; }
// Eight uint8 values zero-extended to int32 lanes.
static inline I32x8 WidenU8x8(const uint8_t* p) {
  __m128i bytes;
  std::memcpy(&bytes, p, 8);  // loadl_epi64 without alignment/strict-aliasing concerns
  return {_mm256_cvtepu8_epi32(bytes)};
}
static inline I32x8 Add(I32x8 a, I32x8 b) { return {_mm256_add_epi32(a.v, b.v)}; }
static inline I32x8 Mul(I32x8 a, I32x8 b) { return {_mm256_mullo_epi32(a.v, b.v)}; }
static inline void Store(int32_t* p, I32x8 a) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}

#else

struct I32x8 {
  int32_t v[8];
};

static inline I32x8 ZeroI32x8() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
static inline I32x8 LoadI32x8(const int32_t* p) {
  I32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = p[k];
  return r;
}
static inline I32x8 BroadcastI32x8(int32_t x) { return {{x, x, x, x, x, x, x, x}}; }
static inline I32x8 WidenU8x8(const uint8_t* p) {
  I32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = static_cast<int32_t>(p[k]);
  return r;
}
static inline I32x8 Add(I32x8 a, I32x8 b) {
  I32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = a.v[k] + b.v[k];
  return r;
}
static inline I32x8 Mul(I32x8 a, I32x8 b) {
  I32x8 r;
  for (int k = 0; k < 8; ++k) r.v[k] = a.v[k] * b.v[k];
  return r;
}
static inline void Store(int32_t* p, I32x8 a) {
  for (int k = 0; k < 8; ++k) p[k] = a.v[k];
}

#endif

}  // namespace simd
}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_SIMD_H_
