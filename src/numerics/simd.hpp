// Portable fixed-width SIMD pack for the batch curve kernels.
//
// `f64x4` is a 4-lane double pack backed by AVX2 (one __m256d), SSE2 / NEON
// (two 128-bit halves), or — when no vector ISA is available at compile time
// or PRM_SIMD_FORCE_SCALAR is defined — the plain-array `f64x4_generic`.
//
// Bit-parity contract: `f64x4_generic` is the reference semantics. Every
// native backend implements exactly the same IEEE-754 operations in the same
// order (no FMA contraction, no reassociation), so any algorithm written
// against the pack interface produces bit-identical results on every backend.
// The parity suite in tests/test_simd.cpp enforces this lane by lane, and it
// is what lets the fit path switch between SIMD and scalar-fallback kernels
// (set_batch_simd_enabled) without changing a single output bit.
//
// The contract needs one compiler flag to hold on FMA-capable targets: the
// build pins -ffp-contract=off (see the top-level CMakeLists), because GCC
// otherwise contracts the generic pack's a*b+c into fma even in ISO C++
// mode, while the intrinsic backends' explicit mul/add cannot contract.
//
// The interface is deliberately small: load/store, broadcast, arithmetic,
// min/max, comparisons producing full-lane masks, mask select/and/or, round
// to nearest (half-to-even), and the two exact exponent primitives the
// vector math layer needs (pow2n, frexp-style mantissa/exponent split).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(PRM_SIMD_FORCE_SCALAR)
#if defined(__AVX2__) || defined(__AVX__)
#define PRM_SIMD_AVX 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define PRM_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__) || defined(__ARM_NEON)
#define PRM_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace prm::num {

namespace detail {
inline double bits_to_double(std::uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}
inline std::uint64_t double_to_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}
}  // namespace detail

/// Reference 4-lane pack: a plain array with elementwise operations. Always
/// available; the semantics every native backend must reproduce exactly.
struct f64x4_generic {
  static constexpr std::size_t width = 4;
  double v[4];

  static f64x4_generic broadcast(double x) { return {{x, x, x, x}}; }
  static f64x4_generic load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  void store(double* p) const {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
    p[3] = v[3];
  }
  double lane(std::size_t i) const { return v[i]; }

  friend f64x4_generic operator+(f64x4_generic a, f64x4_generic b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
  }
  friend f64x4_generic operator-(f64x4_generic a, f64x4_generic b) {
    return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2], a.v[3] - b.v[3]}};
  }
  friend f64x4_generic operator*(f64x4_generic a, f64x4_generic b) {
    return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
  }
  friend f64x4_generic operator/(f64x4_generic a, f64x4_generic b) {
    return {{a.v[0] / b.v[0], a.v[1] / b.v[1], a.v[2] / b.v[2], a.v[3] / b.v[3]}};
  }
  f64x4_generic operator-() const { return {{-v[0], -v[1], -v[2], -v[3]}}; }

  /// x86 max/min semantics: (a OP b) ? a : b — the second operand wins on NaN.
  friend f64x4_generic max(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  friend f64x4_generic min(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
    return r;
  }

  // Comparisons produce full-lane masks (all bits set / clear per lane).
  friend f64x4_generic cmp_lt(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = detail::bits_to_double(a.v[i] < b.v[i] ? ~std::uint64_t{0} : 0);
    }
    return r;
  }
  friend f64x4_generic cmp_le(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = detail::bits_to_double(a.v[i] <= b.v[i] ? ~std::uint64_t{0} : 0);
    }
    return r;
  }
  friend f64x4_generic cmp_gt(f64x4_generic a, f64x4_generic b) { return cmp_lt(b, a); }
  friend f64x4_generic cmp_ge(f64x4_generic a, f64x4_generic b) { return cmp_le(b, a); }

  /// Per-lane blend: mask lane all-ones -> a, all-zeros -> b (bitwise, so it
  /// is exact for any operands including NaN/inf).
  friend f64x4_generic select(f64x4_generic mask, f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t m = detail::double_to_bits(mask.v[i]);
      r.v[i] = detail::bits_to_double((detail::double_to_bits(a.v[i]) & m) |
                                      (detail::double_to_bits(b.v[i]) & ~m));
    }
    return r;
  }
  friend f64x4_generic mask_and(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = detail::bits_to_double(detail::double_to_bits(a.v[i]) &
                                      detail::double_to_bits(b.v[i]));
    }
    return r;
  }
  friend f64x4_generic mask_or(f64x4_generic a, f64x4_generic b) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      r.v[i] = detail::bits_to_double(detail::double_to_bits(a.v[i]) |
                                      detail::double_to_bits(b.v[i]));
    }
    return r;
  }

  /// Round to nearest, ties to even (the default IEEE mode; matches
  /// _mm256_round_pd with _MM_FROUND_TO_NEAREST_INT).
  friend f64x4_generic round_nearest(f64x4_generic a) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) r.v[i] = std::nearbyint(a.v[i]);
    return r;
  }

  /// 2^n per lane for integral-valued n in [-1022, 1023]; exact.
  friend f64x4_generic pow2n(f64x4_generic n) {
    f64x4_generic r;
    for (int i = 0; i < 4; ++i) {
      const std::int64_t e = static_cast<std::int64_t>(n.v[i]);
      r.v[i] = detail::bits_to_double(static_cast<std::uint64_t>(e + 1023) << 52);
    }
    return r;
  }

  /// Split positive finite x into m * 2^e with m in [1, 2); both exact.
  friend void split_mantissa(f64x4_generic x, f64x4_generic* m, f64x4_generic* e) {
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t bits = detail::double_to_bits(x.v[i]);
      const std::int64_t biased = static_cast<std::int64_t>((bits >> 52) & 0x7ff);
      e->v[i] = static_cast<double>(biased - 1023);
      m->v[i] =
          detail::bits_to_double((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    }
  }
};

#if defined(PRM_SIMD_AVX)

/// AVX2 backend: one 256-bit register.
struct f64x4_avx {
  static constexpr std::size_t width = 4;
  __m256d v;

  static f64x4_avx broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static f64x4_avx load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  double lane(std::size_t i) const {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, v);
    return tmp[i];
  }

  friend f64x4_avx operator+(f64x4_avx a, f64x4_avx b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend f64x4_avx operator-(f64x4_avx a, f64x4_avx b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend f64x4_avx operator*(f64x4_avx a, f64x4_avx b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend f64x4_avx operator/(f64x4_avx a, f64x4_avx b) { return {_mm256_div_pd(a.v, b.v)}; }
  f64x4_avx operator-() const {
    return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))};
  }

  friend f64x4_avx max(f64x4_avx a, f64x4_avx b) { return {_mm256_max_pd(a.v, b.v)}; }
  friend f64x4_avx min(f64x4_avx a, f64x4_avx b) { return {_mm256_min_pd(a.v, b.v)}; }

  friend f64x4_avx cmp_lt(f64x4_avx a, f64x4_avx b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  friend f64x4_avx cmp_le(f64x4_avx a, f64x4_avx b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  friend f64x4_avx cmp_gt(f64x4_avx a, f64x4_avx b) { return cmp_lt(b, a); }
  friend f64x4_avx cmp_ge(f64x4_avx a, f64x4_avx b) { return cmp_le(b, a); }

  friend f64x4_avx select(f64x4_avx mask, f64x4_avx a, f64x4_avx b) {
    return {_mm256_blendv_pd(b.v, a.v, mask.v)};
  }
  friend f64x4_avx mask_and(f64x4_avx a, f64x4_avx b) { return {_mm256_and_pd(a.v, b.v)}; }
  friend f64x4_avx mask_or(f64x4_avx a, f64x4_avx b) { return {_mm256_or_pd(a.v, b.v)}; }

  friend f64x4_avx round_nearest(f64x4_avx a) {
    return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }

  friend f64x4_avx pow2n(f64x4_avx n) {
    // n holds small integral values; go through scalar lanes — exact and
    // identical to the generic path. (AVX2 integer shifts would also work;
    // this keeps the exactness argument trivial and is off the hot path of
    // the polynomial evaluation.)
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, n.v);
    alignas(32) double out[4];
    for (int i = 0; i < 4; ++i) {
      const std::int64_t e = static_cast<std::int64_t>(tmp[i]);
      out[i] = detail::bits_to_double(static_cast<std::uint64_t>(e + 1023) << 52);
    }
    return {_mm256_load_pd(out)};
  }

  friend void split_mantissa(f64x4_avx x, f64x4_avx* m, f64x4_avx* e) {
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, x.v);
    alignas(32) double mm[4];
    alignas(32) double ee[4];
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t bits = detail::double_to_bits(tmp[i]);
      const std::int64_t biased = static_cast<std::int64_t>((bits >> 52) & 0x7ff);
      ee[i] = static_cast<double>(biased - 1023);
      mm[i] =
          detail::bits_to_double((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    }
    m->v = _mm256_load_pd(mm);
    e->v = _mm256_load_pd(ee);
  }
};

using f64x4 = f64x4_avx;
#define PRM_SIMD_BACKEND "avx"

#elif defined(PRM_SIMD_SSE2)

/// SSE2 backend: two 128-bit halves.
struct f64x4_sse2 {
  static constexpr std::size_t width = 4;
  __m128d lo, hi;

  static f64x4_sse2 broadcast(double x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static f64x4_sse2 load(const double* p) { return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)}; }
  void store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }
  double lane(std::size_t i) const {
    alignas(16) double tmp[4];
    _mm_store_pd(tmp, lo);
    _mm_store_pd(tmp + 2, hi);
    return tmp[i];
  }

  friend f64x4_sse2 operator+(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 operator-(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 operator*(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 operator/(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }
  f64x4_sse2 operator-() const {
    const __m128d sign = _mm_set1_pd(-0.0);
    return {_mm_xor_pd(lo, sign), _mm_xor_pd(hi, sign)};
  }

  friend f64x4_sse2 max(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_max_pd(a.lo, b.lo), _mm_max_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 min(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_min_pd(a.lo, b.lo), _mm_min_pd(a.hi, b.hi)};
  }

  friend f64x4_sse2 cmp_lt(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 cmp_le(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_cmple_pd(a.lo, b.lo), _mm_cmple_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 cmp_gt(f64x4_sse2 a, f64x4_sse2 b) { return cmp_lt(b, a); }
  friend f64x4_sse2 cmp_ge(f64x4_sse2 a, f64x4_sse2 b) { return cmp_le(b, a); }

  friend f64x4_sse2 select(f64x4_sse2 mask, f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_or_pd(_mm_and_pd(mask.lo, a.lo), _mm_andnot_pd(mask.lo, b.lo)),
            _mm_or_pd(_mm_and_pd(mask.hi, a.hi), _mm_andnot_pd(mask.hi, b.hi))};
  }
  friend f64x4_sse2 mask_and(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)};
  }
  friend f64x4_sse2 mask_or(f64x4_sse2 a, f64x4_sse2 b) {
    return {_mm_or_pd(a.lo, b.lo), _mm_or_pd(a.hi, b.hi)};
  }

  friend f64x4_sse2 round_nearest(f64x4_sse2 a) {
    // SSE2 has no round instruction; scalar nearbyint per lane (exact).
    alignas(16) double tmp[4];
    a.store(tmp);
    for (int i = 0; i < 4; ++i) tmp[i] = std::nearbyint(tmp[i]);
    return load(tmp);
  }

  friend f64x4_sse2 pow2n(f64x4_sse2 n) {
    alignas(16) double tmp[4];
    n.store(tmp);
    for (int i = 0; i < 4; ++i) {
      const std::int64_t e = static_cast<std::int64_t>(tmp[i]);
      tmp[i] = detail::bits_to_double(static_cast<std::uint64_t>(e + 1023) << 52);
    }
    return load(tmp);
  }

  friend void split_mantissa(f64x4_sse2 x, f64x4_sse2* m, f64x4_sse2* e) {
    alignas(16) double tmp[4];
    x.store(tmp);
    alignas(16) double mm[4];
    alignas(16) double ee[4];
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t bits = detail::double_to_bits(tmp[i]);
      const std::int64_t biased = static_cast<std::int64_t>((bits >> 52) & 0x7ff);
      ee[i] = static_cast<double>(biased - 1023);
      mm[i] =
          detail::bits_to_double((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    }
    *m = load(mm);
    *e = load(ee);
  }
};

using f64x4 = f64x4_sse2;
#define PRM_SIMD_BACKEND "sse2"

#elif defined(PRM_SIMD_NEON)

/// NEON backend (aarch64): two 128-bit halves.
struct f64x4_neon {
  static constexpr std::size_t width = 4;
  float64x2_t lo, hi;

  static f64x4_neon broadcast(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
  static f64x4_neon load(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  void store(double* p) const {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
  double lane(std::size_t i) const {
    double tmp[4];
    store(tmp);
    return tmp[i];
  }

  friend f64x4_neon operator+(f64x4_neon a, f64x4_neon b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  friend f64x4_neon operator-(f64x4_neon a, f64x4_neon b) {
    return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
  }
  friend f64x4_neon operator*(f64x4_neon a, f64x4_neon b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  friend f64x4_neon operator/(f64x4_neon a, f64x4_neon b) {
    return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
  }
  f64x4_neon operator-() const { return {vnegq_f64(lo), vnegq_f64(hi)}; }

  friend f64x4_neon max(f64x4_neon a, f64x4_neon b) {
    // Match the x86/generic (a > b) ? a : b semantics (second operand on NaN)
    // rather than vmaxq's NaN propagation.
    const uint64x2_t mlo = vcgtq_f64(a.lo, b.lo);
    const uint64x2_t mhi = vcgtq_f64(a.hi, b.hi);
    return {vbslq_f64(mlo, a.lo, b.lo), vbslq_f64(mhi, a.hi, b.hi)};
  }
  friend f64x4_neon min(f64x4_neon a, f64x4_neon b) {
    const uint64x2_t mlo = vcltq_f64(a.lo, b.lo);
    const uint64x2_t mhi = vcltq_f64(a.hi, b.hi);
    return {vbslq_f64(mlo, a.lo, b.lo), vbslq_f64(mhi, a.hi, b.hi)};
  }

  friend f64x4_neon cmp_lt(f64x4_neon a, f64x4_neon b) {
    return {vreinterpretq_f64_u64(vcltq_f64(a.lo, b.lo)),
            vreinterpretq_f64_u64(vcltq_f64(a.hi, b.hi))};
  }
  friend f64x4_neon cmp_le(f64x4_neon a, f64x4_neon b) {
    return {vreinterpretq_f64_u64(vcleq_f64(a.lo, b.lo)),
            vreinterpretq_f64_u64(vcleq_f64(a.hi, b.hi))};
  }
  friend f64x4_neon cmp_gt(f64x4_neon a, f64x4_neon b) { return cmp_lt(b, a); }
  friend f64x4_neon cmp_ge(f64x4_neon a, f64x4_neon b) { return cmp_le(b, a); }

  friend f64x4_neon select(f64x4_neon mask, f64x4_neon a, f64x4_neon b) {
    return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
            vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
  }
  friend f64x4_neon mask_and(f64x4_neon a, f64x4_neon b) {
    return {vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.lo),
                                            vreinterpretq_u64_f64(b.lo))),
            vreinterpretq_f64_u64(vandq_u64(vreinterpretq_u64_f64(a.hi),
                                            vreinterpretq_u64_f64(b.hi)))};
  }
  friend f64x4_neon mask_or(f64x4_neon a, f64x4_neon b) {
    return {vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(a.lo),
                                            vreinterpretq_u64_f64(b.lo))),
            vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(a.hi),
                                            vreinterpretq_u64_f64(b.hi)))};
  }

  friend f64x4_neon round_nearest(f64x4_neon a) {
    return {vrndnq_f64(a.lo), vrndnq_f64(a.hi)};
  }

  friend f64x4_neon pow2n(f64x4_neon n) {
    double tmp[4];
    n.store(tmp);
    for (int i = 0; i < 4; ++i) {
      const std::int64_t e = static_cast<std::int64_t>(tmp[i]);
      tmp[i] = detail::bits_to_double(static_cast<std::uint64_t>(e + 1023) << 52);
    }
    return load(tmp);
  }

  friend void split_mantissa(f64x4_neon x, f64x4_neon* m, f64x4_neon* e) {
    double tmp[4];
    x.store(tmp);
    double mm[4];
    double ee[4];
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t bits = detail::double_to_bits(tmp[i]);
      const std::int64_t biased = static_cast<std::int64_t>((bits >> 52) & 0x7ff);
      ee[i] = static_cast<double>(biased - 1023);
      mm[i] =
          detail::bits_to_double((bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
    }
    *m = load(mm);
    *e = load(ee);
  }
};

using f64x4 = f64x4_neon;
#define PRM_SIMD_BACKEND "neon"

#else

using f64x4 = f64x4_generic;
#define PRM_SIMD_BACKEND "scalar"

#endif

/// True when `f64x4` is a native vector backend (not the generic fallback).
constexpr bool simd_native() {
#if defined(PRM_SIMD_AVX) || defined(PRM_SIMD_SSE2) || defined(PRM_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

/// Compile-time backend name ("avx", "sse2", "neon", "scalar").
constexpr const char* simd_backend() { return PRM_SIMD_BACKEND; }

/// The sum of a pack's 4 lanes in a fixed order, (l0 + l1) + (l2 + l3), so
/// that a reduction is bit-identical on every backend.
template <typename Pack>
double lane_sum(Pack v) {
  double lanes[Pack::width];
  v.store(lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Runtime switch for the batch curve kernels: when false they dispatch to
/// the f64x4_generic instantiation instead of the native pack. Because the
/// two instantiations are bit-identical this never changes a result — it
/// exists for the parity test suite and as an operational safety valve.
inline std::atomic<bool>& batch_simd_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
inline bool batch_simd_enabled() {
  return batch_simd_flag().load(std::memory_order_relaxed);
}
inline void set_batch_simd_enabled(bool enabled) {
  batch_simd_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace prm::num
