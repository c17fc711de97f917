// SSE2 instantiation: 4-wide fp32, 2x2-wide fp64. SSE2 is part of the
// x86-64 baseline, so this level is always available there; CMake compiles
// the file with -ffp-contract=off so mul + add never contracts to FMA (the
// bit-identity contract of util/simd.h).
#if defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>

#include "util/simd_kernels_impl.h"

namespace hcspmm {
namespace simd {
namespace {

struct VecD4 {
  __m128d lo, hi;
};

struct Sse2Traits {
  static constexpr int kWidth = 4;
  using VF = __m128;
  using VD = VecD4;

  static VF LoadF(const float* p) { return _mm_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm_storeu_ps(p, v); }
  // Lanes [0, n) through a small aligned buffer: exactly n floats are read
  // or written.
  static VF LoadPartialF(const float* p, int n) {
    alignas(16) float buf[kWidth] = {};
    for (int i = 0; i < n; ++i) buf[i] = p[i];
    return _mm_load_ps(buf);
  }
  static void StorePartialF(float* p, VF v, int n) {
    alignas(16) float buf[kWidth];
    _mm_store_ps(buf, v);
    for (int i = 0; i < n; ++i) p[i] = buf[i];
  }
  static VF BroadcastF(float s) { return _mm_set1_ps(s); }
  static VD LoadD(const double* p) { return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)}; }
  static VD BroadcastD(double s) { return {_mm_set1_pd(s), _mm_set1_pd(s)}; }
  static VD ZeroD() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static VF AddF(VF a, VF b) { return _mm_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm_mul_ps(a, b); }
  // x < 0 ? 0 : x — NaN and -0.0 pass through like the scalar reference
  // (cmplt is false for NaN, andnot with a zero mask returns x verbatim).
  static VF ReluF(VF v) {
    return _mm_andnot_ps(_mm_cmplt_ps(v, _mm_setzero_ps()), v);
  }
  static VF Gt0AndF(VF gate, VF x) {
    return _mm_and_ps(_mm_cmpgt_ps(gate, _mm_setzero_ps()), x);
  }
  // cmpneq is unordered: a NaN gate keeps x, like the scalar `gate != 0`.
  static VF NonzeroAndF(VF gate, VF x) {
    return _mm_and_ps(_mm_cmpneq_ps(gate, _mm_setzero_ps()), x);
  }
  static VF RoundTf32F(VF v) {
    const __m128i bits = _mm_add_epi32(_mm_castps_si128(v), _mm_set1_epi32(1 << 12));
    return _mm_castsi128_ps(_mm_and_si128(bits, _mm_set1_epi32(~0x1fff)));
  }
  static VF RoundBf16F(VF v) {
    const __m128i bits = _mm_castps_si128(v);
    const __m128i lsb = _mm_and_si128(_mm_srli_epi32(bits, 16), _mm_set1_epi32(1));
    const __m128i up = _mm_add_epi32(_mm_set1_epi32(0x7fff), lsb);
    return _mm_castsi128_ps(_mm_and_si128(
        _mm_add_epi32(bits, up), _mm_set1_epi32(static_cast<int>(0xffff0000u))));
  }
  static VD AddD(VD a, VD b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static VD MulD(VD a, VD b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static VD DivD(VD a, VD b) {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }
  static VD SqrtD(VD v) { return {_mm_sqrt_pd(v.lo), _mm_sqrt_pd(v.hi)}; }
  static VD WidenFToD(VF v) {
    return {_mm_cvtps_pd(v), _mm_cvtps_pd(_mm_movehl_ps(v, v))};
  }
  static VF NarrowDToF(VD v) {
    return _mm_movelh_ps(_mm_cvtpd_ps(v.lo), _mm_cvtpd_ps(v.hi));
  }
};

}  // namespace

namespace internal {

const SimdKernels* GetSse2Kernels() {
  static const SimdKernels kTable = MakeKernels<Sse2Traits>(SimdLevel::kSse2);
  return &kTable;
}

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#else  // !defined(__SSE2__)

#include "util/simd.h"

namespace hcspmm {
namespace simd {
namespace internal {

const SimdKernels* GetSse2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#endif
