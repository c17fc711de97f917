// AVX2 instantiation: 8-wide fp32, 2x4-wide fp64. CMake compiles this file
// with -mavx2 -ffp-contract=off (only when the compiler supports the flag);
// the dispatcher selects it only when CPUID reports AVX2, so the rest of the
// binary stays at the base ISA. -mavx2 deliberately does not imply -mfma and
// contraction is off, so mul + add stays two rounded operations and results
// match the scalar reference bit-for-bit.
#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

#include "util/simd_kernels_impl.h"

namespace hcspmm {
namespace simd {
namespace {

struct VecD8 {
  __m256d lo, hi;
};

struct Avx2Traits {
  static constexpr int kWidth = 8;
  using VF = __m256;
  using VD = VecD8;

  static VF LoadF(const float* p) { return _mm256_loadu_ps(p); }
  static void StoreF(float* p, VF v) { _mm256_storeu_ps(p, v); }
  // Lanes [0, n): masked-off lanes read as 0, are never written, and never
  // fault, so a partial vector at the end of an allocation is safe.
  static __m256i FirstLanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static VF LoadPartialF(const float* p, int n) {
    return _mm256_maskload_ps(p, FirstLanes(n));
  }
  static void StorePartialF(float* p, VF v, int n) {
    _mm256_maskstore_ps(p, FirstLanes(n), v);
  }
  static VF BroadcastF(float s) { return _mm256_set1_ps(s); }
  static VD LoadD(const double* p) { return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)}; }
  static VD BroadcastD(double s) { return {_mm256_set1_pd(s), _mm256_set1_pd(s)}; }
  static VD ZeroD() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static VF AddF(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF SubF(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF MulF(VF a, VF b) { return _mm256_mul_ps(a, b); }
  // x < 0 ? 0 : x — ordered compare is false for NaN, so NaN and -0.0 pass
  // through exactly like the scalar reference.
  static VF ReluF(VF v) {
    return _mm256_andnot_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ), v);
  }
  static VF Gt0AndF(VF gate, VF x) {
    return _mm256_and_ps(_mm256_cmp_ps(gate, _mm256_setzero_ps(), _CMP_GT_OQ), x);
  }
  // Unordered not-equal: a NaN gate keeps x, like the scalar `gate != 0`.
  static VF NonzeroAndF(VF gate, VF x) {
    return _mm256_and_ps(_mm256_cmp_ps(gate, _mm256_setzero_ps(), _CMP_NEQ_UQ), x);
  }
  static VF RoundTf32F(VF v) {
    const __m256i bits =
        _mm256_add_epi32(_mm256_castps_si256(v), _mm256_set1_epi32(1 << 12));
    return _mm256_castsi256_ps(_mm256_and_si256(bits, _mm256_set1_epi32(~0x1fff)));
  }
  static VF RoundBf16F(VF v) {
    const __m256i bits = _mm256_castps_si256(v);
    const __m256i lsb =
        _mm256_and_si256(_mm256_srli_epi32(bits, 16), _mm256_set1_epi32(1));
    const __m256i up = _mm256_add_epi32(_mm256_set1_epi32(0x7fff), lsb);
    return _mm256_castsi256_ps(_mm256_and_si256(
        _mm256_add_epi32(bits, up), _mm256_set1_epi32(static_cast<int>(0xffff0000u))));
  }
  static VD AddD(VD a, VD b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static VD MulD(VD a, VD b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static VD DivD(VD a, VD b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  static VD SqrtD(VD v) { return {_mm256_sqrt_pd(v.lo), _mm256_sqrt_pd(v.hi)}; }
  static VD WidenFToD(VF v) {
    return {_mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))};
  }
  static VF NarrowDToF(VD v) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(v.lo)),
                                _mm256_cvtpd_ps(v.hi), 1);
  }
};

}  // namespace

namespace internal {

const SimdKernels* GetAvx2Kernels() {
  static const SimdKernels kTable = MakeKernels<Avx2Traits>(SimdLevel::kAvx2);
  return &kTable;
}

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#else  // !defined(__AVX2__)

#include "util/simd.h"

namespace hcspmm {
namespace simd {
namespace internal {

const SimdKernels* GetAvx2Kernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#endif
