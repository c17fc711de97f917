// NEON (aarch64) instantiation: 4-wide fp32, 2x2-wide fp64. Advanced SIMD
// is mandatory on aarch64, so no runtime probe is needed beyond the
// architecture check; CMake compiles the file with -ffp-contract=off so
// mul + add never contracts to a fused vfma (the bit-identity contract).
// 32-bit ARM is excluded: it lacks the fp64 vector ops the optimizer
// kernels need, so those builds fall back to the scalar table.
#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cmath>

#include "util/simd_kernels_impl.h"

namespace hcspmm {
namespace simd {
namespace {

struct VecD4 {
  float64x2_t lo, hi;
};

struct NeonTraits {
  static constexpr int kWidth = 4;
  using VF = float32x4_t;
  using VD = VecD4;

  static VF LoadF(const float* p) { return vld1q_f32(p); }
  static void StoreF(float* p, VF v) { vst1q_f32(p, v); }
  // Lanes [0, n) through a small aligned buffer: exactly n floats are read
  // or written.
  static VF LoadPartialF(const float* p, int n) {
    alignas(16) float buf[kWidth] = {};
    for (int i = 0; i < n; ++i) buf[i] = p[i];
    return vld1q_f32(buf);
  }
  static void StorePartialF(float* p, VF v, int n) {
    alignas(16) float buf[kWidth];
    vst1q_f32(buf, v);
    for (int i = 0; i < n; ++i) p[i] = buf[i];
  }
  static VF BroadcastF(float s) { return vdupq_n_f32(s); }
  static VD LoadD(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
  static VD BroadcastD(double s) { return {vdupq_n_f64(s), vdupq_n_f64(s)}; }
  static VD ZeroD() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static VF AddF(VF a, VF b) { return vaddq_f32(a, b); }
  static VF SubF(VF a, VF b) { return vsubq_f32(a, b); }
  static VF MulF(VF a, VF b) { return vmulq_f32(a, b); }
  // x < 0 ? 0 : x via compare+select rather than vmaxq_f32: FMAX(-0, +0)
  // would return +0 where the scalar reference keeps -0.
  static VF ReluF(VF v) {
    const uint32x4_t lt0 = vcltq_f32(v, vdupq_n_f32(0.0f));
    return vbslq_f32(lt0, vdupq_n_f32(0.0f), v);
  }
  static VF Gt0AndF(VF gate, VF x) {
    const uint32x4_t gt0 = vcgtq_f32(gate, vdupq_n_f32(0.0f));
    return vreinterpretq_f32_u32(vandq_u32(gt0, vreinterpretq_u32_f32(x)));
  }
  // Clears x where gate == 0 (either sign); a NaN gate compares unequal and
  // keeps x, like the scalar `gate != 0`.
  static VF NonzeroAndF(VF gate, VF x) {
    const uint32x4_t eq0 = vceqq_f32(gate, vdupq_n_f32(0.0f));
    return vreinterpretq_f32_u32(vbicq_u32(vreinterpretq_u32_f32(x), eq0));
  }
  static VF RoundTf32F(VF v) {
    const uint32x4_t bits = vaddq_u32(vreinterpretq_u32_f32(v), vdupq_n_u32(1u << 12));
    return vreinterpretq_f32_u32(vandq_u32(bits, vdupq_n_u32(~0x1fffu)));
  }
  static VF RoundBf16F(VF v) {
    const uint32x4_t bits = vreinterpretq_u32_f32(v);
    const uint32x4_t lsb = vandq_u32(vshrq_n_u32(bits, 16), vdupq_n_u32(1u));
    const uint32x4_t up = vaddq_u32(vdupq_n_u32(0x7fffu), lsb);
    return vreinterpretq_f32_u32(
        vandq_u32(vaddq_u32(bits, up), vdupq_n_u32(0xffff0000u)));
  }
  static VD AddD(VD a, VD b) { return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)}; }
  static VD MulD(VD a, VD b) { return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)}; }
  static VD DivD(VD a, VD b) { return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)}; }
  static VD SqrtD(VD v) { return {vsqrtq_f64(v.lo), vsqrtq_f64(v.hi)}; }
  static VD WidenFToD(VF v) {
    return {vcvt_f64_f32(vget_low_f32(v)), vcvt_f64_f32(vget_high_f32(v))};
  }
  static VF NarrowDToF(VD v) {
    return vcombine_f32(vcvt_f32_f64(v.lo), vcvt_f32_f64(v.hi));
  }
};

}  // namespace

namespace internal {

const SimdKernels* GetNeonKernels() {
  static const SimdKernels kTable = MakeKernels<NeonTraits>(SimdLevel::kNeon);
  return &kTable;
}

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#else  // !aarch64 NEON

#include "util/simd.h"

namespace hcspmm {
namespace simd {
namespace internal {

const SimdKernels* GetNeonKernels() { return nullptr; }

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm

#endif
