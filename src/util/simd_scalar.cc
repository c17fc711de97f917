// Scalar instantiation of the SIMD hot loops — the bit-exactness reference
// every vector level is asserted against. CMake builds this translation
// unit with auto-vectorization disabled so "forced scalar" means genuinely
// scalar code: the level only executes when HCSPMM_FORCE_SCALAR is set or
// on architectures without a vector table, and keeping it un-vectorized
// makes the scalar-vs-SIMD bench a measurement of vector width rather than
// of compiler whims.
#include <cmath>

#include "util/simd_kernels_impl.h"

namespace hcspmm {
namespace simd {
namespace {

struct ScalarTraits {
  static constexpr int kWidth = 1;
  using VF = float;
  using VD = double;

  static VF LoadF(const float* p) { return *p; }
  static void StoreF(float* p, VF v) { *p = v; }
  // Width 1 leaves no partial vector; defined for the Traits contract only.
  static VF LoadPartialF(const float* p, int n) { return n > 0 ? *p : 0.0f; }
  static void StorePartialF(float* p, VF v, int n) {
    if (n > 0) *p = v;
  }
  static VF BroadcastF(float s) { return s; }
  static VD LoadD(const double* p) { return *p; }
  static VD BroadcastD(double s) { return s; }
  static VD ZeroD() { return 0.0; }
  static VF AddF(VF a, VF b) { return a + b; }
  static VF SubF(VF a, VF b) { return a - b; }
  static VF MulF(VF a, VF b) { return a * b; }
  static VF ReluF(VF v) { return v < 0.0f ? 0.0f : v; }
  static VF Gt0AndF(VF gate, VF x) { return gate > 0.0f ? x : 0.0f; }
  static VF NonzeroAndF(VF gate, VF x) { return gate != 0.0f ? x : 0.0f; }
  static VF RoundTf32F(VF v) { return RoundTf32(v); }
  static VF RoundBf16F(VF v) { return RoundBf16(v); }
  static VD AddD(VD a, VD b) { return a + b; }
  static VD MulD(VD a, VD b) { return a * b; }
  static VD DivD(VD a, VD b) { return a / b; }
  static VD SqrtD(VD v) { return std::sqrt(v); }
  static VD WidenFToD(VF v) { return static_cast<double>(v); }
  static VF NarrowDToF(VD v) { return static_cast<float>(v); }
};

}  // namespace

namespace internal {

const SimdKernels* GetScalarKernels() {
  static const SimdKernels kTable = MakeKernels<ScalarTraits>(SimdLevel::kScalar);
  return &kTable;
}

}  // namespace internal
}  // namespace simd
}  // namespace hcspmm
