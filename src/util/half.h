// Scalar reduced-precision arithmetic, the one definition every caller
// shares: the TF32 / BF16 operand rounding of the simulated Tensor cores
// (gpusim/precision.h, and the rounded SIMD SpMM kernel's scalar lanes) and
// the fp16 / bf16 <-> fp32 conversions of the reduced-precision feature
// storage path. Storage is always raw uint16_t bit patterns; the SIMD
// kernels convert on load and accumulate in fp32, so these conversions are
// the *only* place precision is lost. Every function is deterministic
// (round-to-nearest on narrowing, exact on widening), so reduced-precision
// results are identical at every SIMD level / thread count — just not
// identical to fp32.
#pragma once

#include <cstdint>
#include <cstring>

namespace hcspmm {

/// TF32: FP32 with the mantissa rounded to 10 bits (19-bit format). Pure
/// integer ops, mirrored lane-wise by the SIMD Traits' RoundTf32F.
inline float RoundTf32(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  // Round-to-nearest on bit 13, then clear the low 13 mantissa bits.
  bits += 1u << 12;
  bits &= ~((1u << 13) - 1);
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// BF16: FP32 rounded to its top 16 bits with round-to-nearest-even, kept
/// as an fp32 value. Mirrored lane-wise by the SIMD Traits' RoundBf16F.
inline float RoundBf16(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const uint32_t lsb = (bits >> 16) & 1u;
  bits += 0x7fffu + lsb;
  bits &= 0xffff0000u;
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// fp32 -> IEEE binary16 bit pattern (round-to-nearest-even, hardware
/// semantics via the compiler's _Float16 — the same type RoundFp16 in
/// gpusim/precision.h relies on).
inline uint16_t F32ToF16Bits(float x) {
  const _Float16 h = static_cast<_Float16>(x);
  uint16_t bits;
  std::memcpy(&bits, &h, sizeof(bits));
  return bits;
}

/// IEEE binary16 bit pattern -> fp32 (exact: every fp16 value is
/// representable in fp32). Pure integer bit manipulation rather than a
/// _Float16 cast: without -mf16c the cast lowers to a per-element
/// __extendhfsf2 library call, which dominated the reduced-precision SpMM
/// hot loop (~30x over fp32) before this rewrite.
inline float F16BitsToF32(uint16_t bits) {
  // Place the fp16 exponent+mantissa in the fp32 field positions, then
  // rebias by multiplying with 2^112 (= 2^(127-15)). The multiply is exact:
  // it only shifts the exponent, and fp16 subnormals (fp32 subnormals
  // before the multiply) renormalize for free. Inf/NaN come out of the
  // multiply as normals with exponent field 143 (31 + 112), so OR-ing the
  // saturated exponent back in restores them, payload intact.
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  uint32_t wide = static_cast<uint32_t>(bits & 0x7fffu) << 13;
  float f;
  std::memcpy(&f, &wide, sizeof(f));
  f *= 0x1p112f;
  std::memcpy(&wide, &f, sizeof(wide));
  if ((bits & 0x7c00u) == 0x7c00u) wide |= 0x7f800000u;
  wide |= sign;
  std::memcpy(&f, &wide, sizeof(f));
  return f;
}

/// fp32 -> bfloat16 bit pattern: the top 16 bits of RoundBf16(x).
inline uint16_t F32ToBf16Bits(float x) {
  const float rounded = RoundBf16(x);
  uint32_t bits;
  std::memcpy(&bits, &rounded, sizeof(bits));
  return static_cast<uint16_t>(bits >> 16);
}

/// bfloat16 bit pattern -> fp32 (exact: bf16 is a truncated fp32).
inline float Bf16BitsToF32(uint16_t bits) {
  const uint32_t wide = static_cast<uint32_t>(bits) << 16;
  float out;
  std::memcpy(&out, &wide, sizeof(out));
  return out;
}

}  // namespace hcspmm
