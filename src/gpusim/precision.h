// Numeric emulation of the reduced-precision formats Tensor cores consume
// (TF32 / FP16 / BF16). Kernels round their operands through these before
// multiplying, so hybrid results show the same mixed-precision behaviour as
// real WMMA (accumulation stays FP32, as on hardware). RoundTf32 and
// RoundBf16 live in util/half.h, shared with the SIMD kernels.
#pragma once

#include "gpusim/device.h"
#include "util/half.h"

namespace hcspmm {

/// FP16 (IEEE binary16) via native conversion.
inline float RoundFp16(float x) {
  _Float16 h = static_cast<_Float16>(x);
  return static_cast<float>(h);
}

/// Round per the requested storage type (kFp32 is a pass-through).
inline float RoundTo(DataType t, float x) {
  switch (t) {
    case DataType::kTf32:
      return RoundTf32(x);
    case DataType::kFp16:
      return RoundFp16(x);
    case DataType::kBf16:
      return RoundBf16(x);
    case DataType::kFp32:
      return x;
  }
  return x;
}

}  // namespace hcspmm
