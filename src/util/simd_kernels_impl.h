// Generic bodies of the SIMD hot loops, instantiated once per instruction
// set. Each per-ISA translation unit (simd_scalar.cc, simd_sse2.cc, ...)
// defines a Traits type inside an anonymous namespace and instantiates
// MakeKernels<Traits>(), so instantiations never cross translation units and
// every TU's code is compiled with exactly its own ISA flags.
//
// Traits contract (W = Traits::kWidth fp32 lanes):
//   using VF / VD;                           // W floats / W doubles
//   VF  LoadF(const float*);                 // unaligned
//   void StoreF(float*, VF);
//   VF  BroadcastF(float);  VD BroadcastD(double);  VD ZeroD();
//   VF  AddF(VF, VF);  VF SubF(VF, VF);  VF MulF(VF, VF);
//   VF  ReluF(VF);                           // x < 0 ? 0 : x  (NaN, -0 pass)
//   VF  Gt0AndF(VF gate, VF x);              // gate > 0 ? x : 0
//   VD  AddD(VD, VD);  VD MulD(VD, VD);  VD DivD(VD, VD);  VD SqrtD(VD);
//   VD  WidenFToD(VF);                       // exact
//   VF  NarrowDToF(VD);                      // round-to-nearest-even
//   VD  GatherFAsD(const float* p, int64_t stride);  // p[l*stride] per lane
//
// Bit-identity: every op above maps to one IEEE-754 operation per lane (or
// an exact conversion), lanes only ever span *independent* outputs, and the
// scalar tails below repeat the seed expressions verbatim — so each output
// element sees the same operation sequence at every width.

#pragma once

#include <cmath>
#include <cstdint>

#include "util/half.h"
#include "util/packed_index.h"
#include "util/simd.h"

namespace hcspmm {
namespace simd {

// dst[0, n) += s * src[0, n) — the axpy all SpMM/GEMM row kernels reduce to.
template <typename T>
inline void AxpyRowT(float s, const float* src, float* dst, int32_t n) {
  typename T::VF vs = T::BroadcastF(s);
  int32_t j = 0;
  for (; j + T::kWidth <= n; j += T::kWidth) {
    T::StoreF(dst + j, T::AddF(T::LoadF(dst + j), T::MulF(vs, T::LoadF(src + j))));
  }
  for (; j < n; ++j) dst[j] += s * src[j];
}

// Nonzeros ahead of the current one whose feature-row tile SpmmRowsT
// prefetches; far enough to cover a DRAM miss at a few ns per nonzero.
constexpr int64_t kSpmmPrefetchDistance = 8;

// One register tile of SpmmRowsT: output columns [0, NV * W) of zt (a row of
// z offset to the tile) accumulate every nonzero k in [k_begin, k_end) of the
// row in NV vector registers — z is loaded and stored once per tile instead
// of once per nonzero. Each lane still sees z + p_0 + p_1 + ... with separate
// mul and add in k order, the exact sequence of AxpyRowT. xt is x offset to
// the tile's first column; prefetches stay below k_limit.
template <typename T, int NV>
inline void SpmmTileT(const int32_t* col_ind, const float* val, const float* xt,
                      float* zt, int64_t k_begin, int64_t k_end, int64_t k_limit,
                      int32_t dim) {
  constexpr int kFloatsPerLine = 16;  // 64-byte cache lines
  typename T::VF acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = T::LoadF(zt + v * T::kWidth);
  for (int64_t k = k_begin; k < k_end; ++k) {
    if (k + kSpmmPrefetchDistance < k_limit) {
      const float* ahead =
          xt + static_cast<int64_t>(col_ind[k + kSpmmPrefetchDistance]) * dim;
      for (int off = 0; off < NV * T::kWidth; off += kFloatsPerLine) {
        __builtin_prefetch(ahead + off);
      }
    }
    const float* xr = xt + static_cast<int64_t>(col_ind[k]) * dim;
    const typename T::VF vs = T::BroadcastF(val[k]);
    for (int v = 0; v < NV; ++v) {
      acc[v] = T::AddF(acc[v], T::MulF(vs, T::LoadF(xr + v * T::kWidth)));
    }
  }
  for (int v = 0; v < NV; ++v) T::StoreF(zt + v * T::kWidth, acc[v]);
}

// z[r, :] += A[r, :] * x row by row, in column tiles of 8, 4, 2 and 1
// vectors and then a scalar column tail, so each output element is loaded
// and stored once per row rather than once per nonzero.
template <typename T>
void SpmmRowsT(const int64_t* row_ptr, const int32_t* col_ind, const float* val,
               const float* x, float* z, int32_t row_begin, int32_t row_end,
               int32_t dim) {
  constexpr int32_t W = T::kWidth;
  const int64_t k_limit = row_ptr[row_end];
  for (int32_t r = row_begin; r < row_end; ++r) {
    float* zr = z + static_cast<int64_t>(r) * dim;
    const int64_t kb = row_ptr[r];
    const int64_t ke = row_ptr[r + 1];
    int32_t j = 0;
    for (; j + 8 * W <= dim; j += 8 * W) {
      SpmmTileT<T, 8>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
    }
    if (j + 4 * W <= dim) {
      SpmmTileT<T, 4>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += 4 * W;
    }
    if (j + 2 * W <= dim) {
      SpmmTileT<T, 2>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += 2 * W;
    }
    if (j + W <= dim) {
      SpmmTileT<T, 1>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += W;
    }
    for (; j < dim; ++j) {
      float acc = zr[j];
      for (int64_t k = kb; k < ke; ++k) {
        acc += val[k] * x[static_cast<int64_t>(col_ind[k]) * dim + j];
      }
      zr[j] = acc;
    }
  }
}

// spmm_rows over the packed delta stream: columns are reconstructed with
// integer adds in CSR order and each nonzero feeds the *same* AxpyRowT the
// plain path uses, so the floating-point sequence per output element is
// unchanged — bit-identical to SpmmRowsT at every width.
template <typename T>
void SpmmRowsPackedT(const int64_t* row_ptr, const uint8_t* stream,
                     const uint32_t* pack_ptr, const float* val, const float* x,
                     float* z, int32_t row_begin, int32_t row_end, int32_t dim) {
  for (int32_t r = row_begin; r < row_end; ++r) {
    float* zr = z + static_cast<int64_t>(r) * dim;
    const uint8_t* p = stream + pack_ptr[r];
    int64_t col = 0;
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      uint32_t delta;
      p = packed::DecodeDelta(p, &delta);
      col += delta;
      AxpyRowT<T>(val[k], x + col * dim, zr, dim);
    }
  }
}

// W lanes of reduced-precision storage widened to an fp32 vector. The
// per-lane scalar conversions are exact, so the value each lane carries is
// identical to what the scalar tail computes — no Traits extension needed.
template <typename T, bool kBf16>
inline typename T::VF LoadHalfF(const uint16_t* p) {
  alignas(64) float tmp[T::kWidth];
  for (int32_t l = 0; l < T::kWidth; ++l) {
    tmp[l] = kBf16 ? Bf16BitsToF32(p[l]) : F16BitsToF32(p[l]);
  }
  return T::LoadF(tmp);
}

// dst[0, n) += s * widen(src[0, n)) — the axpy of the reduced-precision
// feature path (fp32 accumulate; only the X load narrows).
template <typename T, bool kBf16>
inline void AxpyRowHalfT(float s, const uint16_t* src, float* dst, int32_t n) {
  typename T::VF vs = T::BroadcastF(s);
  int32_t j = 0;
  for (; j + T::kWidth <= n; j += T::kWidth) {
    T::StoreF(dst + j,
              T::AddF(T::LoadF(dst + j), T::MulF(vs, LoadHalfF<T, kBf16>(src + j))));
  }
  for (; j < n; ++j) {
    dst[j] += s * (kBf16 ? Bf16BitsToF32(src[j]) : F16BitsToF32(src[j]));
  }
}

template <typename T, bool kBf16>
void SpmmRowsHalfImpl(const int64_t* row_ptr, const int32_t* col_ind,
                      const float* val, const uint16_t* x, float* z,
                      int32_t row_begin, int32_t row_end, int32_t dim) {
  for (int32_t r = row_begin; r < row_end; ++r) {
    float* zr = z + static_cast<int64_t>(r) * dim;
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      AxpyRowHalfT<T, kBf16>(val[k], x + static_cast<int64_t>(col_ind[k]) * dim, zr,
                             dim);
    }
  }
}

template <typename T>
void SpmmRowsHalfT(const int64_t* row_ptr, const int32_t* col_ind, const float* val,
                   const uint16_t* x, float* z, int32_t row_begin, int32_t row_end,
                   int32_t dim, bool bf16) {
  if (bf16) {
    SpmmRowsHalfImpl<T, true>(row_ptr, col_ind, val, x, z, row_begin, row_end, dim);
  } else {
    SpmmRowsHalfImpl<T, false>(row_ptr, col_ind, val, x, z, row_begin, row_end, dim);
  }
}

template <typename T, bool kBf16>
void SpmmRowsPackedHalfImpl(const int64_t* row_ptr, const uint8_t* stream,
                            const uint32_t* pack_ptr, const float* val,
                            const uint16_t* x, float* z, int32_t row_begin,
                            int32_t row_end, int32_t dim) {
  for (int32_t r = row_begin; r < row_end; ++r) {
    float* zr = z + static_cast<int64_t>(r) * dim;
    const uint8_t* p = stream + pack_ptr[r];
    int64_t col = 0;
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      uint32_t delta;
      p = packed::DecodeDelta(p, &delta);
      col += delta;
      AxpyRowHalfT<T, kBf16>(val[k], x + col * dim, zr, dim);
    }
  }
}

template <typename T>
void SpmmRowsPackedHalfT(const int64_t* row_ptr, const uint8_t* stream,
                         const uint32_t* pack_ptr, const float* val,
                         const uint16_t* x, float* z, int32_t row_begin,
                         int32_t row_end, int32_t dim, bool bf16) {
  if (bf16) {
    SpmmRowsPackedHalfImpl<T, true>(row_ptr, stream, pack_ptr, val, x, z, row_begin,
                                    row_end, dim);
  } else {
    SpmmRowsPackedHalfImpl<T, false>(row_ptr, stream, pack_ptr, val, x, z, row_begin,
                                     row_end, dim);
  }
}

template <typename T>
void GemmRowsT(const float* a, const float* b, float* c, int32_t a_cols,
               int32_t b_cols, int32_t row_begin, int32_t row_end) {
  for (int32_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * a_cols;
    float* crow = c + static_cast<int64_t>(i) * b_cols;
    for (int32_t k = 0; k < a_cols; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      AxpyRowT<T>(aik, b + static_cast<int64_t>(k) * b_cols, crow, b_cols);
    }
  }
}

template <typename T>
void GemmTransARowsT(const float* a, const float* b, float* c, int32_t a_rows,
                     int32_t a_cols, int32_t b_cols, int32_t i_begin,
                     int32_t i_end) {
  for (int32_t k = 0; k < a_rows; ++k) {
    const float* arow = a + static_cast<int64_t>(k) * a_cols;
    const float* brow = b + static_cast<int64_t>(k) * b_cols;
    for (int32_t i = i_begin; i < i_end; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      AxpyRowT<T>(aki, brow, c + static_cast<int64_t>(i) * b_cols, b_cols);
    }
  }
}

template <typename T>
void GemmTransBRowsT(const float* a, const float* b, float* c, int32_t a_cols,
                     int32_t b_rows, int32_t row_begin, int32_t row_end) {
  for (int32_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * a_cols;
    float* crow = c + static_cast<int64_t>(i) * b_rows;
    int32_t j = 0;
    // Lanes span W independent output columns j; each lane accumulates its
    // own double dot product in k-ascending order (B rows are gathered with
    // stride a_cols), so the per-output order matches the scalar tail.
    for (; j + T::kWidth <= b_rows; j += T::kWidth) {
      typename T::VD acc = T::ZeroD();
      const float* bbase = b + static_cast<int64_t>(j) * a_cols;
      for (int32_t k = 0; k < a_cols; ++k) {
        typename T::VD va = T::BroadcastD(static_cast<double>(arow[k]));
        acc = T::AddD(acc, T::MulD(va, T::GatherFAsD(bbase + k, a_cols)));
      }
      T::StoreF(crow + j, T::NarrowDToF(acc));
    }
    for (; j < b_rows; ++j) {
      const float* brow = b + static_cast<int64_t>(j) * a_cols;
      double acc = 0.0;
      for (int32_t k = 0; k < a_cols; ++k) {
        acc += static_cast<double>(arow[k]) * brow[k];
      }
      crow[j] = static_cast<float>(acc);
    }
  }
}

template <typename T>
void ReluT(float* z, int64_t n) {
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    T::StoreF(z + i, T::ReluF(T::LoadF(z + i)));
  }
  for (; i < n; ++i) z[i] = z[i] < 0.0f ? 0.0f : z[i];
}

template <typename T>
void ReluGradT(const float* grad_out, const float* pre_act, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    T::StoreF(dst + i, T::Gt0AndF(T::LoadF(pre_act + i), T::LoadF(grad_out + i)));
  }
  for (; i < n; ++i) dst[i] = pre_act[i] > 0.0f ? grad_out[i] : 0.0f;
}

template <typename T>
void SgdT(float* w, const float* g, int64_t n, double lr) {
  typename T::VD vlr = T::BroadcastD(lr);
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    typename T::VF vw = T::LoadF(w + i);
    typename T::VD vg = T::WidenFToD(T::LoadF(g + i));
    T::StoreF(w + i, T::SubF(vw, T::NarrowDToF(T::MulD(vlr, vg))));
  }
  for (; i < n; ++i) w[i] -= static_cast<float>(lr * g[i]);
}

template <typename T>
void SgdDecayT(float* w, const float* g, int64_t n, double lr, double weight_decay) {
  typename T::VD vlr = T::BroadcastD(lr);
  typename T::VD vwd = T::BroadcastD(weight_decay);
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    typename T::VF vw = T::LoadF(w + i);
    typename T::VD vg = T::WidenFToD(T::LoadF(g + i));
    typename T::VD step =
        T::MulD(vlr, T::AddD(vg, T::MulD(vwd, T::WidenFToD(vw))));
    T::StoreF(w + i, T::SubF(vw, T::NarrowDToF(step)));
  }
  for (; i < n; ++i) {
    w[i] -= static_cast<float>(lr * (g[i] + weight_decay * w[i]));
  }
}

template <typename T>
void MomentumT(float* w, const float* g, float* m, int64_t n, double lr,
               double momentum, double weight_decay) {
  typename T::VD vlr = T::BroadcastD(lr);
  typename T::VD vmom = T::BroadcastD(momentum);
  typename T::VD vwd = T::BroadcastD(weight_decay);
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    typename T::VF vw = T::LoadF(w + i);
    typename T::VD vg = T::WidenFToD(T::LoadF(g + i));
    typename T::VD vm = T::WidenFToD(T::LoadF(m + i));
    // (momentum * m + g) + weight_decay * w — the seed's association.
    typename T::VF m_new = T::NarrowDToF(T::AddD(
        T::AddD(T::MulD(vmom, vm), vg), T::MulD(vwd, T::WidenFToD(vw))));
    T::StoreF(m + i, m_new);
    T::StoreF(w + i, T::SubF(vw, T::NarrowDToF(T::MulD(vlr, T::WidenFToD(m_new)))));
  }
  for (; i < n; ++i) {
    m[i] = static_cast<float>(momentum * m[i] + g[i] + weight_decay * w[i]);
    w[i] -= static_cast<float>(lr * m[i]);
  }
}

template <typename T>
void AdamT(float* w, const float* g, float* m, float* v, int64_t n, double lr,
           double beta1, double beta2, double epsilon, double weight_decay,
           double bc1, double bc2) {
  typename T::VD vlr = T::BroadcastD(lr);
  typename T::VD vb1 = T::BroadcastD(beta1);
  typename T::VD vb2 = T::BroadcastD(beta2);
  typename T::VD vomb1 = T::BroadcastD(1.0 - beta1);
  typename T::VD vomb2 = T::BroadcastD(1.0 - beta2);
  typename T::VD veps = T::BroadcastD(epsilon);
  typename T::VD vwd = T::BroadcastD(weight_decay);
  typename T::VD vbc1 = T::BroadcastD(bc1);
  typename T::VD vbc2 = T::BroadcastD(bc2);
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    typename T::VF vw = T::LoadF(w + i);
    typename T::VD grad =
        T::AddD(T::WidenFToD(T::LoadF(g + i)), T::MulD(vwd, T::WidenFToD(vw)));
    typename T::VF m_new = T::NarrowDToF(T::AddD(
        T::MulD(vb1, T::WidenFToD(T::LoadF(m + i))), T::MulD(vomb1, grad)));
    // ((1 - beta2) * grad) * grad — the seed's association.
    typename T::VF v_new = T::NarrowDToF(
        T::AddD(T::MulD(vb2, T::WidenFToD(T::LoadF(v + i))),
                T::MulD(T::MulD(vomb2, grad), grad)));
    T::StoreF(m + i, m_new);
    T::StoreF(v + i, v_new);
    typename T::VD m_hat = T::DivD(T::WidenFToD(m_new), vbc1);
    typename T::VD v_hat = T::DivD(T::WidenFToD(v_new), vbc2);
    typename T::VD step =
        T::DivD(T::MulD(vlr, m_hat), T::AddD(T::SqrtD(v_hat), veps));
    T::StoreF(w + i, T::SubF(vw, T::NarrowDToF(step)));
  }
  for (; i < n; ++i) {
    const double grad = g[i] + weight_decay * w[i];
    m[i] = static_cast<float>(beta1 * m[i] + (1.0 - beta1) * grad);
    v[i] = static_cast<float>(beta2 * v[i] + (1.0 - beta2) * grad * grad);
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    w[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + epsilon));
  }
}

template <typename T>
SimdKernels MakeKernels(SimdLevel level) {
  SimdKernels k;
  k.level = level;
  k.spmm_rows = &SpmmRowsT<T>;
  k.spmm_rows_packed = &SpmmRowsPackedT<T>;
  k.spmm_rows_half = &SpmmRowsHalfT<T>;
  k.spmm_rows_packed_half = &SpmmRowsPackedHalfT<T>;
  k.gemm_rows = &GemmRowsT<T>;
  k.gemm_ta_rows = &GemmTransARowsT<T>;
  k.gemm_tb_rows = &GemmTransBRowsT<T>;
  k.relu = &ReluT<T>;
  k.relu_grad = &ReluGradT<T>;
  k.sgd = &SgdT<T>;
  k.sgd_decay = &SgdDecayT<T>;
  k.momentum = &MomentumT<T>;
  k.adam = &AdamT<T>;
  return k;
}

}  // namespace simd
}  // namespace hcspmm
