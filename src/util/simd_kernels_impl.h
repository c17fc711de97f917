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
//   VF  LoadPartialF(const float*, int n);   // lanes [0, n), rest 0; n < W,
//   void StorePartialF(float*, VF, int n);   // touching no byte past p + n
//   VF  BroadcastF(float);  VD BroadcastD(double);  VD ZeroD();
//   VF  AddF(VF, VF);  VF SubF(VF, VF);  VF MulF(VF, VF);
//   VF  ReluF(VF);                           // x < 0 ? 0 : x  (NaN, -0 pass)
//   VF  Gt0AndF(VF gate, VF x);              // gate > 0 ? x : 0
//   VF  NonzeroAndF(VF gate, VF x);          // gate != 0 ? x : +0 (NaN: x)
//   VF  RoundTf32F(VF);  VF RoundBf16F(VF);  // RoundTf32 / RoundBf16 per lane
//   VD  LoadD(const double*);                // unaligned
//   VD  AddD(VD, VD);  VD MulD(VD, VD);  VD DivD(VD, VD);  VD SqrtD(VD);
//   VD  WidenFToD(VF);                       // exact
//   VF  NarrowDToF(VD);                      // round-to-nearest-even
//
// Bit-identity: every op above maps to one IEEE-754 operation per lane (or
// an exact conversion, integer bit op or masked move), lanes only ever span
// *independent* outputs, and the scalar tails below repeat the seed
// expressions verbatim — so each output element sees the same operation
// sequence at every width.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

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

// Operand rounding of the SpMM row kernel. kNone is the plain fp32 kernel;
// kTf32 and kBf16 round the broadcast value and every loaded feature-row
// vector to a Tensor-core input format first, as the hybrid's
// Tensor-routed windows compute. The vector forms are the integer bit ops
// of RoundTf32 / RoundBf16 lane by lane, so every lane matches the scalar
// rounding exactly.
enum class Rounding { kNone, kTf32, kBf16 };

template <Rounding kR>
inline float RoundS(float s) {
  if constexpr (kR == Rounding::kTf32) return RoundTf32(s);
  if constexpr (kR == Rounding::kBf16) return RoundBf16(s);
  return s;
}

template <typename T, Rounding kR>
inline typename T::VF RoundV(typename T::VF v) {
  if constexpr (kR == Rounding::kTf32) return T::RoundTf32F(v);
  if constexpr (kR == Rounding::kBf16) return T::RoundBf16F(v);
  return v;
}

// One register tile of SpmmRowsT: output columns [0, NV * W) of zt (a row of
// z offset to the tile) accumulate every nonzero k in [k_begin, k_end) of the
// row in NV vector registers — z is loaded and stored once per tile instead
// of once per nonzero. Each lane still sees z + p_0 + p_1 + ... with separate
// mul and add in k order, the exact sequence of AxpyRowT. xt is x offset to
// the tile's first column; prefetches stay below k_limit.
template <typename T, Rounding kR, int NV>
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
    const typename T::VF vs = T::BroadcastF(RoundS<kR>(val[k]));
    for (int v = 0; v < NV; ++v) {
      acc[v] = T::AddF(acc[v],
                       T::MulF(vs, RoundV<T, kR>(T::LoadF(xr + v * T::kWidth))));
    }
  }
  for (int v = 0; v < NV; ++v) T::StoreF(zt + v * T::kWidth, acc[v]);
}

// The last n < W output columns of a row as one partial vector: the same
// per-lane sequence as SpmmTileT, with loads and stores limited to n lanes
// so neither z nor the last gathered x row is read or written past its end.
template <typename T, Rounding kR>
inline void SpmmPartialTileT(const int32_t* col_ind, const float* val,
                             const float* xt, float* zt, int64_t k_begin,
                             int64_t k_end, int32_t dim, int n) {
  typename T::VF acc = T::LoadPartialF(zt, n);
  for (int64_t k = k_begin; k < k_end; ++k) {
    const float* xr = xt + static_cast<int64_t>(col_ind[k]) * dim;
    acc = T::AddF(acc, T::MulF(T::BroadcastF(RoundS<kR>(val[k])),
                               RoundV<T, kR>(T::LoadPartialF(xr, n))));
  }
  T::StorePartialF(zt, acc, n);
}

// z[r, :] += A[r, :] * x row by row, in column tiles of 8, 4, 2 and 1
// vectors and then one partial vector for the last dim % W columns, so each
// output element is loaded and stored once per row rather than once per
// nonzero.
template <typename T, Rounding kR>
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
      SpmmTileT<T, kR, 8>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
    }
    if (j + 4 * W <= dim) {
      SpmmTileT<T, kR, 4>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += 4 * W;
    }
    if (j + 2 * W <= dim) {
      SpmmTileT<T, kR, 2>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += 2 * W;
    }
    if (j + W <= dim) {
      SpmmTileT<T, kR, 1>(col_ind, val, x + j, zr + j, kb, ke, k_limit, dim);
      j += W;
    }
    if (j < dim) {
      SpmmPartialTileT<T, kR>(col_ind, val, x + j, zr + j, kb, ke, dim, dim - j);
    }
  }
}

template <typename T>
void SpmmRowsRoundedT(const int64_t* row_ptr, const int32_t* col_ind,
                      const float* val, const float* x, float* z, int32_t row_begin,
                      int32_t row_end, int32_t dim, bool bf16) {
  if (bf16) {
    SpmmRowsT<T, Rounding::kBf16>(row_ptr, col_ind, val, x, z, row_begin, row_end,
                                  dim);
  } else {
    SpmmRowsT<T, Rounding::kTf32>(row_ptr, col_ind, val, x, z, row_begin, row_end,
                                  dim);
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

// n columns rounded up to whole vectors. GEMM rows are padded to this pitch
// so every column tile is full vectors; pad lanes are computed and dropped.
template <typename T>
inline int32_t PaddedCols(int32_t n) {
  return (n + T::kWidth - 1) / T::kWidth * T::kWidth;
}

// dst (rows x pitch) = src (rows x n), zero-filled beyond column n.
inline void PadRows(const float* src, int32_t rows, int32_t n, int32_t pitch,
                    float* dst) {
  for (int32_t r = 0; r < rows; ++r) {
    const float* in = src + static_cast<int64_t>(r) * n;
    float* out = dst + static_cast<int64_t>(r) * pitch;
    std::copy(in, in + n, out);
    std::fill(out + n, out + pitch, 0.0f);
  }
}

// Output rows one call of GemmGroupT covers. A tile of NV vectors per row
// spans GemmTileRows<NV>() of them, so every tile keeps at most 8
// accumulator vectors and rows share each loaded B vector.
constexpr int32_t kGemmGroupRows = 4;

template <int NV>
constexpr int GemmTileRows() {
  return NV <= 2 ? 4 : (NV <= 4 ? 2 : 1);
}

// Rows of A and B that GemmTransARowsT takes per block: the block of B
// stays in cache while every output row of the span reads it.
constexpr int32_t kGemmKBlock = 256;

// One R x NV register tile: output row r, columns [0, NV * W) of
// acc + r * pitch, accumulates A(r, k) * B row k for k in [0, kn), where
// A(r, k) = a[r * r_stride + k * k_stride] and B row k starts at
// b + k * pitch. The accumulators are loaded and stored once. Every
// product is masked by A(r, k) != 0 (a vector compare, no branch), so a
// zero A element adds +0 even when its B entry is Inf or NaN. Accumulators
// start from +0 and x + 0 == x for every x but -0, which a sum starting at
// +0 never reaches — so each lane sees exactly the seed's sequence: one mul
// and one add per nonzero A element, k ascending.
template <typename T, int R, int NV>
inline void GemmTileT(const float* a, int64_t r_stride, int64_t k_stride, int32_t kn,
                      const float* b, int32_t pitch, float* acc_rows) {
  constexpr int32_t W = T::kWidth;
  typename T::VF acc[R][NV];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = T::LoadF(acc_rows + r * pitch + v * W);
  }
  for (int32_t k = 0; k < kn; ++k) {
    const float* br = b + static_cast<int64_t>(k) * pitch;
    for (int r = 0; r < R; ++r) {
      const typename T::VF va = T::BroadcastF(a[r * r_stride + k * k_stride]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = T::AddF(acc[r][v],
                            T::NonzeroAndF(va, T::MulF(va, T::LoadF(br + v * W))));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) T::StoreF(acc_rows + r * pitch + v * W, acc[r][v]);
  }
}

// Columns [0, NV * W) of `rows` output rows, in tiles of GemmTileRows<NV>
// rows and then single rows.
template <typename T, int NV>
inline void GemmColumnTileT(const float* a, int64_t r_stride, int64_t k_stride,
                            int32_t kn, const float* b, int32_t pitch, float* acc,
                            int32_t rows) {
  constexpr int R = GemmTileRows<NV>();
  int32_t r = 0;
  for (; r + R <= rows; r += R) {
    GemmTileT<T, R, NV>(a + r * r_stride, r_stride, k_stride, kn, b, pitch,
                        acc + static_cast<int64_t>(r) * pitch);
  }
  for (; r < rows; ++r) {
    GemmTileT<T, 1, NV>(a + r * r_stride, r_stride, k_stride, kn, b, pitch,
                        acc + static_cast<int64_t>(r) * pitch);
  }
}

// acc rows [0, rows) (rows <= kGemmGroupRows, pitch `pitch`) += A * B over
// the padded width: column tiles of 8 vectors, then one of the remaining
// 1..7.
template <typename T>
void GemmGroupT(const float* a, int64_t r_stride, int64_t k_stride, int32_t kn,
                const float* b, int32_t pitch, float* acc, int32_t rows) {
  constexpr int32_t W = T::kWidth;
  int32_t col = 0;
  for (; col + 8 * W <= pitch; col += 8 * W) {
    GemmColumnTileT<T, 8>(a, r_stride, k_stride, kn, b + col, pitch, acc + col, rows);
  }
  const float* bc = b + col;
  float* ac = acc + col;
  switch ((pitch - col) / W) {
    case 7: GemmColumnTileT<T, 7>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 6: GemmColumnTileT<T, 6>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 5: GemmColumnTileT<T, 5>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 4: GemmColumnTileT<T, 4>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 3: GemmColumnTileT<T, 3>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 2: GemmColumnTileT<T, 2>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    case 1: GemmColumnTileT<T, 1>(a, r_stride, k_stride, kn, bc, pitch, ac, rows); break;
    default: break;
  }
}

// C[i, :] = A[i, :] * B, kGemmGroupRows rows at a time into a padded
// scratch group that is then copied out (B is padded to the same pitch
// when b_cols needs it).
template <typename T>
void GemmRowsT(const float* a, const float* b, float* c, int32_t a_cols,
               int32_t b_cols, int32_t row_begin, int32_t row_end) {
  const int32_t pitch = PaddedCols<T>(b_cols);
  std::vector<float> b_padded;
  const float* bp = b;
  if (pitch != b_cols) {
    b_padded.resize(static_cast<size_t>(a_cols) * pitch);
    PadRows(b, a_cols, b_cols, pitch, b_padded.data());
    bp = b_padded.data();
  }
  std::vector<float> acc(static_cast<size_t>(kGemmGroupRows) * pitch);
  for (int32_t i = row_begin; i < row_end; i += kGemmGroupRows) {
    const int32_t rows = std::min(kGemmGroupRows, row_end - i);
    std::fill(acc.begin(), acc.end(), 0.0f);
    GemmGroupT<T>(a + static_cast<int64_t>(i) * a_cols, a_cols, 1, a_cols, bp, pitch,
                  acc.data(), rows);
    for (int32_t r = 0; r < rows; ++r) {
      const float* row = acc.data() + static_cast<int64_t>(r) * pitch;
      std::copy(row, row + b_cols, c + static_cast<int64_t>(i + r) * b_cols);
    }
  }
}

// C[i, :] = sum_k A[k, i] * B[k, :] for i in [i_begin, i_end). k runs in
// blocks of kGemmKBlock in ascending order; each block accumulates into a
// padded copy of the span's C rows, which is written to C once at the end,
// so neighbouring spans never share a cache line while they run.
template <typename T>
void GemmTransARowsT(const float* a, const float* b, float* c, int32_t a_rows,
                     int32_t a_cols, int32_t b_cols, int32_t i_begin,
                     int32_t i_end) {
  const int32_t pitch = PaddedCols<T>(b_cols);
  const int32_t span = i_end - i_begin;
  std::vector<float> acc(static_cast<size_t>(span) * pitch, 0.0f);
  std::vector<float> b_padded(
      pitch != b_cols ? static_cast<size_t>(kGemmKBlock) * pitch : 0);
  for (int32_t k0 = 0; k0 < a_rows; k0 += kGemmKBlock) {
    const int32_t kn = std::min(kGemmKBlock, a_rows - k0);
    const float* bblock = b + static_cast<int64_t>(k0) * b_cols;
    if (pitch != b_cols) {
      PadRows(bblock, kn, b_cols, pitch, b_padded.data());
      bblock = b_padded.data();
    }
    const float* ablock = a + static_cast<int64_t>(k0) * a_cols;
    for (int32_t i = i_begin; i < i_end; i += kGemmGroupRows) {
      GemmGroupT<T>(ablock + i, 1, a_cols, kn, bblock, pitch,
                    acc.data() + static_cast<int64_t>(i - i_begin) * pitch,
                    std::min(kGemmGroupRows, i_end - i));
    }
  }
  for (int32_t i = i_begin; i < i_end; ++i) {
    const float* row = acc.data() + static_cast<int64_t>(i - i_begin) * pitch;
    std::copy(row, row + b_cols, c + static_cast<int64_t>(i) * b_cols);
  }
}

// One register tile of GemmTransBRowsT: output columns [col, col + NV * W)
// of a row, each lane its own double dot product over k in ascending order,
// reading contiguous rows of the widened B^T.
template <typename T, int NV>
inline void GemmTbTileT(const float* arow, const double* bt, int32_t a_cols,
                        int32_t pitch, int32_t col, float* crow) {
  typename T::VD acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = T::ZeroD();
  for (int32_t k = 0; k < a_cols; ++k) {
    const typename T::VD va = T::BroadcastD(static_cast<double>(arow[k]));
    const double* br = bt + static_cast<int64_t>(k) * pitch + col;
    for (int v = 0; v < NV; ++v) {
      acc[v] = T::AddD(acc[v], T::MulD(va, T::LoadD(br + v * T::kWidth)));
    }
  }
  for (int v = 0; v < NV; ++v) T::StoreF(crow + col + v * T::kWidth, T::NarrowDToF(acc[v]));
}

// C[i, :] = A[i, :] * B^T: B (b_rows x a_cols) is transposed and widened
// to double once (exact) into a zero-padded copy, so each tile streams
// contiguous rows instead of gathering one lane per B row.
template <typename T>
void GemmTransBRowsT(const float* a, const float* b, float* c, int32_t a_cols,
                     int32_t b_rows, int32_t row_begin, int32_t row_end) {
  constexpr int32_t W = T::kWidth;
  const int32_t pitch = PaddedCols<T>(b_rows);
  std::vector<double> bt(static_cast<size_t>(a_cols) * pitch, 0.0);
  for (int32_t j = 0; j < b_rows; ++j) {
    for (int32_t k = 0; k < a_cols; ++k) {
      bt[static_cast<size_t>(k) * pitch + j] = b[static_cast<int64_t>(j) * a_cols + k];
    }
  }
  std::vector<float> crow(static_cast<size_t>(pitch));
  for (int32_t i = row_begin; i < row_end; ++i) {
    const float* arow = a + static_cast<int64_t>(i) * a_cols;
    int32_t col = 0;
    for (; col + 4 * W <= pitch; col += 4 * W) {
      GemmTbTileT<T, 4>(arow, bt.data(), a_cols, pitch, col, crow.data());
    }
    switch ((pitch - col) / W) {
      case 3: GemmTbTileT<T, 3>(arow, bt.data(), a_cols, pitch, col, crow.data()); break;
      case 2: GemmTbTileT<T, 2>(arow, bt.data(), a_cols, pitch, col, crow.data()); break;
      case 1: GemmTbTileT<T, 1>(arow, bt.data(), a_cols, pitch, col, crow.data()); break;
      default: break;
    }
    std::copy(crow.data(), crow.data() + b_rows, c + static_cast<int64_t>(i) * b_rows);
  }
}

template <typename T>
void ReluT(const float* src, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + T::kWidth <= n; i += T::kWidth) {
    T::StoreF(dst + i, T::ReluF(T::LoadF(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i] < 0.0f ? 0.0f : src[i];
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
  k.spmm_rows = &SpmmRowsT<T, Rounding::kNone>;
  k.spmm_rows_rounded = &SpmmRowsRoundedT<T>;
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
