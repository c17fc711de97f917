// Portable SIMD execution layer: every scalar inner loop of the functional
// engine (CSR SpMM — plain and with TF32/BF16-rounded operands — the three
// GEMM row kernels, and the elementwise / optimizer passes) exists once as
// a generic body (simd_kernels_impl.h) that is instantiated per instruction
// set in its own translation unit compiled with the matching ISA flags. A
// runtime-dispatched table of function pointers selects the widest
// implementation the CPU supports.
//
// Bit-identity contract: vectorization is strictly along the independent
// output-column axis (GEMM tiles also span output rows, never k) with
// separate mul + add (the per-ISA translation units are built with
// -ffp-contract=off so no FMA contraction can sneak in), so every output
// element is produced by exactly the same sequence of IEEE operations as
// the scalar reference, up to the GEMMs' masked +0 adds for zero A
// elements, which are exact identities — fp32 and TF32/BF16-rounded results
// are bit-identical across all levels, thread counts, and shard counts.
// tests/simd_test.cc asserts this against naive oracles and the
// forced-scalar table.
#pragma once

#include <cstdint>

#include "util/cpu_features.h"

namespace hcspmm {
namespace simd {

/// \brief Dispatch table of the vectorized hot loops. All pointers are
/// non-null; `level` records which implementation the table actually binds
/// (it can be lower than the requested level when an ISA was not compiled
/// in or the CPU lacks it).
struct SimdKernels {
  SimdLevel level;

  /// CSR SpMM over rows [row_begin, row_end):
  ///   z[r, :] += val[k] * x[col_ind[k], :] for k in [row_ptr[r], row_ptr[r+1]).
  /// `x` and `z` are dense row-major with leading dimension `dim`.
  void (*spmm_rows)(const int64_t* row_ptr, const int32_t* col_ind, const float* val,
                    const float* x, float* z, int32_t row_begin, int32_t row_end,
                    int32_t dim);

  /// spmm_rows with both operands rounded to a Tensor-core input format
  /// first, as the hybrid's Tensor-routed windows compute:
  ///   z[r, :] += R(val[k]) * R(x[col_ind[k], :]),
  /// R = RoundBf16 if bf16 else RoundTf32 (util/half.h), in the same
  /// register tiles and per-element order as spmm_rows — so the result is
  /// bit-identical to the scalar rounded loop at every level.
  void (*spmm_rows_rounded)(const int64_t* row_ptr, const int32_t* col_ind,
                            const float* val, const float* x, float* z,
                            int32_t row_begin, int32_t row_end, int32_t dim,
                            bool bf16);

  /// spmm_rows over a packed (delta-encoded) column-index stream
  /// (util/packed_index.h format; row r's bytes start at stream +
  /// pack_ptr[r]). Columns are decoded inline per nonzero in CSR order, so
  /// the axpy sequence — and therefore the fp32 result — is bit-identical
  /// to spmm_rows on the plain indices.
  void (*spmm_rows_packed)(const int64_t* row_ptr, const uint8_t* stream,
                           const uint32_t* pack_ptr, const float* val, const float* x,
                           float* z, int32_t row_begin, int32_t row_end, int32_t dim);

  /// spmm_rows reading X from reduced-precision storage: raw fp16 (bf16 ==
  /// false) or bf16 bit patterns, widened to fp32 per element on load;
  /// accumulation stays fp32 in the scalar order. Identical across SIMD
  /// levels/threads, but not to the fp32-storage result.
  void (*spmm_rows_half)(const int64_t* row_ptr, const int32_t* col_ind,
                         const float* val, const uint16_t* x, float* z,
                         int32_t row_begin, int32_t row_end, int32_t dim, bool bf16);

  /// Packed indices + reduced-precision X combined (both compressions).
  void (*spmm_rows_packed_half)(const int64_t* row_ptr, const uint8_t* stream,
                                const uint32_t* pack_ptr, const float* val,
                                const uint16_t* x, float* z, int32_t row_begin,
                                int32_t row_end, int32_t dim, bool bf16);

  /// C[i, :] = sum_k A[i, k] * B[k, :] over i in [row_begin, row_end),
  /// overwriting C; A is (rows x a_cols), B is (a_cols x b_cols). Each
  /// element starts at +0 and adds one product per nonzero A element in
  /// k-ascending order; a zero A element (either sign) contributes nothing,
  /// even where B holds Inf or NaN.
  void (*gemm_rows)(const float* a, const float* b, float* c, int32_t a_cols,
                    int32_t b_cols, int32_t row_begin, int32_t row_end);

  /// C = A^T * B restricted to output rows i in [i_begin, i_end) (columns of
  /// A), overwriting them, with gemm_rows' per-element sequence and skip
  /// rule: k-ascending regardless of the span.
  void (*gemm_ta_rows)(const float* a, const float* b, float* c, int32_t a_rows,
                       int32_t a_cols, int32_t b_cols, int32_t i_begin,
                       int32_t i_end);

  /// C = A * B^T over output rows i in [row_begin, row_end); per output
  /// element a double-precision dot product accumulated in k-ascending
  /// order (lanes span the independent j axis, never k).
  void (*gemm_tb_rows)(const float* a, const float* b, float* c, int32_t a_cols,
                       int32_t b_rows, int32_t row_begin, int32_t row_end);

  /// dst[i] = max(src[i], 0) with std::max(x, 0.0f) semantics (NaN and -0.0
  /// pass through unchanged); src == dst is allowed.
  void (*relu)(const float* src, float* dst, int64_t n);

  /// dst[i] = pre_act[i] > 0 ? grad_out[i] : 0.
  void (*relu_grad)(const float* grad_out, const float* pre_act, float* dst,
                    int64_t n);

  /// w[i] -= float(lr * g[i])  (dense_ops::SgdStep).
  void (*sgd)(float* w, const float* g, int64_t n, double lr);

  /// w[i] -= float(lr * (g[i] + weight_decay * w[i]))  (Optimizer kSgd).
  void (*sgd_decay)(float* w, const float* g, int64_t n, double lr,
                    double weight_decay);

  /// m[i] = float(momentum * m[i] + g[i] + weight_decay * w[i]);
  /// w[i] -= float(lr * m[i])  (Optimizer kMomentum).
  void (*momentum)(float* w, const float* g, float* m, int64_t n, double lr,
                   double momentum, double weight_decay);

  /// Adam with the exact double-precision update of Optimizer kAdam;
  /// bc1/bc2 are the bias corrections 1 - beta^t computed by the caller.
  void (*adam)(float* w, const float* g, float* m, float* v, int64_t n, double lr,
               double beta1, double beta2, double epsilon, double weight_decay,
               double bc1, double bc2);
};

/// Table for `level`, falling back toward kScalar when the requested ISA is
/// unsupported by this CPU or was not compiled in. Thread-safe, never null.
const SimdKernels& KernelsFor(SimdLevel level);

/// KernelsFor(ActiveSimdLevel()) — the table the engine hot loops use.
const SimdKernels& Active();

/// Name of the level Active() actually resolved to (e.g. for banner output).
inline const char* ActiveLevelName() { return SimdLevelName(Active().level); }

namespace internal {
// Per-ISA table accessors, defined one per translation unit; each returns
// nullptr when its ISA was not compiled in (wrong architecture or the
// compiler lacked the flag).
const SimdKernels* GetScalarKernels();
const SimdKernels* GetSse2Kernels();
const SimdKernels* GetAvx2Kernels();
const SimdKernels* GetNeonKernels();
}  // namespace internal

}  // namespace simd
}  // namespace hcspmm
