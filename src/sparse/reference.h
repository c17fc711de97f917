// Reference (host, unmetered) SpMM and GEMM used to verify every kernel.
#pragma once

#include "sparse/csr.h"
#include "sparse/dense.h"

namespace hcspmm {

/// Z = A * X, plain CSR traversal in double accumulation.
DenseMatrix ReferenceSpmm(const CsrMatrix& a, const DenseMatrix& x);

/// C = A * B for dense matrices.
DenseMatrix ReferenceGemm(const DenseMatrix& a, const DenseMatrix& b);

/// C = A^T * B for dense matrices.
DenseMatrix ReferenceGemmTransA(const DenseMatrix& a, const DenseMatrix& b);

/// C = A * B^T for dense matrices.
DenseMatrix ReferenceGemmTransB(const DenseMatrix& a, const DenseMatrix& b);

namespace internal {

// Row-range GEMM kernels shared by the serial Reference* wrappers above and
// the ParallelFor bodies in gnn/dense_ops.cc. Having exactly one copy of
// each loop is what guarantees the parallel GEMMs stay bit-identical to the
// serial reference: a range covers output rows [row_begin, row_end) and is
// written by exactly one caller, with a fixed per-element accumulation order.

/// C rows [row_begin, row_end) of C = A * B, overwritten. `c` must be pre-sized.
void GemmRows(const DenseMatrix& a, const DenseMatrix& b, int32_t row_begin,
              int32_t row_end, DenseMatrix* c);

/// C rows [row_begin, row_end) of C = A^T * B (rows of C = columns of A).
void GemmTransARows(const DenseMatrix& a, const DenseMatrix& b, int32_t row_begin,
                    int32_t row_end, DenseMatrix* c);

/// C rows [row_begin, row_end) of C = A * B^T.
void GemmTransBRows(const DenseMatrix& a, const DenseMatrix& b, int32_t row_begin,
                    int32_t row_end, DenseMatrix* c);

}  // namespace internal

}  // namespace hcspmm
