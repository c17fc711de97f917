#include "kernels/spmm_kernel.h"

#include <algorithm>

#include "baselines/baselines.h"
#include "exec/thread_pool.h"
#include "core/fine_grained_hybrid.h"
#include "core/hybrid_spmm.h"
#include "gpusim/precision.h"
#include "kernels/cuda_basic.h"
#include "kernels/cuda_optimized.h"
#include "kernels/tensor_basic.h"
#include "kernels/tensor_optimized.h"
#include "sparse/packed_csr.h"
#include "util/simd.h"

namespace hcspmm {

namespace internal {

namespace {

void SpmmRowsSerial(const CsrMatrix& a, const DenseMatrix& x, int32_t row_begin,
                    int32_t row_end, DataType dtype, DenseMatrix* z,
                    const PackedCsr* packed) {
  const int32_t dim = x.cols();
  // The row kernels accumulate (z += ...); start this chunk's rows from zero
  // here, on the thread that is about to accumulate into them.
  std::fill(z->MutableRowData(row_begin), z->MutableRowData(row_end), 0.0f);
  if (dtype == DataType::kFp32) {
    // Vectorized along the independent output-column axis with separate
    // mul + add, so each output element keeps the scalar accumulation order
    // (bit-identical for every SimdLevel; see util/simd.h). The packed and
    // reduced-precision variants feed the same per-nonzero axpy, so packing
    // stays bitwise-lossless and precision only changes the X load.
    const simd::SimdKernels& k = simd::Active();
    if (x.reduced_storage()) {
      const bool bf16 = x.precision() == FeaturePrecision::kBf16;
      if (packed != nullptr) {
        k.spmm_rows_packed_half(a.row_ptr().data(), packed->stream().data(),
                                packed->pack_ptr().data(), a.val().data(),
                                x.HalfRowData(0), z->MutableRowData(0), row_begin,
                                row_end, dim, bf16);
      } else {
        k.spmm_rows_half(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                         x.HalfRowData(0), z->MutableRowData(0), row_begin, row_end,
                         dim, bf16);
      }
    } else if (packed != nullptr) {
      k.spmm_rows_packed(a.row_ptr().data(), packed->stream().data(),
                         packed->pack_ptr().data(), a.val().data(), x.RowData(0),
                         z->MutableRowData(0), row_begin, row_end, dim);
    } else {
      k.spmm_rows(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                  x.RowData(0), z->MutableRowData(0), row_begin, row_end, dim);
    }
    return;
  }
  // Rounded (simulated tensor-path) windows. TF32 and BF16 rounding are
  // integer bit ops, so they run in the fp32 kernel's register tiles with
  // each operand rounded on load (bit-identical to the loop below). Packed
  // indices are not consulted: col_ind is resident either way.
  if (!x.reduced_storage() && dtype != DataType::kFp16) {
    simd::Active().spmm_rows_rounded(a.row_ptr().data(), a.col_ind().data(),
                                     a.val().data(), x.RowData(0), z->MutableRowData(0),
                                     row_begin, row_end, dim, dtype == DataType::kBf16);
    return;
  }
  // FP16 rounding (a float conversion, not a bit mask) and half-stored X
  // stay on this scalar loop; ValueAt widens reduced X exactly before the
  // dtype rounding, matching what the hardware would see after upconvert.
  for (int32_t r = row_begin; r < row_end; ++r) {
    float* zr = z->MutableRowData(r);
    for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      const float v = RoundTo(dtype, a.val()[k]);
      const int32_t col = a.col_ind()[k];
      if (x.reduced_storage()) {
        for (int32_t j = 0; j < dim; ++j) {
          zr[j] += v * RoundTo(dtype, x.ValueAt(col, j));
        }
      } else {
        const float* xr = x.RowData(col);
        for (int32_t j = 0; j < dim; ++j) zr[j] += v * RoundTo(dtype, xr[j]);
      }
    }
  }
}

}  // namespace

Status ShapeOutput(int32_t rows, const DenseMatrix& x, DenseMatrix* z) {
  if (z == nullptr) return Status::InvalidArgument("SpMM output is null");
  if (z == &x) {
    return Status::InvalidArgument(
        "SpMM output aliases the input: Z = A * X cannot be computed in place");
  }
  if (z->reduced_storage() || z->rows() != rows || z->cols() != x.cols()) {
    *z = DenseMatrix(rows, x.cols());
  }
  return Status::OK();
}

void SpmmRowsRounded(const CsrMatrix& a, const DenseMatrix& x, int32_t row_begin,
                     int32_t row_end, DataType dtype, DenseMatrix* z,
                     int num_threads, const PackedCsr* packed) {
  // Rows are written disjointly, so the partition only changes which thread
  // produces a row, never the arithmetic within it.
  ParallelFor(
      row_begin, row_end, num_threads,
      [&](int64_t b, int64_t e) {
        SpmmRowsSerial(a, x, static_cast<int32_t>(b), static_cast<int32_t>(e), dtype,
                       z, packed);
      },
      /*grain=*/kRowWindowHeight);
}

}  // namespace internal

std::unique_ptr<SpmmKernel> MakeKernel(const std::string& name) {
  if (name == "cuda_basic") return std::make_unique<CudaBasicSpmm>();
  if (name == "cuda_opt") return std::make_unique<CudaOptimizedSpmm>();
  if (name == "tensor_basic") return std::make_unique<TensorBasicSpmm>();
  if (name == "tensor_opt") return std::make_unique<TensorOptimizedSpmm>();
  if (name == "hcspmm") return std::make_unique<HcSpmm>();
  if (name == "hybrid_fine") return std::make_unique<FineGrainedHybridSpmm>();
  if (name == "cusparse") return std::make_unique<CusparseLikeSpmm>();
  if (name == "sputnik") return std::make_unique<SputnikLikeSpmm>();
  if (name == "gespmm") return std::make_unique<GeSpmmLikeSpmm>();
  if (name == "tcgnn") return std::make_unique<TcGnnLikeSpmm>();
  if (name == "dtcspmm") return std::make_unique<DtcSpmmLikeSpmm>();
  return nullptr;
}

const std::vector<std::string>& RegisteredKernelNames() {
  static const std::vector<std::string> names = {
      "cuda_basic", "cuda_opt",    "tensor_basic", "tensor_opt",
      "hcspmm",     "hybrid_fine", "cusparse",     "sputnik",
      "gespmm",     "tcgnn",       "dtcspmm"};
  return names;
}

std::vector<std::string> KernelNames() { return RegisteredKernelNames(); }

}  // namespace hcspmm
