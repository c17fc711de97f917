#include "kernels/tensor_basic.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

Status TensorBasicSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                            const DeviceSpec& dev, const KernelOptions& opts,
                            DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  // Tensor cores round both operands to the storage type; accumulation is
  // FP32. Zero-padded lanes contribute zero, so the functional result is
  // the rounded-operand CSR product.
  internal::SpmmRowsRounded(a, x, 0, a.rows(), opts.dtype, z, opts.num_threads);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    TensorPathTuning tuning;
    tuning.optimized_loading = false;  // Algorithm 2 staging
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      acc.AddBlock(TensorWindowCost(w.Shape(x.cols()), tuning, dev, opts.dtype),
                   /*on_tensor=*/true);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

}  // namespace hcspmm
