#include "kernels/tensor_optimized.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

WindowCost TensorOptimizedSpmm::WindowCostFor(const WindowShape& shape,
                                              const DeviceSpec& dev,
                                              DataType dtype) const {
  TensorPathTuning tuning;
  tuning.optimized_loading = optimized_loading_;
  return TensorWindowCost(shape, tuning, dev, dtype);
}

Status TensorOptimizedSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                                const DeviceSpec& dev, const KernelOptions& opts,
                                DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), opts.dtype, z, opts.num_threads);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      acc.AddBlock(WindowCostFor(w.Shape(x.cols()), dev, opts.dtype),
                   /*on_tensor=*/true);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

}  // namespace hcspmm
