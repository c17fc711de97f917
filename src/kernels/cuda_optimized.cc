#include "kernels/cuda_optimized.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

WindowCost CudaOptimizedSpmm::WindowCostFor(const WindowShape& shape,
                                            const DeviceSpec& dev,
                                            DataType dtype) const {
  CudaPathTuning tuning;
  tuning.shared_mem_edges = shared_mem_edges_;
  tuning.generalized = generalized_;
  return CudaWindowCost(shape, tuning, dev, dtype);
}

Status CudaOptimizedSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                              const DeviceSpec& dev, const KernelOptions& opts,
                              DenseMatrix* z, KernelProfile* profile) const {
  if (profile != nullptr) {
    // Windows are needed purely for metering; build them once for this call.
    // Callers that profile the same matrix repeatedly (the Session layer)
    // should hold the windows and use RunWithWindows to amortize the cost.
    const WindowedCsr windows = BuildWindows(a);
    return RunWithWindows(windows, a, x, dev, opts, z, profile);
  }
  return RunWithWindows(WindowedCsr(), a, x, dev, opts, z, nullptr);
}

Status CudaOptimizedSpmm::RunWithWindows(const WindowedCsr& windows,
                                         const CsrMatrix& a, const DenseMatrix& x,
                                         const DeviceSpec& dev,
                                         const KernelOptions& opts, DenseMatrix* z,
                                         KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), DataType::kFp32, z, opts.num_threads);

  if (profile != nullptr) {
    KernelCostAccumulator acc(name(), dev);
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      acc.AddBlock(WindowCostFor(w.Shape(x.cols()), dev, opts.dtype),
                   /*on_tensor=*/false);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

}  // namespace hcspmm
