#include "kernels/cuda_basic.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

Status CudaBasicSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                          const DeviceSpec& dev, const KernelOptions& opts,
                          DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  // CUDA cores always compute at full FP32 precision regardless of the
  // Tensor-core storage type (SS III-B).
  internal::SpmmRowsRounded(a, x, 0, a.rows(), DataType::kFp32, z, opts.num_threads);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    CudaPathTuning tuning;
    tuning.shared_mem_edges = false;  // Algorithm 1 has no memory management
    tuning.generalized = false;       // ... and no dimension generalization
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      acc.AddBlock(CudaWindowCost(w.Shape(x.cols()), tuning, dev, opts.dtype),
                   /*on_tensor=*/false);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

}  // namespace hcspmm
