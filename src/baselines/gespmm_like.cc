#include "baselines/baselines.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

Status GeSpmmLikeSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                           const DeviceSpec& dev, const KernelOptions& opts,
                           DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), DataType::kFp32, z);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    CudaPathTuning tuning;
    tuning.shared_mem_edges = true;  // coalesced row caching
    tuning.generalized = false;      // 32-thread granularity only
    tuning.compute_scale = 1.05;
    tuning.mem_scale = 1.15;
    tuning.cache_sensitivity = 0.15;
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
