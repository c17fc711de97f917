#include "baselines/baselines.h"

#include "gpusim/scheduler.h"

namespace hcspmm {

namespace {
// Fixed warp-scheduling overhead charged per matrix row: the vendor kernel
// assigns one warp per row regardless of its population, so near-empty rows
// of low-degree graphs waste whole warp iterations.
constexpr double kRowOverheadCycles = 40.0;
}  // namespace

Status CusparseLikeSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                             const DeviceSpec& dev, const KernelOptions& opts,
                             DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), DataType::kFp32, z);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a, /*window_height=*/32);
    KernelCostAccumulator acc(name(), dev);
    CudaPathTuning tuning;
    tuning.shared_mem_edges = false;
    tuning.generalized = false;
    tuning.compute_scale = 1.15;
    tuning.mem_scale = 1.7;
    // No row-window condensing and no intra-block X reuse: scattered
    // column ids go straight to DRAM.
    tuning.cache_sensitivity = 4.0;
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      WindowCost cost = CudaWindowCost(w.Shape(x.cols()), tuning, dev, opts.dtype);
      cost.compute_cycles += kRowOverheadCycles * w.num_rows;
      acc.AddBlock(cost, /*on_tensor=*/false);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

}  // namespace hcspmm
