#include "core/fine_grained_hybrid.h"

#include <algorithm>

#include "gpusim/scheduler.h"

namespace hcspmm {

Status FineGrainedHybridSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                                  const DeviceSpec& dev, const KernelOptions& opts,
                                  DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), opts.dtype, z);

  if (profile == nullptr) return Status::OK();

  const int32_t dim = x.cols();
  const int32_t tile = WmmaColTile(opts.dtype);
  WindowedCsr windows = BuildWindows(a);
  KernelCostAccumulator acc(name(), dev);
  CudaPathTuning cuda_tuning;
  TensorPathTuning tensor_tuning;

  // Per-block nonzero histogram, reused across windows.
  std::vector<int64_t> block_nnz;
  for (const RowWindow& w : windows.windows) {
    if (w.nnz == 0) continue;
    const int32_t num_blocks = (w.NumCols() + tile - 1) / tile;
    block_nnz.assign(num_blocks, 0);
    // Count nonzeros per condensed 16 x tile block. Columns are condensed
    // (sorted unique order), so a nonzero's block is its condensed index /
    // tile; compute via binary search into unique_cols.
    for (int32_t r = w.first_row; r < w.first_row + w.num_rows; ++r) {
      for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
        const int32_t col = a.col_ind()[k];
        const int32_t condensed = static_cast<int32_t>(
            std::lower_bound(w.unique_cols.begin(), w.unique_cols.end(), col) -
            w.unique_cols.begin());
        block_nnz[condensed / tile]++;
      }
    }

    // Route each 16 x tile block by its own sparsity (the only usable
    // feature at this granularity, SS IV-A limitation (3)).
    WindowCost window_cost;
    bool used_cuda = false, used_tensor = false;
    for (int32_t b = 0; b < num_blocks; ++b) {
      const int32_t block_cols = std::min<int32_t>(tile, w.NumCols() - b * tile);
      const double sparsity =
          1.0 - static_cast<double>(block_nnz[b]) /
                    (static_cast<double>(w.num_rows) * block_cols);
      WindowShape shape;
      shape.rows = w.num_rows;
      shape.dim = dim;
      shape.nnz = block_nnz[b];
      shape.unique_cols = block_cols;
      shape.col_span = w.col_span;
      shape.matrix_cols = w.matrix_cols;
      const bool on_cuda = sparsity > kFineBlockSparsityThreshold;
      const WindowCost c =
          on_cuda ? CudaWindowCost(shape, cuda_tuning, dev, opts.dtype)
                  : TensorWindowCost(shape, tensor_tuning, dev, opts.dtype);
      window_cost.compute_cycles += c.compute_cycles + kFineBlockOverheadCycles;
      window_cost.memory_cycles += c.memory_cycles;
      window_cost.fma_ops += c.fma_ops;
      window_cost.mma_ops += c.mma_ops;
      window_cost.gmem_bytes += c.gmem_bytes;
      window_cost.smem_bytes += c.smem_bytes;
      used_cuda |= on_cuda;
      used_tensor |= !on_cuda;
    }
    // Separate edge storage for the two core types hurts locality, and a
    // mixed window pays the merge: partial results round-trip through
    // shared memory and are added element-wise (SS IV-A limitations (1-2)).
    if (used_cuda && used_tensor) {
      const double merge_cycles =
          (window_cost.compute_cycles + window_cost.memory_cycles) *
          kMergeOverheadFactor;
      window_cost.memory_cycles += merge_cycles;
      window_cost.gmem_bytes +=
          static_cast<int64_t>(w.num_rows) * dim * DataTypeBytes(opts.dtype);
    }
    acc.AddBlock(window_cost, /*on_tensor=*/used_tensor);
  }
  acc.Finalize(profile);
  return Status::OK();
}

}  // namespace hcspmm
