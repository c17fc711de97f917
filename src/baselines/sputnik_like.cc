#include "baselines/baselines.h"

#include <cmath>

#include "gpusim/scheduler.h"

namespace hcspmm {

namespace {
// Merge-based load balancing target: nonzeros per balanced work chunk.
constexpr int64_t kChunkNnz = 512;
}  // namespace

Status SputnikLikeSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                            const DeviceSpec& dev, const KernelOptions& opts,
                            DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  // Sputnik supports full and half precision on CUDA cores; half rounds
  // operands (Appendix B).
  const DataType functional =
      DataTypeBytes(opts.dtype) == 2 ? opts.dtype : DataType::kFp32;
  internal::SpmmRowsRounded(a, x, 0, a.rows(), functional, z);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    CudaPathTuning tuning;
    tuning.shared_mem_edges = true;  // vector loads + residue caching
    tuning.generalized = true;
    tuning.compute_scale = 1.08;
    tuning.mem_scale = 1.12;
    tuning.cache_sensitivity = 0.12;
    WindowCost total;
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      WindowCost c = CudaWindowCost(w.Shape(x.cols()), tuning, dev, opts.dtype);
      total.compute_cycles += c.compute_cycles;
      total.memory_cycles += c.memory_cycles;
      total.fma_ops += c.fma_ops;
      total.gmem_bytes += c.gmem_bytes;
      total.smem_bytes += c.smem_bytes;
    }
    // Merge-based balancing: work is split into equal-nnz chunks, so block
    // times are uniform and no SM straggles on hub rows.
    const int64_t chunks =
        std::max<int64_t>(1, (a.nnz() + kChunkNnz - 1) / kChunkNnz);
    // AddGemm spreads a cost evenly over N blocks; tag as CUDA afterwards.
    KernelCostAccumulator balanced(name(), dev);
    balanced.AddGemm(total, chunks);
    balanced.Finalize(profile);
    // Re-tag the cycle breakdown onto the CUDA-core side.
    profile->cuda_compute_cycles = profile->tensor_compute_cycles;
    profile->cuda_memory_cycles = profile->tensor_memory_cycles;
    profile->tensor_compute_cycles = 0;
    profile->tensor_memory_cycles = 0;
    profile->windows_cuda = static_cast<int64_t>(windows.windows.size());
  }
  return Status::OK();
}

}  // namespace hcspmm
