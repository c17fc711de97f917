#include "baselines/baselines.h"

#include "core/preprocess.h"
#include "gpusim/scheduler.h"

namespace hcspmm {

Status TcGnnLikeSpmm::Run(const CsrMatrix& a, const DenseMatrix& x,
                          const DeviceSpec& dev, const KernelOptions& opts,
                          DenseMatrix* z, KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  internal::SpmmRowsRounded(a, x, 0, a.rows(), opts.dtype, z);

  if (profile != nullptr) {
    WindowedCsr windows = BuildWindows(a);
    KernelCostAccumulator acc(name(), dev);
    TensorPathTuning tuning;
    tuning.optimized_loading = false;  // single-warp staging, bank conflicts
    tuning.a_load_per_nnz = 3.0;       // SGT-format fragment construction
    for (const RowWindow& w : windows.windows) {
      if (w.nnz == 0) continue;
      acc.AddBlock(TensorWindowCost(w.Shape(x.cols()), tuning, dev, opts.dtype),
                   /*on_tensor=*/true);
    }
    acc.Finalize(profile);
  }
  return Status::OK();
}

double TcGnnLikeSpmm::PreprocessNs(const CsrMatrix& a) {
  return static_cast<double>(a.nnz()) * kTcGnnPreprocNsPerNnz;
}

}  // namespace hcspmm
