#include "core/hybrid_spmm.h"

#include <algorithm>
#include <atomic>

#include "exec/thread_pool.h"
#include "gpusim/scheduler.h"
#include "util/fault.h"

namespace hcspmm {

Status HcSpmm::Run(const CsrMatrix& a, const DenseMatrix& x, const DeviceSpec& dev,
                   const KernelOptions& opts, DenseMatrix* z,
                   KernelProfile* profile) const {
  auto plan = Preprocess(a, dev, SelectorFor(dev));
  if (!plan.ok()) return plan.status();
  return RunWithPlan(plan.ValueOrDie(), a, x, dev, opts, z, profile);
}

Status HcSpmm::RunWithPlan(const HybridPlan& plan, const CsrMatrix& a,
                           const DenseMatrix& x, const DeviceSpec& dev,
                           const KernelOptions& opts, DenseMatrix* z,
                           KernelProfile* profile) const {
  if (a.cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(CheckPlan(plan, a));
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(a.rows(), x, z));
  return RunWindows(plan, a, x, dev, opts, 0,
                    static_cast<int64_t>(plan.windows.windows.size()), z, profile);
}

Status HcSpmm::CheckPlan(const HybridPlan& plan, const CsrMatrix& a) {
  // Structural validation instead of pointer identity: a PlanCache hit hands
  // out a plan built from a content-identical matrix object that may since
  // have been destroyed (cached plans carry windows.csr == nullptr). The
  // per-window nnz comparison (O(#windows)) catches same-shape matrices with
  // a different nonzero distribution, which would otherwise execute with the
  // wrong windows silently skipped.
  const std::vector<RowWindow>& ws = plan.windows.windows;
  if ((plan.windows.csr != nullptr && plan.windows.csr != &a) ||
      plan.assignment.size() != ws.size()) {
    return Status::InvalidArgument("plan was built for a different matrix");
  }
  // Windows must tile [0, rows) contiguously (gaps would silently zero rows,
  // overlaps would double-write z concurrently) and match the matrix's
  // per-window nnz and max row degree. This is an O(rows) misuse guard, not
  // content equality: a matrix with an identical row-nnz profile but
  // different column indices/values still passes and computes with the
  // plan's stale window classification (see the header precondition; the
  // Session/PlanCache path keys plans by full content fingerprint).
  int32_t next_row = 0;
  for (const RowWindow& w : ws) {
    // 64-bit sum: the guard itself must not overflow on a corrupt plan.
    if (w.first_row != next_row || w.num_rows <= 0 ||
        static_cast<int64_t>(w.first_row) + w.num_rows > a.rows()) {
      return Status::InvalidArgument("plan was built for a different matrix");
    }
    next_row = w.first_row + w.num_rows;
    int64_t window_nnz = 0;
    int64_t max_row_nnz = 0;
    for (int32_t r = w.first_row; r < next_row; ++r) {
      const int64_t row_nnz = a.RowNnz(r);
      window_nnz += row_nnz;
      max_row_nnz = std::max(max_row_nnz, row_nnz);
    }
    if (window_nnz != w.nnz || max_row_nnz != w.max_row_nnz) {
      return Status::InvalidArgument("plan was built for a different matrix");
    }
  }
  if (next_row != a.rows()) {
    return Status::InvalidArgument("plan was built for a different matrix");
  }
  // The packed sidecar (if any) rides the same structural guard: shape and
  // population must match the matrix, else the delta stream would decode
  // columns for a different nonzero layout.
  const PackedCsr* packed = plan.packed.get();
  if (packed != nullptr &&
      (packed->rows() != a.rows() || packed->cols() != a.cols() ||
       packed->nnz() != a.nnz())) {
    return Status::InvalidArgument("plan was built for a different matrix");
  }
  return Status::OK();
}

Status HcSpmm::RunWindows(const HybridPlan& plan, const CsrMatrix& a,
                          const DenseMatrix& x, const DeviceSpec& dev,
                          const KernelOptions& opts, int64_t window_begin,
                          int64_t window_end, DenseMatrix* z,
                          KernelProfile* profile) const {
  const std::vector<RowWindow>& ws = plan.windows.windows;
  const PackedCsr* packed = plan.packed.get();
  // Functional execution: the Tensor path rounds operands to the storage
  // type (TF32 by default); the CUDA path computes in full FP32. Windows
  // cover disjoint row ranges (SS IV-A: no merge step), so they dispatch
  // across the pool with no synchronization on z. The packed index stream
  // is consulted only by the fp32 SIMD paths (decode order == CSR order,
  // so results stay bit-identical to plain indices).
  // Cooperative cancellation: the token is polled at window-batch
  // granularity (every kCancelCheckStride windows per chunk), never inside
  // the SIMD kernels. On expiry workers stop dispatching further windows; z
  // is partially written and the typed error below tells the caller to
  // discard it. Empty windows are dispatched too: their rows of a reused z
  // still have to be zeroed.
  constexpr int64_t kCancelCheckStride = 64;
  std::atomic<bool> cancelled{false};
  ParallelFor(window_begin, window_end, opts.num_threads,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  if (opts.cancel != nullptr &&
                      (i - begin) % kCancelCheckStride == 0 &&
                      (cancelled.load(std::memory_order_relaxed) ||
                       opts.cancel->Expired())) {
                    cancelled.store(true, std::memory_order_relaxed);
                    return;
                  }
                  const RowWindow& w = ws[i];
                  const bool on_tensor = plan.assignment[i] == CoreType::kTensorCore;
                  internal::SpmmRowsRounded(a, x, w.first_row, w.first_row + w.num_rows,
                                            on_tensor ? opts.dtype : DataType::kFp32, z,
                                            /*num_threads=*/1, packed);
                }
              });
  if (cancelled.load(std::memory_order_relaxed)) {
    return opts.cancel->ToStatus();
  }

  // Cost metering stays serial and in window order, so the simulated profile
  // is identical for every thread count.
  if (profile != nullptr) {
    KernelCostAccumulator acc(name(), dev);
    const int32_t dim = x.cols();
    for (int64_t i = window_begin; i < window_end; ++i) {
      const RowWindow& w = ws[i];
      if (w.nnz == 0) continue;
      const bool on_tensor = plan.assignment[i] == CoreType::kTensorCore;
      const WindowShape shape = w.Shape(dim);
      const WindowCost cost = on_tensor
                                  ? tensor_path_.WindowCostFor(shape, dev, opts.dtype)
                                  : cuda_path_.WindowCostFor(shape, dev, opts.dtype);
      acc.AddBlock(cost, on_tensor);
    }
    acc.Finalize(profile);

    // Host-side bandwidth accounting of the functional pass above (serial
    // and arithmetic-free, so it is identical for every thread count):
    // index structure + row offsets + values + gathered feature rows +
    // the output write. This is the bytes/nnz the compression gate and the
    // benches' effective-GB/s columns are computed from.
    // The windows tile the rows, so the range ends where the next one starts.
    const auto first_row = [&](int64_t w) {
      return w < static_cast<int64_t>(ws.size()) ? ws[w].first_row : a.rows();
    };
    const int32_t row_begin = first_row(window_begin);
    const int32_t row_end = first_row(window_end);
    const int64_t rows = row_end - row_begin;
    const int64_t nnz = a.RowBegin(row_end) - a.RowBegin(row_begin);
    const int64_t index_bytes =
        packed != nullptr
            ? static_cast<int64_t>(packed->pack_ptr()[row_end] -
                                   packed->pack_ptr()[row_begin]) +
                  (rows + 1) * static_cast<int64_t>(sizeof(uint32_t))
            : nnz * static_cast<int64_t>(sizeof(int32_t));
    const int64_t feature_elem_bytes = x.reduced_storage() ? 2 : 4;
    profile->host_bytes += index_bytes +
                           (rows + 1) * static_cast<int64_t>(sizeof(int64_t)) +
                           nnz * static_cast<int64_t>(sizeof(float)) +
                           nnz * static_cast<int64_t>(dim) * feature_elem_bytes +
                           rows * dim * static_cast<int64_t>(sizeof(float));
    profile->host_nnz += nnz;
  }
  return Status::OK();
}

}  // namespace hcspmm
