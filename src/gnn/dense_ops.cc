#include "gnn/dense_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "exec/thread_pool.h"
#include "gpusim/cost_model.h"
#include "gpusim/scheduler.h"
#include "sparse/reference.h"
#include "util/logging.h"
#include "util/simd.h"

namespace hcspmm {

namespace {

/// Elementwise ops split into at-least-this-many-element chunks; smaller
/// tensors are not worth a pool round-trip.
constexpr int64_t kElementwiseGrain = 1 << 14;

/// Row chunk grain for the per-row softmax/cross-entropy/argmax loops: keep
/// roughly kElementwiseGrain elements per chunk.
int64_t RowGrain(int32_t cols) {
  return std::max<int64_t>(1, kElementwiseGrain / std::max<int32_t>(1, cols));
}

/// Minimum flops per GEMM chunk; below this a pool round-trip costs more
/// than the arithmetic (the small weight GEMMs in GNN layers stay serial).
constexpr int64_t kGemmGrainFlops = 1 << 17;

/// Output rows per chunk for a GEMM whose rows cost `flops_per_row` each.
int64_t GemmRowGrain(int64_t flops_per_row) {
  return std::max<int64_t>(1, kGemmGrainFlops / std::max<int64_t>(1, flops_per_row));
}

/// Minimum output rows per A^T * B chunk: every chunk streams all of A and
/// B, so a thin span multiplies that traffic for few flops.
constexpr int64_t kGemmTransAMinSpan = 8;

// Row-parallel GEMMs over the shared sparse/reference.cc row-range kernels:
// one copy of each loop, so the parallel results are bit-identical to the
// serial reference for every thread count (each output row is written by
// exactly one task, per-element accumulation order fixed).

DenseMatrix ParallelGemm(const DenseMatrix& a, const DenseMatrix& b) {
  HCSPMM_CHECK(a.cols() == b.rows()) << "GEMM shape mismatch";
  DenseMatrix c(a.rows(), b.cols());
  ParallelFor(
      0, a.rows(), /*num_threads=*/0,
      [&](int64_t r0, int64_t r1) {
        internal::GemmRows(a, b, static_cast<int32_t>(r0), static_cast<int32_t>(r1),
                           &c);
      },
      GemmRowGrain(2ll * a.cols() * b.cols()));
  return c;
}

DenseMatrix ParallelGemmTransA(const DenseMatrix& a, const DenseMatrix& b) {
  HCSPMM_CHECK(a.rows() == b.rows()) << "GEMM^T shape mismatch";
  DenseMatrix c(a.cols(), b.cols());
  ParallelFor(
      0, a.cols(), /*num_threads=*/0,
      [&](int64_t i0, int64_t i1) {
        internal::GemmTransARows(a, b, static_cast<int32_t>(i0),
                                 static_cast<int32_t>(i1), &c);
      },
      std::max(kGemmTransAMinSpan, GemmRowGrain(2ll * a.rows() * b.cols())));
  return c;
}

DenseMatrix ParallelGemmTransB(const DenseMatrix& a, const DenseMatrix& b) {
  HCSPMM_CHECK(a.cols() == b.cols()) << "GEMM B^T shape mismatch";
  DenseMatrix c(a.rows(), b.rows());
  ParallelFor(
      0, a.rows(), /*num_threads=*/0,
      [&](int64_t r0, int64_t r1) {
        internal::GemmTransBRows(a, b, static_cast<int32_t>(r0),
                                 static_cast<int32_t>(r1), &c);
      },
      GemmRowGrain(2ll * a.cols() * b.rows()));
  return c;
}

// Meter a GEMM of logical shape m x k x n as one cuBLAS-style launch.
void MeterGemm(const char* name, int32_t m, int32_t k, int32_t n,
               const DeviceSpec& dev, DataType dtype, KernelProfile* profile) {
  if (profile == nullptr) return;
  KernelCostAccumulator acc(name, dev);
  int64_t blocks = 0;
  const WindowCost cost = DenseGemmCost(m, k, n, dev, dtype, &blocks);
  acc.AddGemm(cost, blocks);
  KernelProfile p;
  acc.Finalize(&p, /*launches=*/1);
  p.kernel_name = name;
  profile->Accumulate(p);
}

// Bandwidth-bound elementwise op touching `bytes` of global memory.
void MeterElementwise(const char* name, int64_t bytes, const DeviceSpec& dev,
                      KernelProfile* profile) {
  if (profile == nullptr) return;
  KernelProfile p;
  p.kernel_name = name;
  const double cycles = static_cast<double>(bytes) / dev.BytesPerCyclePerSm();
  p.cuda_memory_cycles = cycles;
  p.time_ns = dev.CyclesToNs(cycles / dev.sm_count) + dev.kernel_ramp_ns;
  p.gmem_bytes = bytes;
  p.launches = 1;
  p.launch_ns = dev.kernel_launch_ns;
  profile->Accumulate(p);
}

}  // namespace

DenseMatrix MeteredGemm(const DenseMatrix& a, const DenseMatrix& b,
                        const DeviceSpec& dev, DataType dtype,
                        KernelProfile* profile) {
  MeterGemm("gemm", a.rows(), a.cols(), b.cols(), dev, dtype, profile);
  return ParallelGemm(a, b);
}

DenseMatrix MeteredGemmTransA(const DenseMatrix& a, const DenseMatrix& b,
                              const DeviceSpec& dev, DataType dtype,
                              KernelProfile* profile) {
  MeterGemm("gemm_ta", a.cols(), a.rows(), b.cols(), dev, dtype, profile);
  return ParallelGemmTransA(a, b);
}

DenseMatrix MeteredGemmTransB(const DenseMatrix& a, const DenseMatrix& b,
                              const DeviceSpec& dev, DataType dtype,
                              KernelProfile* profile) {
  MeterGemm("gemm_tb", a.rows(), a.cols(), b.rows(), dev, dtype, profile);
  return ParallelGemmTransB(a, b);
}

DenseMatrix MeteredRelu(const DenseMatrix& in, const DeviceSpec& dev,
                        KernelProfile* profile) {
  DenseMatrix out(in.rows(), in.cols());
  const float* src = in.data().data();
  float* dst = out.mutable_data().data();
  ParallelFor(
      0, static_cast<int64_t>(in.data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) { simd::Active().relu(src + b, dst + b, e - b); },
      kElementwiseGrain);
  MeterElementwise("relu", in.MemoryBytes() * 2, dev, profile);
  return out;
}

DenseMatrix MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                            const DeviceSpec& dev, KernelProfile* profile) {
  HCSPMM_CHECK(grad_out.rows() == pre_act.rows() && grad_out.cols() == pre_act.cols());
  DenseMatrix out(grad_out.rows(), grad_out.cols());
  float* dst = out.mutable_data().data();
  const float* go = grad_out.data().data();
  const float* pa = pre_act.data().data();
  ParallelFor(
      0, static_cast<int64_t>(out.data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) {
        simd::Active().relu_grad(go + b, pa + b, dst + b, e - b);
      },
      kElementwiseGrain);
  MeterElementwise("relu_grad", out.MemoryBytes() * 3, dev, profile);
  return out;
}

DenseMatrix SoftmaxRows(const DenseMatrix& logits) {
  DenseMatrix out(logits.rows(), logits.cols());
  // Rows are independent and written disjointly, so the partition is
  // bit-deterministic for any thread count (like the GEMM row kernels); the
  // in-row max/sum reductions stay scalar to preserve their exact order.
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          const float* row = logits.RowData(r);
          float mx = row[0];
          for (int32_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, row[j]);
          // Each float exp is computed once, kept in `out`, then divided by
          // the double sum — the values of calling it twice.
          float* o = out.MutableRowData(r);
          double sum = 0.0;
          for (int32_t j = 0; j < logits.cols(); ++j) {
            o[j] = std::exp(row[j] - mx);
            sum += o[j];
          }
          for (int32_t j = 0; j < logits.cols(); ++j) {
            o[j] = static_cast<float>(o[j] / sum);
          }
        }
      },
      RowGrain(logits.cols()));
  return out;
}

double SoftmaxCrossEntropy(const DenseMatrix& logits,
                           const std::vector<int32_t>& labels,
                           DenseMatrix* grad_logits) {
  HCSPMM_CHECK(labels.size() == static_cast<size_t>(logits.rows()));
  const DenseMatrix probs = SoftmaxRows(logits);
  const double inv_n = 1.0 / logits.rows();
  if (grad_logits != nullptr) *grad_logits = DenseMatrix(logits.rows(), logits.cols());
  // Per-row losses land in a buffer and are folded serially in row order
  // below, so the total matches the historical sequential loop bit-for-bit
  // no matter how ParallelFor chunks the rows.
  std::vector<double> row_loss(static_cast<size_t>(logits.rows()), 0.0);
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          const int32_t y = labels[r];
          row_loss[r] = std::log(std::max(1e-12, static_cast<double>(probs.At(r, y))));
          if (grad_logits != nullptr) {
            for (int32_t j = 0; j < logits.cols(); ++j) {
              grad_logits->At(r, j) = static_cast<float>(
                  (probs.At(r, j) - (j == y ? 1.0f : 0.0f)) * inv_n);
            }
          }
        }
      },
      RowGrain(logits.cols()));
  double loss = 0.0;
  for (int32_t r = 0; r < logits.rows(); ++r) loss -= row_loss[r];
  return loss * inv_n;
}

double PredictionAccuracy(const DenseMatrix& logits,
                          const std::vector<int32_t>& labels) {
  std::atomic<int64_t> correct{0};
  ParallelFor(
      0, logits.rows(), /*num_threads=*/0,
      [&](int64_t rb, int64_t re) {
        int64_t local = 0;
        for (int32_t r = static_cast<int32_t>(rb); r < re; ++r) {
          const float* row = logits.RowData(r);
          int32_t best = 0;
          for (int32_t j = 1; j < logits.cols(); ++j) {
            if (row[j] > row[best]) best = j;
          }
          if (best == labels[r]) ++local;
        }
        correct.fetch_add(local, std::memory_order_relaxed);
      },
      RowGrain(logits.cols()));
  return logits.rows() > 0
             ? static_cast<double>(correct.load(std::memory_order_relaxed)) /
                   logits.rows()
             : 0.0;
}

void SgdStep(DenseMatrix* w, const DenseMatrix& grad, double lr) {
  HCSPMM_CHECK(w->rows() == grad.rows() && w->cols() == grad.cols());
  float* wd = w->mutable_data().data();
  const float* gd = grad.data().data();
  ParallelFor(
      0, static_cast<int64_t>(w->data().size()), /*num_threads=*/0,
      [&](int64_t b, int64_t e) { simd::Active().sgd(wd + b, gd + b, e - b, lr); },
      kElementwiseGrain);
}

}  // namespace hcspmm
