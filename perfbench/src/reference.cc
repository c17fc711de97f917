#include "reference.h"

#include <algorithm>
#include <thread>

#include "exec/thread_pool.h"
#include "measure.h"

namespace perfbench {

using hcspmm::CsrMatrix;
using hcspmm::DenseMatrix;

namespace {

// Whole passes over `total` units that reach `target`, at least one.
int PassesFor(int64_t total, int64_t target) {
  return total > 0 ? static_cast<int>(std::max<int64_t>(1, (target + total - 1) / total)) : 1;
}

// The jobs are plain functions over plain arguments. The same loops as a
// lambda behind std::function compiled to code 20-30% slower, which alone
// moved the serving workloads' ratios by as much: a change here is a change
// to every metric's base.
void SpmmRows(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* z, int32_t lo,
              int32_t hi) {
  const int32_t d = x.cols();
  for (int32_t r = lo; r < hi; ++r) {
    float* out = z->MutableRowData(r);
    for (int32_t c = 0; c < d; ++c) out[c] = 0.0f;
    for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      const float v = a.val()[k];
      const float* in = x.RowData(a.col_ind()[k]);
      for (int32_t c = 0; c < d; ++c) out[c] += v * in[c];
    }
  }
}

void DenseRows(const DenseMatrix& x, const std::vector<float>& w, DenseMatrix* z, int32_t lo,
               int32_t hi) {
  const int32_t d = x.cols();
  const int32_t k = HostReference::kDenseCols;
  for (int32_t r = lo; r < hi; ++r) {
    float* out = z->MutableRowData(r);
    for (int32_t j = 0; j < k; ++j) out[j] = 0.0f;
    const float* in = x.RowData(r);
    for (int32_t i = 0; i < d; ++i) {
      const float xi = in[i];
      const float* wi = w.data() + static_cast<size_t>(i) * k;
      for (int32_t j = 0; j < k; ++j) out[j] += xi * wi[j];
    }
  }
}

}  // namespace

HostReference HostReference::Spmm(const CsrMatrix& a, const DenseMatrix& x) {
  HostReference ref(&x);
  ref.a_ = &a;
  while (ref.rows_ < a.rows() && a.RowEnd(ref.rows_) <= kNnz) ++ref.rows_;
  ref.rows_ = std::max<int32_t>(ref.rows_, std::min<int32_t>(1, a.rows()));
  const int64_t nnz = a.row_ptr()[ref.rows_];
  if (ref.rows_ == a.rows()) ref.passes_ = PassesFor(nnz, kNnz);
  ref.z_ = DenseMatrix(ref.rows_, x.cols());
  ref.what_ = "SpMM of " + std::to_string(ref.passes_ * nnz) + " nnz x " +
              std::to_string(x.cols()) + " columns";
  return ref;
}

HostReference HostReference::DenseProduct(const DenseMatrix& x) {
  HostReference ref(&x);
  const int64_t macs_per_row = int64_t{x.cols()} * kDenseCols;
  ref.rows_ = static_cast<int32_t>(
      std::min<int64_t>(x.rows(), std::max<int64_t>(1, kDenseMacs / macs_per_row)));
  if (ref.rows_ == x.rows()) ref.passes_ = PassesFor(ref.rows_ * macs_per_row, kDenseMacs);
  ref.w_.resize(static_cast<size_t>(x.cols()) * kDenseCols);
  for (size_t i = 0; i < ref.w_.size(); ++i) {
    ref.w_[i] = static_cast<float>(i % 7) * 0.125f - 0.375f;
  }
  ref.z_ = DenseMatrix(ref.rows_, kDenseCols);
  ref.what_ = "dense product " + std::to_string(ref.rows_) + "x" + std::to_string(x.cols()) +
              " * " + std::to_string(x.cols()) + "x" + std::to_string(kDenseCols) + ", " +
              std::to_string(ref.passes_) + " pass(es)";
  return ref;
}

double HostReference::Run() {
  const int threads = hcspmm::ThreadPool::HardwareThreads();
  std::vector<double> cpu_ms(threads, 0.0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads, &cpu_ms] {
      const double start = ThisThreadCpuMs();
      const int32_t lo = static_cast<int32_t>(int64_t{rows_} * t / threads);
      const int32_t hi = static_cast<int32_t>(int64_t{rows_} * (t + 1) / threads);
      for (int pass = 0; pass < passes_; ++pass) {
        if (a_ != nullptr) {
          SpmmRows(*a_, *x_, &z_, lo, hi);
        } else {
          DenseRows(*x_, w_, &z_, lo, hi);
        }
      }
      cpu_ms[t] = ThisThreadCpuMs() - start;
    });
  }
  double sum = 0.0;
  for (int t = 0; t < threads; ++t) {
    workers[t].join();
    sum += cpu_ms[t];
  }
  samples_ms_.push_back(sum);
  total_ms_ += sum;
  return sum;
}

double HostReference::MedianMs() const { return Quantile(samples_ms_, 0.5); }

}  // namespace perfbench
