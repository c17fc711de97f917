// The host-speed reference each workload interleaves with its own units of
// work: a fixed job written in the benchmark, not taken from the library,
// so no change to the library can move it. Its CPU time tracks how fast
// the shared host runs that kind of work at that moment (neighbours on the
// same cores, caches and memory bus slow every thread), and the end-to-end
// metrics divide the workload's CPU time by it. The job matches the
// workload's dominant work: a scalar CSR SpMM, or, for GCN training, whose
// epochs are mostly dense products, a scalar dense product.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.h"
#include "sparse/dense.h"

namespace perfbench {

class HostReference {
 public:
  /// Nonzeros one Run() of the SpMM reference multiplies.
  static constexpr int64_t kNnz = 200000;
  /// Multiply-adds one Run() of the dense reference does.
  static constexpr int64_t kDenseMacs = 32000000;
  /// Columns of the dense reference's fixed right-hand matrix.
  static constexpr int32_t kDenseCols = 32;

  /// The leading rows of `a` holding up to kNnz nonzeros times `x` or, for
  /// a smaller matrix, as many whole passes over all of `a` as reach it.
  /// `a` and `x` must outlive the reference; x.rows() == a.cols().
  static HostReference Spmm(const hcspmm::CsrMatrix& a, const hcspmm::DenseMatrix& x);

  /// The leading rows of `x` times a fixed x.cols() x kDenseCols matrix,
  /// about kDenseMacs multiply-adds (whole passes over a smaller `x`). `x`
  /// must outlive the reference.
  static HostReference DenseProduct(const hcspmm::DenseMatrix& x);

  /// Run the job once, its rows split over the hardware threads (each its
  /// own std::thread). Returns the threads' summed CPU time, ms, and keeps
  /// it as a sample. Not thread-safe.
  double Run();

  /// What one Run() does, for the report.
  const std::string& what() const { return what_; }
  const std::vector<double>& samples_ms() const { return samples_ms_; }
  /// Sum of every sample, ms: what to leave out of a process-wide CPU clock.
  double total_ms() const { return total_ms_; }
  /// Median sample, ms (0 before the first Run).
  double MedianMs() const;

 private:
  explicit HostReference(const hcspmm::DenseMatrix* x) : x_(x) {}

  const hcspmm::CsrMatrix* a_ = nullptr;  ///< set: SpMM; null: dense product
  const hcspmm::DenseMatrix* x_;
  std::vector<float> w_;  ///< the dense product's right-hand matrix
  int32_t rows_ = 0;
  int passes_ = 1;
  hcspmm::DenseMatrix z_;
  std::string what_;
  std::vector<double> samples_ms_;
  double total_ms_ = 0.0;
};

}  // namespace perfbench
