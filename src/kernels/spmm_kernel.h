// Common interface implemented by every SpMM kernel in the library —
// the paper's four kernels (Algorithms 1-4), the HC-SpMM hybrid dispatcher,
// and the five baseline re-implementations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/row_window.h"
#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "util/status.h"

namespace hcspmm {

class CancelToken;  // util/fault.h

/// Per-run options shared by all kernels.
struct KernelOptions {
  /// Storage/compute type of the Tensor-core path. kFp32 disables rounding
  /// (useful for bit-exact correctness tests); the paper's default is TF32.
  DataType dtype = DataType::kTf32;
  /// Host threads for the functional execution loops. <= 0 selects the
  /// hardware concurrency; 1 runs serially. Row partitions are disjoint and
  /// per-element accumulation order is fixed, so fp32 results are
  /// bit-identical for every setting (simulated costs are metered
  /// serially and never depend on it).
  int num_threads = 0;
  /// Optional cooperative cancellation, polled at window-batch granularity
  /// in the dispatch loop (never inside the SIMD kernels). On expiry the run
  /// returns kDeadlineExceeded; the output buffer may be partially written
  /// and must be discarded by the caller.
  const CancelToken* cancel = nullptr;
};

/// \brief Abstract SpMM kernel: computes Z = A * X functionally on the host
/// while metering its simulated GPU cost into a KernelProfile.
class SpmmKernel {
 public:
  virtual ~SpmmKernel() = default;

  /// Stable kernel identifier (used by the registry and bench output).
  virtual std::string name() const = 0;

  /// Compute z = a * x. `z` is overwritten; its storage is reused when it
  /// already is fp32 with the output's shape (see internal::ShapeOutput).
  /// On error its contents are unspecified. `profile` receives the
  /// simulated cost; pass nullptr to skip metering details (time still not
  /// returned then — callers normally want the profile).
  virtual Status Run(const CsrMatrix& a, const DenseMatrix& x, const DeviceSpec& dev,
                     const KernelOptions& opts, DenseMatrix* z,
                     KernelProfile* profile) const = 0;
};

class PackedCsr;

namespace internal {

/// Prepares the output of z = A * x for an A with `rows` rows: keeps z's
/// storage when it already is an fp32 rows x x.cols() matrix (its contents
/// stay unspecified until the kernel overwrites every row) and replaces it
/// with a fresh matrix otherwise. InvalidArgument when z is null or is x
/// itself — the kernels would read X rows they had already overwritten.
Status ShapeOutput(int32_t rows, const DenseMatrix& x, DenseMatrix* z);

/// Functional CSR SpMM over a row range with operand rounding emulating the
/// requested data type (accumulation stays FP32, as on real WMMA hardware):
/// z rows [row_begin, row_end) are overwritten with A * x (each chunk zeroes
/// its rows before accumulating), every other row of z is left untouched.
/// `num_threads` partitions the rows across the global ThreadPool (<= 0 =>
/// hardware concurrency); each row is produced by exactly one thread with an
/// unchanged accumulation order, so results match the serial loop bit-for-bit.
///
/// When `packed` is non-null (a PackedCsr built from `a`), the fp32 path
/// decodes column indices from the packed stream instead of a.col_ind() —
/// same axpy order, bit-identical result, fewer index bytes streamed. X may
/// be in reduced (fp16/bf16) storage: values widen to fp32 on load and
/// accumulation stays fp32 (deterministic, but not bit-identical to fp32
/// storage).
void SpmmRowsRounded(const CsrMatrix& a, const DenseMatrix& x, int32_t row_begin,
                     int32_t row_end, DataType dtype, DenseMatrix* z,
                     int num_threads = 1, const PackedCsr* packed = nullptr);

}  // namespace internal

/// Look up a kernel by name. Known names: "cuda_basic", "cuda_opt",
/// "tensor_basic", "tensor_opt", "hcspmm", "hybrid_fine", "cusparse",
/// "sputnik", "gespmm", "tcgnn", "dtcspmm". Returns nullptr for unknown
/// names; callers that need a diagnostic should list RegisteredKernelNames().
std::unique_ptr<SpmmKernel> MakeKernel(const std::string& name);

/// All registered kernel names in a stable order.
std::vector<std::string> KernelNames();

/// Canonical listing of every name MakeKernel accepts (same contents as
/// KernelNames); use it to build "unknown kernel" error messages.
const std::vector<std::string>& RegisteredKernelNames();

}  // namespace hcspmm
