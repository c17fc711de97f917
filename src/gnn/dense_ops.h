// Metered dense operations for the GNN Update phase and activations.
// GEMMs are costed as cuBLAS-style Tensor-core kernels (Equation 2/3);
// elementwise ops are bandwidth-bound.
#pragma once

#include <vector>

#include "gpusim/device.h"
#include "gpusim/profile.h"
#include "sparse/dense.h"

namespace hcspmm {

/// C = A * B, metered as one kernel launch on `dev`.
DenseMatrix MeteredGemm(const DenseMatrix& a, const DenseMatrix& b,
                        const DeviceSpec& dev, DataType dtype, KernelProfile* profile);

/// C = A^T * B (the W' = Z^T X' gradient GEMM of Equation 3).
DenseMatrix MeteredGemmTransA(const DenseMatrix& a, const DenseMatrix& b,
                              const DeviceSpec& dev, DataType dtype,
                              KernelProfile* profile);

/// C = A * B^T (the Z' = X' W^T gradient GEMM of Equation 3).
DenseMatrix MeteredGemmTransB(const DenseMatrix& a, const DenseMatrix& b,
                              const DeviceSpec& dev, DataType dtype,
                              KernelProfile* profile);

/// ReLU(in) as a new matrix in one pass, metered as a bandwidth-bound kernel.
DenseMatrix MeteredRelu(const DenseMatrix& in, const DeviceSpec& dev,
                        KernelProfile* profile);

/// grad_in = grad_out * (pre_act > 0), metered.
DenseMatrix MeteredReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act,
                            const DeviceSpec& dev, KernelProfile* profile);

/// Row-wise softmax (host side; used for reporting predictions).
DenseMatrix SoftmaxRows(const DenseMatrix& logits);

/// Mean softmax cross-entropy over all rows; writes d(loss)/d(logits) into
/// `grad_logits` when non-null. Returns the loss.
double SoftmaxCrossEntropy(const DenseMatrix& logits,
                           const std::vector<int32_t>& labels,
                           DenseMatrix* grad_logits);

/// Fraction of rows whose argmax matches the label.
double PredictionAccuracy(const DenseMatrix& logits,
                          const std::vector<int32_t>& labels);

/// w -= lr * grad (plain SGD).
void SgdStep(DenseMatrix* w, const DenseMatrix& grad, double lr);

}  // namespace hcspmm
