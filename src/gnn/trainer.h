// End-to-end GNN training orchestration with per-epoch simulated-time
// accounting — the harness behind Figures 11-13 and Tables VI, VIII, IX,
// XII.
#pragma once

#include <string>
#include <vector>

#include "gnn/gcn.h"
#include "gnn/gin.h"

namespace hcspmm {

/// Which model family to train.
enum class GnnModelKind { kGcn, kGin };

/// Aggregated outcome of a training run.
struct TrainStats {
  std::vector<EpochResult> epochs;
  double preprocess_ms = 0.0;    ///< engine preprocessing (amortized)
  int64_t memory_bytes = 0;      ///< Table XII estimate
  double final_loss = 0.0;
  double final_accuracy = 0.0;

  double AvgForwardMs() const;
  double AvgBackwardMs() const;
  double AvgEpochMs() const;
};

/// Train `epochs` epochs of `kind` on `graph` using the named SpMM kernel.
/// The sparse operator (GCN-normalized adjacency or GIN operator) is built
/// internally and bound through a Session on Runtime::Default(), so plan
/// building overlaps model initialization and — when
/// `config.async_pipeline` — backward aggregations overlap the deferred
/// weight-gradient GEMMs. `config.fuse_kernels` toggles SS V-A fusion.
TrainStats TrainGnn(const Graph& graph, GnnModelKind kind,
                    const std::string& kernel_name, const GnnConfig& config,
                    const DeviceSpec& dev, int32_t epochs,
                    DataType dtype = DataType::kTf32);

/// Estimated training-time GPU memory: graph + operator + activations +
/// parameters + kernel-specific auxiliary structures (Table XII) of the
/// bound `session`.
int64_t EstimateTrainingMemoryBytes(const Graph& graph, const CsrMatrix& abar,
                                    const Session& session, int64_t activation_bytes,
                                    int64_t parameter_bytes);

}  // namespace hcspmm
