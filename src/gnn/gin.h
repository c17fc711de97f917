// GIN (Xu et al.): X_{l+1} = MLP((A + (1+eps) I) X_l) with a two-layer MLP.
// Aggregation comes *first* in the layer, so in *forward* propagation the
// Update (first MLP GEMM) directly follows the Aggregation and fuses
// (SS V-A); backward runs Update-then-Aggregation and cannot fuse — which
// is why the paper's GIN speedups are larger forward than backward.
#pragma once

#include "gnn/gcn.h"

namespace hcspmm {

/// \brief Multi-layer GIN with full forward/backward and SGD.
class GinModel {
 public:
  /// The bound sparse operator must be GinOperator(graph->adjacency).
  /// Accepts a Session* or ShardedSession* (AggregatorRef converts
  /// implicitly).
  GinModel(const Graph* graph, const GnnConfig& config, AggregatorRef agg);

  /// Back-compat adapter: binds to the engine's underlying (possibly
  /// sharded) session.
  GinModel(const Graph* graph, const GnnConfig& config, SpmmEngine* engine);

  DenseMatrix Forward(PhaseBreakdown* times);
  void Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times);
  EpochResult TrainEpoch();

  const std::vector<DenseMatrix>& mlp_w1() const { return w1_; }
  const std::vector<DenseMatrix>& mlp_w2() const { return w2_; }

  int64_t ActivationBytes() const;
  int64_t ParameterBytes() const;

 private:
  /// Aggregate `in`, honoring config_.async_pipeline (see GcnModel).
  Future<DenseMatrix> Aggregate(DenseMatrix in, KernelProfile* profile);

  const Graph* graph_;
  GnnConfig config_;
  AggregatorRef agg_;
  std::vector<DenseMatrix> w1_, w2_;  // per-layer MLP weights
  // Caches from the last Forward.
  std::vector<const DenseMatrix*> inputs_;  // X_l: the features, then outputs_
  std::vector<DenseMatrix> outputs_;     // X_{l+1} of every layer but the last
  std::vector<DenseMatrix> aggregated_;  // Z_l = Ahat X_l
  std::vector<DenseMatrix> hidden_pre_;  // H_l = Z_l W1 (pre-ReLU)
  std::vector<DenseMatrix> hidden_act_;  // ReLU(H_l)
};

}  // namespace hcspmm
