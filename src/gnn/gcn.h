// GCN (Kipf & Welling) with simulated-time accounting. Each layer computes
// X_{l+1} = ReLU(Abar (X_l W_l)): Update (GEMM) first, then Aggregation
// (SpMM) — so in *backward* propagation the Update directly follows the
// Aggregation and the two kernels fuse (SS V-A).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/optimizers.h"
#include "gnn/spmm_engine.h"
#include "graph/graph.h"

namespace hcspmm {

/// Shared GNN hyperparameters.
struct GnnConfig {
  int32_t hidden_dim = 16;
  int32_t num_layers = 2;
  double learning_rate = 0.05;
  bool fuse_kernels = true;  ///< SS V-A kernel fusion
  uint64_t seed = 1;
  /// Update rule (GCN honors all three; GIN uses SGD).
  OptimizerKind optimizer = OptimizerKind::kSgd;
  /// Inverted dropout rate applied after each hidden ReLU (0 disables).
  double dropout = 0.0;
  /// Submit backward aggregations through Session::MultiplyAsync so they
  /// overlap the deferred weight-gradient GEMMs on the caller thread. fp32
  /// results and metered profiles are bit-identical either way; only
  /// wall-clock changes.
  bool async_pipeline = true;
  /// Row-disjoint shards of the sparse operator (TrainGnn opens a
  /// ShardedSession when > 1). Default 1 is the single-Session path; fp32
  /// results are bit-identical for every shard count.
  int num_shards = 1;
  /// Store the operator's column indices delta/byte-packed and decode them
  /// in the SIMD SpMM kernels (SessionOptions::set_compress_indices).
  /// Lossless — training results are bit-identical; only bytes/nnz drops.
  bool compress_indices = false;
};

/// Loss and per-phase timing of one training epoch.
struct EpochResult {
  double loss = 0.0;
  double accuracy = 0.0;
  PhaseBreakdown forward;
  PhaseBreakdown backward;
  double EpochMs() const { return forward.TotalMs() + backward.TotalMs(); }
};

/// \brief Multi-layer GCN with full forward/backward and SGD.
class GcnModel {
 public:
  /// `graph` and the aggregator's backing Session or ShardedSession must
  /// outlive the model; the bound sparse operator must be
  /// GcnNormalized(graph->adjacency). Accepts a Session* or ShardedSession*
  /// directly (AggregatorRef converts implicitly).
  GcnModel(const Graph* graph, const GnnConfig& config, AggregatorRef agg);

  /// Back-compat adapter: binds to the engine's underlying (possibly
  /// sharded) session.
  GcnModel(const Graph* graph, const GnnConfig& config, SpmmEngine* engine);

  /// Forward pass; caches activations for backward (layer 0's input by
  /// reference: graph->features must not change before Backward). Returns
  /// logits.
  DenseMatrix Forward(PhaseBreakdown* times);

  /// Backward pass from d(loss)/d(logits); fills gradients and applies SGD.
  void Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times);

  /// One full epoch (forward + loss + backward + SGD).
  EpochResult TrainEpoch();

  const std::vector<DenseMatrix>& weights() const { return weights_; }
  std::vector<DenseMatrix>& mutable_weights() { return weights_; }
  const GnnConfig& config() const { return config_; }

  /// Bytes of parameters + cached activations (Table XII common part).
  int64_t ActivationBytes() const;
  int64_t ParameterBytes() const;

 private:
  /// Aggregate `in`, honoring config_.async_pipeline: either dispatched to
  /// the backend's stream(s) (overlapping the caller's next GEMM) or
  /// computed inline at the same program point. `profile` must outlive the
  /// future.
  Future<DenseMatrix> Aggregate(DenseMatrix in, KernelProfile* profile);

  const Graph* graph_;
  GnnConfig config_;
  AggregatorRef agg_;
  std::vector<DenseMatrix> weights_;
  std::unique_ptr<Optimizer> optimizer_;
  Pcg32 dropout_rng_{0xd509};
  // Caches from the last Forward.
  std::vector<const DenseMatrix*> inputs_;  // X_l: the features, then hidden_
  std::vector<DenseMatrix> hidden_;         // X_{l+1} = ReLU(Z_l), after dropout
  std::vector<DenseMatrix> aggregated_;     // Z_l = Abar (X_l W_l), pre-ReLU
  std::vector<DenseMatrix> dropout_mask_;   // per hidden layer (if enabled)
  int64_t logits_bytes_ = 0;  // the last Z_l, handed to the caller
};

/// Glorot-style random weight matrix.
DenseMatrix GlorotInit(int32_t in_dim, int32_t out_dim, Pcg32* rng);

}  // namespace hcspmm
