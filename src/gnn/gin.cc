#include "gnn/gin.h"

#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "util/logging.h"

namespace hcspmm {

GinModel::GinModel(const Graph* graph, const GnnConfig& config, SpmmEngine* engine)
    : GinModel(graph, config, engine->agg()) {}

GinModel::GinModel(const Graph* graph, const GnnConfig& config, AggregatorRef agg)
    : graph_(graph), config_(config), agg_(agg) {
  HCSPMM_CHECK(config_.num_layers >= 1);
  Pcg32 rng(config_.seed);
  int32_t in_dim = graph_->feature_dim;
  for (int32_t l = 0; l < config_.num_layers; ++l) {
    const int32_t out_dim =
        (l == config_.num_layers - 1) ? graph_->num_classes : config_.hidden_dim;
    w1_.push_back(GlorotInit(in_dim, config_.hidden_dim, &rng));
    w2_.push_back(GlorotInit(config_.hidden_dim, out_dim, &rng));
    in_dim = out_dim;
  }
}

Future<DenseMatrix> GinModel::Aggregate(DenseMatrix in, KernelProfile* profile) {
  if (config_.async_pipeline) return agg_.MultiplyAsync(std::move(in), profile);
  DenseMatrix out;
  HCSPMM_CHECK_OK(agg_.Multiply(in, &out, profile));
  return MakeReadyFuture<DenseMatrix>(std::move(out));
}

DenseMatrix GinModel::Forward(PhaseBreakdown* times) {
  inputs_.clear();
  outputs_.clear();
  aggregated_.clear();
  hidden_pre_.clear();
  hidden_act_.clear();
  outputs_.reserve(config_.num_layers);  // inputs_ points into it
  const DeviceSpec& dev = agg_.device();
  const DataType dtype = agg_.dtype();

  const DenseMatrix* x = &graph_->features;
  for (int32_t l = 0;; ++l) {
    inputs_.push_back(x);
    // Aggregation first: Z = (A + (1+eps) I) X. The forward chain is strict
    // (the MLP consumes Z immediately), so it runs synchronously; the
    // pipelining overlap lives in Backward.
    KernelProfile agg_prof;
    aggregated_.emplace_back();
    HCSPMM_CHECK_OK(agg_.Multiply(*x, &aggregated_.back(), &agg_prof));
    const DenseMatrix& z = aggregated_.back();

    // Update: two-layer MLP.
    KernelProfile gemm_prof;
    DenseMatrix h = MeteredGemm(z, w1_[l], dev, dtype, &gemm_prof);
    KernelProfile relu_prof;
    hidden_act_.push_back(MeteredRelu(h, dev, &relu_prof));
    hidden_pre_.push_back(std::move(h));
    DenseMatrix out = MeteredGemm(hidden_act_.back(), w2_[l], dev, dtype, &gemm_prof);

    if (times != nullptr) {
      FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      if (config_.fuse_kernels) {
        // Forward GIN: the first MLP GEMM follows the Aggregation directly,
        // so Z stays in shared memory and one launch disappears.
        times->launch_ns -= dev.kernel_launch_ns;
        const double traffic_ns = FusionSavingsNs(z.rows(), z.cols(), 0, dev, dtype);
        times->agg_ns = std::max(0.0, times->agg_ns - traffic_ns);
      }
    }
    if (l == config_.num_layers - 1) return out;
    outputs_.push_back(std::move(out));
    x = &outputs_.back();
  }
}

void GinModel::Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times) {
  HCSPMM_CHECK(inputs_.size() == w1_.size()) << "run Forward first";
  const DeviceSpec& dev = agg_.device();
  const DataType dtype = agg_.dtype();

  DenseMatrix d_out = grad_logits;
  for (int32_t l = config_.num_layers - 1; l >= 0; --l) {
    // Critical path to the aggregation input dZ first: d(hidden activation),
    // ReLU grad, then dZ = dH W1^T — so the aggregation can be submitted
    // before the off-path weight-gradient GEMMs below.
    KernelProfile dact_prof, relu_prof, dz_prof;
    DenseMatrix d_act = MeteredGemmTransB(d_out, w2_[l], dev, dtype, &dact_prof);
    DenseMatrix d_h = MeteredReluGrad(d_act, hidden_pre_[l], dev, &relu_prof);
    DenseMatrix d_z = MeteredGemmTransB(d_h, w1_[l], dev, dtype, &dz_prof);

    // Aggregation backward (Update precedes it -> no fusion). Submitted
    // async: it overlaps the dW1/dW2 GEMMs and the SGD steps on this thread.
    KernelProfile agg_prof;
    Future<DenseMatrix> agg_fut;
    if (l > 0) {
      agg_fut = Aggregate(std::move(d_z), &agg_prof);
    }

    // Deferred off the critical path: d(w2), d(w1), and the SGD updates.
    // dW2 reads w2 nowhere and dZ above already consumed the pre-step w1,
    // so stepping here is equivalent to the serial order.
    KernelProfile dw2_prof, dw1_prof;
    DenseMatrix d_w2 = MeteredGemmTransA(hidden_act_[l], d_out, dev, dtype, &dw2_prof);
    DenseMatrix d_w1 = MeteredGemmTransA(aggregated_[l], d_h, dev, dtype, &dw1_prof);
    SgdStep(&w1_[l], d_w1, config_.learning_rate);
    SgdStep(&w2_[l], d_w2, config_.learning_rate);

    DenseMatrix d_x;
    if (l > 0) {
      HCSPMM_CHECK_OK(agg_fut.status());
      d_x = agg_fut.Take();
    }

    if (times != nullptr) {
      // Same fold order as the serial path: one gemm profile accumulated in
      // the order dW2, dAct, dW1, dZ; then ReLU grad, then aggregation.
      KernelProfile gemm_prof = dw2_prof;
      gemm_prof.Accumulate(dact_prof);
      gemm_prof.Accumulate(dw1_prof);
      gemm_prof.Accumulate(dz_prof);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);
    }

    if (l > 0) d_out = std::move(d_x);
  }
}

EpochResult GinModel::TrainEpoch() {
  EpochResult result;
  DenseMatrix logits = Forward(&result.forward);
  DenseMatrix grad;
  result.loss = SoftmaxCrossEntropy(logits, graph_->labels, &grad);
  result.accuracy = PredictionAccuracy(logits, graph_->labels);
  Backward(grad, &result.backward);
  return result;
}

int64_t GinModel::ActivationBytes() const {
  int64_t bytes = 0;
  for (const DenseMatrix* m : inputs_) bytes += m->MemoryBytes();
  for (const auto& m : aggregated_) bytes += m.MemoryBytes();
  for (const auto& m : hidden_pre_) bytes += m.MemoryBytes();
  for (const auto& m : hidden_act_) bytes += m.MemoryBytes();
  return bytes;
}

int64_t GinModel::ParameterBytes() const {
  int64_t bytes = 0;
  for (const auto& w : w1_) bytes += 2 * w.MemoryBytes();
  for (const auto& w : w2_) bytes += 2 * w.MemoryBytes();
  return bytes;
}

}  // namespace hcspmm
