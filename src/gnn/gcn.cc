#include "gnn/gcn.h"

#include <cmath>

#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "util/logging.h"

namespace hcspmm {

DenseMatrix GlorotInit(int32_t in_dim, int32_t out_dim, Pcg32* rng) {
  DenseMatrix w(in_dim, out_dim);
  const double scale = std::sqrt(2.0 / (in_dim + out_dim));
  for (float& v : w.mutable_data()) {
    v = static_cast<float>(scale * rng->NextGaussian());
  }
  return w;
}

GcnModel::GcnModel(const Graph* graph, const GnnConfig& config, SpmmEngine* engine)
    : GcnModel(graph, config, engine->agg()) {}

GcnModel::GcnModel(const Graph* graph, const GnnConfig& config, AggregatorRef agg)
    : graph_(graph), config_(config), agg_(agg) {
  HCSPMM_CHECK(config_.num_layers >= 1);
  Pcg32 rng(config_.seed);
  int32_t in_dim = graph_->feature_dim;
  for (int32_t l = 0; l < config_.num_layers; ++l) {
    const int32_t out_dim =
        (l == config_.num_layers - 1) ? graph_->num_classes : config_.hidden_dim;
    weights_.push_back(GlorotInit(in_dim, out_dim, &rng));
    in_dim = out_dim;
  }
  OptimizerConfig opt_cfg;
  opt_cfg.kind = config_.optimizer;
  opt_cfg.learning_rate = config_.learning_rate;
  optimizer_ = std::make_unique<Optimizer>(opt_cfg);
  for (DenseMatrix& w : weights_) optimizer_->AddParameter(&w);
}

Future<DenseMatrix> GcnModel::Aggregate(DenseMatrix in, KernelProfile* profile) {
  if (config_.async_pipeline) return agg_.MultiplyAsync(std::move(in), profile);
  DenseMatrix out;
  HCSPMM_CHECK_OK(agg_.Multiply(in, &out, profile));
  return MakeReadyFuture<DenseMatrix>(std::move(out));
}

DenseMatrix GcnModel::Forward(PhaseBreakdown* times) {
  inputs_.clear();
  hidden_.clear();
  aggregated_.clear();
  dropout_mask_.clear();
  hidden_.reserve(config_.num_layers);  // inputs_ points into it
  const DenseMatrix* x = &graph_->features;
  for (int32_t l = 0;; ++l) {
    inputs_.push_back(x);
    // Update phase: U = X W (Equation 2, cuBLAS GEMM).
    KernelProfile gemm_prof;
    DenseMatrix u =
        MeteredGemm(*x, weights_[l], agg_.device(), agg_.dtype(), &gemm_prof);
    if (times != nullptr) FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);

    // Aggregation phase: Z = Abar U (Equation 1, SpMM). The forward chain is
    // strict (each layer consumes the previous aggregation immediately), so
    // it runs synchronously; pipelining lives in Backward.
    KernelProfile agg_prof;
    DenseMatrix z;
    HCSPMM_CHECK_OK(agg_.Multiply(u, &z, &agg_prof));
    if (times != nullptr) FoldProfile(agg_prof, &times->agg_ns, &times->launch_ns);

    if (l == config_.num_layers - 1) {
      logits_bytes_ = z.MemoryBytes();
      return z;
    }
    KernelProfile relu_prof;
    hidden_.push_back(MeteredRelu(z, agg_.device(), &relu_prof));
    if (times != nullptr) {
      FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
    }
    if (config_.dropout > 0.0) {
      dropout_mask_.push_back(
          DropoutForward(&hidden_.back(), config_.dropout, &dropout_rng_));
    }
    aggregated_.push_back(std::move(z));
    x = &hidden_.back();
  }
}

void GcnModel::Backward(const DenseMatrix& grad_logits, PhaseBreakdown* times) {
  HCSPMM_CHECK(inputs_.size() == weights_.size()) << "run Forward first";
  const DeviceSpec& dev = agg_.device();
  const DataType dtype = agg_.dtype();
  const int32_t num_layers = config_.num_layers;

  // Software pipeline: the aggregation for layer l-1 is submitted as soon as
  // its input dZ exists, so it overlaps the *deferred* dW GEMM of layer l on
  // this thread — the async-pipelining overlap the paper's amortization
  // story motivates. Indexed storage (not locals) because the profile a
  // MultiplyAsync call fills must stay addressable until its future resolves.
  std::vector<DenseMatrix> weight_grads(num_layers);
  std::vector<KernelProfile> agg_profs(num_layers);
  std::vector<Future<DenseMatrix>> agg_futs(num_layers);

  agg_futs[num_layers - 1] = Aggregate(grad_logits, &agg_profs[num_layers - 1]);
  for (int32_t l = num_layers - 1; l >= 0; --l) {
    // Aggregation backward: dU = Abar^T dZ = Abar dZ (Abar symmetric).
    HCSPMM_CHECK_OK(agg_futs[l].status());
    DenseMatrix d_u = agg_futs[l].Take();

    // Critical path first: dX = dU W^T feeds the next layer's aggregation,
    // which is submitted before the off-path dW GEMM below.
    KernelProfile dx_prof, relu_prof;
    int32_t fusible_launches = 1;  // the dW GEMM fuses into the SpMM launch
    if (l > 0) {
      DenseMatrix d_x = MeteredGemmTransB(d_u, weights_[l], dev, dtype, &dx_prof);
      fusible_launches = 2;  // ... and so does the dX GEMM
      if (config_.dropout > 0.0) {
        DropoutBackward(&d_x, dropout_mask_[l - 1], config_.dropout);
      }
      DenseMatrix d_z = MeteredReluGrad(d_x, aggregated_[l - 1], dev, &relu_prof);
      agg_futs[l - 1] = Aggregate(std::move(d_z), &agg_profs[l - 1]);
    }
    // Update backward (Equation 3): dW = X^T dU — deferred off the critical
    // path, overlapping the in-flight aggregation.
    KernelProfile dw_prof;
    weight_grads[l] = MeteredGemmTransA(*inputs_[l], d_u, dev, dtype, &dw_prof);

    if (times != nullptr) {
      // Fold in the exact order of the serial path (fp addition is not
      // associative): aggregation, then the dW GEMM accumulated before the
      // dX GEMM, fusion adjustment, ReLU grad.
      FoldProfile(agg_profs[l], &times->agg_ns, &times->launch_ns);
      KernelProfile gemm_prof = dw_prof;
      gemm_prof.Accumulate(dx_prof);
      FoldProfile(gemm_prof, &times->update_ns, &times->launch_ns);
      if (config_.fuse_kernels) {
        // SS V-A: Update follows Aggregation in GCN backward, so the
        // intermediate dU never round-trips through global memory and the
        // follow-on GEMM launches disappear.
        times->launch_ns -= fusible_launches * dev.kernel_launch_ns;
        const double traffic_ns =
            FusionSavingsNs(d_u.rows(), d_u.cols(), 0, dev, dtype);
        times->agg_ns = std::max(0.0, times->agg_ns - traffic_ns);
      }
      if (l > 0) {
        FoldProfile(relu_prof, &times->elementwise_ns, &times->launch_ns);
      }
    }
  }
  std::vector<const DenseMatrix*> grad_ptrs;
  grad_ptrs.reserve(weight_grads.size());
  for (const DenseMatrix& g : weight_grads) grad_ptrs.push_back(&g);
  optimizer_->Step(grad_ptrs);
}

EpochResult GcnModel::TrainEpoch() {
  EpochResult result;
  DenseMatrix logits = Forward(&result.forward);
  DenseMatrix grad;
  result.loss = SoftmaxCrossEntropy(logits, graph_->labels, &grad);
  result.accuracy = PredictionAccuracy(logits, graph_->labels);
  Backward(grad, &result.backward);
  return result;
}

int64_t GcnModel::ActivationBytes() const {
  int64_t bytes = logits_bytes_;
  for (const DenseMatrix* m : inputs_) bytes += m->MemoryBytes();
  for (const DenseMatrix& m : aggregated_) bytes += m.MemoryBytes();
  return bytes;
}

int64_t GcnModel::ParameterBytes() const {
  int64_t bytes = 0;
  // Weights plus same-shaped gradient buffers.
  for (const DenseMatrix& w : weights_) bytes += 2 * w.MemoryBytes();
  return bytes;
}

}  // namespace hcspmm
