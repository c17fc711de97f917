#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "gnn/gcn.h"
#include "gnn/gin.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"
#include "test_session.h"

namespace hcspmm {
namespace {

Graph TestGraph(int n = 200, uint64_t seed = 11) {
  Pcg32 rng(seed);
  Graph g = MoleculeUnion(n, n * 4, 20, 12, &rng);
  g.num_classes = 4;
  // Community-aligned labels: aggregation then reinforces (rather than
  // averages away) the class signal, so GCN/GIN can actually learn.
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = (v / 20) % 4;
  AttachSyntheticFeatures(&g, &rng);
  return g;
}

TEST(DenseOpsTest, SoftmaxRowsSumToOne) {
  Pcg32 rng(1);
  DenseMatrix logits = GenerateDense(10, 5, &rng);
  DenseMatrix p = SoftmaxRows(logits);
  for (int32_t r = 0; r < 10; ++r) {
    double sum = 0;
    for (int32_t c = 0; c < 5; ++c) {
      sum += p.At(r, c);
      EXPECT_GE(p.At(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(DenseOpsTest, CrossEntropyOfPerfectPredictionIsSmall) {
  DenseMatrix logits(2, 3);
  logits.At(0, 1) = 20.0f;
  logits.At(1, 2) = 20.0f;
  const double loss = SoftmaxCrossEntropy(logits, {1, 2}, nullptr);
  EXPECT_LT(loss, 1e-6);
}

TEST(DenseOpsTest, CrossEntropyGradientMatchesFiniteDifference) {
  Pcg32 rng(2);
  DenseMatrix logits = GenerateDense(6, 4, &rng);
  std::vector<int32_t> labels{0, 1, 2, 3, 1, 2};
  DenseMatrix grad;
  SoftmaxCrossEntropy(logits, labels, &grad);
  const double eps = 1e-3;
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 4; ++c) {
      DenseMatrix lp = logits, lm = logits;
      lp.At(r, c) += eps;
      lm.At(r, c) -= eps;
      const double fd = (SoftmaxCrossEntropy(lp, labels, nullptr) -
                         SoftmaxCrossEntropy(lm, labels, nullptr)) /
                        (2 * eps);
      EXPECT_NEAR(grad.At(r, c), fd, 1e-4);
    }
  }
}

TEST(DenseOpsTest, ReluAndGrad) {
  DenseMatrix m(1, 4);
  m.At(0, 0) = -1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 0;
  m.At(0, 3) = -0.5;
  KernelProfile prof;
  const DenseMatrix r = MeteredRelu(m, Rtx3090(), &prof);
  EXPECT_FLOAT_EQ(r.At(0, 0), 0);
  EXPECT_FLOAT_EQ(r.At(0, 1), 2);
  EXPECT_EQ(prof.launches, 1);

  DenseMatrix gout(1, 4, 1.0f);
  DenseMatrix gin = MeteredReluGrad(gout, m, Rtx3090(), &prof);
  EXPECT_FLOAT_EQ(gin.At(0, 0), 0);
  EXPECT_FLOAT_EQ(gin.At(0, 1), 1);
  EXPECT_FLOAT_EQ(gin.At(0, 2), 0);  // relu'(0) = 0
}

TEST(DenseOpsTest, MeteredGemmMatchesReferenceAndMeters) {
  Pcg32 rng(3);
  DenseMatrix a = GenerateDense(20, 12, &rng);
  DenseMatrix b = GenerateDense(12, 8, &rng);
  KernelProfile prof;
  DenseMatrix c = MeteredGemm(a, b, Rtx3090(), DataType::kTf32, &prof);
  EXPECT_LT(c.MaxAbsDifference(ReferenceGemm(a, b)), 1e-4);
  EXPECT_GT(prof.time_ns, 0);
  EXPECT_GT(prof.mma_ops, 0);
  EXPECT_EQ(prof.launches, 1);
}

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(float)) ==
             0;
}

TEST(DenseOpsTest, MeteredGemmsBitIdenticalToSerialReferenceOnOneAndAllThreads) {
  // Shapes of a GCN layer, big enough that every variant splits into
  // several ParallelFor chunks; A is about half zeros, as after a ReLU.
  Pcg32 rng(29);
  DenseMatrix h = GenerateDense(1000, 64, &rng);
  for (float& v : h.mutable_data()) v = v < 0.0f ? 0.0f : v;
  const DenseMatrix w = GenerateDense(64, 22, &rng);
  const DenseMatrix du = GenerateDense(1000, 22, &rng);
  const DenseMatrix wt = GenerateDense(40, 22, &rng);
  const std::vector<DenseMatrix> want = {ReferenceGemm(h, w), ReferenceGemmTransA(h, du),
                                         ReferenceGemmTransB(du, wt)};
  const auto metered = [&] {
    return std::vector<DenseMatrix>{
        MeteredGemm(h, w, Rtx3090(), DataType::kFp32, nullptr),
        MeteredGemmTransA(h, du, Rtx3090(), DataType::kFp32, nullptr),
        MeteredGemmTransB(du, wt, Rtx3090(), DataType::kFp32, nullptr)};
  };
  // On a pool worker ParallelFor runs inline: the one-thread schedule.
  std::vector<DenseMatrix> one_thread;
  {
    ThreadPool pool(1);
    std::promise<void> done;
    pool.Submit([&] {
      one_thread = metered();
      done.set_value();
    });
    done.get_future().wait();
  }
  // From this thread: every hardware thread.
  const std::vector<DenseMatrix> all_threads = metered();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(want[i], one_thread[i])) << "variant " << i;
    EXPECT_TRUE(SameBits(want[i], all_threads[i])) << "variant " << i;
  }
}

TEST(DenseOpsTest, PredictionAccuracy) {
  DenseMatrix logits(2, 2);
  logits.At(0, 0) = 1;
  logits.At(1, 1) = 1;
  EXPECT_DOUBLE_EQ(PredictionAccuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(logits, {1, 0}), 0.0);
}

TEST(DenseOpsTest, SgdStepMovesAgainstGradient) {
  DenseMatrix w(1, 2, 1.0f);
  DenseMatrix g(1, 2, 0.5f);
  SgdStep(&w, g, 0.1);
  EXPECT_FLOAT_EQ(w.At(0, 0), 0.95f);
}

TEST(FusionTest, SavingsArePositiveAndScaleWithRows) {
  const DeviceSpec dev = Rtx3090();
  const double s1 = FusionSavingsNs(1000, 16, 1, dev, DataType::kTf32);
  const double s2 = FusionSavingsNs(100000, 16, 1, dev, DataType::kTf32);
  EXPECT_GT(s1, dev.kernel_launch_ns);  // at least the launch
  EXPECT_GT(s2, s1);
}

TEST(FusionTest, ApplyFusionNeverGoesNegative) {
  KernelProfile p;
  p.launches = 2;
  p.launch_ns = 60000;
  p.time_ns = 10;
  ApplyFusion(&p, 1 << 20, 128, 5, Rtx3090(), DataType::kTf32);
  EXPECT_GE(p.time_ns, 0.0);
  EXPECT_GE(p.launch_ns, 0.0);
  EXPECT_GE(p.launches, 1);
}

TEST(GcnTest, ForwardShapesAndDeterminism) {
  Graph g = TestGraph();
  CsrMatrix abar = GcnNormalized(g.adjacency);
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &abar, Rtx3090(), DataType::kFp32);
  GnnConfig cfg;
  GcnModel model(&g, cfg, session.get());
  PhaseBreakdown t;
  DenseMatrix logits1 = model.Forward(&t);
  EXPECT_EQ(logits1.rows(), g.num_vertices);
  EXPECT_EQ(logits1.cols(), g.num_classes);
  DenseMatrix logits2 = model.Forward(nullptr);
  EXPECT_EQ(logits1.data(), logits2.data());
  EXPECT_GT(t.agg_ns, 0);
  EXPECT_GT(t.update_ns, 0);
  EXPECT_GT(t.launch_ns, 0);
}

TEST(GcnTest, GcnNormalizationRowsBounded) {
  Graph g = TestGraph(100);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  EXPECT_TRUE(abar.Validate(true));
  // Every weight is 1/sqrt(d_i d_j) in (0, 1]; a row's sum is bounded by
  // sqrt(d_i + 1) (Cauchy-Schwarz on the normalized row).
  for (int32_t r = 0; r < abar.rows(); ++r) {
    double sum = 0;
    for (int64_t k = abar.RowBegin(r); k < abar.RowEnd(r); ++k) {
      EXPECT_GT(abar.val()[k], 0.0f);
      EXPECT_LE(abar.val()[k], 1.0f);
      sum += abar.val()[k];
    }
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, std::sqrt(static_cast<double>(abar.RowNnz(r))) + 1e-5);
  }
}

TEST(GcnTest, WeightGradientMatchesFiniteDifference) {
  Graph g = TestGraph(60, 21);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  const std::shared_ptr<Session> session =
      OpenReady("cuda_opt", &abar, Rtx3090(), DataType::kFp32);
  GnnConfig cfg;
  cfg.hidden_dim = 6;
  cfg.learning_rate = 0.0;  // keep weights frozen during Backward's SGD
  GcnModel model(&g, cfg, session.get());

  // Analytic gradient via a probe: re-run backward with lr>0 and compare
  // the SGD delta against finite differences of the loss.
  auto loss_at = [&](GcnModel& m) {
    DenseMatrix logits = m.Forward(nullptr);
    return SoftmaxCrossEntropy(logits, g.labels, nullptr);
  };

  GnnConfig cfg2 = cfg;
  cfg2.learning_rate = 1.0;  // delta = -grad exactly
  GcnModel probe(&g, cfg2, session.get());
  DenseMatrix before = probe.weights()[1];
  DenseMatrix logits = probe.Forward(nullptr);
  DenseMatrix grad;
  SoftmaxCrossEntropy(logits, g.labels, &grad);
  probe.Backward(grad, nullptr);
  DenseMatrix after = probe.weights()[1];

  const double eps = 1e-2;
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 2; ++c) {
      const double analytic = before.At(r, c) - after.At(r, c);  // lr * dW
      // Same seed -> same initial weights as `probe` had before Backward.
      GcnModel m2(&g, cfg, session.get());
      m2.mutable_weights()[1] = before;
      // Perturb.
      m2.mutable_weights()[1].At(r, c) += eps;
      const double lp = loss_at(m2);
      m2.mutable_weights()[1].At(r, c) -= 2 * eps;
      const double lm = loss_at(m2);
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic, fd, 5e-3) << "dW[" << r << "," << c << "]";
    }
  }
}

TEST(GcnTest, LossDecreasesOverTraining) {
  Graph g = TestGraph(300, 31);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &abar, Rtx3090(), DataType::kTf32);
  GnnConfig cfg;
  cfg.learning_rate = 0.3;
  GcnModel model(&g, cfg, session.get());
  double first = 0, last = 0;
  for (int e = 0; e < 60; ++e) {
    EpochResult r = model.TrainEpoch();
    if (e == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first * 0.9);
}

TEST(GcnTest, FusionPreservesResultsAndSavesTime) {
  Graph g = TestGraph(400, 41);
  GnnConfig fused, unfused;
  fused.fuse_kernels = true;
  unfused.fuse_kernels = false;
  auto s1 = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", fused, Rtx3090(), 2);
  auto s2 = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", unfused, Rtx3090(), 2);
  EXPECT_NEAR(s1.final_loss, s2.final_loss, 1e-9);  // same math
  EXPECT_LT(s1.AvgBackwardMs(), s2.AvgBackwardMs());
  // Table VI: fusion saves roughly a quarter to a third of backward time.
  const double saving = 1.0 - s1.AvgBackwardMs() / s2.AvgBackwardMs();
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.60);
}

TEST(GinTest, ForwardShapes) {
  Graph g = TestGraph();
  CsrMatrix ahat = GinOperator(g.adjacency);
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &ahat, Rtx3090(), DataType::kFp32);
  GnnConfig cfg;
  GinModel model(&g, cfg, session.get());
  PhaseBreakdown t;
  DenseMatrix logits = model.Forward(&t);
  EXPECT_EQ(logits.rows(), g.num_vertices);
  EXPECT_EQ(logits.cols(), g.num_classes);
}

TEST(GinTest, GinOperatorAddsSelfLoops) {
  Graph g = TestGraph(50);
  CsrMatrix ahat = GinOperator(g.adjacency, /*eps=*/0.5);
  EXPECT_EQ(ahat.nnz(), g.adjacency.nnz() + 50);
  // Self-loop weight is 1 + eps.
  for (int32_t r = 0; r < 5; ++r) {
    bool found = false;
    for (int64_t k = ahat.RowBegin(r); k < ahat.RowEnd(r); ++k) {
      if (ahat.col_ind()[k] == r) {
        EXPECT_FLOAT_EQ(ahat.val()[k], 1.5f);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(GinTest, LossDecreasesOverTraining) {
  Graph g = TestGraph(300, 51);
  GnnConfig cfg;
  // GIN's unnormalized (A + I) operator amplifies activations by the
  // average degree per layer, so it needs a far smaller step than GCN.
  cfg.learning_rate = 0.005;
  auto stats = TrainGnn(g, GnnModelKind::kGin, "hcspmm", cfg, Rtx3090(), 60);
  EXPECT_LT(stats.epochs.back().loss, stats.epochs.front().loss * 0.95);
}

TEST(GinTest, FusionHelpsForwardMoreThanBackward) {
  // SS V-A/Fig. 13: GIN fuses in forward (Aggregation->Update) but not in
  // backward, so fusion savings land on the forward phase.
  Graph g = TestGraph(400, 61);
  GnnConfig fused, unfused;
  fused.fuse_kernels = true;
  unfused.fuse_kernels = false;
  auto s1 = TrainGnn(g, GnnModelKind::kGin, "hcspmm", fused, Rtx3090(), 2);
  auto s2 = TrainGnn(g, GnnModelKind::kGin, "hcspmm", unfused, Rtx3090(), 2);
  const double fwd_saving = s2.AvgForwardMs() - s1.AvgForwardMs();
  const double bwd_saving = s2.AvgBackwardMs() - s1.AvgBackwardMs();
  EXPECT_GT(fwd_saving, 0.0);
  EXPECT_NEAR(bwd_saving, 0.0, 1e-9);
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Losses of the first epochs as IEEE-754 bit patterns, recorded with the
// untiled per-nonzero GEMM kernels. Every dense GEMM variant, softmax, ReLU,
// dropout and the optimizer step feed them, so an operation-sequence change
// anywhere on the training path moves at least one bit.
void ExpectLossBits(const TrainStats& stats, const std::vector<uint64_t>& golden) {
  ASSERT_EQ(stats.epochs.size(), golden.size());
  for (size_t e = 0; e < golden.size(); ++e) {
    EXPECT_EQ(DoubleBits(stats.epochs[e].loss), golden[e])
        << "epoch " << e << ": loss " << stats.epochs[e].loss << " has bits 0x"
        << std::hex << DoubleBits(stats.epochs[e].loss);
  }
}

TEST(GoldenLossTest, GcnEpochLossesMatchRecordedBits) {
  // Three layers of width 22 (a partial vector at every lane width), 400
  // rows (more than one k-block of the A^T B kernel), dropout and momentum.
  Graph g = TestGraph(400, 113);
  GnnConfig cfg;
  cfg.hidden_dim = 22;
  cfg.num_layers = 3;
  cfg.dropout = 0.2;
  cfg.optimizer = OptimizerKind::kMomentum;
  cfg.learning_rate = 0.1;
  cfg.seed = 7;
  const TrainStats stats = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 5,
                                    DataType::kFp32);
  EXPECT_EQ(stats.memory_bytes, 228191);  // activations counted as the seed did
  ExpectLossBits(stats, {0x3ff652d0d082c341, 0x3ff5f93649671eec, 0x3ff5af138fa586e7,
                         0x3ff51cc18b4cda48, 0x3ff452c2d5d78188});
}

TEST(GoldenLossTest, GinEpochLossesMatchRecordedBits) {
  Graph g = TestGraph(400, 127);
  GnnConfig cfg;
  cfg.hidden_dim = 22;
  cfg.learning_rate = 0.005;
  cfg.seed = 9;
  const TrainStats stats = TrainGnn(g, GnnModelKind::kGin, "hcspmm", cfg, Rtx3090(), 5);
  EXPECT_EQ(stats.memory_bytes, 319575);
  ExpectLossBits(stats, {0x401d13636d6c1689, 0x400a30e86b0f953c, 0x3ff58d06bf44e2a4,
                         0x3fed46abfbaf9c7f, 0x3fe9211d016b1885});
}

TEST(TrainerTest, StatsAggregation) {
  Graph g = TestGraph(150, 71);
  GnnConfig cfg;
  auto stats = TrainGnn(g, GnnModelKind::kGcn, "gespmm", cfg, Rtx3090(), 3);
  EXPECT_EQ(stats.epochs.size(), 3u);
  EXPECT_GT(stats.AvgForwardMs(), 0.0);
  EXPECT_GT(stats.AvgBackwardMs(), 0.0);
  EXPECT_NEAR(stats.AvgEpochMs(), stats.AvgForwardMs() + stats.AvgBackwardMs(), 1e-12);
  EXPECT_GT(stats.memory_bytes, 0);
}

TEST(TrainerTest, HcSpmmTrainsFasterThanTensorOnlyBaseline) {
  // Fig. 11/12 headline: HC-SpMM beats TC-GNN end to end.
  Graph g = TestGraph(600, 81);
  GnnConfig cfg;
  auto hc = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 2);
  auto tc = TrainGnn(g, GnnModelKind::kGcn, "tcgnn", cfg, Rtx3090(), 2);
  EXPECT_LT(hc.AvgEpochMs(), tc.AvgEpochMs());
}

TEST(TrainerTest, MemoryUsageOrderingMatchesTableXII) {
  // HC-SpMM uses slightly more memory than GE-SpMM and TC-GNN.
  Graph g = TestGraph(500, 91);
  GnnConfig cfg;
  auto hc = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 1);
  auto ge = TrainGnn(g, GnnModelKind::kGcn, "gespmm", cfg, Rtx3090(), 1);
  auto tc = TrainGnn(g, GnnModelKind::kGcn, "tcgnn", cfg, Rtx3090(), 1);
  EXPECT_GE(hc.memory_bytes, ge.memory_bytes);
  EXPECT_GE(hc.memory_bytes, tc.memory_bytes);
  EXPECT_LE(tc.memory_bytes, ge.memory_bytes);
  // ... but within a few percent (paper: <= 2% over GE, <= 6% over TC).
  EXPECT_LT(static_cast<double>(hc.memory_bytes) / ge.memory_bytes, 1.10);
}

TEST(TrainerTest, PreprocessingAmortizedAcrossEpochs) {
  Graph g = TestGraph(400, 101);
  GnnConfig cfg;
  auto stats = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 4);
  // One-time preprocessing must be far below total training time for a
  // multi-epoch run (Appendix F).
  EXPECT_LT(stats.preprocess_ms, stats.AvgEpochMs() * 4);
}

}  // namespace
}  // namespace hcspmm
