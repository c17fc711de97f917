// Tests for the cost-model calibration pipeline (src/calib/): sweep
// determinism, bit-exact JSON artifact round-trips, the locked-in Fig. 1a
// crossover reproduced from the fitted artifact, fitted-vs-hand-set
// prediction quality, held-out routing accuracy at the CI gate's threshold,
// selector-keyed PlanCache isolation, and fp32 bit-identity of both the
// selector-injected Session and the cost-model-driven partition mode.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "calib/calibration.h"
#include "core/core_selector.h"
#include "exec/plan_cache.h"
#include "runtime/runtime.h"
#include "shard/partitioner.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"

namespace hcspmm {
namespace {

// The CI fast-sweep grid: every quality number asserted below is the same
// one scripts/check_calibration.py gates in the calibration job.
const CalibrationReport& FastReport() {
  static const CalibrationReport* report = new CalibrationReport(
      RunCalibration(nullptr, CalibrationConfig::Fast()));
  return *report;
}

CsrMatrix TestMatrix(uint64_t seed, int32_t rows = 320, double density = 0.04) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CalibrationSweepTest, DeterministicForFixedSeed) {
  const CalibrationConfig config = CalibrationConfig::Fast();
  const std::vector<CalibrationSample> a = RunCalibrationSweep(nullptr, config);
  const std::vector<CalibrationSample> b = RunCalibrationSweep(nullptr, config);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].shape.nnz, b[i].shape.nnz);
    EXPECT_EQ(a[i].shape.unique_cols, b[i].shape.unique_cols);
    EXPECT_EQ(a[i].sparsity, b[i].sparsity);  // bitwise
    EXPECT_EQ(a[i].cuda_ns, b[i].cuda_ns);    // simulated => bitwise
    EXPECT_EQ(a[i].tensor_ns, b[i].tensor_ns);
    EXPECT_EQ(a[i].holdout, b[i].holdout);
  }
  // And the whole fit downstream of it, byte for byte.
  EXPECT_EQ(FitCalibratedModel(a, config).ToJson(),
            FitCalibratedModel(b, config).ToJson());
}

TEST(CalibrationSweepTest, CoversBothLabelsAndHoldsOutCells) {
  const CalibrationReport& report = FastReport();
  int64_t cuda = 0, tensor = 0, holdout = 0;
  for (const CalibrationSample& s : report.samples) {
    (s.label() == 1 ? cuda : tensor) += 1;
    holdout += s.holdout ? 1 : 0;
  }
  EXPECT_GT(cuda, 0);    // dense cells: CUDA cores measured faster
  EXPECT_GT(tensor, 0);  // sparse cells: Tensor cores measured faster
  EXPECT_GT(holdout, 0);
  EXPECT_LT(holdout, static_cast<int64_t>(report.samples.size()));
  EXPECT_EQ(holdout, report.model.metrics.holdout_samples);
}

TEST(CalibrationSweepTest, CsvArtifactIsWellFormed) {
  const CalibrationReport& report = FastReport();
  const std::string path = TempPath("calibration.csv");
  ASSERT_TRUE(WriteCalibrationCsv(report.samples, path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && line.back() == '\n') line.pop_back();
    lines.push_back(line);
  }
  std::fclose(f);

  ASSERT_EQ(lines.size(), report.samples.size() + 1);
  EXPECT_EQ(lines[0], CalibrationCsvHeader());
  const size_t columns = 12;
  for (size_t i = 1; i < lines.size(); ++i) {
    size_t commas = 0;
    for (char c : lines[i]) commas += (c == ',');
    ASSERT_EQ(commas, columns - 1) << "row " << i << ": " << lines[i];
  }
}

TEST(CalibratedModelTest, JsonRoundTripIsBitExact) {
  const CalibratedCostModel& model = FastReport().model;
  const std::string path = TempPath("calibrated_model.json");
  ASSERT_TRUE(model.SaveJsonFile(path).ok());
  const auto loaded = CalibratedCostModel::LoadJsonFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CalibratedCostModel& m = loaded.ValueOrDie();

  // Bitwise field equality...
  for (int i = 0; i < kCalibFeatureCount; ++i) {
    EXPECT_EQ(m.cuda_coeffs[i], model.cuda_coeffs[i]);
    EXPECT_EQ(m.tensor_coeffs[i], model.tensor_coeffs[i]);
  }
  EXPECT_EQ(m.selector.w_sparsity, model.selector.w_sparsity);
  EXPECT_EQ(m.selector.w_cols, model.selector.w_cols);
  EXPECT_EQ(m.selector.bias, model.selector.bias);
  EXPECT_EQ(m.device_name, model.device_name);
  EXPECT_EQ(m.device_params, model.device_params);
  EXPECT_EQ(m.dtype, model.dtype);
  EXPECT_EQ(m.seed, model.seed);
  EXPECT_EQ(m.metrics.num_samples, model.metrics.num_samples);
  EXPECT_EQ(m.metrics.routing_accuracy, model.metrics.routing_accuracy);
  EXPECT_EQ(m.metrics.crossover_sparsity, model.metrics.crossover_sparsity);
  // ...and a byte-identical re-render (save/load/save stability).
  EXPECT_EQ(m.ToJson(), model.ToJson());
}

TEST(CalibratedModelTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(CalibratedCostModel::FromJson("{}").ok());
  EXPECT_FALSE(
      CalibratedCostModel::FromJson("{\"schema\": \"wrong-schema\"}").ok());
}

// The artifact must reproduce the repo's locked-in characterization: the
// hand-set cost model pins the 16x32 / D=32 crossover inside [0.78, 0.88]
// (gpusim_test CrossoverNearPaperSparsity, paper Fig. 1a ~83%), and a model
// re-fitted from measurements has to land in the same band.
TEST(CalibratedModelTest, FittedCrossoverStaysInLockedBand) {
  const CalibratedCostModel& model = FastReport().model;
  const double crossover = model.CrossoverSparsity();
  EXPECT_GE(crossover, 0.78);
  EXPECT_LE(crossover, 0.88);
  EXPECT_EQ(crossover, model.metrics.crossover_sparsity);
}

TEST(CalibratedModelTest, FittedCoefficientsBeatHandSetConstants) {
  const CalibrationMetrics& m = FastReport().model.metrics;
  // The fit has an intercept for the per-launch ramp the hand-set constants
  // structurally lack, so it must win on mean relative error.
  EXPECT_LT(m.fitted_mre_cuda, m.handset_mre_cuda);
  EXPECT_LT(m.fitted_mre_tensor, m.handset_mre_tensor);
  EXPECT_LT(m.fitted_mre_cuda, 0.05);
  EXPECT_LT(m.fitted_mre_tensor, 0.05);
}

TEST(CalibratedModelTest, RoutingAccuracyMeetsCiGateOnHoldout) {
  const CalibrationMetrics& m = FastReport().model.metrics;
  ASSERT_GT(m.holdout_samples, 0);
  EXPECT_GE(m.routing_accuracy, 0.90);  // scripts/check_calibration.py gate
}

TEST(CalibratedModelTest, RetrainedSelectorAgreesWithDeployedDefault) {
  const SelectorModel& retrained = FastReport().model.selector;
  const SelectorModel deployed = DefaultSelectorModel();
  int64_t agree = 0, total = 0;
  for (int32_t cols = 4; cols <= 128; cols += 4) {
    for (double s = 0.05; s < 1.0; s += 0.05) {
      agree += retrained.Select(s, cols) == deployed.Select(s, cols);
      total += 1;
    }
  }
  EXPECT_GE(static_cast<double>(agree) / total, 0.90);
}

TEST(PlanCacheSelectorTest, InjectedSelectorGetsItsOwnKey) {
  const CsrMatrix a = TestMatrix(3);
  const SelectorModel custom{1.0, -0.5, 0.25};
  const PlanCacheKey plain = MakePlanCacheKey(a, Rtx3090(), DataType::kTf32);
  const PlanCacheKey keyed =
      MakePlanCacheKey(a, Rtx3090(), DataType::kTf32, custom);
  EXPECT_FALSE(plain == keyed);
  EXPECT_TRUE(keyed ==
              MakePlanCacheKey(a, Rtx3090(), DataType::kTf32, custom));
  SelectorModel other = custom;
  other.bias += 1.0;
  EXPECT_FALSE(keyed == MakePlanCacheKey(a, Rtx3090(), DataType::kTf32, other));
  EXPECT_NE(FingerprintSelector(custom), FingerprintSelector(other));
}

TEST(PlanCacheSelectorTest, SessionsWithDifferentSelectorsNeverAliasPlans) {
  Runtime runtime;  // isolated plan cache
  const CsrMatrix a = TestMatrix(4);

  auto s_default = runtime.OpenSession(&a, SessionOptions());
  ASSERT_TRUE(s_default->WaitReady().ok());
  EXPECT_FALSE(s_default->plan_from_cache());

  // A degenerate always-Tensor selector: same matrix/device/dtype, but the
  // plan it produces routes every window differently, so a cache hit on the
  // default entry would be a correctness bug, not just staleness.
  SelectorModel all_tensor;
  all_tensor.bias = -100.0;
  auto s_custom =
      runtime.OpenSession(&a, SessionOptions().set_selector(all_tensor));
  ASSERT_TRUE(s_custom->WaitReady().ok());
  EXPECT_FALSE(s_custom->plan_from_cache());  // distinct key => build, not hit
  ASSERT_NE(s_custom->plan(), nullptr);
  EXPECT_EQ(s_custom->plan()->windows_cuda, 0);

  // Reopening either binding hits its own entry.
  auto s_default2 = runtime.OpenSession(&a, SessionOptions());
  ASSERT_TRUE(s_default2->WaitReady().ok());
  EXPECT_TRUE(s_default2->plan_from_cache());
  auto s_custom2 =
      runtime.OpenSession(&a, SessionOptions().set_selector(all_tensor));
  ASSERT_TRUE(s_custom2->WaitReady().ok());
  EXPECT_TRUE(s_custom2->plan_from_cache());
}

TEST(CalibratedSessionTest, InjectedSelectorKeepsFp32BitIdentity) {
  Runtime runtime;
  const CsrMatrix a = TestMatrix(5);
  const DenseMatrix x(a.cols(), 24, 0.5f);
  const DenseMatrix z_ref = ReferenceSpmm(a, x);

  auto session = runtime.OpenSession(
      &a, SessionOptions()
              .set_dtype(DataType::kFp32)
              .set_selector(FastReport().model.selector));
  DenseMatrix z;
  ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
  // Routing never changes the math: every window's fp32 row dot products
  // are computed in the same order on either core path.
  EXPECT_EQ(z.MaxAbsDifference(z_ref), 0.0);
}

TEST(CostDrivenPartitionTest, WindowCostsMatchWindowCount) {
  const CsrMatrix a = TestMatrix(6, /*rows=*/100);
  const std::vector<RowWindow> windows = BuildWindows(a).windows;
  ShardingOptions options;
  options.balance_by_cost = true;
  const std::vector<double> analytic = PredictedWindowCostNs(windows, options);
  EXPECT_EQ(analytic.size(), 7u);  // ceil(100 / 16)
  for (double c : analytic) EXPECT_GT(c, 0.0);

  // The calibrated predictor swaps in transparently.
  options.cost_model = &FastReport().model;
  const std::vector<double> calibrated = PredictedWindowCostNs(windows, options);
  EXPECT_EQ(calibrated.size(), analytic.size());
  for (double c : calibrated) EXPECT_GT(c, 0.0);
}

TEST(CostDrivenPartitionTest, RangesTileAndRespectWindows) {
  const CsrMatrix a = TestMatrix(7, /*rows=*/400, /*density=*/0.03);
  const std::vector<RowWindow> windows = BuildWindows(a).windows;
  for (const bool use_model : {false, true}) {
    for (const int k : {2, 3, 4}) {
      ShardingOptions options;
      options.num_shards = k;
      options.balance_by_cost = true;
      if (use_model) options.cost_model = &FastReport().model;
      const std::vector<ShardRange> ranges = PartitionWindows(a, windows, options);
      ASSERT_EQ(ranges.size(), static_cast<size_t>(k));
      int32_t expected_begin = 0;
      int64_t total_nnz = 0;
      for (const ShardRange& range : ranges) {
        EXPECT_EQ(range.row_begin, expected_begin);
        EXPECT_GT(range.row_end, range.row_begin);
        EXPECT_EQ(range.row_begin, range.window_begin * kRowWindowHeight);
        expected_begin = range.row_end;
        total_nnz += range.nnz;
      }
      EXPECT_EQ(expected_begin, a.rows());
      EXPECT_EQ(total_nnz, a.nnz());
    }
  }
}

TEST(CostDrivenPartitionTest, ShardedResultsStayBitIdenticalToUnsharded) {
  Runtime runtime;
  const CsrMatrix a = TestMatrix(8, /*rows=*/400, /*density=*/0.03);
  const DenseMatrix x(a.cols(), 32, 0.75f);
  const SessionOptions options = SessionOptions().set_dtype(DataType::kFp32);

  auto unsharded = runtime.OpenSession(&a, options);
  DenseMatrix z_ref;
  ASSERT_TRUE(unsharded->Multiply(x, &z_ref, nullptr).ok());

  // Both predictors (hand-set fallback and the calibrated artifact): the
  // weights only move shard boundaries, so any K must reproduce the
  // unsharded fp32 bits exactly.
  for (const bool use_model : {false, true}) {
    for (const int k : {2, 4}) {
      ShardingOptions sharding;
      sharding.num_shards = k;
      sharding.balance_by_cost = true;
      if (use_model) sharding.cost_model = &FastReport().model;
      auto sharded =
          runtime.OpenSession(&a, SessionOptions(options).set_sharding(sharding));
      ASSERT_TRUE(sharded->WaitReady().ok());
      EXPECT_EQ(sharded->CurrentVersion()->shards.size(), static_cast<size_t>(k));
      DenseMatrix z;
      ASSERT_TRUE(sharded->Multiply(x, &z, nullptr).ok());
      EXPECT_EQ(z.MaxAbsDifference(z_ref), 0.0)
          << "K=" << k << " use_model=" << use_model;
    }
  }
}

}  // namespace
}  // namespace hcspmm
