// Tests for the parallel execution subsystem: ThreadPool/ParallelFor
// correctness, PlanCache hit/miss/eviction semantics, session-level plan
// reuse, batched multiplies, and thread-count determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/core_selector.h"
#include "core/preprocess.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "kernels/spmm_kernel.h"
#include "runtime/runtime.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"
#include "test_session.h"

namespace hcspmm {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskUnderContention) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 250;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter.load() < kSubmitters * kTasksPerSubmitter &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter.load(), kSubmitters * kTasksPerSubmitter);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
  }  // ~ThreadPool joins after the queues drain
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, WorkerThreadFlagIsScopedToWorkers) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(1);
  std::atomic<bool> seen_flag{false};
  std::atomic<bool> done{false};
  pool.Submit([&] {
    seen_flag.store(ThreadPool::InWorkerThread());
    done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load());
  EXPECT_TRUE(seen_flag.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

// ---------------------------------------------------------------------------
// ParallelFor

// Records per-index visit counts; every index must be covered exactly once.
void ExpectExactCoverage(int64_t begin, int64_t end, int num_threads, int64_t grain) {
  const int64_t n = end - begin;
  std::vector<std::atomic<int>> visits(static_cast<size_t>(n));
  for (auto& v : visits) v.store(0);
  ParallelFor(
      begin, end, num_threads,
      [&](int64_t b, int64_t e) {
        ASSERT_LE(begin, b);
        ASSERT_LE(b, e);
        ASSERT_LE(e, end);
        for (int64_t i = b; i < e; ++i) visits[static_cast<size_t>(i - begin)]++;
      },
      grain);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << begin + i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  int calls = 0;
  ParallelFor(5, 5, 8, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 8, [&](int64_t, int64_t) { ++calls; });  // inverted
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingleElementRange) { ExpectExactCoverage(41, 42, 8, 1); }

TEST(ParallelForTest, FewerElementsThanThreads) { ExpectExactCoverage(0, 7, 16, 1); }

TEST(ParallelForTest, LargeRangeWithGrain) { ExpectExactCoverage(-100, 9900, 8, 64); }

TEST(ParallelForTest, SerialFallbackCoversRange) { ExpectExactCoverage(0, 100, 1, 1); }

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 50;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  for (auto& v : visits) v.store(0);
  ParallelFor(0, kOuter, 8, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      ParallelFor(0, kInner, 8, [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) visits[static_cast<size_t>(o * kInner + i)]++;
      });
    }
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(3), 3);
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(0), ThreadPool::HardwareThreads());
  EXPECT_EQ(ResolveNumThreads(-2), ThreadPool::HardwareThreads());
}

// ---------------------------------------------------------------------------
// PlanCache

CsrMatrix TestMatrix(uint64_t seed, int32_t rows = 96, double density = 0.08) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

std::shared_ptr<const HybridPlan> BuildPlan(const CsrMatrix& m, const DeviceSpec& dev) {
  auto plan = Preprocess(m, dev, DefaultSelectorModelFor(dev.name));
  EXPECT_TRUE(plan.ok());
  plan.ValueOrDie().windows.csr = nullptr;  // detach, as Session does
  return std::make_shared<const HybridPlan>(std::move(plan.ValueOrDie()));
}

TEST(PlanCacheTest, FingerprintIsContentAddressed) {
  const CsrMatrix a = TestMatrix(1);
  const CsrMatrix a_copy = a;  // distinct object, identical content
  const CsrMatrix b = TestMatrix(2);
  EXPECT_EQ(FingerprintCsr(a), FingerprintCsr(a_copy));
  EXPECT_NE(FingerprintCsr(a), FingerprintCsr(b));

  // Same pattern, different values must differ too.
  CsrMatrix scaled = a;
  scaled.mutable_val()[0] += 1.0f;
  EXPECT_NE(FingerprintCsr(a), FingerprintCsr(scaled));
}

TEST(PlanCacheTest, KeyDistinguishesDeviceAndDtype) {
  const CsrMatrix a = TestMatrix(3);
  const PlanCacheKey k1 = MakePlanCacheKey(a, Rtx3090(), DataType::kTf32);
  const PlanCacheKey k2 = MakePlanCacheKey(a, Rtx4090(), DataType::kTf32);
  const PlanCacheKey k3 = MakePlanCacheKey(a, Rtx3090(), DataType::kFp16);
  EXPECT_FALSE(k1 == k2);
  EXPECT_FALSE(k1 == k3);
  EXPECT_TRUE(k1 == MakePlanCacheKey(a, Rtx3090(), DataType::kTf32));
}

TEST(PlanCacheTest, KeyDistinguishesDeviceParametersNotJustName) {
  // Ablation studies mutate DeviceSpec fields while keeping the name; a plan
  // classified under tweaked hardware must not alias the stock device's.
  const CsrMatrix a = TestMatrix(20);
  DeviceSpec tweaked = Rtx3090();
  tweaked.tensor_cores_per_sm *= 2;
  const PlanCacheKey stock = MakePlanCacheKey(a, Rtx3090(), DataType::kTf32);
  EXPECT_FALSE(stock == MakePlanCacheKey(a, tweaked, DataType::kTf32));

  PlanCache::Global()->Clear();
  const std::shared_ptr<Session> e1 =
      OpenReady("hcspmm", &a, Rtx3090(), DataType::kTf32);
  const std::shared_ptr<Session> e2 =
      OpenReady("hcspmm", &a, tweaked, DataType::kTf32);
  EXPECT_FALSE(e2->plan_from_cache());
  EXPECT_GT(e2->PreprocessNs(), 0.0);
}

TEST(PlanCacheTest, FingerprintCollisionsDisambiguatedByShape) {
  // Two keys colliding in the 64-bit hash but differing in rows/nnz must not
  // alias: the shape fields are part of key equality.
  PlanCacheKey k1;
  k1.fingerprint = 0xdeadbeef;
  k1.rows = 10;
  k1.nnz = 100;
  k1.device = "3090";
  PlanCacheKey k2 = k1;
  k2.nnz = 101;
  EXPECT_FALSE(k1 == k2);

  PlanCache cache;
  const CsrMatrix a = TestMatrix(4);
  cache.Insert(k1, BuildPlan(a, Rtx3090()));
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
}

TEST(PlanCacheTest, HitMissAndStats) {
  PlanCache cache;
  const CsrMatrix a = TestMatrix(5);
  const DeviceSpec dev = Rtx3090();
  const PlanCacheKey key = MakePlanCacheKey(a, dev, DataType::kTf32);
  EXPECT_EQ(cache.Lookup(key), nullptr);
  auto plan = BuildPlan(a, dev);
  cache.Insert(key, plan);
  EXPECT_EQ(cache.Lookup(key), plan);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes_in_use, 0);
}

// Regression: stats() used to read the counters as plain ints while other
// threads incremented them under the cache mutex it did not always pair
// with — a data race TSan flags the moment per-shard sessions hammer one
// cache. The counters are atomics now; this test exists to race them.
TEST(PlanCacheTest, ConcurrentStatsDuringInsertsIsRaceFree) {
  PlanCache cache;
  const DeviceSpec dev = Rtx3090();
  std::vector<CsrMatrix> matrices;
  std::vector<std::shared_ptr<const HybridPlan>> plans;
  constexpr int kMatrices = 6;
  for (int i = 0; i < kMatrices; ++i) {
    matrices.push_back(TestMatrix(40 + i));
    plans.push_back(BuildPlan(matrices.back(), dev));
  }

  constexpr int kIters = 200;
  std::atomic<bool> done{false};
  std::thread inserter([&] {
    for (int i = 0; i < kIters; ++i) {
      const int m = i % kMatrices;
      cache.Insert(MakePlanCacheKey(matrices[m], dev, DataType::kTf32), plans[m]);
    }
    done.store(true);
  });
  std::thread looker([&] {
    while (!done.load()) {
      cache.Lookup(MakePlanCacheKey(matrices[0], dev, DataType::kTf32));
    }
  });
  // The thread under test: stats() racing the writers above.
  int64_t last_insertions = 0;
  while (!done.load()) {
    const PlanCacheStats stats = cache.stats();
    EXPECT_GE(stats.insertions, last_insertions);  // monotone while racing
    EXPECT_GE(stats.entries, 0);
    last_insertions = stats.insertions;
  }
  inserter.join();
  looker.join();
  const PlanCacheStats final_stats = cache.stats();
  EXPECT_EQ(final_stats.insertions, kIters);
  EXPECT_EQ(final_stats.entries, kMatrices);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  const DeviceSpec dev = Rtx3090();
  const CsrMatrix m1 = TestMatrix(6);
  const CsrMatrix m2 = TestMatrix(7);
  const CsrMatrix m3 = TestMatrix(8);
  auto p1 = BuildPlan(m1, dev);
  auto p2 = BuildPlan(m2, dev);
  auto p3 = BuildPlan(m3, dev);
  const PlanCacheKey k1 = MakePlanCacheKey(m1, dev, DataType::kTf32);
  const PlanCacheKey k2 = MakePlanCacheKey(m2, dev, DataType::kTf32);
  const PlanCacheKey k3 = MakePlanCacheKey(m3, dev, DataType::kTf32);

  // Budget fits exactly two of the three plans.
  PlanCache cache(PlanMemoryBytes(*p1) + PlanMemoryBytes(*p2) +
                  PlanMemoryBytes(*p3) / 2);
  cache.Insert(k1, p1);
  cache.Insert(k2, p2);
  EXPECT_NE(cache.Lookup(k1), nullptr);  // k1 becomes most-recent
  cache.Insert(k3, p3);                  // must evict k2 (LRU)
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
  EXPECT_NE(cache.Lookup(k3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(PlanCacheTest, OversizedPlanIsNotCached) {
  PlanCache cache(/*byte_budget=*/1);
  const CsrMatrix a = TestMatrix(9);
  const PlanCacheKey key = MakePlanCacheKey(a, Rtx3090(), DataType::kTf32);
  cache.Insert(key, BuildPlan(a, Rtx3090()));
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(PlanCacheTest, ShrinkingBudgetEvicts) {
  const DeviceSpec dev = Rtx3090();
  const CsrMatrix a = TestMatrix(10);
  PlanCache cache;
  cache.Insert(MakePlanCacheKey(a, dev, DataType::kTf32), BuildPlan(a, dev));
  EXPECT_EQ(cache.stats().entries, 1);
  cache.SetByteBudget(0);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes_in_use, 0);
}

// ---------------------------------------------------------------------------
// Session integration: plan reuse, batch API, error surfacing

TEST(SessionPlanReuseTest, SecondConstructionHitsPlanCache) {
  PlanCache::Global()->Clear();
  const CsrMatrix m1 = TestMatrix(11, /*rows=*/200);
  const CsrMatrix m2 = m1;  // same content, different object
  const DeviceSpec dev = Rtx3090();

  const std::shared_ptr<Session> e1 =
      OpenReady("hcspmm", &m1, dev, DataType::kTf32);
  ASSERT_TRUE(e1->WaitReady().ok());
  EXPECT_FALSE(e1->plan_from_cache());
  EXPECT_GT(e1->PreprocessNs(), 0.0);

  const std::shared_ptr<Session> e2 =
      OpenReady("hcspmm", &m2, dev, DataType::kTf32);
  ASSERT_TRUE(e2->WaitReady().ok());
  EXPECT_TRUE(e2->plan_from_cache());
  EXPECT_DOUBLE_EQ(e2->PreprocessNs(), 0.0);  // nothing rebuilt: cache hit
  EXPECT_EQ(e1->plan(), e2->plan());           // literally the same shared plan

  // The cached plan computes the same result even though m1's session built it.
  Pcg32 rng(77);
  DenseMatrix x = GenerateDense(m1.cols(), 24, &rng);
  DenseMatrix z1, z2;
  ASSERT_TRUE(e1->Multiply(x, &z1, nullptr).ok());
  ASSERT_TRUE(e2->Multiply(x, &z2, nullptr).ok());
  EXPECT_EQ(z1.MaxAbsDifference(z2), 0.0);
}

TEST(SessionPlanReuseTest, CachedPlanSurvivesSourceMatrixDestruction) {
  PlanCache::Global()->Clear();
  const CsrMatrix keeper = TestMatrix(12, /*rows=*/150);
  {
    const CsrMatrix original = keeper;
    const std::shared_ptr<Session> warmup =
      OpenReady("hcspmm", &original, Rtx3090(), DataType::kTf32);
    ASSERT_TRUE(warmup->WaitReady().ok());
  }  // `original` destroyed; the cached plan must not dangle
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &keeper, Rtx3090(), DataType::kTf32);
  ASSERT_TRUE(session->WaitReady().ok());
  EXPECT_TRUE(session->plan_from_cache());
  Pcg32 rng(5);
  DenseMatrix x = GenerateDense(keeper.cols(), 16, &rng);
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(session->Multiply(x, &z, &prof).ok());
  EXPECT_EQ(z.MaxAbsDifference(ReferenceSpmm(keeper, x)), 0.0);
}

TEST(SessionPlanReuseTest, DifferentDeviceOrDtypeRebuilds) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(13, /*rows=*/150);
  const std::shared_ptr<Session> e1 =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kTf32);
  const std::shared_ptr<Session> e2 =
      OpenReady("hcspmm", &m, Rtx4090(), DataType::kTf32);
  const std::shared_ptr<Session> e3 =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kFp16);
  EXPECT_FALSE(e1->plan_from_cache());
  EXPECT_FALSE(e2->plan_from_cache());
  EXPECT_FALSE(e3->plan_from_cache());
  EXPECT_GT(e2->PreprocessNs(), 0.0);
  EXPECT_GT(e3->PreprocessNs(), 0.0);
}

TEST(HcSpmmPlanValidationTest, RejectsSameShapeMatrixWithDifferentDistribution) {
  // Two 32x32 matrices, 4 nnz each: A's nonzeros live in window 0, B's in
  // window 1. rows and total nnz match, so validation must compare per-window
  // nnz to reject the detached plan instead of silently skipping windows.
  auto make = [](int32_t first_nnz_row) {
    std::vector<int64_t> row_ptr(33, 0);
    std::vector<int32_t> col_ind;
    std::vector<float> val;
    for (int32_t r = 0; r < 32; ++r) {
      row_ptr[r + 1] = row_ptr[r];
      if (r >= first_nnz_row && r < first_nnz_row + 4) {
        col_ind.push_back(r);
        val.push_back(1.0f);
        ++row_ptr[r + 1];
      }
    }
    return CsrMatrix(32, 32, row_ptr, col_ind, val);
  };
  const CsrMatrix a = make(0);   // nnz in window 0
  const CsrMatrix b = make(16);  // nnz in window 1
  ASSERT_EQ(a.nnz(), b.nnz());

  auto plan = BuildPlan(a, Rtx3090());  // detached (windows.csr == nullptr)
  HcSpmm kernel;
  DenseMatrix x(32, 8, 1.0f);
  DenseMatrix z;
  Status ok = kernel.RunWithPlan(*plan, a, x, Rtx3090(), KernelOptions{}, &z, nullptr);
  EXPECT_TRUE(ok.ok());
  Status mismatch =
      kernel.RunWithPlan(*plan, b, x, Rtx3090(), KernelOptions{}, &z, nullptr);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
}

TEST(SessionSyncApiTest, UnknownKernelSurfacesStatusInsteadOfCrashing) {
  const CsrMatrix m = TestMatrix(14);
  const std::shared_ptr<Session> session = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_kernel("definitely_not_a_kernel"));
  EXPECT_FALSE(session->WaitReady().ok());
  EXPECT_EQ(session->WaitReady().code(), StatusCode::kInvalidArgument);
  // The diagnostic names the offender and lists what *is* registered.
  EXPECT_NE(session->WaitReady().message().find("definitely_not_a_kernel"),
            std::string::npos);
  EXPECT_NE(session->WaitReady().message().find("hcspmm"), std::string::npos);
  EXPECT_NE(session->WaitReady().message().find("cuda_basic"), std::string::npos);

  Pcg32 rng(1);
  DenseMatrix x = GenerateDense(m.cols(), 8, &rng);
  DenseMatrix z;
  Status st = session->Multiply(x, &z, nullptr);
  EXPECT_FALSE(st.ok());
  std::vector<DenseMatrix> zs;
  EXPECT_FALSE(session->MultiplyBatch({&x}, &zs, nullptr).ok());
}

TEST(SessionSyncApiTest, MultiplyBatchMatchesIndividualMultiplies) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(15, /*rows=*/180);
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kTf32);
  ASSERT_TRUE(session->WaitReady().ok());

  Pcg32 rng(21);
  std::vector<DenseMatrix> inputs;
  inputs.reserve(5);
  for (int i = 0; i < 5; ++i) inputs.push_back(GenerateDense(m.cols(), 16 + 8 * i, &rng));
  std::vector<const DenseMatrix*> xs;
  for (const DenseMatrix& x : inputs) xs.push_back(&x);

  std::vector<DenseMatrix> zs;
  KernelProfile batch_profile;
  ASSERT_TRUE(session->MultiplyBatch(xs, &zs, &batch_profile).ok());
  ASSERT_EQ(zs.size(), xs.size());

  KernelProfile individual_profile;
  for (size_t i = 0; i < xs.size(); ++i) {
    DenseMatrix expected;
    ASSERT_TRUE(session->Multiply(*xs[i], &expected, &individual_profile).ok());
    EXPECT_EQ(zs[i].MaxAbsDifference(expected), 0.0) << "batch item " << i;
  }
  // Metering is deterministic: the batch profile equals the serial sum.
  EXPECT_DOUBLE_EQ(batch_profile.time_ns, individual_profile.time_ns);
  EXPECT_EQ(batch_profile.launches, individual_profile.launches);
}

TEST(SessionSyncApiTest, MultiplyBatchAllowsAliasingOutputsAsInputs) {
  // Square operator, so outputs can feed back in as the next layer's inputs
  // using the same vector for zs — must not read freed matrices.
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(17, /*rows=*/128);
  const std::shared_ptr<Session> session =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kFp32);
  ASSERT_TRUE(session->WaitReady().ok());

  Pcg32 rng(9);
  std::vector<DenseMatrix> buffers;
  buffers.push_back(GenerateDense(m.cols(), 16, &rng));
  buffers.push_back(GenerateDense(m.cols(), 16, &rng));
  DenseMatrix expected0, expected1;
  {
    DenseMatrix tmp;
    ASSERT_TRUE(session->Multiply(buffers[0], &tmp, nullptr).ok());
    ASSERT_TRUE(session->Multiply(tmp, &expected0, nullptr).ok());
    ASSERT_TRUE(session->Multiply(buffers[1], &tmp, nullptr).ok());
    ASSERT_TRUE(session->Multiply(tmp, &expected1, nullptr).ok());
  }
  for (int layer = 0; layer < 2; ++layer) {
    std::vector<const DenseMatrix*> xs{&buffers[0], &buffers[1]};
    ASSERT_TRUE(session->MultiplyBatch(xs, &buffers, nullptr).ok());  // aliased
  }
  EXPECT_EQ(buffers[0].MaxAbsDifference(expected0), 0.0);
  EXPECT_EQ(buffers[1].MaxAbsDifference(expected1), 0.0);
}

TEST(SessionSyncApiTest, MultiplyBatchRejectsNullInputs) {
  const CsrMatrix m = TestMatrix(16);
  const std::shared_ptr<Session> session =
      OpenReady("cuda_basic", &m, Rtx3090(), DataType::kTf32);
  std::vector<DenseMatrix> zs;
  EXPECT_FALSE(session->MultiplyBatch({nullptr}, &zs, nullptr).ok());
  EXPECT_TRUE(session->MultiplyBatch({}, &zs, nullptr).ok());  // empty batch is OK
  EXPECT_TRUE(zs.empty());
}

// ---------------------------------------------------------------------------
// Determinism: the parallel loops must be bit-identical to serial execution.

TEST(DeterminismTest, ThreadCountDoesNotChangeFp32SpmmResults) {
  Pcg32 rng(31);
  const CsrMatrix a = GenerateUniformSparse(500, 500, 0.05, &rng);
  DenseMatrix x = GenerateDense(500, 48, &rng);
  for (const char* name : {"hcspmm", "cuda_opt", "tensor_opt"}) {
    auto kernel = MakeKernel(name);
    ASSERT_NE(kernel, nullptr);
    KernelOptions serial;
    serial.dtype = DataType::kFp32;
    serial.num_threads = 1;
    KernelOptions parallel = serial;
    parallel.num_threads = 8;
    DenseMatrix z1, z8;
    ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), serial, &z1, nullptr).ok());
    ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), parallel, &z8, nullptr).ok());
    EXPECT_EQ(z1.MaxAbsDifference(z8), 0.0) << name;
  }
}

TEST(DeterminismTest, ThreadCountDoesNotChangeRoundedResultsEither) {
  // TF32 rounding happens per operand before accumulation, so the row-wise
  // partition leaves even the rounded path bit-identical.
  Pcg32 rng(32);
  const CsrMatrix a = GenerateUniformSparse(300, 300, 0.06, &rng);
  DenseMatrix x = GenerateDense(300, 32, &rng);
  auto kernel = MakeKernel("hcspmm");
  KernelOptions serial;
  serial.num_threads = 1;
  KernelOptions parallel;
  parallel.num_threads = 8;
  DenseMatrix z1, z8;
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), serial, &z1, nullptr).ok());
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), parallel, &z8, nullptr).ok());
  EXPECT_EQ(z1.MaxAbsDifference(z8), 0.0);
}

TEST(DeterminismTest, SimulatedProfileIndependentOfThreadCount) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(33, /*rows=*/220);
  const std::shared_ptr<Session> serial_session =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kTf32, /*num_threads=*/1);
  const std::shared_ptr<Session> parallel_session =
      OpenReady("hcspmm", &m, Rtx3090(), DataType::kTf32,
                             /*num_threads=*/8);
  Pcg32 rng(3);
  DenseMatrix x = GenerateDense(m.cols(), 32, &rng);
  DenseMatrix z1, z8;
  KernelProfile p1, p8;
  ASSERT_TRUE(serial_session->Multiply(x, &z1, &p1).ok());
  ASSERT_TRUE(parallel_session->Multiply(x, &z8, &p8).ok());
  EXPECT_DOUBLE_EQ(p1.time_ns, p8.time_ns);
  EXPECT_EQ(p1.blocks, p8.blocks);
  EXPECT_EQ(z1.MaxAbsDifference(z8), 0.0);
}

}  // namespace
}  // namespace hcspmm
