// Sharding sweep: wall-clock of a Session whose plan is split into K
// contiguous window ranges (SessionOptions::set_sharding) vs. K on an RMAT
// graph — sync Multiply, async MultiplyAsync across two streams, plan-build
// time, and the PlanCache hit on repeat construction (one plan serves every
// K). fp32, so every K must be bit-identical to K=1; the process exits
// non-zero on any mismatch (CI uses that, plus the `--json out.json`
// artifact, as a smoke gate).
// Like bench_parallel_scaling this measures host wall-clock: overlap is
// bounded by physical cores, so expect ~flat speedups on 1-core containers
// while the correctness columns stay meaningful.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "sparse/convert.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace hcspmm;
using namespace hcspmm::bench;

namespace {

constexpr int32_t kScaleLog2 = 17;  // 2^17 = 131072 rows
constexpr int64_t kEdges = 1000000;
constexpr int32_t kDim = 64;
constexpr int32_t kIters = 3;

double TimedMultiplyMs(Session* session, const DenseMatrix& x, DenseMatrix* z) {
  WallTimer timer;
  for (int32_t i = 0; i < kIters; ++i) {
    HCSPMM_CHECK_OK(session->Multiply(x, z, nullptr));
  }
  return timer.ElapsedMs() / kIters;
}

double TimedAsyncMs(Session* session, const DenseMatrix& x, DenseMatrix* z) {
  // Two in-flight multiplies on distinct streams per iteration: the shard
  // ranges of one overlap those of the other.
  WallTimer timer;
  for (int32_t i = 0; i < kIters; ++i) {
    Future<DenseMatrix> f0 = session->MultiplyAsync(x, nullptr, /*stream=*/0);
    Future<DenseMatrix> f1 = session->MultiplyAsync(x, nullptr, /*stream=*/1);
    HCSPMM_CHECK_OK(f0.status());
    HCSPMM_CHECK_OK(f1.status());
    *z = f1.Take();
  }
  return timer.ElapsedMs() / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonOutputPath(argc, argv);

  PrintTitle("Multi-graph sharding: hcspmm on RMAT (wall-clock)");
  std::printf("  hardware threads available: %d\n", ThreadPool::HardwareThreads());

  Pcg32 rng(7);
  Graph g = RMat(kScaleLog2, kEdges, kDim, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  std::printf("  graph: %d rows, %lld nnz, dim %d, %d iterations per point\n",
              abar.rows(), static_cast<long long>(abar.nnz()), kDim, kIters);
  DenseMatrix x(abar.cols(), kDim, 0.5f);
  Runtime* rt = Runtime::Default();
  const SessionOptions options =
      SessionOptions().set_dtype(DataType::kFp32);  // fp32 => bit-identity required

  // K = 1 baseline (single session, exactly the unsharded path).
  PlanCache::Global()->Clear();
  DenseMatrix z_baseline;
  double baseline_ms = 0.0;

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> json_points;
  bool all_identical = true;
  for (int k : {1, 2, 4, 8}) {
    ShardingOptions sharding;
    sharding.num_shards = k;
    const SessionOptions sharded_options = SessionOptions(options).set_sharding(sharding);
    WallTimer open_timer;
    std::shared_ptr<Session> session = rt->OpenSession(&abar, sharded_options);
    HCSPMM_CHECK_OK(session->WaitReady());
    const double open_ms = open_timer.ElapsedMs();

    DenseMatrix z;
    const double sync_ms = TimedMultiplyMs(session.get(), x, &z);
    DenseMatrix z_async;
    const double async_ms = TimedAsyncMs(session.get(), x, &z_async);
    if (k == 1) {
      z_baseline = z;
      baseline_ms = sync_ms;
    }
    const double max_diff = std::max(z.MaxAbsDifference(z_baseline),
                                     z_async.MaxAbsDifference(z_baseline));
    const bool identical = max_diff == 0.0;
    all_identical = all_identical && identical;

    // Repeat construction: the graph's one plan must come straight out of
    // the PlanCache, whatever K.
    WallTimer reopen_timer;
    std::shared_ptr<Session> reopened = rt->OpenSession(&abar, sharded_options);
    HCSPMM_CHECK_OK(reopened->WaitReady());
    const double reopen_ms = reopen_timer.ElapsedMs();
    const bool all_cached = reopened->plan_from_cache();
    HCSPMM_CHECK(all_cached) << "the plan should hit the PlanCache";
    const int num_shards = static_cast<int>(session->CurrentVersion()->shards.size());

    char diff_buf[32];
    std::snprintf(diff_buf, sizeof(diff_buf), "%.1e", max_diff);
    rows.push_back({std::to_string(k), FormatDouble(sync_ms, 2),
                    FormatDouble(async_ms, 2),
                    FormatDouble(baseline_ms / sync_ms, 2),
                    FormatDouble(session->PreprocessNs() / 1e6, 2),
                    FormatDouble(open_ms, 2), FormatDouble(reopen_ms, 2),
                    identical ? "yes" : "NO", diff_buf});
    json_points.push_back(JsonObject(
        {JsonField("num_shards", num_shards),
         JsonField("sync_ms", sync_ms), JsonField("async2_ms", async_ms),
         JsonField("speedup_vs_k1", baseline_ms / sync_ms),
         JsonField("preprocess_ms", session->PreprocessNs() / 1e6),
         JsonField("open_ms", open_ms), JsonField("reopen_ms", reopen_ms),
         JsonField("plans_from_cache_on_reopen", all_cached),
         JsonField("bit_identical", identical),
         JsonField("max_abs_diff", max_diff)}));
  }
  PrintTable({"K", "sync ms", "async2 ms", "speedup", "plan ms", "open ms",
              "reopen ms", "bit-identical", "max|diff|"},
             rows);
  PrintNote("speedup is bounded by physical cores; expect ~flat on 1-core machines");
  PrintNote("reopen hits the PlanCache (one plan serves every K): no plan build");

  if (!json_path.empty()) {
    const std::string report = JsonObject(
        {JsonField("bench", std::string("sharding")),
         JsonField("hardware_threads", ThreadPool::HardwareThreads()),
         JsonField("rows", static_cast<int64_t>(abar.rows())),
         JsonField("nnz", abar.nnz()), JsonField("dim", kDim),
         JsonValue(std::string("points")) + ": " + JsonArray(json_points)});
    HCSPMM_CHECK(WriteTextFile(json_path, report)) << "cannot write " << json_path;
    std::printf("\n  wrote %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: sharded output mismatches K=1\n");
    return 1;
  }
  return 0;
}
