// Chaos bench: closed-loop serving load with a seeded fault schedule.
// Three modes over one GCN-normalized RMAT graph:
//
//   no_fault        — injector absent entirely (the zero-overhead contract:
//                     this mode gates qps/p99 like any other serving bench)
//   faulted         — plain backend, 5% injected kUnavailable dispatches and
//                     2% latency spikes, masked by transparent in-session
//                     retry (8 attempts, exponential backoff + seeded jitter)
//   faulted_sharded — same schedule against 2-shard sessions, where retry
//                     re-dispatches only the failed shard's window range
//
// Every response is compared bitwise against a fault-free direct multiply —
// retries must reproduce the exact fp32 bits. The injected-fault count and
// the retry amplification are *deterministic*: each fault domain (scope)
// draws from its own seeded stream by dispatch ordinal, and the total
// dispatch count per scope is the unique fixed point M = N + faults(M) of
// the closed loop, independent of thread interleaving. CI therefore gates
// both with the strict deterministic tolerance — a change that silently
// inflates retry traffic fails even if the wall clock absorbs it.
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "sparse/generate.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace hcspmm;
using namespace hcspmm::bench;

namespace {

constexpr int32_t kDim = 32;
constexpr int kPayloads = 8;
constexpr int kWorkers = 4;
constexpr int kRequestsPerWorker = 100;
// Fixed bench seed (NOT HCSPMM_FAULT_SEED): the committed baseline gates the
// exact injected-fault count, so the schedule must be identical on every run.
constexpr uint64_t kBenchSeed = 0xC4A05;

struct GraphLoad {
  CsrMatrix matrix;
  uint64_t handle = 0;
  std::vector<DenseMatrix> payloads;
  std::vector<DenseMatrix> references;
};

struct ModeSpec {
  std::string name;
  bool faults = false;
  int shards = 1;
};

struct ModeResult {
  std::string mode;
  double qps = 0.0;
  double wall_ms = 0.0;
  double p99_us = 0.0;
  int64_t completed = 0;
  int64_t injected_faults = 0;
  int64_t injected_stragglers = 0;
  int64_t retries = 0;
  double retry_amplification = 1.0;
  int64_t mismatches = 0;
};

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

ModeResult RunMode(Runtime* rt, const ModeSpec& spec, const GraphLoad& load) {
  ServerOptions options;
  options.pool.max_sessions = 4;
  options.pool.session = SessionOptions().set_dtype(DataType::kFp32);
  ShardingOptions sharding;
  sharding.num_shards = spec.shards;
  options.pool.session.set_sharding(sharding);
  options.max_batch = 1;
  options.batch_window_us = 0;
  options.default_tenant.max_queue = 4096;
  std::shared_ptr<FaultInjector> injector;
  if (spec.faults) {
    FaultOptions fopts;
    fopts.seed = kBenchSeed;
    fopts.fault_rate = 0.05;
    fopts.straggler_rate = 0.02;
    fopts.straggler_us = 300;
    injector = std::make_shared<FaultInjector>(fopts);
    options.pool.session.set_fault_injector(injector);
    RetryPolicy retry;
    retry.max_attempts = 8;
    retry.initial_backoff_us = 50;
    retry.max_backoff_us = 400;
    retry.seed = kBenchSeed;
    options.retry = retry;
  }
  Server server(rt, options);
  HCSPMM_CHECK(server.RegisterGraph(CsrMatrix(load.matrix)) == load.handle);

  std::atomic<int64_t> mismatches{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      // Strict closed loop (pipeline depth 1): per-scope dispatch counts are
      // then a pure function of the fault schedule, never of queue timing.
      for (int i = 0; i < kRequestsPerWorker; ++i) {
        const int p = (w + i) % kPayloads;
        Future<DenseMatrix> fut = server.Submit(
            {"worker-" + std::to_string(w), load.handle, load.payloads[p]});
        fut.Wait();
        if (!fut.ok() || !BitIdentical(fut.Get(), load.references[p])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_ms = timer.ElapsedMs();
  server.Shutdown();

  const ServerStats stats = server.stats();
  ModeResult r;
  r.mode = spec.name;
  r.wall_ms = wall_ms;
  r.completed = stats.completed;
  r.qps = stats.completed / (wall_ms / 1e3);
  r.p99_us = stats.p99_latency_us;
  r.retries = stats.retries;
  r.mismatches = mismatches.load();
  if (injector != nullptr) {
    r.injected_faults = injector->injected_faults();
    r.injected_stragglers = injector->injected_stragglers();
  }
  // Base dispatch volume: one per request per shard slice. Amplification is
  // how much extra backend work the fault schedule + retry policy cost.
  const double base =
      static_cast<double>(stats.completed) * static_cast<double>(spec.shards);
  r.retry_amplification = (base + static_cast<double>(r.retries)) / base;

  const int64_t expected = static_cast<int64_t>(kWorkers) * kRequestsPerWorker;
  HCSPMM_CHECK(stats.completed == expected)
      << spec.name << ": completed " << stats.completed << " of " << expected
      << " (every accepted request must resolve with a value here)";
  HCSPMM_CHECK(r.mismatches == 0)
      << spec.name << ": " << r.mismatches << " responses not bit-identical";
  // Every injected fault is masked by exactly one re-dispatch (the schedule
  // cannot realistically exhaust 8 attempts at 5%), so the two counters
  // must agree — a divergence means a retry path dropped or doubled work.
  HCSPMM_CHECK(r.retries == r.injected_faults)
      << spec.name << ": " << r.retries << " retries vs " << r.injected_faults
      << " injected faults";
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonOutputPath(argc, argv);

  PrintTitle("Chaos: serving goodput and retry amplification under faults");
  std::printf("  hardware threads available: %d\n", ThreadPool::HardwareThreads());

  Runtime* rt = Runtime::Default();

  Pcg32 rng(17);
  Graph g = RMat(/*scale_log2=*/11, /*num_edges=*/40000, kDim, &rng);
  GraphLoad load;
  load.matrix = GcnNormalized(g.adjacency);
  load.handle = FingerprintCsr(load.matrix);
  std::shared_ptr<Session> direct = rt->OpenSession(
      &load.matrix, SessionOptions().set_dtype(DataType::kFp32));
  for (int p = 0; p < kPayloads; ++p) {
    Pcg32 payload_rng(1000 + p);
    load.payloads.push_back(GenerateDense(load.matrix.cols(), kDim, &payload_rng));
    DenseMatrix z;
    HCSPMM_CHECK_OK(direct->Multiply(load.payloads.back(), &z, nullptr));
    load.references.push_back(std::move(z));
  }
  std::printf("  graph: %d rows, %lld nnz, dim %d; %d workers x %d requests\n",
              load.matrix.rows(), static_cast<long long>(load.matrix.nnz()),
              kDim, kWorkers, kRequestsPerWorker);

  const std::vector<ModeSpec> modes = {
      {"no_fault", /*faults=*/false, /*shards=*/1},
      {"faulted", /*faults=*/true, /*shards=*/1},
      {"faulted_sharded", /*faults=*/true, /*shards=*/2},
  };
  std::vector<ModeResult> results;
  for (const ModeSpec& spec : modes) results.push_back(RunMode(rt, spec, load));

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> json_points;
  for (const ModeResult& r : results) {
    rows.push_back({r.mode, FormatDouble(r.qps, 0), FormatDouble(r.p99_us, 0),
                    std::to_string(r.injected_faults),
                    std::to_string(r.injected_stragglers),
                    std::to_string(r.retries),
                    FormatDouble(r.retry_amplification, 4),
                    r.mismatches == 0 ? "yes" : "NO"});
    json_points.push_back(JsonObject(
        {JsonField("mode", r.mode), JsonField("qps", r.qps),
         JsonField("wall_ms", r.wall_ms), JsonField("p99_us", r.p99_us),
         JsonField("completed", r.completed),
         JsonField("injected_faults", r.injected_faults),
         JsonField("injected_stragglers", r.injected_stragglers),
         JsonField("retries", r.retries),
         JsonField("retry_amplification", r.retry_amplification),
         JsonField("bit_identical", r.mismatches == 0)}));
  }
  PrintTable({"mode", "QPS", "p99 us", "faults", "stragglers", "retries",
              "amplification", "bit-identical"},
             rows);
  PrintNote("injected-fault counts and retry amplification are deterministic "
            "(seeded per-scope schedules; closed-loop fixed point) and gated "
            "exactly against the committed baseline");
  PrintNote("every response verified bitwise against the fault-free direct path");

  if (!json_path.empty()) {
    const std::string report = JsonObject(
        {JsonField("bench", std::string("chaos")),
         JsonField("hardware_threads", ThreadPool::HardwareThreads()),
         JsonField("workers", kWorkers),
         JsonField("requests_per_worker", kRequestsPerWorker),
         JsonField("dim", kDim),
         JsonField("fault_seed", static_cast<int64_t>(kBenchSeed)),
         JsonValue(std::string("points")) + ": " + JsonArray(json_points)});
    HCSPMM_CHECK(WriteTextFile(json_path, report)) << "cannot write " << json_path;
    std::printf("\n  wrote %s\n", json_path.c_str());
  }
  return 0;
}
