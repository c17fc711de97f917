// Chaos tests for the fault-tolerance substrate (src/util/fault.h) and its
// integration across the execution stack: deterministic seeded injection,
// cooperative cancellation/deadlines, transparent retry with bit-identical
// results, and the serving layer's typed failure semantics (deadline at pop,
// circuit breaker with load shedding, drain under faults).
//
// The fault matrix runs under HCSPMM_FAULT_SEED (default 42) so CI can sweep
// seeds; every assertion is written to hold for *any* seed — schedules are
// deterministic per (seed, scope, ordinal), and probabilistic assertions use
// enough attempts that no realistic seed can violate them.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "serve/server.h"
#include "shard/partitioner.h"
#include "sparse/generate.h"
#include "stream/delta.h"
#include "util/fault.h"
#include "util/random.h"

namespace hcspmm {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("HCSPMM_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 42;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

CsrMatrix FaultMatrix(uint64_t seed, int32_t rows = 256, double density = 0.05) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

DenseMatrix Payload(int32_t rows, int32_t dim, uint64_t seed) {
  Pcg32 rng(seed);
  return GenerateDense(rows, dim, &rng);
}

SessionOptions Fp32() { return SessionOptions().set_dtype(DataType::kFp32); }

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

std::shared_ptr<FaultInjector> MakeInjector(double fault_rate,
                                            double straggler_rate = 0.0,
                                            int64_t straggler_us = 100) {
  FaultOptions opts;
  opts.seed = FaultSeed();
  opts.fault_rate = fault_rate;
  opts.straggler_rate = straggler_rate;
  opts.straggler_us = straggler_us;
  return std::make_shared<FaultInjector>(opts);
}

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.initial_backoff_us = 20;
  retry.max_backoff_us = 200;
  retry.seed = FaultSeed();
  return retry;
}

int NoCap(const std::string&) { return 1 << 20; }

// ---------------------------------------------------------------------------
// FaultInjector substrate

TEST(FaultInjectorTest, ScheduleIsDeterministicPerSeedScopeOrdinal) {
  const auto run = [](uint64_t seed) {
    FaultOptions opts;
    opts.seed = seed;
    opts.fault_rate = 0.3;
    opts.straggler_rate = 0.2;
    opts.straggler_us = 0;  // draw the schedule without sleeping
    FaultInjector injector(opts);
    std::vector<bool> outcomes;
    for (uint64_t scope = 0; scope < 4; ++scope) {
      for (int i = 0; i < 200; ++i) {
        outcomes.push_back(injector.OnDispatch(scope).ok());
      }
    }
    return std::make_pair(outcomes, injector.injected_faults());
  };
  const auto a = run(FaultSeed());
  const auto b = run(FaultSeed());
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // 800 draws at rate 0.3: some faults fire for any seed.
  EXPECT_GT(a.second, 0);
  // A different seed produces a different schedule.
  const auto c = run(FaultSeed() + 1);
  EXPECT_NE(a.first, c.first);
}

TEST(FaultInjectorTest, ScopesAreIndependentStreams) {
  FaultOptions opts;
  opts.seed = FaultSeed();
  opts.fault_rate = 0.5;
  FaultInjector lone(opts);
  std::vector<bool> scope7_alone;
  for (int i = 0; i < 100; ++i) scope7_alone.push_back(lone.OnDispatch(7).ok());

  // Interleaving dispatches on other scopes must not perturb scope 7.
  FaultInjector mixed(opts);
  std::vector<bool> scope7_mixed;
  for (int i = 0; i < 100; ++i) {
    (void)mixed.OnDispatch(3);
    scope7_mixed.push_back(mixed.OnDispatch(7).ok());
    (void)mixed.OnDispatch(11);
  }
  EXPECT_EQ(scope7_alone, scope7_mixed);
}

TEST(FaultInjectorTest, DownWindowIsStickyAndRecovers) {
  FaultOptions opts;
  opts.seed = FaultSeed();
  opts.down_after = 2;
  opts.down_for = 3;
  FaultInjector injector(opts);
  // 1-based ordinals: dispatch 1 healthy, [2, 5) down, 5+ healthy again.
  EXPECT_TRUE(injector.OnDispatch(0).ok());
  for (int i = 0; i < 3; ++i) {
    Status st = injector.OnDispatch(0);
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
    EXPECT_TRUE(st.IsRetryable());
  }
  EXPECT_TRUE(injector.OnDispatch(0).ok());
  EXPECT_TRUE(injector.OnDispatch(0).ok());
  EXPECT_EQ(injector.injected_faults(), 3);
}

TEST(FaultInjectorTest, ZeroRateInjectorIsTransparent) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(5);
  const DenseMatrix x = Payload(abar.cols(), 16, 6);
  DenseMatrix clean;
  ASSERT_TRUE(rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());

  auto injector = MakeInjector(0.0);
  ASSERT_FALSE(injector->enabled());
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  DenseMatrix z;
  ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
  EXPECT_TRUE(BitIdentical(clean, z));
  EXPECT_EQ(injector->injected_faults(), 0);
  EXPECT_EQ(injector->injected_stragglers(), 0);
}

// ---------------------------------------------------------------------------
// Session-level faults, retry, cancellation

TEST(SessionFaultTest, CertainFaultSurfacesTypedRetryableError) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(7);
  auto injector = MakeInjector(1.0);
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  DenseMatrix z;
  Status st = session->Multiply(Payload(abar.cols(), 8, 8), &z, nullptr);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_TRUE(st.IsRetryable());
  EXPECT_GT(injector->injected_faults(), 0);
}

TEST(SessionFaultTest, RetryMasksTransientFaultsBitIdentically) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(9);
  const DenseMatrix x = Payload(abar.cols(), 16, 10);
  DenseMatrix clean;
  ASSERT_TRUE(rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());

  auto injector = MakeInjector(0.3);
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  ExecControls ctl;
  ctl.retry = FastRetry(10);
  for (int i = 0; i < 20; ++i) {
    DenseMatrix z;
    Status st = session->Multiply(x, &z, nullptr, ctl);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(BitIdentical(clean, z));
  }
  // 20 multiplies at rate 0.3 inject faults for any realistic seed; every
  // one of them was masked.
  EXPECT_GT(injector->injected_faults(), 0);
}

TEST(SessionFaultTest, StragglersDelayButNeverCorrupt) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(11);
  const DenseMatrix x = Payload(abar.cols(), 16, 12);
  DenseMatrix clean;
  ASSERT_TRUE(rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());

  auto injector = MakeInjector(0.0, /*straggler_rate=*/1.0, /*straggler_us=*/50);
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  DenseMatrix z;
  ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
  EXPECT_TRUE(BitIdentical(clean, z));
  EXPECT_GT(injector->injected_stragglers(), 0);
  EXPECT_EQ(injector->injected_faults(), 0);
}

TEST(SessionFaultTest, PreCancelledTokenFailsBeforeDispatch) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(13);
  auto injector = MakeInjector(0.0);
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  ExecControls ctl;
  ctl.cancel = std::make_shared<CancelToken>();
  ctl.cancel->RequestCancel();
  DenseMatrix z;
  Status st = session->Multiply(Payload(abar.cols(), 8, 14), &z, nullptr, ctl);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_FALSE(st.IsRetryable());  // retrying cannot un-expire a deadline
  EXPECT_EQ(injector->dispatches(), 0);  // checked before the fault hook
}

TEST(SessionFaultTest, PastDeadlineFailsTyped) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(15);
  auto session = rt.OpenSession(&abar, Fp32());
  ExecControls ctl;
  ctl.cancel = std::make_shared<CancelToken>();
  ctl.cancel->set_deadline(CancelToken::Clock::now() -
                           std::chrono::milliseconds(1));
  DenseMatrix z;
  Status st = session->Multiply(Payload(abar.cols(), 8, 16), &z, nullptr, ctl);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
}

TEST(SessionFaultTest, RetryGivesUpWhenBackoffWouldCrossDeadline) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(17);
  auto injector = MakeInjector(1.0);  // every attempt fails
  auto session = rt.OpenSession(&abar, Fp32().set_fault_injector(injector));
  ExecControls ctl;
  ctl.retry = FastRetry(1000);
  ctl.retry.initial_backoff_us = 50000;  // 50ms backoff vs ~0 deadline budget
  ctl.cancel = std::make_shared<CancelToken>();
  ctl.cancel->set_deadline(CancelToken::Clock::now() +
                           std::chrono::microseconds(500));
  DenseMatrix z;
  const auto t0 = std::chrono::steady_clock::now();
  Status st = session->Multiply(Payload(abar.cols(), 8, 18), &z, nullptr, ctl);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(st.ok());
  // Gave up without burning anywhere near 1000 x 50ms of backoff.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);
}

// ---------------------------------------------------------------------------
// Chaos matrix: every execution configuration, faults + stragglers + retry,
// results bitwise equal to the fault-free run.

TEST(ChaosMatrixTest, AllConfigurationsSurviveFaultsBitIdentically) {
  Runtime rt;
  const CsrMatrix abar = FaultMatrix(21, /*rows=*/384, /*density=*/0.04);
  const DenseMatrix x = Payload(abar.cols(), 24, 22);

  // Fault-free references: plain session for the unpatched configs, patched
  // CSR for the streaming config.
  DenseMatrix clean;
  ASSERT_TRUE(rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());
  // Delete a real edge (the first nonzero of a nonempty row) so the batch
  // is applicable; upserts may target any position.
  int32_t del_row = 0;
  while (abar.RowNnz(del_row) == 0) ++del_row;
  const int32_t del_col = abar.col_ind()[static_cast<size_t>(abar.RowBegin(del_row))];
  auto deltas = DeltaBatch::Make({{0, 5, 1.5f}, {10, 20, -2.0f}, {100, 3, 0.75f}},
                                 {{del_row, del_col, 0.0f}});
  ASSERT_TRUE(deltas.ok());
  auto patched_csr = ApplyDeltasToCsr(abar, deltas.ValueOrDie(), nullptr);
  ASSERT_TRUE(patched_csr.ok());
  DenseMatrix clean_patched;
  ASSERT_TRUE(rt.OpenSession(&patched_csr.ValueOrDie(), Fp32())
                  ->Multiply(x, &clean_patched, nullptr)
                  .ok());

  ExecControls ctl;
  ctl.retry = FastRetry(10);

  struct Config {
    const char* name;
    int shards;        // window ranges of the one plan (1 = unsharded)
    bool packed;       // compressed CSR indices
    bool patch_first;  // ApplyDeltas before multiplying
  };
  const Config configs[] = {
      {"plain", 1, false, false},           {"sharded2", 2, false, false},
      {"sharded4", 4, false, false},        {"packed", 1, true, false},
      {"streaming_patched", 1, false, true}, {"sharded3_patched", 3, false, true},
  };
  for (const Config& cfg : configs) {
    SCOPED_TRACE(cfg.name);
    auto injector = MakeInjector(0.3, /*straggler_rate=*/0.1, /*straggler_us=*/50);
    ShardingOptions sharding;
    sharding.num_shards = cfg.shards;
    SessionOptions opts = Fp32().set_fault_injector(injector).set_sharding(sharding);
    if (cfg.packed) opts.set_compress_indices(true);
    const DenseMatrix& want = cfg.patch_first ? clean_patched : clean;
    auto session = rt.OpenSession(&abar, opts);
    if (cfg.patch_first) {
      ASSERT_TRUE(session->ApplyDeltas(deltas.ValueOrDie()).ok());
    }
    for (int i = 0; i < 4; ++i) {
      DenseMatrix z;
      Status st = session->Multiply(x, &z, nullptr, ctl);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(BitIdentical(want, z));
    }
  }
}

// ---------------------------------------------------------------------------
// WfqScheduler graph gating and removal (breaker building blocks)

TEST(WfqSchedulerFaultTest, GraphFilterSkipsTenantsHeadOfLine) {
  WfqScheduler sched;
  sched.SetWeight("a", 1.0);
  sched.SetWeight("b", 1.0);
  const auto t0 = WfqScheduler::Clock::now();
  // Tenant a's head targets graph 1 (held back); b's queue is all graph 2.
  sched.Enqueue("a", {1, 8}, 100, t0);
  sched.Enqueue("a", {2, 8}, 101, t0);
  sched.Enqueue("b", {2, 8}, 200, t0);
  const auto reject_graph1 = [](uint64_t graph) { return graph != 1; };
  auto plan = sched.PlanBatch(8, NoCap, reject_graph1);
  ASSERT_TRUE(plan.has_value());
  // Only b is eligible: a's *head* is gated, and nothing behind a head is
  // ever considered.
  EXPECT_EQ(plan->count, 1);
  auto popped = sched.PopBatch(8, NoCap, reject_graph1);
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0].id, 200u);
  // Without the filter, a drains normally (graph-1 head first).
  auto rest = sched.PopBatch(8, NoCap);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, 100u);
  EXPECT_EQ(sched.TotalDepth(), 1);
}

TEST(WfqSchedulerFaultTest, RemoveIfExtractsMatchesAnywhereInQueue) {
  WfqScheduler sched;
  sched.SetWeight("a", 1.0);
  const auto t0 = WfqScheduler::Clock::now();
  sched.Enqueue("a", {1, 8}, 1, t0);
  sched.Enqueue("a", {2, 8}, 2, t0);
  sched.Enqueue("a", {1, 8}, 3, t0);
  auto removed = sched.RemoveIf(
      [](const std::string&, uint64_t graph, uint64_t) { return graph == 1; });
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(sched.TotalDepth(), 1);
  auto popped = sched.PopBatch(8, NoCap);
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped[0].id, 2u);
}

// ---------------------------------------------------------------------------
// Server: deadlines, retry, breaker, drain

ServerOptions FaultServerOptions(std::shared_ptr<FaultInjector> injector,
                                 int max_batch = 1) {
  ServerOptions opts;
  opts.pool.max_sessions = 4;
  opts.pool.session = Fp32().set_fault_injector(std::move(injector));
  opts.max_batch = max_batch;
  opts.batch_window_us = 0;
  return opts;
}

TEST(ServerFaultTest, QueuedRequestPastDeadlineResolvesTypedAtPop) {
  Runtime rt;
  Server server(&rt, FaultServerOptions(nullptr));
  const uint64_t graph = server.RegisterGraph(FaultMatrix(31));
  InferRequest req;
  req.tenant = "t";
  req.graph = graph;
  req.x = Payload(256, 8, 32);
  req.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Future<DenseMatrix> fut = server.Submit(std::move(req));
  fut.Wait();
  EXPECT_TRUE(fut.status().IsDeadlineExceeded()) << fut.status().ToString();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_missed, 1);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.failed, 0);
  // The expired request released its graph load: the graph can be dropped.
  EXPECT_TRUE(server.UnregisterGraph(graph).ok());
  server.Shutdown();
}

TEST(ServerFaultTest, ServerRetryMasksTransientFaults) {
  Runtime rt;
  auto injector = MakeInjector(0.3);
  ServerOptions opts = FaultServerOptions(injector);
  opts.retry = FastRetry(10);
  Runtime clean_rt;
  const CsrMatrix abar = FaultMatrix(33);
  const DenseMatrix x = Payload(abar.cols(), 16, 34);
  DenseMatrix clean;
  ASSERT_TRUE(clean_rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());

  Server server(&rt, opts);
  const uint64_t graph = server.RegisterGraph(abar);
  std::vector<Future<DenseMatrix>> futures;
  for (int i = 0; i < 20; ++i) {
    InferRequest req;
    req.tenant = "t";
    req.graph = graph;
    req.x = x;
    futures.push_back(server.Submit(std::move(req)));
  }
  for (Future<DenseMatrix>& fut : futures) {
    fut.Wait();
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    EXPECT_TRUE(BitIdentical(clean, fut.Get()));
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 20);
  EXPECT_GT(stats.retries, 0);  // faults fired and were masked
  server.Shutdown();
}

// Satellite regression: a batch popped by the dispatcher but *failed* by an
// injected fault must still decrement the per-graph in-flight count — else
// UnregisterGraph reports phantom load forever and Shutdown's drain logic
// (inflight_total_) would hang.
TEST(ServerFaultTest, FaultedBatchDecrementsGraphInflight) {
  Runtime rt;
  auto injector = MakeInjector(1.0);  // every dispatch fails, no retry
  Server server(&rt, FaultServerOptions(injector));
  const uint64_t graph = server.RegisterGraph(FaultMatrix(35));
  std::vector<Future<DenseMatrix>> futures;
  for (int i = 0; i < 5; ++i) {
    InferRequest req;
    req.tenant = "t";
    req.graph = graph;
    req.x = Payload(256, 8, 36);
    futures.push_back(server.Submit(std::move(req)));
  }
  for (Future<DenseMatrix>& fut : futures) {
    fut.Wait();
    EXPECT_TRUE(fut.status().IsUnavailable()) << fut.status().ToString();
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 5);
  EXPECT_EQ(stats.completed, 0);
  // No phantom in-flight load left behind by the failed batches.
  EXPECT_TRUE(server.UnregisterGraph(graph).ok());
  server.Shutdown();  // must not hang on inflight_total_
}

TEST(ServerFaultTest, BreakerOpensShedsLowWeightFirstAndRecovers) {
  Runtime rt;
  // Scope = graph fingerprint; dispatches 1-2 of that scope fail, 3+ heal.
  FaultOptions fopts;
  fopts.seed = FaultSeed();
  fopts.down_after = 1;
  fopts.down_for = 2;
  auto injector = std::make_shared<FaultInjector>(fopts);
  ServerOptions opts = FaultServerOptions(injector);
  opts.breaker_failures = 1;
  opts.breaker_open_us = 50000;  // 50ms
  Server server(&rt, opts);
  // max_inflight = 1 so the dispatcher cannot free-run the whole flood into
  // flight before the first failure lands — a queue must build up for the
  // breaker to shed.
  server.ConfigureTenant("lo", TenantOptions{0.5, 1, 256});
  server.ConfigureTenant("hi", TenantOptions{8.0, 1, 256});
  const CsrMatrix abar = FaultMatrix(37);
  const DenseMatrix x = Payload(abar.cols(), 16, 38);
  const uint64_t graph = server.RegisterGraph(abar);

  // Flood both tenants; the first dispatch fails (down window), the breaker
  // opens, and queued work beyond one probe batch is shed lowest-weight
  // first. All futures resolve with a value or a typed error.
  std::vector<Future<DenseMatrix>> futures;
  for (int i = 0; i < 6; ++i) {
    for (const char* tenant : {"lo", "hi"}) {
      InferRequest req;
      req.tenant = tenant;
      req.graph = graph;
      req.x = x;
      futures.push_back(server.Submit(std::move(req)));
    }
  }
  for (Future<DenseMatrix>& fut : futures) {
    fut.Wait();
    if (!fut.ok()) {
      EXPECT_TRUE(fut.status().IsUnavailable()) << fut.status().ToString();
    }
  }
  ServerStats stats = server.stats();
  EXPECT_GE(stats.breaker_trips, 1);
  EXPECT_GE(stats.shed, 1);
  EXPECT_GE(stats.tenants.at("lo").shed, stats.tenants.at("hi").shed);

  // Past the down window the next probe heals the breaker: a fresh request
  // completes (possibly after the open period elapses).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  DenseMatrix clean;
  Runtime clean_rt;
  ASSERT_TRUE(clean_rt.OpenSession(&abar, Fp32())->Multiply(x, &clean, nullptr).ok());
  InferRequest req;
  req.tenant = "hi";
  req.graph = graph;
  req.x = x;
  Future<DenseMatrix> recovered = server.Submit(std::move(req));
  recovered.Wait();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(BitIdentical(clean, recovered.Get()));
  server.Shutdown();
}

TEST(ServerFaultTest, ShutdownDrainsUnderChaos) {
  Runtime rt;
  auto injector = MakeInjector(0.3, /*straggler_rate=*/0.1, /*straggler_us=*/50);
  ServerOptions opts = FaultServerOptions(injector, /*max_batch=*/4);
  opts.retry = FastRetry(3);
  Server server(&rt, opts);
  const uint64_t graph = server.RegisterGraph(FaultMatrix(41));
  std::vector<Future<DenseMatrix>> futures;
  for (int i = 0; i < 40; ++i) {
    InferRequest req;
    req.tenant = "t" + std::to_string(i % 4);
    req.graph = graph;
    req.x = Payload(256, 8, 42 + static_cast<uint64_t>(i % 3));
    futures.push_back(server.Submit(std::move(req)));
  }
  server.Shutdown();  // drain: every accepted request must still resolve
  int64_t resolved_ok = 0;
  int64_t resolved_err = 0;
  for (Future<DenseMatrix>& fut : futures) {
    // Shutdown drained the queue; promises are fulfilled off-lock moments
    // later, so Wait() (which cannot block meaningfully here) not ready().
    fut.Wait();
    if (fut.ok()) {
      ++resolved_ok;
    } else {
      EXPECT_TRUE(fut.status().IsUnavailable()) << fut.status().ToString();
      ++resolved_err;
    }
  }
  EXPECT_EQ(resolved_ok + resolved_err, 40);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, resolved_ok);
  EXPECT_EQ(stats.failed, resolved_err);
}

}  // namespace
}  // namespace hcspmm
