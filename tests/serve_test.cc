// Tests for the multi-tenant serving layer (src/serve/): SessionPool
// admission/LRU eviction and fingerprint-keyed reuse through the PlanCache,
// WfqScheduler fairness proportions and batch compatibility, Server
// micro-batch scatter bit-identity against direct Session multiplies,
// per-tenant fairness under a saturating tenant, typed kOverloaded
// backpressure, clean shutdown with in-flight requests, and concurrent
// multi-tenant submission (TSan fodder).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/plan_cache.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "sparse/generate.h"
#include "util/random.h"

namespace hcspmm {
namespace {

CsrMatrix ServeMatrix(uint64_t seed, int32_t rows = 256, double density = 0.05) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

DenseMatrix Payload(int32_t rows, int32_t dim, uint64_t seed) {
  Pcg32 rng(seed);
  return GenerateDense(rows, dim, &rng);
}

SessionOptions Fp32() { return SessionOptions().set_dtype(DataType::kFp32); }

SessionPoolOptions PoolOptions(int max_sessions, int num_shards = 1) {
  SessionPoolOptions opts;
  opts.max_sessions = max_sessions;
  ShardingOptions sharding;
  sharding.num_shards = num_shards;
  opts.session = Fp32().set_sharding(sharding);
  return opts;
}

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Ground truth: a direct (unbatched, unpooled) Session::Multiply.
DenseMatrix Direct(Runtime* rt, const CsrMatrix& abar, const DenseMatrix& x) {
  std::shared_ptr<Session> session = rt->OpenSession(&abar, Fp32());
  DenseMatrix z;
  EXPECT_TRUE(session->Multiply(x, &z, nullptr).ok());
  return z;
}

int NoCap(const std::string&) { return 1 << 20; }

// ---------------------------------------------------------------------------
// SessionPool

TEST(SessionPoolTest, RegisterDedupsByContentFingerprint) {
  Runtime rt;
  SessionPool pool(&rt, PoolOptions(4));
  CsrMatrix a = ServeMatrix(3);
  CsrMatrix a_copy = a;
  CsrMatrix b = ServeMatrix(4);
  const uint64_t ha = pool.RegisterGraph(std::move(a));
  const uint64_t ha2 = pool.RegisterGraph(std::move(a_copy));
  const uint64_t hb = pool.RegisterGraph(std::move(b));
  EXPECT_EQ(ha, ha2);
  EXPECT_NE(ha, hb);
  EXPECT_TRUE(pool.HasGraph(ha));
  EXPECT_FALSE(pool.HasGraph(ha ^ 1));
  EXPECT_EQ(pool.GraphCols(ha), 256);
  EXPECT_EQ(pool.GraphCols(ha ^ 1), -1);
  EXPECT_EQ(pool.stats().graphs, 2);
  EXPECT_EQ(pool.stats().resident, 0);  // sessions open lazily, not here
}

TEST(SessionPoolTest, HandleMatchesSessionContentFingerprint) {
  Runtime rt;
  SessionPool pool(&rt, PoolOptions(2));
  const uint64_t handle = pool.RegisterGraph(ServeMatrix(5));
  Result<std::shared_ptr<Session>> ps = pool.Acquire(handle);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(ps.ValueOrDie()->WaitReady().ok());
  // The pool's admission key is exactly the runtime's plan fingerprint.
  EXPECT_EQ(ps.ValueOrDie()->content_fingerprint(), handle);
}

TEST(SessionPoolTest, AcquireOpensLazilyAndLruEvicts) {
  Runtime rt;
  SessionPool pool(&rt, PoolOptions(2));
  const uint64_t h1 = pool.RegisterGraph(ServeMatrix(11));
  const uint64_t h2 = pool.RegisterGraph(ServeMatrix(12));
  const uint64_t h3 = pool.RegisterGraph(ServeMatrix(13));

  ASSERT_TRUE(pool.Acquire(h1).ok());
  ASSERT_TRUE(pool.Acquire(h2).ok());
  EXPECT_EQ(pool.stats().resident, 2);
  EXPECT_EQ(pool.stats().evicted, 0);

  ASSERT_TRUE(pool.Acquire(h3).ok());  // budget 2: evicts h1 (LRU)
  SessionPoolStats s = pool.stats();
  EXPECT_EQ(s.resident, 2);
  EXPECT_EQ(s.evicted, 1);
  EXPECT_EQ(s.opened, 3);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 0);

  ASSERT_TRUE(pool.Acquire(h2).ok());  // still resident: a hit, refreshes LRU
  EXPECT_EQ(pool.stats().hits, 1);

  ASSERT_TRUE(pool.Acquire(h1).ok());  // reopen; evicts h3 (h2 was refreshed)
  s = pool.stats();
  EXPECT_EQ(s.resident, 2);
  EXPECT_EQ(s.evicted, 2);
  EXPECT_EQ(s.opened, 4);
  EXPECT_EQ(s.misses, 4);
  ASSERT_TRUE(pool.Acquire(h2).ok());  // h2 survived both evictions
  EXPECT_EQ(pool.stats().hits, 2);
}

TEST(SessionPoolTest, ReopenAfterEvictionHitsPlanCache) {
  Runtime rt;  // isolated runtime => isolated PlanCache
  SessionPool pool(&rt, PoolOptions(1));
  const uint64_t h1 = pool.RegisterGraph(ServeMatrix(21));
  const uint64_t h2 = pool.RegisterGraph(ServeMatrix(22));

  Result<std::shared_ptr<Session>> first = pool.Acquire(h1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.ValueOrDie()->WaitReady().ok());
  EXPECT_FALSE(first.ValueOrDie()->plan_from_cache());

  ASSERT_TRUE(pool.Acquire(h2).ok());  // budget 1: evicts h1's session
  EXPECT_EQ(pool.stats().evicted, 1);

  // Second binding of the same graph content: the session is rebuilt but
  // its plan comes straight out of the PlanCache under the same fingerprint.
  Result<std::shared_ptr<Session>> again = pool.Acquire(h1);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.ValueOrDie()->WaitReady().ok());
  EXPECT_TRUE(again.ValueOrDie()->plan_from_cache());
}

TEST(SessionPoolTest, UnknownHandleIsInvalidArgument) {
  Runtime rt;
  SessionPool pool(&rt, PoolOptions(2));
  Result<std::shared_ptr<Session>> r = pool.Acquire(123456789);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionPoolTest, EvictedSessionStaysUsableByHolders) {
  Runtime rt;
  SessionPool pool(&rt, PoolOptions(1));
  const uint64_t h1 = pool.RegisterGraph(ServeMatrix(31));
  const uint64_t h2 = pool.RegisterGraph(ServeMatrix(32));
  Result<std::shared_ptr<Session>> held = pool.Acquire(h1);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(pool.Acquire(h2).ok());  // evicts h1 from the pool
  EXPECT_TRUE(pool.Evict(h1) == false);  // already gone
  // The held handle keeps the backend (and the pooled CSR) alive.
  DenseMatrix x = Payload(256, 16, 7);
  Future<std::vector<DenseMatrix>> f =
      held.ValueOrDie()->MultiplyBatchAsync({std::move(x)});
  ASSERT_TRUE(f.status().ok());
  EXPECT_EQ(f.Get().size(), 1u);
}

TEST(SessionPoolTest, ShardedSessionBatchBitIdenticalToDirect) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(41, /*rows=*/300, /*density=*/0.04);
  CsrMatrix reference = abar;
  SessionPool pool(&rt, PoolOptions(2, /*num_shards=*/3));
  const uint64_t handle = pool.RegisterGraph(std::move(abar));
  Result<std::shared_ptr<Session>> ps = pool.Acquire(handle);
  ASSERT_TRUE(ps.ok());

  std::vector<DenseMatrix> xs;
  for (uint64_t i = 0; i < 3; ++i) xs.push_back(Payload(300, 24, 100 + i));
  std::vector<DenseMatrix> expected;
  for (const DenseMatrix& x : xs) expected.push_back(Direct(&rt, reference, x));

  Future<std::vector<DenseMatrix>> f =
      ps.ValueOrDie()->MultiplyBatchAsync(std::move(xs));
  ASSERT_TRUE(f.status().ok());
  const std::vector<DenseMatrix>& zs = f.Get();
  ASSERT_EQ(zs.size(), expected.size());
  for (size_t i = 0; i < zs.size(); ++i) {
    EXPECT_TRUE(BitIdentical(zs[i], expected[i])) << "item " << i;
  }
}

// ---------------------------------------------------------------------------
// WfqScheduler

TEST(WfqSchedulerTest, WeightedDrainIsProportional) {
  WfqScheduler sched;
  sched.SetWeight("A", 1.0);
  sched.SetWeight("B", 3.0);
  const WfqScheduler::BatchKey key{1, 32};
  const auto t0 = WfqScheduler::Clock::now();
  for (uint64_t i = 0; i < 40; ++i) {
    sched.Enqueue("A", key, 1000 + i, t0);
    sched.Enqueue("B", key, 2000 + i, t0);
  }
  // Drain the first 40 slots: weight 3 tenant should hold ~30 of them.
  int from_a = 0;
  int from_b = 0;
  for (int batch = 0; batch < 10; ++batch) {
    for (const WfqScheduler::Popped& p : sched.PopBatch(4, NoCap)) {
      (p.tenant == "A" ? from_a : from_b)++;
    }
  }
  EXPECT_EQ(from_a + from_b, 40);
  EXPECT_GE(from_b, 28);
  EXPECT_LE(from_b, 32);
  EXPECT_EQ(sched.TotalDepth(), 40);
}

TEST(WfqSchedulerTest, ExplicitCostScalesFairShare) {
  WfqScheduler sched;
  sched.SetWeight("cheap", 1.0);
  sched.SetWeight("pricey", 1.0);
  const WfqScheduler::BatchKey key{1, 32};
  const auto t0 = WfqScheduler::Clock::now();
  for (uint64_t i = 0; i < 40; ++i) {
    sched.Enqueue("cheap", key, 1000 + i, t0, /*cost=*/1.0);
    sched.Enqueue("pricey", key, 2000 + i, t0, /*cost=*/10.0);
  }
  // At equal weight, cost-10 work drains 10x slower: of the 44 smallest
  // virtual finish times, exactly 4 belong to the pricey tenant.
  int pricey = 0;
  for (int i = 0; i < 44; ++i) {
    std::vector<WfqScheduler::Popped> popped = sched.PopBatch(1, NoCap);
    ASSERT_EQ(popped.size(), 1u);
    if (popped[0].tenant == "pricey") ++pricey;
  }
  EXPECT_EQ(pricey, 4);
}

TEST(WfqSchedulerTest, LateArriverIsNotPenalizedByBacklog) {
  WfqScheduler sched;
  sched.SetWeight("flood", 1.0);
  sched.SetWeight("late", 1.0);
  const WfqScheduler::BatchKey key{1, 32};
  const auto t0 = WfqScheduler::Clock::now();
  for (uint64_t i = 0; i < 100; ++i) sched.Enqueue("flood", key, i, t0);
  // Serve some of the backlog, then the second tenant shows up.
  (void)sched.PopBatch(8, NoCap);
  sched.Enqueue("late", key, 1000, t0);
  // The late tenant's first request must land in the very next batch: its
  // virtual start is "now", not behind the flooder's 92 queued requests.
  std::vector<WfqScheduler::Popped> next = sched.PopBatch(2, NoCap);
  ASSERT_EQ(next.size(), 2u);
  EXPECT_TRUE(next[0].tenant == "late" || next[1].tenant == "late");
}

TEST(WfqSchedulerTest, IncompatibleHeadsDoNotCoBatch) {
  WfqScheduler sched;
  const auto t0 = WfqScheduler::Clock::now();
  sched.Enqueue("A", WfqScheduler::BatchKey{1, 32}, 1, t0);
  sched.Enqueue("B", WfqScheduler::BatchKey{2, 32}, 2, t0);  // other graph
  sched.Enqueue("A", WfqScheduler::BatchKey{1, 32}, 3, t0);
  std::vector<WfqScheduler::Popped> batch = sched.PopBatch(8, NoCap);
  ASSERT_EQ(batch.size(), 2u);  // both of A's; B's head is a different key
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_EQ(sched.QueueDepth("B"), 1);
  // Next batch picks up the other key.
  batch = sched.PopBatch(8, NoCap);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 2u);
}

TEST(WfqSchedulerTest, InflightHeadroomGatesEligibility) {
  WfqScheduler sched;
  const auto t0 = WfqScheduler::Clock::now();
  const WfqScheduler::BatchKey key{1, 32};
  sched.Enqueue("A", key, 1, t0);
  sched.Enqueue("A", key, 2, t0);
  sched.Enqueue("B", key, 3, t0);
  const auto only_b = [](const std::string& t) { return t == "B" ? 1 : 0; };
  std::vector<WfqScheduler::Popped> batch = sched.PopBatch(8, only_b);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tenant, "B");
  EXPECT_EQ(sched.QueueDepth("A"), 2);
  // Plan with nobody eligible reports no batch at all.
  EXPECT_FALSE(sched.PlanBatch(8, [](const std::string&) { return 0; }).has_value());
}

// ---------------------------------------------------------------------------
// Server

ServerOptions BatchingOptions(int max_batch, int64_t window_us) {
  ServerOptions opts;
  opts.pool = PoolOptions(4);
  opts.max_batch = max_batch;
  opts.batch_window_us = window_us;
  return opts;
}

TEST(ServerTest, MalformedGraphResolvesTypedInsteadOfCrashing) {
  // A 2x2 CSR whose only column index lies far past cols: the kernels would
  // read out of bounds, so the graph's session must fail to open and the
  // request must resolve to a typed InvalidArgument.
  Runtime rt;
  Server server(&rt, BatchingOptions(1, 0));
  const uint64_t graph =
      server.RegisterGraph(CsrMatrix(2, 2, {0, 1, 1}, {50'000'000}, {1.0f}));
  Future<DenseMatrix> f = server.Submit({"t", graph, DenseMatrix(2, 4, 1.0f)});
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument) << f.status().ToString();
}

TEST(ServerTest, MalformedGraphSessionLeavesThePoolAndReopensEachTime) {
  // A session that failed to open must not stay resident as a dead "hit":
  // every request reopens, re-validates and fails typed again, and no pool
  // slot stays taken.
  Runtime rt;
  Server server(&rt, BatchingOptions(1, 0));
  const uint64_t graph =
      server.RegisterGraph(CsrMatrix(2, 2, {0, 1, 1}, {50'000'000}, {1.0f}));
  for (int i = 0; i < 3; ++i) {
    Future<DenseMatrix> f = server.Submit({"t", graph, DenseMatrix(2, 4, 1.0f)});
    EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument)
        << "request " << i << ": " << f.status().ToString();
  }
  const SessionPoolStats pool = server.pool()->stats();
  EXPECT_EQ(pool.resident, 0);
  EXPECT_EQ(pool.hits, 0);
  EXPECT_EQ(pool.misses, 3);
  EXPECT_EQ(pool.opened, 3);
}

TEST(ServerTest, FullBatchScattersBitIdenticalResults) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(51);
  CsrMatrix reference = abar;
  // Window far larger than the test runtime: only the size trigger fires,
  // so exactly one batch of 4 is dispatched.
  Server server(&rt, BatchingOptions(4, 5'000'000));
  const uint64_t graph = server.RegisterGraph(std::move(abar));

  std::vector<DenseMatrix> xs;
  std::vector<Future<DenseMatrix>> futures;
  for (uint64_t i = 0; i < 4; ++i) {
    xs.push_back(Payload(256, 32, 200 + i));
    futures.push_back(server.Submit({"tenant-" + std::to_string(i % 2), graph,
                                     xs.back()}));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].status().ok()) << futures[i].status().ToString();
    EXPECT_TRUE(BitIdentical(futures[i].Get(), Direct(&rt, reference, xs[i])))
        << "request " << i;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  ASSERT_EQ(stats.batch_size_hist.size(), 5u);
  EXPECT_EQ(stats.batch_size_hist[4], 1);
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_LE(stats.p50_latency_us, stats.p99_latency_us);
  EXPECT_LE(stats.p99_latency_us, stats.max_latency_us);
}

TEST(ServerTest, SizeAwareCostChargesByWork) {
  Runtime rt;
  ServerOptions opts;
  opts.pool = PoolOptions(4);
  opts.max_batch = 1;
  ASSERT_TRUE(opts.size_aware_cost);  // default on
  Server server(&rt, opts);
  // Dense big graph with wide features vs sparse small graph with narrow
  // ones: the WFQ charge must scale with nnz x dim, not per request.
  CsrMatrix big = ServeMatrix(71, /*rows=*/256, /*density=*/0.5);
  CsrMatrix small = ServeMatrix(72, /*rows=*/256, /*density=*/0.01);
  const double big_work =
      static_cast<double>(big.nnz()) * 32.0 / 65536.0;  // cost units
  const uint64_t hb = server.RegisterGraph(std::move(big));
  const uint64_t hs = server.RegisterGraph(std::move(small));

  Future<DenseMatrix> fb = server.Submit({"big", hb, Payload(256, 32, 300)});
  Future<DenseMatrix> fs = server.Submit({"small", hs, Payload(256, 4, 301)});
  fb.Wait();
  fs.Wait();
  ASSERT_TRUE(fb.ok() && fs.ok());

  ServerStats stats = server.stats();
  // Small graph's nnz x dim is under one unit => clamps to the per-request
  // floor; the big request is charged its actual (much larger) work.
  EXPECT_DOUBLE_EQ(stats.tenants.at("small").cost_charged, 1.0);
  EXPECT_DOUBLE_EQ(stats.tenants.at("big").cost_charged, big_work);
  EXPECT_GT(stats.tenants.at("big").cost_charged,
            8.0 * stats.tenants.at("small").cost_charged);
}

TEST(ServerTest, IncompatibleRequestsNeverCoBatch) {
  Runtime rt;
  CsrMatrix a = ServeMatrix(52);
  CsrMatrix b = ServeMatrix(53);
  CsrMatrix ref_a = a;
  CsrMatrix ref_b = b;
  Server server(&rt, BatchingOptions(8, 1000));
  const uint64_t ga = server.RegisterGraph(std::move(a));
  const uint64_t gb = server.RegisterGraph(std::move(b));

  // Same graph at two dims, plus a second graph: three incompatible groups.
  DenseMatrix xa16 = Payload(256, 16, 301);
  DenseMatrix xa32 = Payload(256, 32, 302);
  DenseMatrix xb16 = Payload(256, 16, 303);
  Future<DenseMatrix> fa16 = server.Submit({"t", ga, xa16});
  Future<DenseMatrix> fa32 = server.Submit({"t", ga, xa32});
  Future<DenseMatrix> fb16 = server.Submit({"t", gb, xb16});
  EXPECT_TRUE(BitIdentical(fa16.Get(), Direct(&rt, ref_a, xa16)));
  EXPECT_TRUE(BitIdentical(fa32.Get(), Direct(&rt, ref_a, xa32)));
  EXPECT_TRUE(BitIdentical(fb16.Get(), Direct(&rt, ref_b, xb16)));
  EXPECT_EQ(server.stats().batches, 3);
}

TEST(ServerTest, BackpressureIsTypedAndDistinguishable) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(54);
  CsrMatrix reference = abar;
  ServerOptions opts = BatchingOptions(64, 60'000'000);  // nothing dispatches
  TenantOptions bounded;
  bounded.max_queue = 3;
  opts.default_tenant = bounded;
  std::vector<Future<DenseMatrix>> accepted;
  std::vector<DenseMatrix> xs;
  Status rejected;
  {
    Server server(&rt, opts);
    const uint64_t graph = server.RegisterGraph(std::move(abar));
    for (uint64_t i = 0; i < 3; ++i) {
      xs.push_back(Payload(256, 16, 400 + i));
      accepted.push_back(server.Submit({"t", graph, xs.back()}));
    }
    Future<DenseMatrix> overflow = server.Submit({"t", graph, Payload(256, 16, 9)});
    rejected = overflow.status();

    // A real failure (unknown handle) must NOT look like backpressure.
    Future<DenseMatrix> bad = server.Submit({"t", graph ^ 1, Payload(256, 16, 9)});
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(bad.status().IsOverloaded());
    // Wrong operand shape is rejected at admission, before batching.
    Future<DenseMatrix> wrong = server.Submit({"t", graph, Payload(17, 16, 9)});
    EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

    ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.submitted, 3);
    EXPECT_EQ(stats.queue_depth, 3);
    // Destruction drains: the three accepted requests are served, not lost.
  }
  EXPECT_TRUE(rejected.IsOverloaded());
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  for (size_t i = 0; i < accepted.size(); ++i) {
    ASSERT_TRUE(accepted[i].status().ok());
    EXPECT_TRUE(BitIdentical(accepted[i].Get(), Direct(&rt, reference, xs[i])));
  }
}

TEST(ServerTest, InflightCapBoundsBatchSize) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(55);
  ServerOptions opts = BatchingOptions(8, 500);
  opts.default_tenant.max_inflight = 2;
  Server server(&rt, opts);
  const uint64_t graph = server.RegisterGraph(std::move(abar));
  std::vector<Future<DenseMatrix>> futures;
  for (uint64_t i = 0; i < 10; ++i) {
    futures.push_back(server.Submit({"capped", graph, Payload(256, 16, 500 + i)}));
  }
  for (Future<DenseMatrix>& f : futures) ASSERT_TRUE(f.status().ok());
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 10);
  for (size_t size = 3; size < stats.batch_size_hist.size(); ++size) {
    EXPECT_EQ(stats.batch_size_hist[size], 0)
        << "batch of " << size << " exceeds the tenant in-flight cap of 2";
  }
}

TEST(ServerTest, SaturatingTenantCannotStarveOthers) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(56, /*rows=*/1024, /*density=*/0.02);
  ServerOptions opts = BatchingOptions(4, 200);
  opts.default_tenant.max_queue = 1000;
  opts.default_tenant.max_inflight = 8;  // tight cap => small snapshot slop
  Server server(&rt, opts);
  const uint64_t graph = server.RegisterGraph(std::move(abar));

  // Tenant A floods 240 requests before B submits its 24. Under FIFO, B's
  // last response would land only after ~all of A's backlog; under
  // equal-weight WFQ the two interleave, so in the span between B's last
  // submit and B's last completion, A gets roughly B's service — not the
  // whole backlog. (How much of A completes *before* B submits is machine
  // speed, so the assertion only covers that span.)
  constexpr int kFlood = 240;
  constexpr int kModest = 24;
  std::vector<Future<DenseMatrix>> flood;
  for (uint64_t i = 0; i < kFlood; ++i) {
    flood.push_back(server.Submit({"A", graph, Payload(1024, 16, 600 + i)}));
  }
  std::vector<Future<DenseMatrix>> modest;
  for (uint64_t i = 0; i < kModest; ++i) {
    modest.push_back(server.Submit({"B", graph, Payload(1024, 16, 900 + i)}));
  }
  const ServerStats at_b_submitted = server.stats();
  for (Future<DenseMatrix>& f : modest) ASSERT_TRUE(f.status().ok());
  const ServerStats at_b_done = server.stats();
  for (Future<DenseMatrix>& f : flood) ASSERT_TRUE(f.status().ok());

  EXPECT_EQ(at_b_done.tenants.at("B").completed, kModest);
  const int64_t a_during_b = at_b_done.tenants.at("A").completed -
                             at_b_submitted.tenants.at("A").completed;
  const int64_t a_backlog = kFlood - at_b_submitted.tenants.at("A").completed;
  // Generous fair-share bound: ~B's service (24) + in-flight/batch slop.
  // Only meaningful when A still had a real backlog to starve B with.
  if (a_backlog > 2 * kModest + 32) {
    EXPECT_LE(a_during_b, 2 * kModest + 32)
        << "tenant B was starved behind tenant A's backlog of " << a_backlog;
  }
  EXPECT_EQ(server.stats().completed, kFlood + kModest);
}

TEST(ServerTest, CleanShutdownDrainsQueuedAndInFlight) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(57);
  CsrMatrix reference = abar;
  std::vector<DenseMatrix> xs;
  std::vector<Future<DenseMatrix>> futures;
  {
    // Long window: most requests are still queued when the server dies.
    Server server(&rt, BatchingOptions(4, 2'000'000));
    const uint64_t graph = server.RegisterGraph(std::move(abar));
    for (uint64_t i = 0; i < 11; ++i) {
      xs.push_back(Payload(256, 32, 700 + i));
      futures.push_back(server.Submit({"t" + std::to_string(i % 3), graph,
                                       xs.back()}));
    }
  }  // ~Server: drain + join
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].status().ok()) << futures[i].status().ToString();
    EXPECT_TRUE(BitIdentical(futures[i].Get(), Direct(&rt, reference, xs[i])));
  }
}

TEST(ServerTest, SubmitAfterShutdownFailsCleanly) {
  Runtime rt;
  Server server(&rt, BatchingOptions(4, 100));
  const uint64_t graph = server.RegisterGraph(ServeMatrix(58));
  server.Shutdown();
  server.Shutdown();  // idempotent
  Future<DenseMatrix> f = server.Submit({"t", graph, Payload(256, 16, 1)});
  ASSERT_FALSE(f.status().ok());
  EXPECT_FALSE(f.status().IsOverloaded());
}

TEST(ServerTest, UnregisterRefusesWhileBusyAndSucceedsAfterDrain) {
  Runtime rt;
  // A long batch window keeps the request queued while we probe.
  Server server(&rt, BatchingOptions(64, 60'000'000));
  const uint64_t graph = server.RegisterGraph(ServeMatrix(63));
  const uint64_t idle = server.RegisterGraph(ServeMatrix(64));

  EXPECT_EQ(server.UnregisterGraph(0xdeadbeef).code(),
            StatusCode::kInvalidArgument);

  Future<DenseMatrix> f = server.Submit({"t", graph, Payload(256, 16, 2)});
  ASSERT_TRUE(f.valid());
  ASSERT_FALSE(f.ready());  // still queued behind the window
  // The busy graph refuses with the retryable backpressure code; an idle
  // graph unregisters immediately even while another one is loaded.
  Status busy = server.UnregisterGraph(graph);
  EXPECT_TRUE(busy.IsOverloaded()) << busy.ToString();
  EXPECT_TRUE(server.pool()->HasGraph(graph));
  EXPECT_TRUE(server.UnregisterGraph(idle).ok());
  EXPECT_FALSE(server.pool()->HasGraph(idle));

  server.Shutdown();  // drains the queued request
  ASSERT_TRUE(f.status().ok());
  EXPECT_TRUE(server.UnregisterGraph(graph).ok());
  EXPECT_FALSE(server.pool()->HasGraph(graph));
}

TEST(ServerTest, BatchedAndUnbatchedModesAgreeBitwise) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(59);
  CsrMatrix copy = abar;
  CsrMatrix reference = abar;
  std::vector<DenseMatrix> xs;
  for (uint64_t i = 0; i < 6; ++i) xs.push_back(Payload(256, 32, 800 + i));

  const auto serve_all = [&](Server* server, uint64_t graph) {
    std::vector<DenseMatrix> zs;
    std::vector<Future<DenseMatrix>> futures;
    for (const DenseMatrix& x : xs) futures.push_back(server->Submit({"t", graph, x}));
    for (Future<DenseMatrix>& f : futures) {
      EXPECT_TRUE(f.status().ok());
      zs.push_back(f.Take());
    }
    return zs;
  };

  Server batched(&rt, BatchingOptions(8, 50'000));
  Server unbatched(&rt, BatchingOptions(1, 0));
  const std::vector<DenseMatrix> zs_batched =
      serve_all(&batched, batched.RegisterGraph(std::move(abar)));
  const std::vector<DenseMatrix> zs_unbatched =
      serve_all(&unbatched, unbatched.RegisterGraph(std::move(copy)));
  EXPECT_EQ(unbatched.stats().batches, 6);  // max_batch 1 => no co-batching
  for (size_t i = 0; i < xs.size(); ++i) {
    const DenseMatrix expected = Direct(&rt, reference, xs[i]);
    EXPECT_TRUE(BitIdentical(zs_batched[i], expected));
    EXPECT_TRUE(BitIdentical(zs_unbatched[i], expected));
  }
}

TEST(ServerTest, ShardedSessionsServeBitIdentical) {
  Runtime rt;
  CsrMatrix abar = ServeMatrix(60, /*rows=*/300, /*density=*/0.04);
  CsrMatrix reference = abar;
  ServerOptions opts = BatchingOptions(4, 10'000);
  opts.pool = PoolOptions(2, /*num_shards=*/2);
  Server server(&rt, opts);
  const uint64_t graph = server.RegisterGraph(std::move(abar));
  std::vector<DenseMatrix> xs;
  std::vector<Future<DenseMatrix>> futures;
  for (uint64_t i = 0; i < 5; ++i) {
    xs.push_back(Payload(300, 16, 850 + i));
    futures.push_back(server.Submit({"t", graph, xs.back()}));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].status().ok());
    EXPECT_TRUE(BitIdentical(futures[i].Get(), Direct(&rt, reference, xs[i])));
  }
}

TEST(ServerTest, ConcurrentSubmittersAcrossTenantsAndGraphs) {
  Runtime rt;
  CsrMatrix a = ServeMatrix(61);
  CsrMatrix b = ServeMatrix(62);
  CsrMatrix ref_a = a;
  CsrMatrix ref_b = b;
  Server server(&rt, BatchingOptions(6, 300));
  const uint64_t ga = server.RegisterGraph(std::move(a));
  const uint64_t gb = server.RegisterGraph(std::move(b));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t graph = (i % 2 == 0) ? ga : gb;
        const CsrMatrix& ref = (i % 2 == 0) ? ref_a : ref_b;
        DenseMatrix x = Payload(256, 16, 1000 + 100 * t + i);
        Future<DenseMatrix> f =
            server.Submit({"tenant-" + std::to_string(t), graph, x});
        if (!f.status().ok() || !BitIdentical(f.Get(), Direct(&rt, ref, x))) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queue_depth, 0);
}

}  // namespace
}  // namespace hcspmm
