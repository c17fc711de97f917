// serve_hot and serve_churn: the serving stack (Server -> SessionPool ->
// Session) under an open-loop phase at a fixed offered rate followed by a
// closed-loop saturation phase, with a scraper thread polling
// Server::stats() throughout. Every response is checked bitwise against a
// direct Session::Multiply of the same payload.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "sparse/generate.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

using namespace hcspmm;

namespace {

struct Tenant {
  const char* name;
  double weight;
};
constexpr Tenant kTenants[] = {{"t1", 1.0}, {"t2", 1.0}, {"t3", 2.0}, {"t4", 4.0}};
constexpr int kNumTenants = 4;
constexpr double kOpenShare = 0.7;  // rest of the run is the closed loop
constexpr auto kScrapePeriod = std::chrono::milliseconds(100);
// CPU time cannot be charged to one request while several are in flight,
// so the open loop reads it every slice of requests (kSliceSeconds of
// offered load) and divides it over the slice. Between two slices the
// schedule pauses for kReferenceGap; the generator runs the HostReference
// kReferenceLead before the next slice is due, 18 ms after the last request
// of the slice was due, by when that request has usually resolved.
constexpr double kSliceSeconds = 2.0 / 3.0;
constexpr auto kReferenceGap = std::chrono::milliseconds(30);
constexpr auto kReferenceLead = std::chrono::milliseconds(12);

struct ServeGraph {
  std::shared_ptr<const CsrMatrix> csr;
  uint64_t handle = 0;
  std::vector<DenseMatrix> payloads;
  std::vector<uint64_t> digests;  // direct Session::Multiply per payload
  std::vector<double> direct_ms;  // its median time per payload
};

struct RequestSpec {
  int graph = 0;
  int payload = 0;
  int tenant = 0;
};

struct ServeConfig {
  int pool_sessions;
  double open_rate;        // offered requests per second in the open loop
  double slo_ms;           // latency limit of the reported wall-clock goodput
  int closed_outstanding;  // requests the closed loop keeps in flight
  std::function<RequestSpec(Pcg32*)> draw;
};

// One set-up: a fresh server on `runtime`, every plan built cold; `seconds`
// gets its CPU time.
std::unique_ptr<Server> SetUp(Runtime* runtime, const ServeConfig& cfg,
                              const std::vector<ServeGraph>& graphs, double* seconds,
                              int64_t* failed) {
  std::vector<CsrMatrix> copies;
  for (const ServeGraph& g : graphs) copies.push_back(*g.csr);
  runtime->plan_cache()->Clear();
  const double cpu0 = ProcessCpuMs();
  ServerOptions options;
  options.pool.max_sessions = cfg.pool_sessions;
  options.pool.session = SessionOptions().set_dtype(DataType::kFp32);
  options.default_tenant.max_queue = 1024;
  auto server = std::make_unique<Server>(runtime, options);
  for (const Tenant& t : kTenants) {
    TenantOptions topts = options.default_tenant;
    topts.weight = t.weight;
    server->ConfigureTenant(t.name, topts);
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    HCSPMM_CHECK(server->RegisterGraph(std::move(copies[i])) == graphs[i].handle);
  }
  // Ready to serve once every graph has answered one request (plans built).
  std::vector<Future<DenseMatrix>> warm;
  for (const ServeGraph& g : graphs) {
    warm.push_back(server->Submit({kTenants[0].name, g.handle, g.payloads[0]}));
  }
  for (const Future<DenseMatrix>& f : warm) *failed += f.status().ok() ? 0 : 1;
  *seconds = (ProcessCpuMs() - cpu0) / 1e3;
  return server;
}

double Flops(const ServeGraph& g, int payload) {
  return 2.0 * static_cast<double>(g.csr->nnz()) * g.payloads[payload].cols();
}

struct PhaseResult {
  std::vector<double> latency_ms;  // open loop, due -> resolved, wall clock
  std::vector<double> cpu_ms;      // open loop, CPU time per request, per slice
  double cpu_flops = 0.0;          // SpMM flops of the sliced requests
  double cpu_total_ms = 0.0;       // and their CPU time
  std::vector<double> lateness_ms;
  std::vector<double> direct_ms;  // direct Multiply time of each open-loop payload
  std::vector<double> submit_us;
  std::vector<double> stats_ms;
  int64_t queue_depth_max = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t within_slo = 0;
  double open_s = 0.0;
  int64_t closed_completed = 0;
  double closed_s = 0.0;
  double closed_flops = 0.0;
};

PhaseResult Measure(Server* server, const ServeConfig& cfg,
                    const std::vector<ServeGraph>& graphs, uint64_t seed,
                    double seconds, HostReference* ref, Tracer* tracer) {
  PhaseResult r;
  const auto ok_response = [&](const Future<DenseMatrix>& f, const RequestSpec& s) {
    return f.status().ok() && DigestOf(f.Get()) == graphs[s.graph].digests[s.payload];
  };

  std::atomic<bool> stop_scraper{false};
  std::thread scraper([&] {
    while (!stop_scraper.load()) {
      const Clock::time_point start = Clock::now();
      const ServerStats stats = server->stats();
      const Clock::time_point end = Clock::now();
      r.stats_ms.push_back(MsBetween(start, end));
      if (tracer != nullptr) tracer->Record("serve.stats", start, end);
      r.queue_depth_max = std::max(r.queue_depth_max, stats.queue_depth);
      std::this_thread::sleep_for(kScrapePeriod);
    }
  });

  // Open loop: Poisson arrivals at cfg.open_rate; a consumer thread checks
  // responses in submission order while resolution times are stamped by
  // future callbacks, so a slow check never shows up as latency.
  std::vector<Clock::duration> schedule =
      PoissonSchedule(cfg.open_rate, seconds * kOpenShare, seed);
  const size_t slice = static_cast<size_t>(std::lround(cfg.open_rate * kSliceSeconds));
  for (size_t i = 0; i < schedule.size(); ++i) schedule[i] += (i / slice) * kReferenceGap;
  r.open_s = seconds * kOpenShare +
             std::chrono::duration<double>((schedule.size() / slice) * kReferenceGap).count();
  OpenLoopClock clock(std::move(schedule));
  const size_t n = clock.size();
  std::vector<RequestSpec> specs(n);
  Pcg32 rng(seed, 7);
  for (RequestSpec& s : specs) s = cfg.draw(&rng);
  std::vector<char> good(n, 0);
  r.submit_us.resize(n);

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<std::pair<size_t, Future<DenseMatrix>>> queue;  // guarded by queue_mu
  bool generator_done = false;                               // guarded by queue_mu
  // The consumer's digest checks are the harness's work: its CPU time is
  // left out of the per-request figure.
  std::thread consumer([&] {
    for (;;) {
      std::pair<size_t, Future<DenseMatrix>> item;
      {
        std::unique_lock<std::mutex> lk(queue_mu);
        queue_cv.wait(lk, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      good[item.first] = ok_response(item.second, specs[item.first]) ? 1 : 0;
    }
  });
  // Process CPU minus the consumer's and the reference's, every slice.
  std::vector<double> cpu_marks;
  clock.Run(
      [&](size_t i) {
        if (i % slice == 0) {
          if (i > 0) {
            std::this_thread::sleep_until(clock.Due(i) - kReferenceLead);
            ref->Run();
          }
          cpu_marks.push_back(ProcessCpuMs() - ThreadCpuMs(consumer) - ref->total_ms());
        }
        const RequestSpec& s = specs[i];
        const ServeGraph& g = graphs[s.graph];
        return InferRequest{kTenants[s.tenant].name, g.handle, g.payloads[s.payload]};
      },
      [&](size_t i, InferRequest request) {
        const int64_t id = static_cast<int64_t>(i);
        const int64_t span = tracer != nullptr ? tracer->Begin("serve.request", -1, id) : -1;
        const Clock::time_point start = Clock::now();
        Future<DenseMatrix> f = server->Submit(std::move(request));
        const Clock::time_point end = Clock::now();
        r.submit_us[i] = MsBetween(start, end) * 1e3;
        if (tracer != nullptr) tracer->Record("serve.submit", start, end, span, id);
        f.OnReady([&clock, tracer, span, i] {
          if (tracer != nullptr) tracer->End(span);  // ended before WaitAllDone returns
          clock.MarkDone(i);
        });
        {
          std::lock_guard<std::mutex> lk(queue_mu);
          queue.emplace_back(i, std::move(f));
        }
        queue_cv.notify_one();
      });
  clock.WaitAllDone();
  {
    std::lock_guard<std::mutex> lk(queue_mu);
    generator_done = true;
  }
  queue_cv.notify_one();
  consumer.join();

  for (size_t k = 0; k + 1 < cpu_marks.size(); ++k) {
    const double ms = cpu_marks[k + 1] - cpu_marks[k];
    r.cpu_ms.push_back(ms / slice);
    r.cpu_total_ms += ms;
    for (size_t i = k * slice; i < (k + 1) * slice; ++i) {
      r.cpu_flops += Flops(graphs[specs[i].graph], specs[i].payload);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double latency = clock.LatencyMs(i);
    r.latency_ms.push_back(latency);
    r.lateness_ms.push_back(clock.LatenessMs(i));
    r.direct_ms.push_back(graphs[specs[i].graph].direct_ms[specs[i].payload]);
    ++r.attempted;
    if (!good[i]) ++r.failed;
    if (good[i] && latency <= cfg.slo_ms) ++r.within_slo;
  }

  // Closed loop: one generator keeps cfg.closed_outstanding requests in
  // flight and checks each response as it retires it.
  std::deque<std::pair<Future<DenseMatrix>, RequestSpec>> inflight;
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_end =
      closed_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * (1.0 - kOpenShare)));
  const auto retire_one = [&] {
    auto [f, s] = std::move(inflight.front());
    inflight.pop_front();
    ++r.attempted;
    if (ok_response(f, s)) {
      ++r.closed_completed;
      r.closed_flops += Flops(graphs[s.graph], s.payload);
    } else {
      ++r.failed;
    }
  };
  while (Clock::now() < closed_end) {
    const RequestSpec s = cfg.draw(&rng);
    const ServeGraph& g = graphs[s.graph];
    inflight.emplace_back(
        server->Submit({kTenants[s.tenant].name, g.handle, g.payloads[s.payload]}), s);
    if (static_cast<int>(inflight.size()) >= cfg.closed_outstanding) retire_one();
  }
  while (!inflight.empty()) retire_one();
  r.closed_s = MsBetween(closed_start, Clock::now()) / 1e3;

  stop_scraper.store(true);
  scraper.join();
  return r;
}

WorkloadResult RunServe(const ServeConfig& cfg, std::vector<ServeGraph> graphs,
                        const WorkloadArgs& args) {
  WorkloadResult res;
  EndToEnd e2e;
  Runtime runtime;  // declared before the server, so destroyed after it
  std::unique_ptr<Server> owned_server;
  ResetPeakRss();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    owned_server.reset();
    double seconds = 0.0;
    owned_server = SetUp(&runtime, cfg, graphs, &seconds, &res.failed);
    res.attempted += static_cast<int64_t>(graphs.size());
    e2e.setup_s.push_back(seconds);
  }
  Server* server = owned_server.get();

  // Ground truth: a direct Session::Multiply per payload (PlanCache hit),
  // and its median time over kDirectReps warm calls.
  constexpr int kDirectReps = 3;
  for (ServeGraph& g : graphs) {
    auto direct = runtime.OpenSession(
        g.csr, SessionOptions().set_dtype(DataType::kFp32));
    for (const DenseMatrix& x : g.payloads) {
      DenseMatrix z;
      HCSPMM_CHECK_OK(direct->Multiply(x, &z, nullptr));
      g.digests.push_back(DigestOf(z));
      std::vector<double> ms;
      for (int rep = 0; rep < kDirectReps; ++rep) {
        const Clock::time_point start = Clock::now();
        HCSPMM_CHECK_OK(direct->Multiply(x, &z, nullptr));
        ms.push_back(MsBetween(start, Clock::now()));
      }
      g.direct_ms.push_back(Summarize(ms).p50);
    }
  }

  const auto account = [&](const PhaseResult& p) {
    res.attempted += p.attempted;
    res.failed += p.failed;
  };
  // Wall-clock lines for reading; the CPU times feed the metrics.
  const auto describe = [&](const char* label, const PhaseResult& p, const HostReference& ref) {
    res.report.push_back(DescribeLatency(std::string(label) + " open-loop latency wall",
                                         Summarize(p.latency_ms)));
    char buf[640];
    std::snprintf(buf, sizeof(buf),
                  "%s: offered %.0f req/s for %.2f s; CPU per request over %zu slices "
                  "of %ld: p50 %.4f p90 %.4f ms, %.4f GFLOP per CPU second; p90_ms (sliced, "
                  "wall) %.4f ms; goodput within %.0f ms %.4f req/s; generator lateness p99 "
                  "%.4f ms; closed loop %lld done in %.2f s (%.4f req/s, %.4f GFLOP/s wall); "
                  "stats() p99 %.4f ms",
                  label, cfg.open_rate, p.open_s, p.cpu_ms.size(),
                  std::lround(cfg.open_rate * kSliceSeconds),
                  Quantile(p.cpu_ms, 0.5), Quantile(p.cpu_ms, 0.9),
                  p.cpu_flops / p.cpu_total_ms / 1e6, SlicedTail(p.latency_ms, kTailSlice),
                  cfg.slo_ms, static_cast<double>(p.within_slo) / p.open_s,
                  Summarize(p.lateness_ms).tail, static_cast<long long>(p.closed_completed),
                  p.closed_s, p.closed_completed / p.closed_s, p.closed_flops / p.closed_s / 1e9,
                  Summarize(p.stats_ms).tail);
    res.report.push_back(buf);
    res.report.push_back(DescribeBlocks(std::string(label) + " CPU per request", p.cpu_ms, 6));
    res.report.push_back(DescribeBlocks(std::string(label) + " host reference CPU",
                                        ref.samples_ms(), 6));
    res.report.push_back(DescribeReference(label, ref));
  };
  const ServeGraph& ref_graph = graphs.front();
  const DenseMatrix& ref_x = ref_graph.payloads.back();

  if (!args.trace) {
    HostReference ref = HostReference::Spmm(*ref_graph.csr, ref_x);
    const PhaseResult p = Measure(server, cfg, graphs, args.seed, args.seconds, &ref, nullptr);
    account(p);
    describe("measured", p, ref);
    e2e.cpu_p50_ms = Quantile(p.cpu_ms, 0.5);
    e2e.cpu_tail_ms = Quantile(p.cpu_ms, 0.9);
    e2e.reference_ms = ref.MedianMs();
    res.metrics = EndToEndMetrics(e2e);
  } else {
    HostReference plain_ref = HostReference::Spmm(*ref_graph.csr, ref_x);
    const PhaseResult plain =
        Measure(server, cfg, graphs, args.seed, args.seconds / 2, &plain_ref, nullptr);
    account(plain);
    describe("untraced half", plain, plain_ref);

    const SessionPoolStats pool0 = server->pool()->stats();
    const PlanCacheStats cache0 = runtime.plan_cache_stats();
    Tracer tracer;
    // The same seed, so both halves replay the same schedule and request mix.
    HostReference traced_ref = HostReference::Spmm(*ref_graph.csr, ref_x);
    const PhaseResult traced =
        Measure(server, cfg, graphs, args.seed, args.seconds / 2, &traced_ref, &tracer);
    account(traced);
    describe("traced half", traced, traced_ref);
    const Summary traced_lat = Summarize(traced.latency_ms);
    const SessionPoolStats pool1 = server->pool()->stats();
    const PlanCacheStats cache1 = runtime.plan_cache_stats();
    const ServerStats stats = server->stats();

    PerLayer layer;
    layer["serve.submit_us"] = Summarize(traced.submit_us).tail;
    layer["serve.avg_batch"] = stats.avg_batch_size;
    layer["serve.batches"] = static_cast<double>(stats.batches);
    layer["serve.stats_ms"] = Summarize(traced.stats_ms).tail;
    layer["serve.queue_depth_max"] = static_cast<double>(traced.queue_depth_max);
    const int64_t acquires = (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses);
    layer["pool.hit_frac"] =
        acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires : 0.0;
    layer["pool.acquires"] = static_cast<double>(acquires);
    layer["pool.evicted"] = static_cast<double>(pool1.evicted - pool0.evicted);
    const int64_t lookups =
        (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    layer["plan_cache.hit_frac"] =
        lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0;
    layer["plan_cache.lookups"] = static_cast<double>(lookups);
    layer["plan_cache.bytes_in_use"] = cache1.bytes_in_use / 1e6;
    layer["harness.gen_lag_ms"] = Summarize(traced.lateness_ms).tail;
    layer["harness.samples"] = static_cast<double>(traced_lat.n);
    layer["harness.tail_pct"] = traced_lat.tail_pct;
    layer["harness.trace_overhead_frac"] =
        (Quantile(traced.cpu_ms, 0.5) / traced_ref.MedianMs()) /
            (Quantile(plain.cpu_ms, 0.5) / plain_ref.MedianMs()) - 1.0;

    // Served minus direct: both p50s over the same open-loop request mix.
    layer["serve.overhead_ms"] = traced_lat.p50 - Summarize(traced.direct_ms).p50;
    // Probe every graph with the payload the served requests used first.
    std::vector<ProbeTarget> targets;
    for (const ServeGraph& g : graphs) targets.push_back({g.csr, &g.payloads[0]});
    ProbeLayers(targets, tracer, &layer);
    res.metrics = PerLayerMetrics(layer);
    res.spans = tracer.spans();
  }
  res.correct = res.failed == 0;
  return res;
}

}  // namespace

// Two resident graphs, small dim-32 requests from four weighted tenants:
// admission, WFQ, the batch window and scatter dominate; the pool and the
// plan cache never miss.
WorkloadResult RunServeHot(const WorkloadArgs& args) {
  constexpr int32_t kDim = 32;
  constexpr int kPayloads = 8;
  Pcg32 graph_rng(kGraphSeed, 3);
  std::vector<CsrMatrix> matrices;
  matrices.push_back(GcnNormalized(RMat(11, 40000, kDim, &graph_rng).adjacency));
  matrices.push_back(GenerateUniformSparse(1536, 1536, 0.01, &graph_rng));
  Pcg32 rng(args.seed, 3);
  std::vector<ServeGraph> graphs;
  for (CsrMatrix& m : matrices) {
    ServeGraph g;
    g.handle = hcspmm::FingerprintCsr(m);
    g.csr = std::make_shared<const CsrMatrix>(std::move(m));
    for (int p = 0; p < kPayloads; ++p) {
      g.payloads.push_back(GenerateDense(g.csr->cols(), kDim, &rng));
    }
    graphs.push_back(std::move(g));
  }
  ServeConfig cfg{/*pool_sessions=*/4, /*open_rate=*/1200.0,
                  /*slo_ms=*/20.0, /*closed_outstanding=*/16,
                  [](Pcg32* r) {
                    return RequestSpec{static_cast<int>(r->NextBounded(2)),
                                       static_cast<int>(r->NextBounded(kPayloads)),
                                       static_cast<int>(r->NextBounded(kNumTenants))};
                  }};
  return RunServe(cfg, std::move(graphs), args);
}

// All 14 paper datasets at bench scale, Zipf-skewed graph choice, mixed
// dims, a pool budget of 4 sessions: batches rarely form and the pool keeps
// missing, so the reopen path (fingerprint, pool LRU, PlanCache hit) counts.
WorkloadResult RunServeChurn(const WorkloadArgs& args) {
  constexpr int64_t kMaxEdges = 100000;
  constexpr int32_t kDims[] = {16, 32, 64};
  constexpr double kZipfS = 0.6;
  std::vector<ServeGraph> graphs;
  Pcg32 rng(args.seed, 5);
  for (const DatasetSpec& spec : AllDatasets()) {
    ServeGraph g;
    CsrMatrix m = GcnNormalized(LoadDatasetCapped(spec, kMaxEdges, kGraphSeed).adjacency);
    g.handle = hcspmm::FingerprintCsr(m);
    g.csr = std::make_shared<const CsrMatrix>(std::move(m));
    for (int32_t dim : kDims) g.payloads.push_back(GenerateDense(g.csr->cols(), dim, &rng));
    graphs.push_back(std::move(g));
  }
  // Zipf over the datasets in paper order: rank k has weight 1 / k^s.
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t k = 1; k <= graphs.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kZipfS);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  ServeConfig cfg{/*pool_sessions=*/4, /*open_rate=*/150.0,
                  /*slo_ms=*/50.0, /*closed_outstanding=*/8,
                  [cdf](Pcg32* r) {
                    const double u = r->NextDouble();
                    const int graph = static_cast<int>(
                        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
                    return RequestSpec{std::min<int>(graph, static_cast<int>(cdf.size()) - 1),
                                       static_cast<int>(r->NextBounded(3)),
                                       static_cast<int>(r->NextBounded(kNumTenants))};
                  }};
  return RunServe(cfg, std::move(graphs), args);
}

}  // namespace perfbench
