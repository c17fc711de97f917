// spmm_delta: no server. One caller runs closed-loop Session::Multiply at
// dim 64 on a cold-opened RMAT scale-17 graph (~2M nnz) and pushes a small
// edge-delta batch through Session::ApplyDeltas every few multiplies, so
// kernels, SIMD and ParallelFor dominate while plan patching sits beside
// them on the same plan layer.
#include <cstdio>
#include <set>
#include <utility>

#include "graph/generators.h"
#include "graph/graph.h"
#include "runtime/runtime.h"
#include "sparse/generate.h"
#include "stream/delta.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

using namespace hcspmm;

namespace {

constexpr int32_t kScale = 17;
constexpr int64_t kEdges = 1000000;
constexpr int32_t kDim = 64;
constexpr int kPayloads = 2;
constexpr int kMultipliesPerDelta = 8;
constexpr int kDeltasPerBatch = 64;
constexpr int kDeleteEvery = 4;  // one delta in four deletes an existing edge
constexpr double kMinMultiplyMs = 2.0;

// `count` batches of random upserts plus deletes of base edges. No
// (row, col) appears twice across all batches, so every batch applies
// cleanly after any prefix of the others and none needs the evolving CSR.
std::vector<DeltaBatch> MakeBatches(const CsrMatrix& base, size_t count, Pcg32* rng) {
  std::set<std::pair<int32_t, int32_t>> used;
  std::vector<DeltaBatch> out;
  while (out.size() < count) {
    std::vector<EdgeDelta> upserts;
    std::vector<EdgeDelta> deletes;
    while (static_cast<int>(upserts.size() + deletes.size()) < kDeltasPerBatch) {
      const int32_t row = static_cast<int32_t>(rng->NextBounded(base.rows()));
      if ((upserts.size() + deletes.size()) % kDeleteEvery == 0) {
        const int32_t begin = base.row_ptr()[row];
        const int32_t end = base.row_ptr()[row + 1];
        if (begin == end) continue;
        const int32_t col = base.col_ind()[begin + rng->NextBounded(end - begin)];
        if (used.insert({row, col}).second) deletes.push_back({row, col, 0.0f});
      } else {
        const int32_t col = static_cast<int32_t>(rng->NextBounded(base.cols()));
        const float val = 0.25f + static_cast<float>(rng->NextBounded(1000)) / 1000.0f;
        if (used.insert({row, col}).second) upserts.push_back({row, col, val});
      }
    }
    auto batch = DeltaBatch::Make(std::move(upserts), std::move(deletes));
    HCSPMM_CHECK_OK(batch.status());
    out.push_back(std::move(batch.ValueOrDie()));
  }
  return out;
}

struct PhaseResult {
  std::vector<double> multiply_ms;  // wall clock
  std::vector<double> multiply_cpu_ms;
  std::vector<double> apply_ms;
  std::vector<double> dirty_frac;
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0.0;
};

PhaseResult Measure(Session* session, const std::vector<DenseMatrix>& payloads,
                    const std::vector<DeltaBatch>& batches, size_t* next_batch,
                    double seconds, HostReference* ref, Tracer* tracer) {
  PhaseResult r;
  ScopedSpan phase(tracer, "harness.phase");
  DenseMatrix z;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (int64_t i = 0; Clock::now() < end; ++i) {
    ++r.attempted;
    const Clock::time_point t0 = Clock::now();
    if (i % kMultipliesPerDelta == kMultipliesPerDelta - 1) {
      HCSPMM_CHECK(*next_batch < batches.size()) << "delta batches exhausted";
      DeltaApplyStats stats;
      const Status st = session->ApplyDeltas(batches[(*next_batch)++], &stats);
      const Clock::time_point t1 = Clock::now();
      if (!st.ok()) ++r.failed;
      r.apply_ms.push_back(MsBetween(t0, t1));
      r.dirty_frac.push_back(static_cast<double>(stats.dirty_windows) /
                             std::max<int64_t>(1, stats.total_windows));
      if (tracer != nullptr) tracer->Record("stream.apply_deltas", t0, t1, phase.id(), i);
    } else {
      const double cpu0 = ProcessCpuMs();
      const Status st = session->Multiply(payloads[i % kPayloads], &z, nullptr);
      const double cpu1 = ProcessCpuMs();
      const Clock::time_point t1 = Clock::now();
      if (!st.ok()) ++r.failed;
      r.multiply_ms.push_back(MsBetween(t0, t1));
      r.multiply_cpu_ms.push_back(cpu1 - cpu0);
      if (tracer != nullptr) tracer->Record("runtime.multiply", t0, t1, phase.id(), i);
    }
    if (i % kUnitsPerReference == kUnitsPerReference - 1) ref->Run();
  }
  r.seconds = MsBetween(start, Clock::now()) / 1e3;
  return r;
}

}  // namespace

WorkloadResult RunSpmmDelta(const WorkloadArgs& args) {
  Pcg32 graph_rng(kGraphSeed, 9);
  auto base = std::make_shared<const CsrMatrix>(
      GcnNormalized(RMat(kScale, kEdges, kDim, &graph_rng).adjacency));
  Pcg32 rng(args.seed, 9);
  std::vector<DenseMatrix> payloads;
  for (int p = 0; p < kPayloads; ++p) payloads.push_back(GenerateDense(base->cols(), kDim, &rng));
  // Enough batches for a multiply far faster than any seen (kMinMultiplyMs).
  const std::vector<DeltaBatch> batches = MakeBatches(
      *base,
      static_cast<size_t>(args.seconds * 1000.0 / kMinMultiplyMs / kMultipliesPerDelta) + 1,
      &rng);

  WorkloadResult res;
  EndToEnd e2e;
  const SessionOptions options = SessionOptions().set_dtype(DataType::kFp32);
  Runtime runtime;
  std::shared_ptr<Session> session;
  ResetPeakRss();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    runtime.plan_cache()->Clear();  // every set-up builds its plan cold
    const double cpu0 = ProcessCpuMs();
    session = runtime.OpenSession(base, options);
    const Status st = session->WaitReady();
    e2e.setup_s.push_back((ProcessCpuMs() - cpu0) / 1e3);
    ++res.attempted;
    if (!st.ok()) ++res.failed;
  }

  size_t next_batch = 0;
  const double flops = 2.0 * static_cast<double>(base->nnz()) * kDim;
  // Wall-clock lines for reading; the CPU times feed the metrics.
  const auto account = [&](const PhaseResult& p, const HostReference& ref, const char* label) {
    res.attempted += p.attempted;
    res.failed += p.failed;
    const std::string what = std::string(label) + " Session::Multiply";
    res.report.push_back(DescribeLatency(what + " wall", Summarize(p.multiply_ms)));
    res.report.push_back(DescribeLatency(what + " CPU", Summarize(p.multiply_cpu_ms)));
    res.report.push_back(DescribeBlocks(what + " CPU", p.multiply_cpu_ms, 6));
    res.report.push_back(DescribeBlocks(std::string(label) + " host reference CPU",
                                        ref.samples_ms(), 6));
    res.report.push_back(DescribeReference(label, ref));
    res.report.push_back(DescribeLatency(std::string(label) + " Session::ApplyDeltas wall",
                                         Summarize(p.apply_ms)));
    double cpu_ms = 0.0;
    for (double ms : p.multiply_cpu_ms) cpu_ms += ms;
    const double n = static_cast<double>(p.multiply_ms.size());
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s: %.4f multiplies/s, %.4f GFLOP/s wall clock, %.4f GFLOP per CPU second",
                  label, n / p.seconds, flops * n / p.seconds / 1e9,
                  flops * n / (cpu_ms / 1e3) / 1e9);
    res.report.push_back(buf);
  };

  PerLayer layer;
  Tracer tracer;
  if (!args.trace) {
    HostReference ref = HostReference::Spmm(*base, payloads[0]);
    const PhaseResult p =
        Measure(session.get(), payloads, batches, &next_batch, args.seconds, &ref, nullptr);
    account(p, ref, "measured");
    e2e.cpu_p50_ms = Summarize(p.multiply_cpu_ms).p50;
    e2e.cpu_tail_ms = UnitTail(p.multiply_cpu_ms, "measured Session::Multiply", &res.report);
    e2e.reference_ms = ref.MedianMs();
  } else {
    HostReference plain_ref = HostReference::Spmm(*base, payloads[0]);
    const PhaseResult plain = Measure(session.get(), payloads, batches, &next_batch,
                                      args.seconds / 2, &plain_ref, nullptr);
    account(plain, plain_ref, "untraced half");
    const PlanCacheStats cache0 = runtime.plan_cache_stats();
    HostReference traced_ref = HostReference::Spmm(*base, payloads[0]);
    const PhaseResult traced = Measure(session.get(), payloads, batches, &next_batch,
                                       args.seconds / 2, &traced_ref, &tracer);
    account(traced, traced_ref, "traced half");
    const PlanCacheStats cache1 = runtime.plan_cache_stats();
    const Summary traced_cpu = Summarize(traced.multiply_cpu_ms);
    layer["stream.delta_apply_ms"] = SpanP50Ms(tracer, "stream.apply_deltas");
    layer["stream.dirty_window_frac"] = Summarize(traced.dirty_frac).p50;
    const int64_t lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    layer["plan_cache.hit_frac"] =
        lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0;
    layer["plan_cache.lookups"] = static_cast<double>(lookups);
    layer["plan_cache.bytes_in_use"] = cache1.bytes_in_use / 1e6;
    layer["harness.samples"] = static_cast<double>(traced_cpu.n);
    layer["harness.tail_pct"] = traced_cpu.tail_pct;
    layer["harness.trace_overhead_frac"] =
        (traced_cpu.p50 / traced_ref.MedianMs()) /
            (Summarize(plain.multiply_cpu_ms).p50 / plain_ref.MedianMs()) - 1.0;
  }

  // Correctness gate: after the last delta the patched session must equal,
  // bit for bit, a cold session opened on the CSR rebuilt from scratch.
  CsrMatrix rebuilt = *base;
  for (size_t b = 0; b < next_batch; ++b) {
    auto merged = ApplyDeltasToCsr(rebuilt, batches[b]);
    HCSPMM_CHECK_OK(merged.status());
    rebuilt = std::move(merged.ValueOrDie());
  }
  DenseMatrix z_patched;
  HCSPMM_CHECK_OK(session->Multiply(payloads[0], &z_patched, nullptr));
  Runtime cold_runtime;
  std::shared_ptr<Session> cold;
  {
    ScopedSpan span(args.trace ? &tracer : nullptr, "stream.cold_build");
    cold = cold_runtime.OpenSession(&rebuilt, options);
    HCSPMM_CHECK_OK(cold->WaitReady());
  }
  DenseMatrix z_cold;
  HCSPMM_CHECK_OK(cold->Multiply(payloads[0], &z_cold, nullptr));
  ++res.attempted;
  const bool identical = BitIdentical(z_patched, z_cold);
  if (!identical) ++res.failed;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu delta batches applied; patched vs cold rebuild: %s",
                next_batch, identical ? "bit-identical" : "MISMATCH");
  res.report.push_back(buf);

  if (!args.trace) {
    res.metrics = EndToEndMetrics(e2e);
  } else {
    layer["stream.cold_build_ms"] = SpanP50Ms(tracer, "stream.cold_build");
    ProbeLayers({{base, &payloads[0]}}, tracer, &layer);
    res.metrics = PerLayerMetrics(layer);
    res.spans = tracer.spans();
  }
  res.correct = res.failed == 0;
  return res;
}

}  // namespace perfbench
