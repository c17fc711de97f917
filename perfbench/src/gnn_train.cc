// gnn_train: GCN training epochs (GcnModel, async backward pipeline on) on
// a synthesized Pubmed with scaled feature dims. The only workload that
// exercises src/gnn — dense GEMMs, the optimizer, backward overlap — so
// SpMM is a minority of each epoch and a kernel gain shows diluted.
#include <cstdio>
#include <cstring>

#include "gnn/dense_ops.h"
#include "gnn/gcn.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "runtime/runtime.h"
#include "sparse/generate.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

using namespace hcspmm;

namespace {

constexpr char kDataset[] = "PM";
constexpr int32_t kFeatureDim = 64;  // Pubmed's 500, scaled down
constexpr int32_t kHidden = 32;
constexpr int kEpochsPerModel = 50;  // each model trains this long, then restarts

GnnConfig Config(uint64_t seed, bool async_pipeline) {
  GnnConfig cfg;
  cfg.hidden_dim = kHidden;
  cfg.learning_rate = 0.3;
  cfg.seed = seed;
  cfg.async_pipeline = async_pipeline;
  return cfg;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

struct PhaseResult {
  std::vector<double> epoch_ms;  // wall clock
  std::vector<double> epoch_cpu_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0.0;
};

// Train fresh models for kEpochsPerModel epochs each until `seconds` pass;
// epoch e of every model must reproduce reference loss e bit for bit.
PhaseResult Measure(const Graph& graph, AggregatorRef agg, const GnnConfig& cfg,
                    std::unique_ptr<GcnModel> model, const std::vector<double>& reference,
                    double seconds, HostReference* ref, Tracer* tracer) {
  PhaseResult r;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (int64_t e = 0; Clock::now() < end; ++e) {
    if (model == nullptr) model = std::make_unique<GcnModel>(&graph, cfg, agg);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuMs();
    double loss = 0.0;
    if (tracer == nullptr) {
      loss = model->TrainEpoch().loss;
    } else {
      // TrainEpoch's steps, one span each.
      ScopedSpan epoch(tracer, "gnn.epoch", -1, e);
      PhaseBreakdown fwd, bwd;
      DenseMatrix logits, grad;
      {
        ScopedSpan span(tracer, "gnn.forward", epoch.id(), e);
        logits = model->Forward(&fwd);
      }
      {
        ScopedSpan span(tracer, "gnn.loss", epoch.id(), e);
        loss = SoftmaxCrossEntropy(logits, graph.labels, &grad);
        (void)PredictionAccuracy(logits, graph.labels);
      }
      {
        ScopedSpan span(tracer, "gnn.backward", epoch.id(), e);
        model->Backward(grad, &bwd);
      }
    }
    r.epoch_cpu_ms.push_back(ProcessCpuMs() - cpu0);
    r.epoch_ms.push_back(MsBetween(t0, Clock::now()));
    ++r.attempted;
    if (!SameBits(loss, reference[e % kEpochsPerModel])) ++r.failed;
    if (e % kEpochsPerModel == kEpochsPerModel - 1) model.reset();
    if (e % kUnitsPerReference == kUnitsPerReference - 1) ref->Run();
  }
  r.seconds = MsBetween(start, Clock::now()) / 1e3;
  return r;
}

}  // namespace

WorkloadResult RunGnnTrain(const WorkloadArgs& args) {
  auto spec = DatasetByCode(kDataset);
  HCSPMM_CHECK_OK(spec.status());
  Graph graph = LoadDataset(spec.ValueOrDie(), 1.0, kGraphSeed);
  Pcg32 rng(args.seed, 13);
  graph.feature_dim = kFeatureDim;
  for (int32_t v = 0; v < graph.num_vertices; ++v) {
    graph.labels[v] = (v / 64) % graph.num_classes;  // learnable communities
  }
  AttachSyntheticFeatures(&graph, &rng);
  auto abar = std::make_shared<const CsrMatrix>(GcnNormalized(graph.adjacency));
  const SessionOptions options;

  Runtime runtime;
  // Reference losses: the same training with the async pipeline off.
  std::vector<double> reference;
  {
    auto session = runtime.OpenSession(abar, options);
    GcnModel model(&graph, Config(args.seed, false), session.get());
    for (int e = 0; e < kEpochsPerModel; ++e) reference.push_back(model.TrainEpoch().loss);
  }

  WorkloadResult res;
  EndToEnd e2e;
  const GnnConfig cfg = Config(args.seed, true);
  std::unique_ptr<GcnModel> model;
  std::shared_ptr<Session> session;
  ResetPeakRss();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    session.reset();
    runtime.plan_cache()->Clear();  // every set-up builds its plan cold
    const double cpu0 = ProcessCpuMs();
    session = runtime.OpenSession(abar, options);
    const Status st = session->WaitReady();
    model = std::make_unique<GcnModel>(&graph, cfg, session.get());
    e2e.setup_s.push_back((ProcessCpuMs() - cpu0) / 1e3);
    ++res.attempted;
    if (!st.ok()) ++res.failed;
  }

  // Per epoch: every layer's out dim is aggregated once forward and once
  // backward, at 2 * nnz flops per column.
  const double epoch_flops = 2.0 * static_cast<double>(abar->nnz()) * 2.0 *
                             (kHidden + graph.num_classes);
  // Wall-clock lines for reading; the CPU times feed the metrics.
  const auto account = [&](const PhaseResult& p, const HostReference& ref, const char* label) {
    res.attempted += p.attempted;
    res.failed += p.failed;
    const std::string what = std::string(label) + " epoch";
    res.report.push_back(DescribeLatency(what + " wall", Summarize(p.epoch_ms)));
    res.report.push_back(DescribeLatency(what + " CPU", Summarize(p.epoch_cpu_ms)));
    res.report.push_back(DescribeBlocks(what + " CPU", p.epoch_cpu_ms, 6));
    res.report.push_back(DescribeBlocks(std::string(label) + " host reference CPU",
                                        ref.samples_ms(), 6));
    res.report.push_back(DescribeReference(label, ref));
    double cpu_ms = 0.0;
    for (double ms : p.epoch_cpu_ms) cpu_ms += ms;
    const double n = static_cast<double>(p.epoch_ms.size());
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s: %.4f epochs/s, %.4f SpMM GFLOP/s wall clock, %.4f per CPU second",
                  label, n / p.seconds, epoch_flops * n / p.seconds / 1e9,
                  epoch_flops * n / (cpu_ms / 1e3) / 1e9);
    res.report.push_back(buf);
  };

  if (!args.trace) {
    HostReference ref = HostReference::DenseProduct(graph.features);
    const PhaseResult p = Measure(graph, session.get(), cfg, std::move(model), reference,
                                  args.seconds, &ref, nullptr);
    account(p, ref, "measured");
    e2e.cpu_p50_ms = Summarize(p.epoch_cpu_ms).p50;
    e2e.cpu_tail_ms = UnitTail(p.epoch_cpu_ms, "measured epoch", &res.report);
    e2e.reference_ms = ref.MedianMs();
    res.metrics = EndToEndMetrics(e2e);
  } else {
    HostReference plain_ref = HostReference::DenseProduct(graph.features);
    const PhaseResult plain = Measure(graph, session.get(), cfg, std::move(model), reference,
                                      args.seconds / 2, &plain_ref, nullptr);
    account(plain, plain_ref, "untraced half");
    const PlanCacheStats cache = runtime.plan_cache_stats();
    Tracer tracer;
    HostReference traced_ref = HostReference::DenseProduct(graph.features);
    const PhaseResult traced = Measure(graph, session.get(), cfg, nullptr, reference,
                                       args.seconds / 2, &traced_ref, &tracer);
    account(traced, traced_ref, "traced half");
    const Summary traced_cpu = Summarize(traced.epoch_cpu_ms);
    PerLayer layer;
    layer["gnn.forward_ms"] = SpanP50Ms(tracer, "gnn.forward");
    layer["gnn.backward_ms"] = SpanP50Ms(tracer, "gnn.backward");
    const int64_t lookups = cache.hits + cache.misses;
    layer["plan_cache.hit_frac"] =
        lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    layer["plan_cache.lookups"] = static_cast<double>(lookups);
    layer["plan_cache.bytes_in_use"] = cache.bytes_in_use / 1e6;
    layer["harness.samples"] = static_cast<double>(traced_cpu.n);
    layer["harness.tail_pct"] = traced_cpu.tail_pct;
    layer["harness.trace_overhead_frac"] =
        (traced_cpu.p50 / traced_ref.MedianMs()) /
            (Summarize(plain.epoch_cpu_ms).p50 / plain_ref.MedianMs()) - 1.0;
    const DenseMatrix x = GenerateDense(abar->cols(), kHidden, &rng);
    ProbeLayers({{abar, &x}}, tracer, &layer);
    res.metrics = PerLayerMetrics(layer);
    res.spans = tracer.spans();
  }
  res.correct = res.failed == 0;
  return res;
}

}  // namespace perfbench
