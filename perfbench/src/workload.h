// Shared shapes of the four workloads: their arguments, their result (the
// counts the result line reports, the metrics, readable report lines, spans),
// the metric catalogue, and the layer probe every traced run ends with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "reference.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "trace.h"

namespace perfbench {

struct WorkloadArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;  ///< errors + kOverloaded + deadline misses + mismatches
  std::vector<Metric> metrics;
  std::vector<std::string> report;  ///< readable lines printed before the JSON
  std::vector<Span> spans;          ///< traced mode only
};

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupReps = 9;

/// Seed of every synthesized graph. The graphs stand in for the paper's
/// fixed real-world datasets, so they are the same in every run; --seed
/// varies what runs over them (payloads, features, request mix, arrival
/// schedule, edge deltas, model initialization).
inline constexpr uint64_t kGraphSeed = 42;

/// Sliced tails: the samples, in time order, are cut into consecutive
/// slices and the median over the slices of each slice's Summary::tail (its
/// highest percentile with ten samples beyond it) is reported, so a burst of
/// host load lifts the tail of the slice it falls in, not the reported
/// value. A whole-run p99 rests on a few rare events and moved by 0.3-0.5 of
/// its median between seeds. Wall-clock latency is cut into slices of
/// kTailSlice samples (each slice's tail is its p90). The CPU time per unit
/// of the closed-loop workloads is cut into kTailSlices slices: a 20 s
/// spmm_delta run under heavy steal has ~200 units, so with 100-unit slices
/// one burst owned the tail of a whole run.
inline constexpr size_t kTailSlice = 100;
inline constexpr size_t kTailSlices = 5;

/// Units of work between two runs of the HostReference in the closed-loop
/// workloads.
inline constexpr int kUnitsPerReference = 4;

/// The end-to-end figures every workload produces, whatever its unit of
/// work (a served request, a Session::Multiply call, a training epoch).
///
/// Times are on the CPU clock (ProcessCpuMs): the CPU time every thread of
/// the process spent on the work, without the time the host took the vCPUs
/// away, which on a shared host with 4-thread ParallelFor barriers stretched
/// a training epoch's wall time up to 2x. The CPU time still moves with the
/// host (neighbours share the cores' caches and the memory bus), so the
/// per-unit figures are reported in multiples of the HostReference run
/// interleaved with the units. Wall-clock figures go to the report lines.
struct EndToEnd {
  std::vector<double> setup_s;  ///< CPU seconds, one per set-up repetition
  double cpu_p50_ms = 0.0;      ///< median CPU time per unit of work
  double cpu_tail_ms = 0.0;     ///< its tail (see each workload)
  double reference_ms = 0.0;    ///< median HostReference CPU time
};

/// The end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);

/// Readable summary of one latency distribution (median, quartiles, tail
/// with its percentile, sample count).
std::string DescribeLatency(const std::string& label, const Summary& s);

/// Medians of `blocks` consecutive equal blocks of `samples` (in time
/// order), on one line: drift of the host's speed within a run shows here.
std::string DescribeBlocks(const std::string& label, const std::vector<double>& samples,
                           size_t blocks);

/// SlicedTail of a closed-loop workload's CPU times per unit over
/// kTailSlices slices; adds a report line naming the percentile each
/// slice's tail is.
double UnitTail(const std::vector<double>& cpu_ms, const std::string& label,
                std::vector<std::string>* report);

/// Readable summary of the HostReference samples of one phase.
std::string DescribeReference(const std::string& label, const HostReference& ref);

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run reports all of them; a layer the workload does not exercise
/// reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();

/// Per-layer values being filled in by a traced run.
using PerLayer = std::map<std::string, double>;

/// Catalogue order, missing entries as 0; adds process.rss_peak_mb.
std::vector<Metric> PerLayerMetrics(PerLayer values);

/// p50 (ms) of the spans called `name`, 0 when there are none.
double SpanP50Ms(const Tracer& tracer, const std::string& name);

/// One operand the layer probe exercises: a matrix and a feature payload.
struct ProbeTarget {
  std::shared_ptr<const hcspmm::CsrMatrix> csr;
  const hcspmm::DenseMatrix* x = nullptr;
};

/// Time each library layer directly on the given operands, one span per
/// call: FingerprintCsr, BuildWindows, Preprocess, cold and PlanCache-hit
/// Runtime::OpenSession + WaitReady, Session::Multiply at the hardware
/// thread count and at 1 thread, MultiplyAsync on 2 streams, MultiplyBatch
/// of 8, and Multiply with packed indices and with fp16 features. Fills the
/// exec./core./runtime./kernels./gpusim. entries of `out` (medians across
/// targets).
void ProbeLayers(const std::vector<ProbeTarget>& targets, Tracer& tracer, PerLayer* out);

/// Bitwise identity of two fp32 matrices.
bool BitIdentical(const hcspmm::DenseMatrix& a, const hcspmm::DenseMatrix& b);

/// FNV-1a over shape and bytes: lets a workload keep a 64-bit digest of a
/// reference result instead of the result itself.
uint64_t DigestOf(const hcspmm::DenseMatrix& m);

/// Peak resident set size of this process (VmHWM), MB. Every run prints
/// it; it is not an end-to-end metric because glibc keeps freed memory in
/// per-thread arenas in amounts that depend on lock timing between threads:
/// on a loaded host gnn_train's peak ranged from 100 to 185 MB between runs.
double PeakRssMb();

/// Restart the VmHWM peak from the current RSS, so rss_peak_mb covers the
/// workload (set-up onward) and not its input generation.
void ResetPeakRss();

WorkloadResult RunServeHot(const WorkloadArgs& args);
WorkloadResult RunServeChurn(const WorkloadArgs& args);
WorkloadResult RunSpmmDelta(const WorkloadArgs& args);
WorkloadResult RunGnnTrain(const WorkloadArgs& args);

}  // namespace perfbench
