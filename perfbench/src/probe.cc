// Layer probe: times each library layer directly on a workload's operands.
// It runs only in traced mode, after the measured phases.
#include <algorithm>

#include "core/core_selector.h"
#include "core/preprocess.h"
#include "core/row_window.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "gpusim/device.h"
#include "runtime/runtime.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

using namespace hcspmm;

namespace {

constexpr int kReps = 3;
constexpr int kMultiplyReps = 5;
constexpr int kBatch = 8;

template <typename Fn>
void Repeat(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(&tracer, name);
    fn();
  }
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

}  // namespace

void ProbeLayers(const std::vector<ProbeTarget>& targets, Tracer& tracer, PerLayer* out) {
  Runtime probe_rt;  // its own pool and plan cache: cold opens stay cold
  const DeviceSpec dev = Rtx3090();
  const SelectorModel selector = DefaultSelectorModelFor(dev.name);
  const SessionOptions options = SessionOptions().set_dtype(DataType::kFp32);
  const int threads = ThreadPool::HardwareThreads();

  std::vector<double> parallel_eff, async_ratio, batch_ratio, tensor_frac,
      bytes_per_nnz, sim_us, packed_ratio, fp16_ratio;
  for (const ProbeTarget& t : targets) {
    const CsrMatrix& csr = *t.csr;
    Repeat(tracer, "exec.fingerprint", kReps, [&] { (void)FingerprintCsr(csr); });
    Repeat(tracer, "core.build_windows", kReps, [&] { (void)BuildWindows(csr); });
    Repeat(tracer, "core.preprocess", kReps,
           [&] { HCSPMM_CHECK_OK(Preprocess(csr, dev, selector).status()); });
    Repeat(tracer, "runtime.open_cold", kReps, [&] {
      probe_rt.plan_cache()->Clear();
      HCSPMM_CHECK_OK(probe_rt.OpenSession(t.csr, options)->WaitReady());
    });
    std::shared_ptr<Session> session;
    Repeat(tracer, "runtime.open_hit", kReps, [&] {
      session = probe_rt.OpenSession(t.csr, options);
      HCSPMM_CHECK_OK(session->WaitReady());
    });

    DenseMatrix z;
    KernelProfile profile;
    HCSPMM_CHECK_OK(session->Multiply(*t.x, &z, &profile));  // warm, metered
    bytes_per_nnz.push_back(profile.HostBytesPerNnz());
    sim_us.push_back(profile.TotalUs());
    const HybridPlan* plan = session->plan();
    tensor_frac.push_back(static_cast<double>(plan->windows_tensor) /
                          std::max<int64_t>(1, plan->windows_tensor + plan->windows_cuda));

    std::vector<double> multiply_ms;
    for (int r = 0; r < kMultiplyReps; ++r) {
      const Clock::time_point start = Clock::now();
      HCSPMM_CHECK_OK(session->Multiply(*t.x, &z, nullptr));
      multiply_ms.push_back(MsBetween(start, Clock::now()));
      tracer.Record("runtime.multiply", start, Clock::now());
    }
    const double multiply = Median(multiply_ms);

    // The optional storage paths against plain fp32 on the same operand (no
    // workload enables them). Packed indices need column-sorted rows; an
    // operand that cannot take a path is skipped.
    const auto variant_ratio = [&](const SessionOptions& variant, const char* name,
                                   std::vector<double>* ratios) {
      std::shared_ptr<Session> s = probe_rt.OpenSession(t.csr, variant);
      if (!s->WaitReady().ok()) return;
      std::vector<double> ms;
      for (int r = 0; r < kReps; ++r) {
        const Clock::time_point start = Clock::now();
        HCSPMM_CHECK_OK(s->Multiply(*t.x, &z, nullptr));
        ms.push_back(MsBetween(start, Clock::now()));
        tracer.Record(name, start, Clock::now());
      }
      ratios->push_back(Median(ms) / multiply);
    };
    variant_ratio(SessionOptions(options).set_compress_indices(true),
                  "kernels.multiply_packed", &packed_ratio);
    variant_ratio(SessionOptions(options).set_feature_precision(FeaturePrecision::kFp16),
                  "kernels.multiply_fp16", &fp16_ratio);

    std::shared_ptr<Session> serial =
        probe_rt.OpenSession(t.csr, SessionOptions(options).set_num_threads(1));
    HCSPMM_CHECK_OK(serial->WaitReady());
    std::vector<double> serial_ms;
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point start = Clock::now();
      HCSPMM_CHECK_OK(serial->Multiply(*t.x, &z, nullptr));
      serial_ms.push_back(MsBetween(start, Clock::now()));
      tracer.Record("runtime.multiply_1t", start, Clock::now());
    }
    parallel_eff.push_back(Median(serial_ms) / (threads * multiply));

    // The same kBatch multiplies three ways: back to back, on 2 async
    // streams, and as one MultiplyBatch.
    const Clock::time_point sync_start = Clock::now();
    for (int i = 0; i < kBatch; ++i) HCSPMM_CHECK_OK(session->Multiply(*t.x, &z, nullptr));
    const double sync_ms = MsBetween(sync_start, Clock::now());
    tracer.Record("runtime.multiply_x8", sync_start, Clock::now());
    {
      const Clock::time_point start = Clock::now();
      std::vector<Future<DenseMatrix>> futures;
      for (int i = 0; i < kBatch; ++i) {
        futures.push_back(session->MultiplyAsync(*t.x, nullptr, i % 2));
      }
      for (const Future<DenseMatrix>& f : futures) HCSPMM_CHECK_OK(f.status());
      async_ratio.push_back(MsBetween(start, Clock::now()) / sync_ms);
      tracer.Record("runtime.async_2streams_x8", start, Clock::now());
    }
    {
      const std::vector<const DenseMatrix*> xs(kBatch, t.x);
      std::vector<DenseMatrix> zs;
      const Clock::time_point start = Clock::now();
      HCSPMM_CHECK_OK(session->MultiplyBatch(xs, &zs, nullptr));
      batch_ratio.push_back(MsBetween(start, Clock::now()) / kBatch / multiply);
      tracer.Record("runtime.multiply_batch8", start, Clock::now());
    }
  }

  (*out)["exec.fingerprint_ms"] = SpanP50Ms(tracer, "exec.fingerprint");
  (*out)["core.build_windows_ms"] = SpanP50Ms(tracer, "core.build_windows");
  (*out)["core.preprocess_ms"] = SpanP50Ms(tracer, "core.preprocess");
  (*out)["runtime.open_cold_ms"] = SpanP50Ms(tracer, "runtime.open_cold");
  (*out)["runtime.open_hit_ms"] = SpanP50Ms(tracer, "runtime.open_hit");
  (*out)["runtime.multiply_ms"] = SpanP50Ms(tracer, "runtime.multiply");
  (*out)["runtime.multiply_1t_ms"] = SpanP50Ms(tracer, "runtime.multiply_1t");
  (*out)["exec.parallel_eff"] = Median(parallel_eff);
  (*out)["runtime.async_ratio"] = Median(async_ratio);
  (*out)["runtime.batch_item_ratio"] = Median(batch_ratio);
  (*out)["core.tensor_window_frac"] = Median(tensor_frac);
  (*out)["kernels.bytes_per_nnz"] = Median(bytes_per_nnz);
  (*out)["kernels.packed_ratio"] = Median(packed_ratio);
  (*out)["kernels.fp16_ratio"] = Median(fp16_ratio);
  (*out)["gpusim.sim_spmm_us"] = Median(sim_us);
}

}  // namespace perfbench
