#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "workload.h"

namespace perfbench {

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  return {
      {"setup_s", Summarize(e2e.setup_s).p50, "s"},
      {"cpu_p50_xref", e2e.cpu_p50_ms / e2e.reference_ms, "x"},
      {"cpu_tail_xref", e2e.cpu_tail_ms / e2e.reference_ms, "x"},
  };
}

std::string DescribeLatency(const std::string& label, const Summary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%lld p25=%.4f p50=%.4f p75=%.4f p%.2f=%.4f max=%.4f ms",
                label.c_str(), static_cast<long long>(s.n), s.p25, s.p50, s.p75,
                s.tail_pct, s.tail, s.max);
  return buf;
}

std::string DescribeBlocks(const std::string& label, const std::vector<double>& samples,
                           size_t blocks) {
  std::string out = label + " by block:";
  const size_t n = samples.size();
  for (size_t b = 0; b < blocks && n >= blocks; ++b) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f",
                  Quantile({samples.begin() + n * b / blocks,
                            samples.begin() + n * (b + 1) / blocks}, 0.5));
    out += buf;
  }
  return out + " ms";
}

double UnitTail(const std::vector<double>& cpu_ms, const std::string& label,
                std::vector<std::string>* report) {
  const size_t slice = cpu_ms.size() / kTailSlices;
  const double tail = SlicedTail(cpu_ms, slice);
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s CPU tail: %.4f ms, the median of %zu slices' p%.1f",
                label.c_str(), tail, kTailSlices,
                Summarize({cpu_ms.begin(), cpu_ms.begin() + slice}).tail_pct);
  report->push_back(buf);
  return tail;
}

std::string DescribeReference(const std::string& label, const HostReference& ref) {
  const Summary s = Summarize(ref.samples_ms());
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s host reference (%s): n=%lld p25=%.4f p50=%.4f p75=%.4f ms CPU",
                label.c_str(), ref.what().c_str(), static_cast<long long>(s.n), s.p25, s.p50,
                s.p75);
  return buf;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"serve.submit_us", "us"},
      {"serve.overhead_ms", "ms"},
      {"serve.avg_batch", "count"},
      {"serve.batches", "count"},
      {"serve.stats_ms", "ms"},
      {"serve.queue_depth_max", "count"},
      {"pool.hit_frac", "frac"},
      {"pool.acquires", "count"},
      {"pool.evicted", "count"},
      {"plan_cache.hit_frac", "frac"},
      {"plan_cache.lookups", "count"},
      {"plan_cache.bytes_in_use", "MB"},
      {"exec.fingerprint_ms", "ms"},
      {"exec.parallel_eff", "frac"},
      {"runtime.open_cold_ms", "ms"},
      {"runtime.open_hit_ms", "ms"},
      {"runtime.multiply_ms", "ms"},
      {"runtime.multiply_1t_ms", "ms"},
      {"runtime.async_ratio", "x"},
      {"runtime.batch_item_ratio", "x"},
      {"core.build_windows_ms", "ms"},
      {"core.preprocess_ms", "ms"},
      {"core.tensor_window_frac", "frac"},
      {"kernels.bytes_per_nnz", "B/nnz"},
      {"kernels.packed_ratio", "x"},
      {"kernels.fp16_ratio", "x"},
      {"gpusim.sim_spmm_us", "us"},
      {"stream.delta_apply_ms", "ms"},
      {"stream.dirty_window_frac", "frac"},
      {"stream.cold_build_ms", "ms"},
      {"gnn.forward_ms", "ms"},
      {"gnn.backward_ms", "ms"},
      {"harness.gen_lag_ms", "ms"},
      {"harness.trace_overhead_frac", "frac"},
      {"harness.samples", "count"},
      {"harness.tail_pct", "pct"},
      {"process.rss_peak_mb", "MB"},
  };
  return kCatalogue;
}

std::vector<Metric> PerLayerMetrics(PerLayer values) {
  values["process.rss_peak_mb"] = PeakRssMb();
  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerCatalogue()) {
    const auto it = values.find(name);
    out.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
  return out;
}

double SpanP50Ms(const Tracer& tracer, const std::string& name) {
  return Summarize(tracer.DurationsMs(name)).p50;
}

bool BitIdentical(const hcspmm::DenseMatrix& a, const hcspmm::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

uint64_t DigestOf(const hcspmm::DenseMatrix& m) {
  // FNV-1a over 64-bit words (a byte-wise pass costs too much per response).
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t word) { h = (h ^ word) * 1099511628211ull; };
  mix((static_cast<uint64_t>(static_cast<uint32_t>(m.rows())) << 32) |
      static_cast<uint32_t>(m.cols()));
  const float* p = m.data().data();
  const size_t n = m.data().size();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    mix(word);
  }
  if (i < n) {
    uint32_t last;
    std::memcpy(&last, p + i, sizeof(last));
    mix(last);
  }
  return h;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);  // hand back what input generation freed, for a steady base
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

}  // namespace perfbench
