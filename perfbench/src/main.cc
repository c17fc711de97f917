// perfbench: the repository benchmark program.
//
//   perfbench --workload <serve_hot|serve_churn|spmm_delta|gnn_train>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <file.json>]
//
// Prints an environment stamp, readable report lines and every metric with
// its unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (and writes the spans as Chrome trace-event JSON to --trace-out).
// Exit code 0 only when the run completed and every output was correct.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "exec/thread_pool.h"
#include "util/cpu_features.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Host-wide stolen vCPU time so far, in clock ticks (the 8th field of the
// "cpu" line of /proc/stat); -1 where the kernel does not report it.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t field = -1;
  in >> cpu;
  for (int i = 0; i < 8 && (in >> field); ++i) {
  }
  return in && cpu == "cpu" ? field : -1;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_hot|serve_churn|"
               "spmm_delta|gnn_train> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>] [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return Usage("flags come in --name value pairs");

  const std::map<std::string, std::function<WorkloadResult(const WorkloadArgs&)>> workloads = {
      {"serve_hot", RunServeHot},
      {"serve_churn", RunServeChurn},
      {"spmm_delta", RunSpmmDelta},
      {"gnn_train", RunGnnTrain},
  };
  const std::string name = flags["--workload"];
  const auto run = workloads.find(name);
  if (run == workloads.end()) return Usage(("unknown workload '" + name + "'").c_str());
  WorkloadArgs args;
  try {
    args.seed = std::stoull(flags.count("--seed") ? flags["--seed"] : "1");
    args.seconds = std::stod(flags.count("--seconds") ? flags["--seconds"] : "10");
    args.trace = std::stoi(flags.count("--trace") ? flags["--trace"] : "0") != 0;
  } catch (const std::exception&) {
    return Usage("--seed, --seconds and --trace take numbers");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) return Usage("--seconds out of range");
  const std::string commit = flags.count("--commit") ? flags["--commit"] : "unknown";

  std::printf("env: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"hardware_threads\": %d, \"simd\": %s, \"cpu\": %s, \"build_type\": %s, "
              "\"commit\": %s}\n",
              JsonString(name).c_str(), static_cast<unsigned long long>(args.seed),
              JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
              hcspmm::ThreadPool::HardwareThreads(),
              JsonString(hcspmm::SimdLevelName(hcspmm::ActiveSimdLevel())).c_str(),
              JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(commit).c_str());
  std::fflush(stdout);

  const int64_t steal_before = StealTicks();
  const perfbench::Clock::time_point run_start = perfbench::Clock::now();
  const WorkloadResult result = run->second(args);
  const double run_s = perfbench::MsBetween(run_start, perfbench::Clock::now()) / 1e3;
  const int64_t steal_after = StealTicks();

  for (const std::string& line : result.report) std::printf("  %s\n", line.c_str());
  if (args.trace) {
    std::printf("  per-layer time from spans (count, total ms, self ms):\n");
    for (const auto& [span, t] : LayerTimes(result.spans)) {
      std::printf("    %-28s %8lld %12.3f %12.3f\n", span.c_str(),
                  static_cast<long long>(t.count), t.total_ms, t.self_ms);
    }
    const std::string path = flags["--trace-out"];
    if (!path.empty()) {
      std::ofstream out(path);
      out << ChromeTraceJson(result.spans);
      std::printf("  wrote %zu spans to %s\n", result.spans.size(), path.c_str());
    }
  }
  // Stolen time stretches the wall-clock report lines; the metrics are on
  // the CPU clock, which leaves it out.
  if (steal_before >= 0 && steal_after >= 0) {
    const double ticks = static_cast<double>(steal_after - steal_before);
    std::printf("  host vCPU steal during the run: %.0f ticks, %.2f%% of %d hardware "
                "threads' time\n",
                ticks,
                100.0 * ticks / sysconf(_SC_CLK_TCK) /
                    (run_s * hcspmm::ThreadPool::HardwareThreads()),
                hcspmm::ThreadPool::HardwareThreads());
  }
  std::printf("  peak RSS (VmHWM) since set-up: %.3f MB\n", PeakRssMb());
  std::printf("  attempted %lld, failed %lld (fail_frac %.6f), correct: %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0,
              result.correct ? "yes" : "NO");
  std::string metrics;
  for (const Metric& m : result.metrics) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(m.value) + ", \"unit\": " +
               JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
