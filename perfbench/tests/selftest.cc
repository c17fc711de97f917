// Tests of the benchmark's own measurement logic: the tail-percentile rule,
// due-time accounting when the consumer of requests stalls, self-time
// subtraction on nested spans, and the CPU clock. Built next to the benchmark; run it with
//   python3 perfbench/run.py --selftest
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "trace.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("  FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 2000 samples: p99 by nearest rank, with 20 samples beyond it.
  Summary s = Summarize(OneTo(2000));
  Expect(s.n == 2000, "n counts every sample");
  Expect(Near(s.tail, 1980.0) && Near(s.tail_pct, 99.0), "p99 when n >= 1000");
  Expect(Near(s.p50, 1000.5), "median interpolates between the middle pair");

  // 1000 samples: p99 is sorted[989] = 990, exactly ten samples beyond.
  s = Summarize(OneTo(1000));
  Expect(Near(s.tail, 990.0) && Near(s.tail_pct, 99.0), "p99 at n = 1000 keeps ten beyond");

  // 200 samples: p99 would leave two beyond; the tail drops to the sample
  // with exactly ten larger ones (p95).
  s = Summarize(OneTo(200));
  Expect(Near(s.tail, 190.0) && Near(s.tail_pct, 95.0), "n = 200 reports p95");
  int beyond = 0;
  for (double v : OneTo(200)) beyond += v > s.tail ? 1 : 0;
  Expect(beyond == 10, "exactly ten samples beyond the tail");

  // Too few samples for a tail: the median stands in.
  s = Summarize(OneTo(15));
  Expect(Near(s.tail, s.p50) && Near(s.tail_pct, 50.0), "n < 21 falls back to the median");

  // Quartiles follow Python's statistics.quantiles(method='exclusive').
  Expect(Near(Quantile({1, 2, 3, 4}, 0.25), 1.25) && Near(Quantile({1, 2, 3, 4}, 0.75), 3.75),
         "exclusive quartiles");
  Expect(Summarize({}).n == 0, "empty input");

  // Five slices of 1..1000; a stall lifts 60 samples of the third slice.
  std::vector<double> timeline;
  for (int w = 0; w < 5; ++w) {
    std::vector<double> slice = OneTo(1000);
    if (w == 2) {
      for (int i = 0; i < 60; ++i) slice[i] = 1e6;
    }
    timeline.insert(timeline.end(), slice.begin(), slice.end());
  }
  Expect(Summarize(timeline).tail == 1e6, "one stall owns the whole-run p99");
  Expect(Near(SlicedTail(timeline, 1000), 990.0), "the sliced tail ignores one stalled slice");
  Expect(SlicedTail(timeline, 2600) == Summarize(timeline).tail,
         "fewer than two slices' worth of samples: the plain tail");
}

void TestDueTimeUnderStalledConsumer() {
  // Ten requests due 1 ms apart. The consumer resolving them stalls for
  // 30 ms before it serves anything, and the send path blocks for 20 ms on
  // request 2 (backpressure from the stalled consumer).
  using namespace std::chrono;
  std::vector<Clock::duration> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back(milliseconds(1 + i));
  OpenLoopClock clock(schedule);

  std::vector<size_t> queue;
  std::mutex mu;
  std::thread consumer([&] {
    std::this_thread::sleep_for(milliseconds(30));
    size_t served = 0;
    while (served < 10) {
      std::vector<size_t> batch;
      {
        std::lock_guard<std::mutex> lk(mu);
        batch.swap(queue);
      }
      for (size_t i : batch) clock.MarkDone(i);
      served += batch.size();
      std::this_thread::sleep_for(microseconds(100));
    }
  });
  clock.Run([](size_t i) { return i; },
            [&](size_t i, size_t) {
              if (i == 2) std::this_thread::sleep_for(milliseconds(20));
              std::lock_guard<std::mutex> lk(mu);
              queue.push_back(i);
            });
  clock.WaitAllDone();
  consumer.join();

  for (size_t i = 0; i < 10; ++i) {
    // Nothing resolves before the stall ends ~31 ms after the start, so each
    // request waited at least from its due time to then.
    Expect(clock.LatencyMs(i) >= 30.0 - (1.0 + i) - 0.5,
           "latency of request " + std::to_string(i) + " counts from its due time");
    Expect(clock.LatencyMs(i) >= clock.LatenessMs(i),
           "latency includes the generator's lateness");
  }
  // Requests 3.. were due while the send of request 2 blocked: the generator
  // fired them late, and the lateness is reported, not hidden.
  Expect(clock.LatenessMs(3) >= 17.0, "generator lateness behind a blocked send");
  Expect(clock.LatenessMs(0) < 5.0, "no lateness before the stall");
}

Span MakeSpan(const char* name, int64_t start_ms, int64_t end_ms, int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start_ms * 1000000;
  s.end_ns = end_ms * 1000000;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // request [0, 100): children submit [0, 10), work [20, 60) and an
  // overlapping async part [50, 80); work has its own child kernel [25, 45);
  // a child sticking out of its parent is clipped ([90, 120) covers 10 ms).
  std::vector<Span> spans = {
      MakeSpan("request", 0, 100, -1),  // 0
      MakeSpan("submit", 0, 10, 0),     // 1
      MakeSpan("work", 20, 60, 0),      // 2
      MakeSpan("kernel", 25, 45, 2),    // 3
      MakeSpan("async", 50, 80, 0),     // 4
      MakeSpan("tail", 90, 120, 0),     // 5
  };
  const std::vector<double> self = SelfTimesMs(spans);
  // request: 100 - (10 + [20, 80) = 60 + 10 clipped) = 20.
  Expect(Near(self[0], 20.0), "parent self time subtracts the union of children");
  Expect(Near(self[2], 20.0), "nested child subtracts from its own parent only");
  Expect(Near(self[3], 20.0) && Near(self[1], 10.0), "leaf self time is its duration");

  spans.push_back(MakeSpan("kernel", 100, 130, -1));
  const auto layers = LayerTimes(spans);
  Expect(layers.at("kernel").count == 2 && Near(layers.at("kernel").total_ms, 50.0) &&
             Near(layers.at("kernel").self_ms, 50.0),
         "per-name totals");

  Tracer tracer;
  const auto t0 = Clock::now();
  const int64_t parent = tracer.Record("outer", t0, t0 + std::chrono::milliseconds(10));
  tracer.Record("inner", t0 + std::chrono::milliseconds(2), t0 + std::chrono::milliseconds(5),
                parent, 7);
  const std::vector<Span> recorded = tracer.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == parent && recorded[1].request == 7,
         "tracer keeps parent and request id");
  Expect(Near(SelfTimesMs(recorded)[0], 7.0, 1e-6), "tracer spans feed self time");
  Expect(ChromeTraceJson(recorded).find("\"name\":\"inner\",\"ph\":\"X\"") != std::string::npos,
         "Chrome trace events");
}

void TestCpuClock() {
  // A sleeping thread adds (almost) no CPU time; a spinning one adds about
  // its wall time, to the process clock and to its own thread clock.
  using namespace std::chrono;
  const auto spin = [](milliseconds d) {
    const auto end = Clock::now() + d;
    volatile uint64_t x = 0;
    while (Clock::now() < end) x = x + 1;
  };
  double cpu0 = ProcessCpuMs();
  std::this_thread::sleep_for(milliseconds(60));
  Expect(ProcessCpuMs() - cpu0 < 20.0, "sleeping adds no process CPU time");
  cpu0 = ProcessCpuMs();
  spin(milliseconds(60));
  Expect(ProcessCpuMs() - cpu0 > 30.0, "spinning adds process CPU time");

  std::atomic<int> phase{0};
  std::thread worker([&] {
    while (phase.load() == 0) std::this_thread::sleep_for(milliseconds(1));
    spin(milliseconds(60));
    phase.store(2);
    while (phase.load() != 3) std::this_thread::sleep_for(milliseconds(1));
  });
  const double idle0 = ThreadCpuMs(worker);
  std::this_thread::sleep_for(milliseconds(30));
  Expect(ThreadCpuMs(worker) - idle0 < 10.0, "a waiting thread's clock barely moves");
  const double busy0 = ThreadCpuMs(worker);
  phase.store(1);
  while (phase.load() != 2) std::this_thread::sleep_for(milliseconds(1));
  Expect(ThreadCpuMs(worker) - busy0 > 30.0, "a spinning thread's clock counts its work");
  phase.store(3);
  worker.join();
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"percentile rule", TestPercentileRule},
      {"due-time accounting under a stalled consumer", TestDueTimeUnderStalledConsumer},
      {"self time on nested spans", TestSelfTime},
      {"CPU clock", TestCpuClock},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("[%s] %s\n", g_failures == before ? "PASS" : "FAIL", name);
  }
  std::printf("%s\n", g_failures == 0 ? "all perfbench self-tests passed"
                                       : "perfbench self-tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
