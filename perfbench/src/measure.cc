#include "measure.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

namespace {

double CpuClockMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ProcessCpuMs() { return CpuClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuMs(std::thread& t) {
  clockid_t clock;
  if (pthread_getcpuclockid(t.native_handle(), &clock) != 0) return 0.0;
  return CpuClockMs(clock);
}

double ThisThreadCpuMs() { return CpuClockMs(CLOCK_THREAD_CPUTIME_ID); }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double pos = std::clamp(q * (n + 1.0), 1.0, n);  // 1-based
  const size_t lo = static_cast<size_t>(std::floor(pos)) - 1;
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - std::floor(pos);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p25 = Quantile(samples, 0.25);
  s.p50 = Quantile(samples, 0.50);
  s.p75 = Quantile(samples, 0.75);
  s.max = samples.back();
  const int64_t n = s.n;
  // Nearest-rank p99 is sorted[ceil(0.99 n) - 1]; the sample with exactly
  // ten larger ones is sorted[n - 11]. Take whichever is lower, but never
  // report a tail below the median.
  const int64_t p99_rank = static_cast<int64_t>(std::ceil(0.99 * n)) - 1;
  const int64_t rank = std::min(p99_rank, n - 11);
  if (rank + 1 < (n + 1) / 2) {
    s.tail = s.p50;
    s.tail_pct = 50.0;
    return s;
  }
  s.tail = samples[rank];
  s.tail_pct = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return s;
}

double SlicedTail(const std::vector<double>& samples, size_t min_slice) {
  std::vector<double> tails;
  const size_t n = samples.size();
  const size_t windows = std::max<size_t>(1, n / std::max<size_t>(1, min_slice));
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = n * w / windows;
    const size_t hi = n * (w + 1) / windows;
    if (hi > lo) {
      tails.push_back(Summarize({samples.begin() + lo, samples.begin() + hi}).tail);
    }
  }
  return Quantile(tails, 0.5);
}

std::vector<Clock::duration> PoissonSchedule(double rate_per_s, double seconds,
                                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<Clock::duration> out;
  double t = gap(rng);
  while (t < seconds) {
    out.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
    t += gap(rng);
  }
  return out;
}

OpenLoopClock::OpenLoopClock(std::vector<Clock::duration> schedule)
    : schedule_(std::move(schedule)),
      sent_ns_(schedule_.size(), 0),
      done_ns_(new std::atomic<int64_t>[schedule_.size()]) {
  for (size_t i = 0; i < schedule_.size(); ++i) done_ns_[i].store(-1);
}

void OpenLoopClock::MarkDone(size_t i) {
  done_ns_[i].store((Clock::now() - start_).count(), std::memory_order_release);
}

void OpenLoopClock::WaitAllDone() const {
  for (size_t i = 0; i < schedule_.size(); ++i) {
    while (done_ns_[i].load(std::memory_order_acquire) < 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

Clock::time_point OpenLoopClock::Sent(size_t i) const {
  return start_ + Clock::duration(sent_ns_[i]);
}

Clock::time_point OpenLoopClock::Done(size_t i) const {
  return start_ + Clock::duration(done_ns_[i].load(std::memory_order_acquire));
}

}  // namespace perfbench
