// The benchmark's one measurement helper, shared by every workload:
// summary statistics with the tail-percentile rule, the CPU clock the
// end-to-end figures are measured on, and the open-loop request clock (due
// time, send time, resolution time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// CPU time used so far by every thread of this process, ms
/// (CLOCK_PROCESS_CPUTIME_ID). On a KVM guest with paravirtual steal
/// accounting the kernel leaves out the time the host took a vCPU away, so
/// unlike wall-clock time it does not grow with the load of other guests;
/// a thread blocked on a lock, a condition variable or a sleep adds nothing.
double ProcessCpuMs();

/// CPU time used so far by the running thread `t`, ms.
double ThreadCpuMs(std::thread& t);

/// CPU time used so far by the calling thread, ms.
double ThisThreadCpuMs();

/// Quantile `q` in [0, 1] of `samples` by the "exclusive" rule (position
/// q * (n + 1), linear interpolation, clamped to the sample range) — the
/// rule Python's statistics.quantiles applies by default. Empty input: 0.
double Quantile(std::vector<double> samples, double q);

/// Median, quartiles and the tail of one timing distribution.
///
/// The tail is the highest percentile that still has at least ten samples
/// beyond it, capped at p99: with n >= 1000 samples it is p99; with fewer it
/// is the order statistic that has exactly ten larger samples, reported with
/// the percentile it corresponds to. Where that would fall below the median
/// (n < 21) the tail is the median (tail_pct = 50).
struct Summary {
  int64_t n = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< percentile the tail corresponds to
  double max = 0.0;
};

Summary Summarize(std::vector<double> samples);

/// Median, over consecutive slices of `samples` (in time order) holding at
/// least `min_slice` samples each, of each slice's Summary::tail. With
/// min_slice = 100 each slice's tail is its p90; a stall episode lifts the
/// tail of the slice it falls in, not the reported value. Fewer than
/// 2 * min_slice samples make one slice: the plain Summary::tail.
double SlicedTail(const std::vector<double>& samples, size_t min_slice);

/// Poisson arrival schedule: `rate_per_s` mean arrivals per second over
/// `seconds`, offsets from the phase start, drawn from `seed`.
std::vector<Clock::duration> PoissonSchedule(double rate_per_s, double seconds,
                                             uint64_t seed);

/// \brief Per-request clock of an open-loop phase.
///
/// The generator fires request i at start + schedule[i] whether or not
/// earlier requests have finished, stamping when it actually sent; whoever
/// resolves the request stamps `MarkDone` from any thread. Latency is
/// measured from the *due* time, so a stall anywhere — in the system, in a
/// consumer, or in the generator itself — is charged to every request it
/// delays, and generator lateness (sent - due) is reported separately.
class OpenLoopClock {
 public:
  explicit OpenLoopClock(std::vector<Clock::duration> schedule);

  size_t size() const { return schedule_.size(); }

  /// Fire every request in order: build it with `prepare(i)`, sleep until
  /// it is due, stamp the send time, then call `send(i, request)`. `send`
  /// must not wait for completion.
  template <typename Prepare, typename Send>
  void Run(Prepare&& prepare, Send&& send) {
    start_ = Clock::now();
    for (size_t i = 0; i < schedule_.size(); ++i) {
      auto request = prepare(i);
      std::this_thread::sleep_until(start_ + schedule_[i]);
      sent_ns_[i] = (Clock::now() - start_).count();
      send(i, std::move(request));
    }
  }

  /// Record that request i resolved now (thread-safe; once per request).
  void MarkDone(size_t i);

  /// Block until every request was marked done.
  void WaitAllDone() const;

  Clock::time_point Due(size_t i) const { return start_ + schedule_[i]; }
  Clock::time_point Sent(size_t i) const;
  /// Resolution time of request i (it must be done).
  Clock::time_point Done(size_t i) const;
  /// Resolution minus due time, ms.
  double LatencyMs(size_t i) const { return MsBetween(Due(i), Done(i)); }
  /// Send minus due time, ms: how late the generator fired request i.
  double LatenessMs(size_t i) const { return MsBetween(Due(i), Sent(i)); }

 private:
  std::vector<Clock::duration> schedule_;
  Clock::time_point start_;
  std::vector<int64_t> sent_ns_;  // written by the generator thread only
  std::unique_ptr<std::atomic<int64_t>[]> done_ns_;  // -1 until resolved
};

}  // namespace perfbench
