// In-memory span recorder for the benchmark's traced mode. Spans are taken
// in the benchmark's own code around each call into a library layer (name,
// start, end, parent span, request id), kept in memory, summarized into
// per-layer self times, and written once at the end as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  int64_t request = -1;  ///< request / iteration id, -1 when not per-request
  int64_t thread = 0;    ///< small per-thread id, for the trace viewer
};

/// Totals of one span name: how often it ran, its summed duration, and its
/// summed self time (duration minus the part covered by its child spans).
struct LayerTime {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Overlapping children (concurrent work caused by
/// the same parent) are counted once.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Per-name totals over `spans`, using SelfTimesMs for the self column.
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds).
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// \brief Thread-safe span recorder.
class Tracer {
 public:
  Tracer();

  /// Record a finished span; returns its id (usable as a parent).
  int64_t Record(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int64_t parent = -1,
                 int64_t request = -1);

  /// Open a span now whose end is filled in by End (for spans that enclose
  /// children recorded while they run).
  int64_t Begin(const std::string& name, int64_t parent = -1, int64_t request = -1);
  void End(int64_t id);

  /// Durations (ms) of every span called `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  std::vector<Span> spans() const;

 private:
  int64_t ThreadId();
  int64_t ToNs(Clock::time_point t) const { return (t - epoch_).count(); }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                    // guarded by mu_
  std::map<std::thread::id, int64_t> threads_; // guarded by mu_
};

/// RAII span: records [construction, destruction) when `tracer` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench
