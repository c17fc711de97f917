#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

namespace perfbench {

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans.size())) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before cursor is already counted
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) / 1e6;
  }
  return self;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    t.self_ms += self[i];
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"request\":%lld}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<long long>(s.thread), s.start_ns / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t Tracer::ThreadId() {
  auto [it, inserted] = threads_.emplace(std::this_thread::get_id(),
                                         static_cast<int64_t>(threads_.size()));
  return it->second;
}

int64_t Tracer::Record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, int64_t parent, int64_t request) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, ToNs(start), ToNs(end), parent, request, ThreadId()});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t request) {
  const int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, now, now, parent, request, ThreadId()});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id].end_ns = now;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

}  // namespace perfbench
