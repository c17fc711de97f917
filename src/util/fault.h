// Fault-tolerance primitives: deterministic fault injection, cooperative
// cancellation with deadlines, and seeded retry/backoff policies.
//
// Everything here is off by default and zero-cost when unused: a Session
// without an injector never takes the dispatch hook's lock, a null cancel
// token is a single pointer compare in the kernel dispatch loop, and a
// RetryPolicy with max_attempts <= 1 degenerates to a plain call. With
// injection disabled, results are bit-identical to a build without this
// header ever being included.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/random.h"
#include "util/status.h"

namespace hcspmm {

/// \brief Cooperative cancellation token with an optional absolute deadline.
///
/// Shared between the submitter (who cancels or arms the deadline) and the
/// executing layers, which poll Expired() at window-batch granularity in the
/// kernel dispatch loop — never inside the SIMD kernels themselves. All
/// state is atomic; polling is wait-free.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Manual cancellation: every subsequent Expired() returns true.
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arm an absolute deadline; Expired() turns true once it passes.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }

  bool Expired() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const int64_t d = deadline_ns_.load(std::memory_order_acquire);
    if (d == kNoDeadline) return false;
    return Clock::now().time_since_epoch().count() >= d;
  }

  /// Would the deadline pass within `us` microseconds from now? (Used to
  /// skip backoff sleeps that cannot possibly lead to a useful retry.)
  bool WouldExpireWithin(int64_t us) const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    const int64_t d = deadline_ns_.load(std::memory_order_acquire);
    if (d == kNoDeadline) return false;
    return Clock::now().time_since_epoch().count() + us * 1000 >= d;
  }

  /// The typed status an expired token resolves to.
  Status ToStatus() const {
    return Status::DeadlineExceeded(
        cancelled_.load(std::memory_order_acquire) && !has_deadline()
            ? "cancelled by caller"
            : "deadline expired before completion");
  }

 private:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

/// Configuration for FaultInjector. All-zero (the default) means fully
/// disabled.
struct FaultOptions {
  /// Seed for every per-scope Pcg32 stream; the whole fault schedule is a
  /// pure function of (seed, scope, dispatch ordinal).
  uint64_t seed = 0;
  /// Probability that a dispatch fails with a transient kUnavailable.
  double fault_rate = 0.0;
  /// Probability that a (non-faulted) dispatch sleeps `straggler_us` first —
  /// a latency spike / slow-shard simulation; the result is still correct.
  double straggler_rate = 0.0;
  int64_t straggler_us = 500;
  /// Sticky device-down window: dispatches [down_after, down_after+down_for)
  /// of each scope fail unconditionally (1-based ordinal). down_after == 0
  /// disables; down_for == 0 means down forever once reached.
  int64_t down_after = 0;
  int64_t down_for = 0;

  bool enabled() const {
    return fault_rate > 0.0 || straggler_rate > 0.0 || down_after > 0;
  }
};

/// \brief Seeded, deterministic fault injector for the simulated device
/// dispatch path.
///
/// A "scope" identifies one fault domain — one Session, or one shard of a
/// sharded Session (shard i draws from scope + i), so a sharded multiply can
/// lose exactly one shard.
/// Each scope draws from its own Pcg32 stream with a fixed draw order (fault
/// draw, then straggler draw, every dispatch), so the decision for dispatch
/// N of scope S depends only on (seed, S, N) — never on thread interleaving
/// across scopes. That makes injected-fault counts exactly reproducible and
/// CI-gateable for closed-loop workloads with a fixed per-scope dispatch
/// count.
class FaultInjector {
 public:
  explicit FaultInjector(FaultOptions opts) : opts_(opts) {}

  const FaultOptions& options() const { return opts_; }
  bool enabled() const { return opts_.enabled(); }

  /// Called by the execution layer immediately before running a kernel
  /// dispatch for `scope`. Sleeps on an injected straggler, returns
  /// kUnavailable on an injected fault, OK otherwise.
  Status OnDispatch(uint64_t scope);

  int64_t injected_faults() const {
    return faults_.load(std::memory_order_relaxed);
  }
  int64_t injected_stragglers() const {
    return stragglers_.load(std::memory_order_relaxed);
  }
  /// Total dispatches observed (all scopes).
  int64_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

  /// Forget all per-scope streams and counters (schedule restarts from the
  /// first dispatch).
  void Reset();

 private:
  struct ScopeState {
    Pcg32 rng;
    int64_t dispatches = 0;
    ScopeState(uint64_t seed, uint64_t scope) : rng(seed, scope + 1) {}
  };

  const FaultOptions opts_;
  std::mutex mu_;
  std::unordered_map<uint64_t, ScopeState> scopes_;
  std::atomic<int64_t> faults_{0};
  std::atomic<int64_t> stragglers_{0};
  std::atomic<int64_t> dispatches_{0};
};

/// \brief Retry schedule for transient (IsRetryable) failures: bounded
/// attempts with exponential backoff and deterministic seeded jitter.
///
/// Stateless — BackoffUs is a pure function of (policy, attempt, scope), so
/// concurrent retries over different scopes never contend and replays are
/// exact.
struct RetryPolicy {
  /// Total attempts including the first; <= 1 disables retry entirely.
  int max_attempts = 1;
  int64_t initial_backoff_us = 100;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 5000;
  /// Jitter fraction in [0, 1): the backoff is scaled by a deterministic
  /// factor drawn from [1 - jitter, 1 + jitter) seeded by (seed, scope,
  /// attempt). Keeps synchronized retries from stampeding while staying
  /// bit-reproducible.
  double jitter = 0.25;
  uint64_t seed = 0;

  bool enabled() const { return max_attempts > 1; }

  /// Backoff before retry number `attempt` (1 = the first retry) of `scope`.
  int64_t BackoffUs(int attempt, uint64_t scope) const;
};

/// \brief Per-call execution controls threaded through the Session multiply
/// entry points. Default-constructed == no cancellation, no retry.
struct ExecControls {
  std::shared_ptr<CancelToken> cancel;
  RetryPolicy retry;
  /// Optional: incremented once per re-dispatch (not per original attempt)
  /// for observability (server stats, retry-amplification metrics).
  std::atomic<int64_t>* retry_counter = nullptr;
};

/// Runs `attempt` (a callable returning Status) up to ctl.retry.max_attempts
/// times, sleeping the policy backoff between IsRetryable failures. Gives up
/// early — returning the last retryable error — when the cancel token is
/// expired or the backoff sleep would cross its deadline. Non-retryable
/// errors propagate immediately.
template <typename Fn>
Status RunWithRetry(const ExecControls& ctl, uint64_t scope, Fn&& attempt) {
  Status st = attempt();
  int tries = 1;
  while (!st.ok() && st.IsRetryable() && tries < ctl.retry.max_attempts) {
    const int64_t backoff_us = ctl.retry.BackoffUs(tries, scope);
    if (ctl.cancel != nullptr && ctl.cancel->WouldExpireWithin(backoff_us)) {
      return st;  // the retry could never beat the deadline
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
    if (ctl.retry_counter != nullptr) {
      ctl.retry_counter->fetch_add(1, std::memory_order_relaxed);
    }
    st = attempt();
    ++tries;
  }
  return st;
}

}  // namespace hcspmm
