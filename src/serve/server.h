// Server: the multi-tenant request front-end over the async runtime. Clients
// register graphs (content-fingerprinted, owned by the embedded SessionPool)
// and submit InferRequest-shaped work — (tenant, graph handle, feature
// matrix) — getting back a Future<DenseMatrix>. A dispatcher thread
// micro-batches *compatible* requests (same graph fingerprint + feature dim)
// within a bounded time/size window onto a single batched multiply, and
// scatters the results back to the per-request futures on completion.
//
// QoS: admission and dispatch are tenant-aware. Each tenant has a weight
// (weighted fair queuing decides who dispatches next), an in-flight cap
// (dispatched-but-uncompleted requests), and a bounded queue — a submit
// beyond the queue bound is rejected synchronously with a typed
// StatusCode::kOverloaded (distinguishable from real failures, safe to
// retry). Accepted requests are never dropped: shutdown drains the queue and
// every outstanding future resolves.
//
// Bit-identity invariant: a batch computes each item exactly like a direct
// Session::Multiply on the same input — batching groups requests, it never
// merges or reorders accumulation *within* one — so served fp32 results are
// bit-identical to the unbatched path (asserted in tests and bench_serving).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/session_pool.h"

namespace hcspmm {

/// Per-tenant QoS knobs.
struct TenantOptions {
  /// Fair-queuing weight (> 0): a tenant with weight 2 drains twice as fast
  /// as a weight-1 tenant when both are backlogged.
  double weight = 1.0;
  /// Max dispatched-but-uncompleted requests; further requests wait queued.
  int max_inflight = 64;
  /// Bounded queue: submits beyond this many *queued* (not yet dispatched)
  /// requests are rejected with kOverloaded instead of buffering unboundedly.
  int max_queue = 256;
};

/// Server-wide configuration.
struct ServerOptions {
  /// Session pool under the server (budget, session template, sharding).
  SessionPoolOptions pool;
  /// Micro-batch size window: dispatch as soon as this many compatible
  /// requests are collectable (1 disables cross-request batching).
  int max_batch = 8;
  /// Micro-batch time window in microseconds: a head-of-line request waits
  /// at most this long for compatible peers before dispatching anyway.
  int64_t batch_window_us = 200;
  /// Applied to tenants that were never explicitly configured.
  TenantOptions default_tenant;
  /// Default per-graph retry policy for dispatched batches: IsRetryable
  /// batch failures (injected kUnavailable faults) re-run transparently
  /// inside the session layer — per item, and per shard window range for
  /// sharded sessions — before the batch future resolves. max_attempts <= 1
  /// (the default) disables retry. Override per graph with SetRetryPolicy.
  RetryPolicy retry;
  /// Per-graph circuit breaker: after this many *consecutive* kUnavailable
  /// batch failures the graph's breaker opens for breaker_open_us — queued
  /// work for it beyond one probe batch is shed (lowest tenant weight
  /// first, resolved kUnavailable) and nothing dispatches until a half-open
  /// probe batch succeeds. <= 0 (default) disables the breaker.
  int breaker_failures = 0;
  int64_t breaker_open_us = 2000;
  /// Charge WFQ cost by graph nnz x feature dim (normalized; min 1.0)
  /// instead of 1.0 per request, so one huge-graph tenant cannot monopolize
  /// the backend via few expensive requests. Relative fairness between
  /// tenants submitting identical work is unchanged (WFQ is scale
  /// invariant).
  bool size_aware_cost = true;
};

/// One request into the serving layer.
struct InferRequest {
  std::string tenant;
  uint64_t graph = 0;  ///< handle from Server::RegisterGraph
  DenseMatrix x;       ///< feature matrix (rows must equal the graph's cols)
  /// Absolute deadline; time_point::max() (default) means none. A request
  /// whose deadline passed while queued resolves kDeadlineExceeded at pop
  /// time instead of dispatching. Dispatched batches carry a cancel token
  /// armed with the *latest* item deadline (cancelling earlier would strand
  /// peers that still want the result), polled by the kernels at
  /// window-batch granularity — an item may therefore still receive its
  /// value shortly after its own deadline when co-batched with later ones.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Per-tenant serving counters (snapshot).
struct TenantStats {
  double weight = 1.0;
  int64_t submitted = 0;  ///< accepted into the queue
  int64_t completed = 0;  ///< resolved with a result
  int64_t failed = 0;     ///< resolved with a non-overload error
  int64_t rejected = 0;   ///< kOverloaded at admission
  int64_t queued = 0;     ///< waiting for dispatch right now
  int64_t inflight = 0;   ///< dispatched, not yet completed
  /// Resolved kDeadlineExceeded (expired while queued, or batch cancelled at
  /// its deadline mid-run). Disjoint from completed/failed/shed.
  int64_t deadline_missed = 0;
  /// Resolved kUnavailable by breaker-open load shedding (never dispatched).
  /// Disjoint from completed/failed/deadline_missed.
  int64_t shed = 0;
  /// Total WFQ cost charged at admission (== submitted when size-aware cost
  /// is off; proportional to nnz x dim when on).
  double cost_charged = 0.0;
};

/// Whole-server snapshot (Server::stats()).
struct ServerStats {
  std::map<std::string, TenantStats> tenants;  // ordered => deterministic print
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t deadline_missed = 0;  ///< sum of tenant deadline_missed
  int64_t shed = 0;             ///< sum of tenant shed
  /// Transparent in-session retry attempts across every dispatched batch
  /// (0 extra attempts when no faults fire or retry is disabled).
  int64_t retries = 0;
  /// Circuit-breaker open transitions (closed/half-open -> open).
  int64_t breaker_trips = 0;
  int64_t queue_depth = 0;
  int64_t batches = 0;
  /// batch_size_hist[s] = batches dispatched with exactly s requests
  /// (index 0 unused).
  std::vector<int64_t> batch_size_hist;
  double avg_batch_size = 0.0;
  /// Completion latency (submit -> future resolved) percentiles over every
  /// completed request, microseconds. 0 when nothing completed yet.
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
};

/// \brief Weighted fair queuing across tenants with per-batch compatibility.
///
/// Classic virtual-finish-time WFQ: request r of tenant t gets
/// vft(r) = max(V, vft_last(t)) + cost/weight(t), the scheduler always pops
/// the globally smallest vft whose tenant still has in-flight budget, and V
/// advances to the popped vft. Batches extend the pop: after the head fixes
/// the batch key (graph, dim), further pops must match it — a tenant whose
/// head is incompatible is skipped for this batch but keeps its place.
/// Not thread-safe: the server calls it under its own mutex; tests drive it
/// directly for deterministic fairness checks.
class WfqScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Micro-batch compatibility key: requests batch iff both fields match.
  struct BatchKey {
    uint64_t graph = 0;
    int32_t dim = 0;

    bool operator==(const BatchKey& o) const {
      return graph == o.graph && dim == o.dim;
    }
  };

  /// A queued entry, identified by an opaque id the caller maps to payload.
  struct Popped {
    std::string tenant;
    uint64_t id = 0;
    Clock::time_point enqueue_time;
  };

  /// What PopBatch would return, without mutating (drives the time/size
  /// window decision).
  struct Plan {
    BatchKey key;
    int count = 0;
    Clock::time_point head_enqueue;  ///< oldest-scheduled selected request
  };

  /// Optional per-batch graph gate: tenants whose *head* request targets a
  /// graph the filter rejects are skipped for this batch (head-of-line order
  /// within the tenant is preserved — nothing behind the head is considered).
  /// The server uses this to hold back graphs whose circuit breaker is open.
  using GraphFilter = std::function<bool(uint64_t graph)>;

  /// Set (or update) a tenant's weight; values <= 0 clamp to a tiny epsilon.
  void SetWeight(const std::string& tenant, double weight);

  /// Queue one request (`cost` is the fair-share charge, 1.0 = per-request
  /// fairness).
  void Enqueue(const std::string& tenant, const BatchKey& key, uint64_t id,
               Clock::time_point enqueue_time, double cost = 1.0);

  /// `can_take(tenant)` returns how many more requests the tenant may have
  /// dispatched right now (its in-flight headroom); <= 0 skips the tenant.
  std::optional<Plan> PlanBatch(int max_n,
                                const std::function<int(const std::string&)>& can_take,
                                const GraphFilter& graph_ok = nullptr) const;
  std::vector<Popped> PopBatch(int max_n,
                               const std::function<int(const std::string&)>& can_take,
                               const GraphFilter& graph_ok = nullptr);

  /// Remove every queued entry matching `pred` (any position, not just
  /// heads) and return them. The vft cost charged at enqueue stays charged —
  /// shed work still counts against its tenant's fair share, so a tenant
  /// cannot farm scheduling credit by submitting work that gets shed.
  std::vector<Popped> RemoveIf(
      const std::function<bool(const std::string& tenant, uint64_t graph, uint64_t id)>&
          pred);

  int64_t QueueDepth(const std::string& tenant) const;
  int64_t TotalDepth() const { return total_depth_; }

 private:
  struct QueuedItem {
    BatchKey key;
    uint64_t id = 0;
    double vft = 0.0;
    uint64_t seq = 0;  // FIFO tie-break for equal vft
    Clock::time_point enqueue_time;
  };
  struct TenantQueue {
    double weight = 1.0;
    double last_vft = 0.0;
    std::deque<QueuedItem> items;
  };

  /// Shared selection walk behind PlanBatch/PopBatch. `pop` mutates.
  template <typename Visit>
  int Collect(int max_n, const std::function<int(const std::string&)>& can_take,
              const GraphFilter& graph_ok, bool pop, BatchKey* key_out,
              Clock::time_point* head_out, Visit&& visit);

  std::unordered_map<std::string, TenantQueue> tenants_;
  double virtual_time_ = 0.0;
  uint64_t next_seq_ = 0;
  int64_t total_depth_ = 0;
};

/// \brief Multi-tenant serving front-end: admission, micro-batching, QoS.
class Server {
 public:
  Server(Runtime* runtime, ServerOptions options);
  /// Shutdown(): drains the queue, then joins the dispatcher.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a graph with the underlying pool; returns its handle
  /// (content fingerprint, deduplicated).
  uint64_t RegisterGraph(CsrMatrix abar);

  /// Streaming admission: patch the registered graph `base_graph` in place
  /// with an edge-delta batch (SessionPool::ApplyDeltas — incremental plan
  /// maintenance on a resident backend) and return the re-fingerprinted
  /// handle the graph now answers to; the old handle is forgotten. Refused
  /// with kOverloaded — retryable, no side effects — while any request for
  /// `base_graph` is queued or in flight: queued requests would dispatch
  /// against a forgotten handle, so the caller drains (or retries) first.
  /// The check and the patch are atomic against Submit, so no request ever
  /// slips in between them.
  Result<uint64_t> RegisterGraph(uint64_t base_graph, const DeltaBatch& deltas,
                                 DeltaApplyStats* stats = nullptr);

  /// Drop a registered graph. Refused with kOverloaded while any request
  /// for it is queued or in flight (streaming re-registration tests use this
  /// to avoid leaking pool entries; a busy graph is never pulled out from
  /// under its requests). Unknown handles return InvalidArgument.
  Status UnregisterGraph(uint64_t handle);

  /// Set QoS knobs for a tenant (otherwise ServerOptions::default_tenant
  /// applies on first submit). Weight changes apply to future submits.
  void ConfigureTenant(const std::string& tenant, const TenantOptions& options);

  /// Per-graph retry override (otherwise ServerOptions::retry applies).
  /// Takes effect for batches popped after the call.
  void SetRetryPolicy(uint64_t graph, const RetryPolicy& policy);

  /// Submit one request. Returns a future resolving to the product (or an
  /// error). Synchronous rejections: kOverloaded when the tenant's bounded
  /// queue is full, InvalidArgument for unknown handles / mismatched
  /// feature shape, Internal after Shutdown. Accepted requests always
  /// resolve, even across Shutdown.
  Future<DenseMatrix> Submit(InferRequest request);

  /// Stop admission, serve everything queued (ignoring the time window),
  /// wait for in-flight batches, join the dispatcher. Idempotent.
  void Shutdown();

  ServerStats stats() const;
  SessionPool* pool() { return &pool_; }
  const ServerOptions& options() const { return options_; }

 private:
  struct Pending {
    DenseMatrix x;
    Promise<DenseMatrix> promise;
    std::string tenant;
    uint64_t graph = 0;
    WfqScheduler::Clock::time_point enqueue_time;
    WfqScheduler::Clock::time_point deadline = WfqScheduler::Clock::time_point::max();
  };
  struct TenantState {
    TenantOptions options;
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t failed = 0;
    int64_t rejected = 0;
    int64_t inflight = 0;
    int64_t deadline_missed = 0;
    int64_t shed = 0;
    double cost_charged = 0.0;
  };
  struct BatchJob {
    uint64_t graph = 0;
    std::vector<Pending> items;
    int stream = 0;
    /// Resolved under mu_ at pop time (per-graph override or server default).
    RetryPolicy retry;
    /// Armed with the latest item deadline; null when no item has one.
    std::shared_ptr<CancelToken> cancel;
    /// This batch is a half-open breaker probe: its outcome alone decides
    /// whether the breaker closes or re-opens.
    bool probe = false;
  };
  /// Per-graph fault-handling state (breaker + retry override), keyed like
  /// graph_inflight_ on the content fingerprint.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  struct GraphState {
    bool has_retry_override = false;
    RetryPolicy retry;
    int consecutive_failures = 0;
    BreakerState breaker = BreakerState::kClosed;
    WfqScheduler::Clock::time_point open_until;
    bool probe_inflight = false;
  };

  TenantState& TenantLocked(const std::string& tenant);
  /// Queued + in-flight requests referencing `handle` (mu_ held). A batch
  /// counts as in flight from the moment it is popped under mu_ until
  /// CompleteBatch, which covers the unlocked pop -> pool Acquire window.
  int64_t GraphLoadLocked(uint64_t handle) const;
  RetryPolicy RetryPolicyLocked(uint64_t graph) const;
  /// Pull breaker-open graphs' queued requests out of the scheduler (keeping
  /// the oldest max_batch highest-weight ones for the eventual probe) so the
  /// caller can resolve them kUnavailable outside the lock. Lowest tenant
  /// weight is shed first, newest first within a weight.
  std::vector<Pending> ShedForOpenBreakersLocked();
  /// Earliest open_until across open breakers, if any (bounds the dispatcher
  /// wait so half-open promotion isn't missed while the queue is idle).
  std::optional<WfqScheduler::Clock::time_point> NextBreakerWakeLocked() const;
  void DispatcherLoop();
  void DispatchBatch(BatchJob job);
  void CompleteBatch(BatchJob job, const Status& status, std::vector<DenseMatrix> zs);

  ServerOptions options_;
  SessionPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  WfqScheduler sched_;
  std::unordered_map<uint64_t, Pending> pending_;  // queued payloads by id
  std::unordered_map<uint64_t, int64_t> graph_inflight_;  // dispatched per graph
  std::unordered_map<uint64_t, GraphState> graph_state_;
  std::unordered_map<std::string, TenantState> tenants_;
  uint64_t next_id_ = 0;
  int64_t inflight_total_ = 0;
  int64_t batches_ = 0;
  int64_t breaker_trips_ = 0;
  std::vector<int64_t> batch_size_hist_;
  std::vector<double> latencies_us_;
  bool stopping_ = false;
  /// Incremented by the session layer per transparent retry attempt (shared
  /// across batches, hence atomic — batches complete off-lock).
  std::atomic<int64_t> retries_{0};

  std::thread dispatcher_;
};

}  // namespace hcspmm
