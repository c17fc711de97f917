// ShardedSession: one sparse operator split into K row-disjoint shards
// (GraphPartitioner), each bound to its own Session — so each shard has its
// own HybridPlan under its own PlanCache fingerprint, per-shard plan
// building overlaps across the runtime pool, and multiplies fan out across
// the shards' independent streams. The decomposition is merge-free: shard i
// owns output rows [ranges[i].row_begin, row_end), and its stream task
// copies its contiguous row slice into place in the caller's output — so
// joining is a completion counter, never a reduction over overlapping
// partials. fp32 results are bit-identical to the unsharded path for every
// K (per-row summation order is untouched by a row split).
//
// The partition owns copies of the shard CSRs, so unlike Session the source
// matrix only needs to live through Open(), not through the session.
//
// Streaming: ApplyDeltas routes row-disjoint sub-batches to the owning
// shards and publishes a new ShardState — an immutable cross-shard snapshot
// (partition + sessions + per-shard pinned PlanVersions). Every multiply
// pins exactly one ShardState, so a fan-out never sees shard i patched and
// shard j not, even while deltas land concurrently.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/session.h"
#include "shard/partitioner.h"
#include "stream/delta.h"

namespace hcspmm {

class Runtime;

/// \brief K row-disjoint Sessions behind one Session-shaped multiply API.
class ShardedSession : public std::enable_shared_from_this<ShardedSession> {
 public:
  ShardedSession(const ShardedSession&) = delete;
  ShardedSession& operator=(const ShardedSession&) = delete;

  /// Partition `abar` and open one Session per shard on `runtime` (every
  /// shard session gets its own streams, so shard work naturally overlaps).
  /// Returns immediately like Runtime::OpenSession: per-shard preprocessing
  /// runs on the pool; errors surface through WaitReady() and every
  /// operation. `abar` is copied shard-wise and need not outlive the result.
  static std::shared_ptr<ShardedSession> Open(Runtime* runtime, const CsrMatrix& abar,
                                              const SessionOptions& options,
                                              const ShardingOptions& sharding);

  /// Block until every shard finished preprocessing; first error wins.
  Status WaitReady() const;

  /// Apply edge deltas against the sharded operator: the batch (rows in the
  /// *full* matrix coordinate space) is sliced into row-disjoint sub-batches
  /// and applied to the owning shards' sessions, then a new ShardState is
  /// published. When the resulting nnz balance drifts past
  /// ShardingOptions::rebalance_threshold (max/mean) the operator is
  /// repartitioned: shard CSRs are merged and re-split, and fresh sessions
  /// open on the new shards (their plans join the PlanCache under their own
  /// content fingerprints). In-flight multiplies finish on the state they
  /// pinned. Waits for init; concurrent calls serialize. Deltas must flow
  /// through this call, not shard_session(i)->ApplyDeltas, or published
  /// states go stale.
  Status ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats = nullptr);

  /// z = Abar * x, synchronously: every shard is submitted to its session's
  /// stream, computes its row slice, and scatters it into *z; the caller
  /// blocks on the join. Appends to `profile` in shard order if non-null.
  /// Output contract of Session::Multiply: z's storage is reused when its
  /// shape matches, z aliasing x is InvalidArgument, and on any error z's
  /// contents are unspecified.
  ///
  /// ExecControls forward into each shard's Session::MultiplyOn, so retry
  /// re-dispatches *only the failed shard's row slice*: a shard scatters its
  /// rows into the output exactly once, after its (possibly retried) attempt
  /// succeeded, and completed slices are never re-accumulated — fp32 results
  /// under retry stay bit-identical to the fault-free run. Each shard draws
  /// faults/jitter from its own scope (options.fault_scope() + shard index).
  /// A cancel token makes joins deadline-aware: shard kernels observe it at
  /// window-batch granularity and fail kDeadlineExceeded, so the join
  /// resolves promptly (it still waits for every shard task — the output
  /// buffer is shared).
  Status Multiply(const DenseMatrix& x, DenseMatrix* z, KernelProfile* profile,
                  const ExecControls& ctl = {}) const;

  /// Async multiply returning a joined future: resolves to the full product
  /// after the last shard wrote its rows (first shard error wins). Submits
  /// shard i to stream `stream` of shard i's session, so calls on the same
  /// `stream` stay FIFO per shard exactly like Session::MultiplyAsync. A
  /// non-null `profile` accumulates every shard's metered cost in shard
  /// order before the future resolves and must outlive it. The whole
  /// fan-out is pinned to the ShardState current at submission.
  /// ExecControls behave as in Multiply (shard-slice retry, deadline-aware
  /// join).
  Future<DenseMatrix> MultiplyAsync(DenseMatrix x, KernelProfile* profile = nullptr,
                                    int stream = 0, ExecControls ctl = {});

  /// Batched synchronous entry point (contract of Session::MultiplyBatch:
  /// scratch results so *zs may alias the inputs, profiles accumulate in
  /// batch order, empty batch is an OK no-op, first item error wins). Items
  /// run one after another, each with full cross-shard parallelism.
  Status MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                       std::vector<DenseMatrix>* zs, KernelProfile* profile,
                       const ExecControls& ctl = {}) const;

  int num_shards() const { return State()->partition->NumShards(); }
  /// Current partition/ranges/sessions. Transient across ApplyDeltas (a
  /// repartition replaces them); pin semantics live inside the multiplies.
  const GraphPartition& partition() const { return *State()->partition; }
  const ShardRange& shard_range(int i) const { return State()->partition->ranges[i]; }
  Session* shard_session(int i) const { return State()->sessions[i].get(); }

  /// Monotone state generation: 0 at open, +1 per ApplyDeltas (waits).
  uint64_t generation() const { return State()->generation; }

  /// Summed one-time preprocessing time across shards (each shard reports 0
  /// on its own PlanCache hit). Waits for every shard.
  double PreprocessNs() const;

  /// True when shard i's plan came out of the PlanCache (waits).
  bool plan_from_cache(int i) const { return State()->sessions[i]->plan_from_cache(); }

  /// True when every shard's plan came out of the PlanCache (waits).
  bool plan_from_cache() const {
    auto state = State();
    for (const auto& session : state->sessions) {
      if (!session->plan_from_cache()) return false;
    }
    return true;
  }

  /// Summed framework-specific auxiliary memory across shards (waits).
  int64_t AuxMemoryBytes() const;

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  const std::string& kernel_name() const { return options_.kernel_name(); }
  const DeviceSpec& device() const { return options_.device(); }
  DataType dtype() const { return options_.dtype(); }
  int num_threads() const { return options_.num_threads(); }

 private:
  /// One immutable cross-shard snapshot. `versions` pins every shard's
  /// PlanVersion; empty means "each session's initial version" (states
  /// created at Open/repartition time, before the sessions finished their
  /// async init — the init-gated shard tasks resolve it then).
  struct ShardState {
    std::shared_ptr<const GraphPartition> partition;
    std::vector<std::shared_ptr<Session>> sessions;
    std::vector<std::shared_ptr<const PlanVersion>> versions;
    uint64_t generation = 0;
  };

  ShardedSession(SessionOptions options, ShardingOptions sharding, Runtime* runtime)
      : options_(std::move(options)), sharding_(sharding), runtime_(runtime) {}

  std::shared_ptr<const ShardState> State() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return state_;
  }

  /// Build a state (sessions opened per shard of `partition`) and the
  /// keepalives pinning it through every shard's async init.
  static std::shared_ptr<const ShardState> OpenState(
      Runtime* runtime, std::shared_ptr<const GraphPartition> partition,
      const SessionOptions& options, uint64_t generation);

  /// The shard-i snapshot a pinned state resolves to (init must be done).
  static const PlanVersion& ShardVersion(const ShardState& state, size_t i);

  SessionOptions options_;
  ShardingOptions sharding_;
  Runtime* runtime_;
  int32_t rows_ = 0;
  int32_t cols_ = 0;

  mutable std::mutex state_mu_;
  std::shared_ptr<const ShardState> state_;

  // Serializes ApplyDeltas (read-modify-write on state_).
  std::mutex apply_mu_;
};

/// \brief Non-owning handle to either a Session or a ShardedSession
/// (exactly one non-null) — the aggregation backend the GNN models and the
/// trainer program against, so a shard count threads through them without
/// duplicating every call site.
class AggregatorRef {
 public:
  AggregatorRef(Session* session)  // NOLINT: implicit by design
      : session_(session) {}
  AggregatorRef(ShardedSession* sharded)  // NOLINT: implicit by design
      : sharded_(sharded) {}

  Status Multiply(const DenseMatrix& x, DenseMatrix* z, KernelProfile* profile) const {
    return session_ != nullptr ? session_->Multiply(x, z, profile)
                               : sharded_->Multiply(x, z, profile);
  }
  Future<DenseMatrix> MultiplyAsync(DenseMatrix x, KernelProfile* profile = nullptr,
                                    int stream = 0) const {
    return session_ != nullptr ? session_->MultiplyAsync(std::move(x), profile, stream)
                               : sharded_->MultiplyAsync(std::move(x), profile, stream);
  }
  Status MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                       std::vector<DenseMatrix>* zs, KernelProfile* profile) const {
    return session_ != nullptr ? session_->MultiplyBatch(xs, zs, profile)
                               : sharded_->MultiplyBatch(xs, zs, profile);
  }
  double PreprocessNs() const {
    return session_ != nullptr ? session_->PreprocessNs() : sharded_->PreprocessNs();
  }
  bool plan_from_cache() const {
    return session_ != nullptr ? session_->plan_from_cache()
                               : sharded_->plan_from_cache();
  }
  int64_t AuxMemoryBytes() const {
    return session_ != nullptr ? session_->AuxMemoryBytes() : sharded_->AuxMemoryBytes();
  }
  const std::string& kernel_name() const {
    return session_ != nullptr ? session_->kernel_name() : sharded_->kernel_name();
  }
  const DeviceSpec& device() const {
    return session_ != nullptr ? session_->device() : sharded_->device();
  }
  DataType dtype() const {
    return session_ != nullptr ? session_->dtype() : sharded_->dtype();
  }
  int num_threads() const {
    return session_ != nullptr ? session_->num_threads() : sharded_->num_threads();
  }

  Session* session() const { return session_; }
  ShardedSession* sharded() const { return sharded_; }

 private:
  Session* session_ = nullptr;
  ShardedSession* sharded_ = nullptr;
};

}  // namespace hcspmm
