#include "shard/sharded_session.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "kernels/spmm_kernel.h"
#include "runtime/runtime.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hcspmm {

namespace {

// Copy one shard's computed row slice into its disjoint block of the full
// output. Both matrices are row-major, so the slice is one contiguous run.
Status ScatterShard(const DenseMatrix& local, const ShardRange& range,
                    DenseMatrix* out) {
  if (local.rows() != range.NumRows() || local.cols() != out->cols()) {
    return Status::Internal("sharded multiply: shard output shape mismatch");
  }
  if (local.rows() == 0) return Status::OK();
  std::copy(local.data().begin(), local.data().end(),
            out->MutableRowData(range.row_begin));
  return Status::OK();
}

// Concatenate row-disjoint shard CSRs (row_ptr rebased per shard) back into
// the full matrix — the repartition source after streaming deltas drifted
// the shard balance.
CsrMatrix MergeShardCsrs(const std::vector<const CsrMatrix*>& shards, int32_t rows,
                         int32_t cols) {
  int64_t nnz = 0;
  for (const CsrMatrix* s : shards) nnz += s->nnz();
  std::vector<int64_t> row_ptr;
  row_ptr.reserve(static_cast<size_t>(rows) + 1);
  row_ptr.push_back(0);
  std::vector<int32_t> col_ind;
  col_ind.reserve(static_cast<size_t>(nnz));
  std::vector<float> val;
  val.reserve(static_cast<size_t>(nnz));
  int64_t offset = 0;
  for (const CsrMatrix* s : shards) {
    for (int32_t r = 0; r < s->rows(); ++r) {
      row_ptr.push_back(offset + s->RowEnd(r));
    }
    col_ind.insert(col_ind.end(), s->col_ind().begin(), s->col_ind().end());
    val.insert(val.end(), s->val().begin(), s->val().end());
    offset += s->nnz();
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_ind), std::move(val));
}

}  // namespace

std::shared_ptr<const ShardedSession::ShardState> ShardedSession::OpenState(
    Runtime* runtime, std::shared_ptr<const GraphPartition> partition,
    const SessionOptions& options, uint64_t generation) {
  auto state = std::make_shared<ShardState>();
  state->partition = std::move(partition);
  state->generation = generation;
  // The shard CSRs live in state->partition, whose address is stable for
  // the sessions' lifetime; every OpenSession returns immediately, so the K
  // plan builds overlap each other on the runtime pool.
  state->sessions.reserve(state->partition->shards.size());
  for (size_t i = 0; i < state->partition->shards.size(); ++i) {
    // Each shard is its own fault domain: distinct scopes mean an injector
    // can fail exactly one shard of a fan-out, and retry jitter never runs
    // in lockstep across shards.
    SessionOptions shard_options = options;
    shard_options.set_fault_scope(options.fault_scope() + i);
    state->sessions.push_back(
        runtime->OpenSession(&state->partition->shards[i], shard_options));
  }
  std::shared_ptr<const ShardState> out = state;
  for (const auto& session : out->sessions) {
    // Pin the state (and thus the partition CSR the init task is reading)
    // until that shard's preprocessing resolves: the caller may drop every
    // handle right after Open/ApplyDeltas without waiting.
    session->ready_future().OnReady([out] {});
  }
  return out;
}

const PlanVersion& ShardedSession::ShardVersion(const ShardState& state, size_t i) {
  // States minted before the sessions finished init carry no pinned
  // versions; the (init-gated) shard tasks resolve them to version 0, which
  // is immutable — so a multiply pinned to such a state computes the
  // open-time content even if deltas landed meanwhile.
  if (!state.versions.empty()) return *state.versions[i];
  return *state.sessions[i]->InitialVersion();
}

std::shared_ptr<ShardedSession> ShardedSession::Open(Runtime* runtime,
                                                     const CsrMatrix& abar,
                                                     const SessionOptions& options,
                                                     const ShardingOptions& sharding) {
  std::shared_ptr<ShardedSession> sharded(
      new ShardedSession(options, sharding, runtime));
  sharded->rows_ = abar.rows();
  sharded->cols_ = abar.cols();
  auto partition = std::make_shared<const GraphPartition>(PartitionCsr(abar, sharding));
  sharded->state_ = OpenState(runtime, std::move(partition), options, /*generation=*/0);
  return sharded;
}

Status ShardedSession::WaitReady() const {
  auto state = State();
  Status first = Status::OK();
  for (const auto& session : state->sessions) {
    Status st = session->WaitReady();
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

double ShardedSession::PreprocessNs() const {
  auto state = State();
  double total = 0.0;
  for (const auto& session : state->sessions) total += session->PreprocessNs();
  return total;
}

int64_t ShardedSession::AuxMemoryBytes() const {
  auto state = State();
  int64_t total = 0;
  for (const auto& session : state->sessions) total += session->AuxMemoryBytes();
  return total;
}

Status ShardedSession::ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats) {
  HCSPMM_RETURN_NOT_OK(WaitReady());
  if (options_.kernel_name() != "hcspmm") {
    return Status::InvalidArgument(
        "ApplyDeltas requires the 'hcspmm' kernel (incremental maintenance "
        "patches its HybridPlan; reopen baseline sessions instead)");
  }
  std::lock_guard<std::mutex> apply_lk(apply_mu_);
  WallTimer timer;
  auto state = State();
  HCSPMM_RETURN_NOT_OK(batch.CheckBounds(rows_, cols_));

  const auto& ranges = state->partition->ranges;
  const size_t k = state->sessions.size();
  std::vector<DeltaBatch> subs;
  subs.reserve(k);
  std::vector<std::shared_ptr<const PlanVersion>> bases(k);
  for (size_t i = 0; i < k; ++i) {
    subs.push_back(batch.Slice(ranges[i].row_begin, ranges[i].row_end));
    bases[i] = state->sessions[i]->CurrentVersion();
  }

  // Pre-validate the one data-dependent failure (deleting an absent edge)
  // against every owning shard *before* mutating any of them, so a bad
  // batch leaves the whole sharded operator untouched instead of torn at
  // the failing shard.
  for (size_t i = 0; i < k; ++i) {
    const CsrMatrix& csr = *bases[i]->csr;
    for (const EdgeDelta& e : subs[i].deletes()) {
      const auto begin = csr.col_ind().begin() + csr.RowBegin(e.row);
      const auto end = csr.col_ind().begin() + csr.RowEnd(e.row);
      if (!std::binary_search(begin, end, e.col)) {
        return Status::InvalidArgument(
            "ShardedSession::ApplyDeltas: delete of absent edge (" +
            std::to_string(e.row + ranges[i].row_begin) + ", " +
            std::to_string(e.col) + ")");
      }
    }
  }

  DeltaApplyStats agg;
  for (size_t i = 0; i < k; ++i) {
    if (subs[i].empty()) {
      // Untouched shard: still counts its windows in the dirty fraction.
      if (bases[i]->plan != nullptr) {
        agg.total_windows +=
            static_cast<int64_t>(bases[i]->plan->windows.windows.size());
      }
      continue;
    }
    DeltaApplyStats s;
    HCSPMM_RETURN_NOT_OK(state->sessions[i]->ApplyDeltas(subs[i], &s));
    agg.inserted += s.inserted;
    agg.updated += s.updated;
    agg.deleted += s.deleted;
    agg.total_windows += s.total_windows;
    agg.dirty_windows += s.dirty_windows;
    agg.repacked = agg.repacked || s.repacked;
  }

  // Rebalance check: streaming inserts/deletes drift the nnz balance the
  // partitioner established; past the threshold the sync barrier wastes
  // enough time that a full re-split pays for itself.
  int64_t max_nnz = 0, total_nnz = 0;
  std::vector<std::shared_ptr<const PlanVersion>> currents(k);
  for (size_t i = 0; i < k; ++i) {
    currents[i] = state->sessions[i]->CurrentVersion();
    const int64_t nnz = currents[i]->csr->nnz();
    max_nnz = std::max(max_nnz, nnz);
    total_nnz += nnz;
  }
  const double mean_nnz = static_cast<double>(total_nnz) / static_cast<double>(k);
  const bool rebalance = k > 1 && mean_nnz > 0.0 &&
                         static_cast<double>(max_nnz) >
                             sharding_.rebalance_threshold * mean_nnz;

  std::shared_ptr<const ShardState> next;
  if (rebalance) {
    std::vector<const CsrMatrix*> shard_csrs(k);
    for (size_t i = 0; i < k; ++i) shard_csrs[i] = currents[i]->csr;
    const CsrMatrix full = MergeShardCsrs(shard_csrs, rows_, cols_);
    auto partition =
        std::make_shared<const GraphPartition>(PartitionCsr(full, sharding_));
    next = OpenState(runtime_, std::move(partition), options_,
                     state->generation + 1);
    agg.repartitioned = true;
  } else {
    auto mutable_next = std::make_shared<ShardState>();
    mutable_next->partition = state->partition;
    mutable_next->sessions = state->sessions;
    mutable_next->versions = std::move(currents);
    mutable_next->generation = state->generation + 1;
    next = std::move(mutable_next);
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    state_ = std::move(next);
  }
  if (stats != nullptr) {
    agg.version = state->generation + 1;
    agg.apply_ms = timer.ElapsedMs();
    agg.repartitioned = rebalance;
    *stats = agg;
  }
  return Status::OK();
}

Status ShardedSession::Multiply(const DenseMatrix& x, DenseMatrix* z,
                                KernelProfile* profile,
                                const ExecControls& ctl) const {
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(rows(), x, z));
  auto state = State();
  if (state->sessions.size() == 1) {
    return state->sessions[0]->Multiply(x, z, profile, ctl);
  }

  // Fan out: each shard computes its rows on its own session's stream and
  // scatters them into `z` (disjoint row blocks — no lock, no reduction);
  // this thread just joins. Per-shard profiles land in indexed slots so the
  // caller's profile accumulates in deterministic shard order. All shards
  // run on the one pinned `state`, so a concurrent ApplyDeltas can never
  // tear the fan-out across versions.
  std::vector<KernelProfile> profs(state->sessions.size());
  std::vector<Future<bool>> futures;
  futures.reserve(state->sessions.size());
  for (size_t i = 0; i < state->sessions.size(); ++i) {
    Session* session = state->sessions[i].get();
    const ShardRange& range = state->partition->ranges[i];
    KernelProfile* prof = &profs[i];
    futures.push_back(session->SubmitAsync(
        [state, session, range, i, &x, z, prof, ctl] {
          // Retry (inside MultiplyOn) recomputes only this shard's slice;
          // the scatter runs once, after the slice finally succeeded.
          DenseMatrix local;
          HCSPMM_RETURN_NOT_OK(
              session->MultiplyOn(ShardVersion(*state, i), x, &local, prof, ctl));
          return ScatterShard(local, range, z);
        },
        /*stream=*/0));
  }
  Status first = Status::OK();
  for (Future<bool>& fut : futures) {
    const Status& st = fut.status();  // blocks; also covers shard init errors
    if (!st.ok() && first.ok()) first = st;
  }
  HCSPMM_RETURN_NOT_OK(first);
  if (profile != nullptr) {
    for (const KernelProfile& p : profs) profile->Accumulate(p);  // shard order
  }
  return Status::OK();
}

Future<DenseMatrix> ShardedSession::MultiplyAsync(DenseMatrix x, KernelProfile* profile,
                                                  int stream, ExecControls ctl) {
  auto state = State();
  if (state->sessions.size() == 1) {
    Future<DenseMatrix> fut = state->sessions[0]->MultiplyAsync(
        std::move(x), profile, stream, std::move(ctl));
    // Same keepalive the K>1 tasks carry: the session's stream task reads
    // the shard CSR owned by the pinned state, so hold it until the future
    // resolves even if the caller drops its handle first.
    fut.OnReady([self = shared_from_this(), state] {});
    return fut;
  }

  // Join state shared by every shard's stream task. The last shard to finish
  // (counted via the SubmitAsync futures, which resolve even when a shard's
  // init failed and its task never ran) folds the profiles in shard order
  // and resolves the promise.
  struct JoinState {
    DenseMatrix x;
    DenseMatrix out;
    std::vector<KernelProfile> profs;
    std::atomic<int> remaining;
    std::mutex mu;
    Status first_error;
    KernelProfile* profile;
    Promise<DenseMatrix> promise;
  };
  auto join = std::make_shared<JoinState>();
  join->x = std::move(x);
  join->out = DenseMatrix(rows(), join->x.cols());
  join->profs.resize(state->sessions.size());
  join->remaining.store(static_cast<int>(state->sessions.size()));
  join->profile = profile;

  // `self` and `state` ride in every task: the shard sessions read CSRs
  // owned by the pinned state, which must outlive any pending shard work
  // even if the caller drops its handle before the joined future resolves.
  auto self = shared_from_this();
  for (size_t i = 0; i < state->sessions.size(); ++i) {
    Session* session = state->sessions[i].get();
    const ShardRange range = state->partition->ranges[i];
    Future<bool> fut = session->SubmitAsync(
        [join, self, state, session, range, i, ctl] {
          DenseMatrix local;
          HCSPMM_RETURN_NOT_OK(session->MultiplyOn(ShardVersion(*state, i), join->x,
                                                   &local, &join->profs[i], ctl));
          return ScatterShard(local, range, &join->out);
        },
        stream);
    fut.OnReady([join, fut] {
      if (!fut.status().ok()) {
        std::lock_guard<std::mutex> lk(join->mu);
        if (join->first_error.ok()) join->first_error = fut.status();
      }
      // acq_rel: the last decrement observes every other shard's writes to
      // `out` before moving it into the promise.
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      if (!join->first_error.ok()) {
        join->promise.Set(join->first_error);
        return;
      }
      if (join->profile != nullptr) {
        for (const KernelProfile& p : join->profs) join->profile->Accumulate(p);
      }
      join->promise.Set(std::move(join->out));
    });
  }
  return join->promise.future();
}

Status ShardedSession::MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                                     std::vector<DenseMatrix>* zs,
                                     KernelProfile* profile,
                                     const ExecControls& ctl) const {
  if (zs == nullptr) return Status::InvalidArgument("MultiplyBatch: zs is null");
  for (const DenseMatrix* x : xs) {
    if (x == nullptr) return Status::InvalidArgument("MultiplyBatch: null input");
  }
  if (xs.empty()) {
    zs->clear();
    return Status::OK();
  }
  // Items run sequentially, each with full cross-shard parallelism; results
  // stay in scratch until the whole batch succeeded so *zs may alias xs and
  // the caller's profile never sees a partial batch.
  std::vector<DenseMatrix> results(xs.size());
  std::vector<KernelProfile> profs(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    HCSPMM_RETURN_NOT_OK(Multiply(*xs[i], &results[i], &profs[i], ctl));
  }
  if (profile != nullptr) {
    for (const KernelProfile& p : profs) profile->Accumulate(p);  // batch order
  }
  *zs = std::move(results);
  return Status::OK();
}

}  // namespace hcspmm
