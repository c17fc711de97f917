// Session: one SpMM kernel bound to one sparse operator, with asynchronous,
// stream-ordered submission — the one execution handle the GNN models, the
// serving pool and the benches multiply through.
//
// Opening a session returns immediately: preprocessing (plan building /
// fingerprint lookup for "hcspmm", window construction for the baselines)
// runs on the runtime's pool, and the first operation — or WaitReady() —
// waits on it. Work submitted to the same stream executes FIFO; distinct
// streams run concurrently. Results and metered profiles are bit-identical
// to the synchronous path: the functional kernels are deterministic for any
// thread count and metering is simulated, so only wall-clock changes.
//
// Sharding (SessionOptions::set_sharding) splits the plan's row windows into
// K contiguous ranges stored in each PlanVersion; an unsharded "hcspmm"
// session is the one-range case. A multiply runs the ranges in order, each
// across the pool; each writes its own rows of z, draws faults from its own
// scope and retries alone, so a shard is a fault domain without being a
// separate matrix, plan or session.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/hybrid_spmm.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "kernels/spmm_kernel.h"
#include "runtime/future.h"
#include "shard/partitioner.h"
#include "stream/delta.h"
#include "util/fault.h"

namespace hcspmm {

/// \brief One immutable snapshot of a session's execution state: the bound
/// CSR content, its plan, and its fingerprint at a given delta version.
///
/// Sessions publish a new PlanVersion on every ApplyDeltas; in-flight async
/// multiplies pin (shared_ptr) the snapshot they were submitted against and
/// finish on it, while new submissions atomically see the latest one. The
/// PlanCache holds old and new plans under distinct fingerprints, so an
/// evicted old snapshot is simply dropped — never corrupted.
struct PlanVersion {
  /// Owning handle for patched (or shared-at-open) matrices. Null only for
  /// version 0 of a session opened on a caller-owned raw pointer.
  std::shared_ptr<const CsrMatrix> owned;
  const CsrMatrix* csr = nullptr;             ///< the matrix this version executes on
  std::shared_ptr<const HybridPlan> plan;     ///< "hcspmm" only
  WindowedCsr windows;                        ///< "cuda_opt" only (see Session)
  bool have_windows = false;
  uint64_t fingerprint = 0;  ///< content fingerprint (folded after deltas)
  uint64_t version = 0;      ///< 0 at open, +1 per applied batch
  int64_t aux_bytes = 0;
  double preprocess_ns = 0.0;  ///< plan build (v0) or patch cost (later)
  bool plan_from_cache = false;
  /// "hcspmm" only: contiguous window ranges of `plan` tiling its windows,
  /// one per shard (a single range when unsharded). Part of the snapshot, so
  /// a pinned multiply can never be torn across shards.
  std::vector<ShardRange> shards;
};

/// Builder-style configuration for Runtime::OpenSession.
class SessionOptions {
 public:
  SessionOptions& set_kernel(std::string name) {
    kernel_name_ = std::move(name);
    return *this;
  }
  SessionOptions& set_device(DeviceSpec dev) {
    device_ = std::move(dev);
    return *this;
  }
  SessionOptions& set_dtype(DataType dtype) {
    dtype_ = dtype;
    return *this;
  }
  /// Seeds KernelOptions::num_threads for every multiply (<= 0 => hardware
  /// concurrency, 1 => serial).
  SessionOptions& set_num_threads(int n) {
    num_threads_ = n;
    return *this;
  }
  /// Number of independent FIFO streams (clamped to >= 1).
  SessionOptions& set_num_streams(int n) {
    num_streams_ = n;
    return *this;
  }
  /// Inject an explicit core selector (e.g. the retrained one from a
  /// CalibratedCostModel artifact) instead of the device's default.
  /// Only "hcspmm" consults a selector; the plan is cached under a
  /// selector-fingerprinted key so it never aliases default-selector plans.
  SessionOptions& set_selector(SelectorModel selector) {
    selector_ = selector;
    has_selector_ = true;
    return *this;
  }
  /// Store the column indices of the bound matrix as a packed
  /// (delta-encoded) byte stream decoded inline in the SIMD SpMM kernels,
  /// cutting index traffic from 4 bytes/nnz to ~1 on sorted adjacency.
  /// Lossless: fp32 results stay bit-identical to the plain path. Only the
  /// "hcspmm" kernel supports it (its plan carries the sidecar); opening a
  /// session with another kernel and this flag fails with InvalidArgument,
  /// as does a matrix whose rows are not column-sorted.
  SessionOptions& set_compress_indices(bool on) {
    compress_indices_ = on;
    return *this;
  }
  /// Storage precision of the dense features the kernels consume. fp32
  /// (default) is the bit-identical path. kFp16/kBf16 convert X once per
  /// multiply into 2-byte storage, widen per element on load, and
  /// accumulate in fp32 — deterministic across SIMD levels/threads/shards,
  /// but *not* bit-identical to fp32 (documented error-bound contract).
  SessionOptions& set_feature_precision(FeaturePrecision p) {
    feature_precision_ = p;
    return *this;
  }
  /// Attach a (shared) fault injector to this session's kernel dispatch
  /// path. Null (default) means no injection and zero overhead — the hot
  /// path never takes the injector's lock. Testing/chaos only.
  SessionOptions& set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    fault_injector_ = std::move(injector);
    return *this;
  }
  /// Fault-domain id this session's dispatches draw from (shard i of a
  /// sharded session draws from scope + i, so one shard can fail alone).
  /// Also seeds the retry policy's per-call jitter stream.
  SessionOptions& set_fault_scope(uint64_t scope) {
    fault_scope_ = scope;
    return *this;
  }
  /// Split the plan's row windows into sharding.num_shards contiguous
  /// ranges (see Session). K > 1 requires the "hcspmm" kernel (a shard is a
  /// window range of its plan); other kernels fail with InvalidArgument.
  /// The plan, and its PlanCache entry, is the same for every K.
  SessionOptions& set_sharding(ShardingOptions sharding) {
    sharding_ = sharding;
    return *this;
  }

  const std::string& kernel_name() const { return kernel_name_; }
  const DeviceSpec& device() const { return device_; }
  DataType dtype() const { return dtype_; }
  int num_threads() const { return num_threads_; }
  int num_streams() const { return num_streams_; }
  bool has_selector() const { return has_selector_; }
  const SelectorModel& selector() const { return selector_; }
  bool compress_indices() const { return compress_indices_; }
  FeaturePrecision feature_precision() const { return feature_precision_; }
  const std::shared_ptr<FaultInjector>& fault_injector() const {
    return fault_injector_;
  }
  uint64_t fault_scope() const { return fault_scope_; }
  const ShardingOptions& sharding() const { return sharding_; }

 private:
  std::string kernel_name_ = "hcspmm";
  DeviceSpec device_ = Rtx3090();
  DataType dtype_ = DataType::kTf32;
  int num_threads_ = 0;
  int num_streams_ = 2;
  SelectorModel selector_;
  bool has_selector_ = false;
  bool compress_indices_ = false;
  FeaturePrecision feature_precision_ = FeaturePrecision::kFp32;
  std::shared_ptr<FaultInjector> fault_injector_;
  uint64_t fault_scope_ = 0;
  ShardingOptions sharding_;
};

class Runtime;

/// \brief An async SpMM engine: kernel + operator + plan + FIFO streams.
class Session : public std::enable_shared_from_this<Session> {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Block until preprocessing finished; returns its outcome (also the
  /// "unknown kernel" diagnostic). Every other accessor below that depends
  /// on the plan waits internally, so calling this first is optional.
  Status WaitReady() const { return init_.status(); }

  /// Non-blocking: has preprocessing completed (successfully or not)?
  bool initialized() const { return init_.ready(); }

  /// z = Abar * x, synchronously on the calling thread with full row-level
  /// parallelism. Appends to `profile` if non-null.
  ///
  /// z's storage is reused when it already is fp32 with shape rows x
  /// x.cols(), so a caller multiplying in a loop allocates only once;
  /// otherwise z is replaced by a fresh matrix. z must not be &x
  /// (InvalidArgument). On kDeadlineExceeded or any other error z's
  /// contents are unspecified.
  ///
  /// Every multiply entry point takes optional ExecControls: a cancel token
  /// (polled at window-batch granularity; expiry resolves
  /// kDeadlineExceeded), and a RetryPolicy transparently re-running the
  /// whole attempt on IsRetryable failures — per shard when sharded, so
  /// only the failed window range recomputes. A failed attempt never
  /// touches `profile`, and a retry recomputes every row it owns from
  /// scratch, so fp32 results stay bit-identical to the fault-free run.
  /// A sharded multiply accumulates one profile per shard, in shard order.
  Status Multiply(const DenseMatrix& x, DenseMatrix* z, KernelProfile* profile,
                  const ExecControls& ctl = {}) const;

  /// Submit z = Abar * x to `stream` and return a Future resolving to z (or
  /// the error Status). FIFO within a stream; concurrent across streams.
  /// If non-null, `profile` accumulates the multiply's metered cost before
  /// the future resolves — give each concurrent stream its own profile.
  Future<DenseMatrix> MultiplyAsync(DenseMatrix x, KernelProfile* profile = nullptr,
                                    int stream = 0, ExecControls ctl = {});

  /// Batched synchronous entry point: results go to scratch first (so *zs
  /// may alias the inputs), profiles accumulate in batch order, the first
  /// item error wins. An empty batch returns OK without touching the pool.
  Status MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                       std::vector<DenseMatrix>* zs, KernelProfile* profile,
                       const ExecControls& ctl = {}) const;

  /// Async batch over owned inputs. An empty batch resolves immediately
  /// (already-ready future, no pool dispatch).
  Future<std::vector<DenseMatrix>> MultiplyBatchAsync(std::vector<DenseMatrix> xs,
                                                      KernelProfile* profile = nullptr,
                                                      int stream = 0,
                                                      ExecControls ctl = {});

  /// Submit an arbitrary task to `stream`, FIFO-ordered with the multiplies
  /// there; the future resolves to true (or `fn`'s error, or the init error
  /// without invoking `fn`). Everything captured by `fn` must stay alive
  /// until the future resolves, and `fn` must not block on other pool work
  /// (calling this session's synchronous entry points is fine — init has
  /// already resolved by the time a stream task runs).
  Future<bool> SubmitAsync(std::function<Status()> fn, int stream = 0);

  /// Apply a batch of edge deltas to the bound graph ("hcspmm" only): merge
  /// the deltas into a new CSR snapshot, rebuild only the dirty row windows
  /// (PatchPlan), re-encode the packed sidecar for those rows when
  /// compress_indices is on, fold the batch hash into the content
  /// fingerprint, insert the patched plan into the PlanCache under the new
  /// fingerprint, and atomically publish the new PlanVersion. In-flight
  /// async multiplies finish on the snapshot they pinned at submission; the
  /// next submission sees the patched plan. A sharded session keeps its
  /// range boundaries unless the patched shard nnz drifts past
  /// ShardingOptions::rebalance_threshold; then the boundaries are
  /// recomputed from the patched plan (stats->repartitioned). Waits for
  /// init; concurrent ApplyDeltas calls serialize. On error nothing is
  /// published.
  Status ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats = nullptr);

  /// The current (latest-published) snapshot; waits for init. Holding the
  /// returned shared_ptr pins the snapshot's matrix, plan and shard ranges.
  std::shared_ptr<const PlanVersion> CurrentVersion() const;

  /// z = Abar(version) * x on an explicitly pinned snapshot, synchronously,
  /// with the session's configured thread count.
  Status MultiplyOn(const PlanVersion& v, const DenseMatrix& x, DenseMatrix* z,
                    KernelProfile* profile, const ExecControls& ctl = {}) const;

  /// Published delta version (0 until the first ApplyDeltas; waits).
  uint64_t version() const;

  /// One-time preprocessing time in ns (0 on a PlanCache hit). Waits for
  /// preprocessing to finish.
  double PreprocessNs() const;

  /// True when the current version's plan came out of the PlanCache (waits).
  bool plan_from_cache() const;

  /// Framework-specific auxiliary memory, Table XII, for the current
  /// version (waits).
  int64_t AuxMemoryBytes() const;

  /// Current version's hybrid plan — populated only for "hcspmm" (waits).
  /// Transient: the pointer is guaranteed only until the next ApplyDeltas;
  /// pin CurrentVersion() to hold a snapshot across concurrent deltas.
  const HybridPlan* plan() const;

  /// FNV-1a content fingerprint of the bound matrix — the same value the
  /// PlanCache keys on, so the serving layer's SessionPool can admit/share
  /// sessions by graph content without rehashing the CSR (waits). After
  /// ApplyDeltas this is the *folded* fingerprint of the patched content.
  uint64_t content_fingerprint() const;

  const std::string& kernel_name() const { return options_.kernel_name(); }
  const DeviceSpec& device() const { return options_.device(); }
  DataType dtype() const { return options_.dtype(); }
  int num_threads() const { return options_.num_threads(); }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  /// Current version's matrix (waits). Transient like plan().
  const CsrMatrix& abar() const;

 private:
  friend class Runtime;

  // One FIFO lane: queued tasks drain one at a time on the pool, so a task
  // only starts after every earlier task on the same stream finished.
  struct Stream {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    bool running = false;
  };

  Session(const CsrMatrix* abar, SessionOptions options, ThreadPool* pool,
          PlanCache* cache);
  /// Shared-ownership open: the session (and every PlanVersion derived from
  /// the matrix) keeps `abar` alive. The streaming SessionPool opens its
  /// backends this way so a pool entry can be patched/unregistered while a
  /// session still computes on the old snapshot.
  Session(std::shared_ptr<const CsrMatrix> abar, SessionOptions options,
          ThreadPool* pool, PlanCache* cache);

  /// Kick preprocessing onto the pool (or resolve init_ immediately on a
  /// sync validation error). Called once by Runtime::OpenSession after the
  /// shared_ptr exists (the task keeps the session alive).
  void StartInit();

  /// Preprocessing body: operand validation (on a PlanCache miss), plan
  /// lookup/build, window statistics and the shard ranges. Publishes
  /// version 0 (initial_ and current_) before init_ resolves.
  Status Initialize();

  /// Enqueue onto a stream; pumps are gated on init_ so no task ever runs
  /// before (or without) a successful plan. `task` must not block on other
  /// pool work.
  void Enqueue(int stream, std::function<void()> task);
  void Pump(Stream* s);

  /// Latest published version without waiting for init (null before the
  /// init task publishes version 0). Async submissions pin through this at
  /// enqueue time and fall back to initial_ inside the (init-gated) task.
  std::shared_ptr<const PlanVersion> TryPinVersion() const;

  /// One multiply attempt of a baseline kernel on a pinned snapshot
  /// assuming init completed OK (no waiting). Runs the fault-injection
  /// dispatch hook (if an injector is attached) and polls `cancel` in the
  /// kernel dispatch loop.
  Status MultiplyOnWithThreads(const PlanVersion& v, const DenseMatrix& x,
                               DenseMatrix* z, KernelProfile* profile,
                               int num_threads,
                               const CancelToken* cancel = nullptr) const;

  /// An "hcspmm" multiply: the snapshot's window ranges (one when
  /// unsharded), run in order; range i is one attempt loop of its own under
  /// scope options().fault_scope() + i.
  Status MultiplyRanges(const PlanVersion& v, const DenseMatrix& x, DenseMatrix* z,
                        KernelProfile* profile, int num_threads,
                        const ExecControls& ctl) const;

  /// x in the session's feature storage precision: x itself, or its
  /// conversion held in *converted.
  const DenseMatrix* StoredFeatures(const DenseMatrix& x, DenseMatrix* converted) const;

  /// MultiplyRanges for "hcspmm", else MultiplyOnWithThreads wrapped in the
  /// ExecControls retry loop (scope = options().fault_scope()).
  Status MultiplyWithControls(const PlanVersion& v, const DenseMatrix& x,
                              DenseMatrix* z, KernelProfile* profile,
                              int num_threads, const ExecControls& ctl) const;

  /// Batch body over a pinned snapshot (semantics of MultiplyBatch). Retry
  /// applies per item: only failed items recompute, each from scratch.
  Status MultiplyBatchOn(const PlanVersion& v,
                         const std::vector<const DenseMatrix*>& xs,
                         std::vector<DenseMatrix>* zs, KernelProfile* profile,
                         const ExecControls& ctl = {}) const;

  /// Aux-memory model shared by Initialize and ApplyDeltas.
  int64_t ComputeAuxBytes(const HybridPlan* plan, const WindowedCsr& windows,
                          const CsrMatrix& csr) const;

  const CsrMatrix* abar_;                       ///< version-0 matrix
  std::shared_ptr<const CsrMatrix> abar_owned_; ///< set by the shared-ptr ctor
  SessionOptions options_;
  ThreadPool* pool_;
  PlanCache* cache_;
  std::vector<std::unique_ptr<Stream>> streams_;

  // Written by Initialize() before init_ resolves; read-only afterwards
  // (the future's mutex orders the hand-off).
  std::unique_ptr<SpmmKernel> kernel_;
  std::shared_ptr<const PlanVersion> initial_;  ///< version 0, immutable

  // Latest published snapshot; starts == initial_. Swapped under version_mu_
  // by ApplyDeltas, read under the same mutex by every pin.
  mutable std::mutex version_mu_;
  std::shared_ptr<const PlanVersion> current_;

  // Serializes ApplyDeltas calls (patching is read-modify-write on current_).
  std::mutex apply_mu_;

  Promise<bool> init_promise_;
  Future<bool> init_;  // resolves true on success, error Status on failure
};

}  // namespace hcspmm
