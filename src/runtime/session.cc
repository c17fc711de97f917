#include "runtime/session.h"

#include <algorithm>
#include <utility>

#include "baselines/baselines.h"
#include "kernels/spmm_kernel.h"
#include "stream/plan_patch.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hcspmm {

Session::Session(const CsrMatrix* abar, SessionOptions options, ThreadPool* pool,
                 PlanCache* cache)
    : abar_(abar), options_(std::move(options)), pool_(pool), cache_(cache) {
  const int n = std::max(1, options_.num_streams());
  streams_.reserve(n);
  for (int i = 0; i < n; ++i) streams_.push_back(std::make_unique<Stream>());
  init_ = init_promise_.future();
}

Session::Session(std::shared_ptr<const CsrMatrix> abar, SessionOptions options,
                 ThreadPool* pool, PlanCache* cache)
    : Session(abar.get(), std::move(options), pool, cache) {
  abar_owned_ = std::move(abar);
}

void Session::StartInit() {
  // Validate the kernel name synchronously: it is cheap, and an immediate
  // error future lets OpenSession callers fail fast without a pool round
  // trip.
  kernel_ = MakeKernel(options_.kernel_name());
  if (kernel_ == nullptr) {
    init_promise_.Set(Status::InvalidArgument(
        "unknown kernel '" + options_.kernel_name() +
        "'; registered kernels: " + Join(RegisteredKernelNames(), ", ")));
    return;
  }
  // Preprocessing overlaps whatever the caller does next (model setup, more
  // OpenSession calls); the task holds the session alive.
  auto self = shared_from_this();
  pool_->Submit([self] {
    Status st = self->Initialize();
    if (st.ok()) {
      self->init_promise_.Set(true);
    } else {
      self->init_promise_.Set(std::move(st));
    }
  });
}

Status Session::Initialize() {
  // Resolve the hybrid plan first: on a PlanCache hit the preprocessing cost
  // vanishes and the cached windowing doubles as the aux-memory statistics
  // source, so nothing is recomputed.
  if (options_.compress_indices() && options_.kernel_name() != "hcspmm") {
    return Status::InvalidArgument(
        "compress_indices requires the 'hcspmm' kernel (only its plan "
        "carries the packed index sidecar)");
  }
  if (options_.sharding().num_shards > 1 && options_.kernel_name() != "hcspmm") {
    return Status::InvalidArgument(
        "sharding requires the 'hcspmm' kernel (a shard is a window range of "
        "its plan)");
  }
  // A malformed CSR (say, a column index past cols) would crash the
  // kernels, so it is rejected before anything reads it. A PlanCache hit
  // skips the check: its plan was built from validated matrix content.
  const auto validate = [this] {
    return abar_->Validate()
               ? Status::OK()
               : Status::InvalidArgument(
                     "malformed CSR operand: row_ptr must start at 0 and be "
                     "nondecreasing, and every column index must lie in [0, cols)");
  };
  auto v0 = std::make_shared<PlanVersion>();
  v0->owned = abar_owned_;
  v0->csr = abar_;
  const WindowedCsr* windows = nullptr;
  if (options_.kernel_name() == "hcspmm") {
    // An injected selector classifies windows differently, so its plans get
    // a selector-fingerprinted cache key (never aliasing default plans).
    const SelectorModel selector =
        options_.has_selector() ? options_.selector()
                                : DefaultSelectorModelFor(options_.device().name);
    PlanCacheKey key =
        options_.has_selector()
            ? MakePlanCacheKey(*abar_, options_.device(), options_.dtype(), selector)
            : MakePlanCacheKey(*abar_, options_.device(), options_.dtype());
    // Compressed/plain and fp32/reduced bindings never alias: the packed
    // sidecar must exist exactly when requested, and precision tags keep
    // the cache honest about what the session feeds the kernels.
    key.index_storage = options_.compress_indices() ? 1 : 0;
    key.feature_precision = static_cast<uint8_t>(options_.feature_precision());
    v0->fingerprint = key.fingerprint;
    v0->plan = cache_->Lookup(key);
    if (v0->plan != nullptr) {
      v0->plan_from_cache = true;
      v0->preprocess_ns = 0.0;
    } else {
      HCSPMM_RETURN_NOT_OK(validate());
      auto plan = Preprocess(*abar_, options_.device(), selector, kRowWindowHeight,
                             options_.compress_indices());
      HCSPMM_RETURN_NOT_OK(plan.status());
      v0->preprocess_ns = plan.ValueOrDie().preprocess_profile.TotalNs();
      // Detach the plan from this particular matrix object before sharing:
      // the cache (and any session hitting it) may outlive `abar`, and
      // RunWithPlan validates plans structurally.
      plan.ValueOrDie().windows.csr = nullptr;
      auto shared = std::make_shared<const HybridPlan>(std::move(plan.ValueOrDie()));
      cache_->Insert(key, shared);
      v0->plan = std::move(shared);
    }
    windows = &v0->plan->windows;
    v0->shards = PartitionWindows(*abar_, windows->windows, options_.sharding());
  } else {
    HCSPMM_RETURN_NOT_OK(validate());
    v0->fingerprint = FingerprintCsr(*abar_);
    // cuda_opt meters per window but has no hybrid plan to carry them; keep
    // the windowing so every profiled multiply reuses it instead of
    // re-running BuildWindows (host-side cost only — the simulated
    // preprocess time is unchanged, and profiling never alters the output).
    v0->windows = BuildWindows(*abar_);
    if (options_.kernel_name() == "cuda_opt") v0->have_windows = true;
    windows = &v0->windows;
  }

  const std::string& name = options_.kernel_name();
  if (name == "tcgnn") {
    v0->preprocess_ns = TcGnnLikeSpmm::PreprocessNs(*abar_);
  } else if (name == "dtcspmm") {
    v0->preprocess_ns = DtcSpmmLikeSpmm::PreprocessNs(*abar_, options_.device());
  }
  v0->aux_bytes = ComputeAuxBytes(v0->plan.get(), *windows, *abar_);

  initial_ = v0;
  {
    std::lock_guard<std::mutex> lk(version_mu_);
    current_ = std::move(v0);
  }
  return Status::OK();
}

int64_t Session::ComputeAuxBytes(const HybridPlan* plan, const WindowedCsr& windows,
                                 const CsrMatrix& csr) const {
  // Shared window statistics used by the aux-memory model.
  int64_t total_unique_cols = 0;
  for (const RowWindow& w : windows.windows) total_unique_cols += w.NumCols();
  const int64_t condensed_bytes = total_unique_cols * 4;
  const int64_t num_windows = static_cast<int64_t>(windows.windows.size());

  const std::string& name = options_.kernel_name();
  if (name == "hcspmm") {
    // CSR (for CUDA windows) + condensed metadata (for Tensor windows) +
    // the per-window boolean core array: the "additional data structure"
    // behind Table XII's +2% / +6%. The packed index sidecar (when enabled)
    // is additional resident structure too — but it *replaces* the 4 B/nnz
    // plain col_ind on the hot path, so Table XII can show the net saving.
    int64_t bytes = condensed_bytes + num_windows * (16 + 1) + csr.nnz() * 3;
    if (plan != nullptr && plan->packed != nullptr) {
      bytes += plan->packed->MemoryBytes();
    }
    return bytes;
  }
  if (name == "tcgnn") {
    return condensed_bytes;  // condensed format replaces workspace
  }
  if (name == "dtcspmm") {
    return condensed_bytes + num_windows * 8;
  }
  if (name == "gespmm" || name == "sputnik" || name == "cusparse") {
    return csr.nnz() * 3;  // row-splitting / balancing workspace
  }
  return 0;
}

std::shared_ptr<const PlanVersion> Session::CurrentVersion() const {
  init_.Wait();
  std::lock_guard<std::mutex> lk(version_mu_);
  return current_;
}

std::shared_ptr<const PlanVersion> Session::TryPinVersion() const {
  std::lock_guard<std::mutex> lk(version_mu_);
  return current_;
}

Status Session::ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats) {
  HCSPMM_RETURN_NOT_OK(init_.status());
  if (options_.kernel_name() != "hcspmm") {
    return Status::InvalidArgument(
        "ApplyDeltas requires the 'hcspmm' kernel (incremental maintenance "
        "patches its HybridPlan; reopen baseline sessions instead)");
  }
  std::lock_guard<std::mutex> apply_lk(apply_mu_);
  WallTimer timer;
  std::shared_ptr<const PlanVersion> base;
  {
    std::lock_guard<std::mutex> lk(version_mu_);
    base = current_;
  }

  DeltaApplyStats local;
  auto patched = ApplyDeltasToCsr(*base->csr, batch, &local);
  HCSPMM_RETURN_NOT_OK(patched.status());
  auto csr = std::make_shared<const CsrMatrix>(std::move(patched.ValueOrDie()));

  const SelectorModel selector =
      options_.has_selector() ? options_.selector()
                              : DefaultSelectorModelFor(options_.device().name);
  auto patch =
      PatchPlan(*base->plan, *csr, batch.DirtyRows(), options_.device(), selector);
  HCSPMM_RETURN_NOT_OK(patch.status());
  PlanPatch& pp = patch.ValueOrDie();

  auto next = std::make_shared<PlanVersion>();
  next->owned = csr;
  next->csr = csr.get();
  next->fingerprint = FoldFingerprint(base->fingerprint, batch.Hash());
  next->version = base->version + 1;
  next->preprocess_ns = pp.plan.preprocess_profile.TotalNs();
  next->aux_bytes = ComputeAuxBytes(&pp.plan, pp.plan.windows, *csr);

  // The patched plan joins the cache under the folded fingerprint, exactly
  // like a cold plan would under its own: the old entry stays valid for
  // whoever still pins the old version, and eviction of either is harmless.
  PlanCacheKey key;
  key.fingerprint = next->fingerprint;
  key.rows = csr->rows();
  key.nnz = csr->nnz();
  key.device = options_.device().name;
  key.device_params = FingerprintDeviceParams(options_.device());
  key.dtype = options_.dtype();
  key.selector_params = options_.has_selector() ? FingerprintSelector(selector) : 0;
  key.index_storage = options_.compress_indices() ? 1 : 0;
  key.feature_precision = static_cast<uint8_t>(options_.feature_precision());
  pp.plan.windows.csr = nullptr;  // detach before sharing (see Initialize)
  auto shared_plan = std::make_shared<const HybridPlan>(std::move(pp.plan));
  cache_->Insert(key, shared_plan);
  next->plan = std::move(shared_plan);

  // Shards keep their windows; only drifted nnz balance moves the range
  // boundaries, recomputed from the patched plan (the row count never
  // changes, so the ranges still tile it).
  next->shards = base->shards;
  int64_t max_nnz = 0;
  for (ShardRange& range : next->shards) {
    range.nnz = csr->RowBegin(range.row_end) - csr->RowBegin(range.row_begin);
    max_nnz = std::max(max_nnz, range.nnz);
  }
  const double mean_nnz =
      static_cast<double>(csr->nnz()) / static_cast<double>(next->shards.size());
  const bool repartitioned =
      next->shards.size() > 1 && mean_nnz > 0.0 &&
      static_cast<double>(max_nnz) > options_.sharding().rebalance_threshold * mean_nnz;
  if (repartitioned) {
    next->shards =
        PartitionWindows(*csr, next->plan->windows.windows, options_.sharding());
  }

  {
    std::lock_guard<std::mutex> lk(version_mu_);
    current_ = std::move(next);
  }
  if (stats != nullptr) {
    stats->version = base->version + 1;
    stats->inserted += local.inserted;
    stats->updated += local.updated;
    stats->deleted += local.deleted;
    stats->total_windows = pp.total_windows;
    stats->dirty_windows = pp.dirty_windows;
    stats->repacked = pp.repacked;
    stats->repartitioned = repartitioned;
    stats->apply_ms = timer.ElapsedMs();
  }
  return Status::OK();
}

double Session::PreprocessNs() const { return CurrentVersion()->preprocess_ns; }

bool Session::plan_from_cache() const { return CurrentVersion()->plan_from_cache; }

int64_t Session::AuxMemoryBytes() const { return CurrentVersion()->aux_bytes; }

const HybridPlan* Session::plan() const { return CurrentVersion()->plan.get(); }

uint64_t Session::content_fingerprint() const { return CurrentVersion()->fingerprint; }

uint64_t Session::version() const { return CurrentVersion()->version; }

const CsrMatrix& Session::abar() const { return *CurrentVersion()->csr; }

Status Session::MultiplyOnWithThreads(const PlanVersion& v, const DenseMatrix& x,
                                      DenseMatrix* z, KernelProfile* profile,
                                      int num_threads,
                                      const CancelToken* cancel) const {
  // Expired-before-start short-circuit (the kernel dispatch loop also polls
  // the token mid-run).
  if (cancel != nullptr && cancel->Expired()) return cancel->ToStatus();
  // Simulated-device dispatch hook: an attached injector may fail this
  // attempt (kUnavailable) or sleep a straggler delay *before* any output is
  // written, so a failed attempt has no observable side effects and a retry
  // recomputes bit-identically.
  const std::shared_ptr<FaultInjector>& injector = options_.fault_injector();
  if (injector != nullptr) {
    HCSPMM_RETURN_NOT_OK(injector->OnDispatch(options_.fault_scope()));
  }
  DenseMatrix converted;
  const DenseMatrix* input = StoredFeatures(x, &converted);
  // Shaped against the caller's x: a converted input would hide z == &x
  // from the kernel's own check.
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(v.csr->rows(), x, z));
  KernelProfile local;
  KernelOptions opts;
  opts.dtype = options_.dtype();
  opts.num_threads = num_threads;
  opts.cancel = cancel;
  Status st;
  if (v.have_windows) {
    const auto* co = static_cast<const CudaOptimizedSpmm*>(kernel_.get());
    st = co->RunWithWindows(v.windows, *v.csr, *input, options_.device(), opts, z,
                            &local);
  } else {
    st = kernel_->Run(*v.csr, *input, options_.device(), opts, z, &local);
  }
  if (st.ok() && profile != nullptr) profile->Accumulate(local);
  return st;
}

const DenseMatrix* Session::StoredFeatures(const DenseMatrix& x,
                                           DenseMatrix* converted) const {
  // Reduced-precision feature path: convert X once per multiply into the
  // session's storage precision (round-to-nearest-even, deterministic), so
  // the kernels stream 2 bytes/element. Inputs already stored at the target
  // precision pass through untouched; the output z is always fp32.
  if (options_.feature_precision() == FeaturePrecision::kFp32 ||
      x.precision() == options_.feature_precision()) {
    return &x;
  }
  *converted = x.ToPrecision(options_.feature_precision());
  return converted;
}

Status Session::MultiplyRanges(const PlanVersion& v, const DenseMatrix& x,
                               DenseMatrix* z, KernelProfile* profile, int num_threads,
                               const ExecControls& ctl) const {
  if (v.csr->cols() != x.rows()) {
    return Status::InvalidArgument("SpMM shape mismatch: A.cols != X.rows");
  }
  HCSPMM_RETURN_NOT_OK(HcSpmm::CheckPlan(*v.plan, *v.csr));
  DenseMatrix converted;
  const DenseMatrix* input = StoredFeatures(x, &converted);
  // Shaped against the caller's x: a converted input would hide z == &x.
  HCSPMM_RETURN_NOT_OK(internal::ShapeOutput(v.csr->rows(), x, z));
  KernelOptions opts;
  opts.dtype = options_.dtype();
  opts.num_threads = num_threads;
  opts.cancel = ctl.cancel.get();
  const auto* hc = static_cast<const HcSpmm*>(kernel_.get());
  const std::shared_ptr<FaultInjector>& injector = options_.fault_injector();
  // Ranges run in order, each fanning its windows out across the pool, and
  // own disjoint rows of z. Range i is one attempt loop of its own under
  // scope fault_scope() + i: the injector may fail or delay an attempt
  // before any output is written, so a retry recomputes only that range,
  // bit-identically. An attempt meters into its slot only once its kernel
  // succeeded, and nothing reaches `profile` unless every range did.
  std::vector<KernelProfile> profiles(v.shards.size());
  for (size_t i = 0; i < v.shards.size(); ++i) {
    const ShardRange& range = v.shards[i];
    const uint64_t scope = options_.fault_scope() + i;
    HCSPMM_RETURN_NOT_OK(RunWithRetry(ctl, scope, [&] {
      if (opts.cancel != nullptr && opts.cancel->Expired()) {
        return opts.cancel->ToStatus();
      }
      if (injector != nullptr) HCSPMM_RETURN_NOT_OK(injector->OnDispatch(scope));
      return hc->RunWindows(*v.plan, *v.csr, *input, options_.device(), opts,
                            range.window_begin, range.window_end, z, &profiles[i]);
    }));
  }
  if (profile != nullptr) {
    for (const KernelProfile& p : profiles) profile->Accumulate(p);  // range order
  }
  return Status::OK();
}

Status Session::MultiplyWithControls(const PlanVersion& v, const DenseMatrix& x,
                                     DenseMatrix* z, KernelProfile* profile,
                                     int num_threads,
                                     const ExecControls& ctl) const {
  if (v.plan != nullptr) return MultiplyRanges(v, x, z, profile, num_threads, ctl);
  return RunWithRetry(ctl, options_.fault_scope(), [&] {
    return MultiplyOnWithThreads(v, x, z, profile, num_threads,
                                 ctl.cancel.get());
  });
}

Status Session::MultiplyOn(const PlanVersion& v, const DenseMatrix& x, DenseMatrix* z,
                           KernelProfile* profile, const ExecControls& ctl) const {
  HCSPMM_RETURN_NOT_OK(init_.status());
  return MultiplyWithControls(v, x, z, profile, options_.num_threads(), ctl);
}

Status Session::Multiply(const DenseMatrix& x, DenseMatrix* z,
                         KernelProfile* profile, const ExecControls& ctl) const {
  HCSPMM_RETURN_NOT_OK(init_.status());
  auto v = CurrentVersion();
  return MultiplyWithControls(*v, x, z, profile, options_.num_threads(), ctl);
}

void Session::Enqueue(int stream, std::function<void()> task) {
  Stream& s = *streams_[static_cast<size_t>(stream) % streams_.size()];
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.tasks.push_back(std::move(task));
    if (s.running) return;  // the active pump will reach it (FIFO)
    s.running = true;
  }
  // Gate the pump on preprocessing: stream tasks assume the plan exists.
  // Inline when init already resolved; otherwise the init task submits it.
  auto self = shared_from_this();
  init_.OnReady([self, &s] { self->pool_->Submit([self, &s] { self->Pump(&s); }); });
}

void Session::Pump(Stream* s) {
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->tasks.empty()) {
        s->running = false;
        return;
      }
      task = std::move(s->tasks.front());
      s->tasks.pop_front();
    }
    task();
  }
}

Future<DenseMatrix> Session::MultiplyAsync(DenseMatrix x, KernelProfile* profile,
                                           int stream, ExecControls ctl) {
  Promise<DenseMatrix> promise;
  auto self = shared_from_this();
  // Pin the snapshot at *submission*: an ApplyDeltas that lands while this
  // task waits in the stream queue must not retarget it. Before init there
  // is no published version yet; the (init-gated) task then pins version 0,
  // which is exactly what any pre-init submission was made against.
  auto pinned = TryPinVersion();
  Enqueue(stream, [self, pinned = std::move(pinned), x = std::move(x), profile,
                   ctl = std::move(ctl), promise]() mutable {
    if (!self->init_.status().ok()) {  // resolved: pumps are init-gated
      promise.Set(self->init_.status());
      return;
    }
    const PlanVersion& v = pinned != nullptr ? *pinned : *self->initial_;
    DenseMatrix z;
    Status st =
        self->MultiplyWithControls(v, x, &z, profile, self->num_threads(), ctl);
    if (st.ok()) {
      promise.Set(std::move(z));
    } else {
      promise.Set(std::move(st));
    }
  });
  return promise.future();
}

Future<bool> Session::SubmitAsync(std::function<Status()> fn, int stream) {
  Promise<bool> promise;
  auto self = shared_from_this();
  Enqueue(stream, [self, fn = std::move(fn), promise]() mutable {
    if (!self->init_.status().ok()) {  // resolved: pumps are init-gated
      promise.Set(self->init_.status());
      return;
    }
    Status st = fn();
    if (st.ok()) {
      promise.Set(true);
    } else {
      promise.Set(std::move(st));
    }
  });
  return promise.future();
}

Status Session::MultiplyBatchOn(const PlanVersion& v,
                                const std::vector<const DenseMatrix*>& xs,
                                std::vector<DenseMatrix>* zs, KernelProfile* profile,
                                const ExecControls& ctl) const {
  if (zs == nullptr) return Status::InvalidArgument("MultiplyBatch: zs is null");
  for (const DenseMatrix* x : xs) {
    if (x == nullptr) return Status::InvalidArgument("MultiplyBatch: null input");
  }
  if (xs.empty()) {  // fast path: no scratch, no pool dispatch
    zs->clear();
    return Status::OK();
  }

  // Results go into a scratch vector first so callers may alias *zs with the
  // inputs (in-place layer chaining): nothing xs points at is touched until
  // every item finished computing.
  std::vector<DenseMatrix> results(xs.size());
  std::vector<KernelProfile> profiles(xs.size());
  std::vector<Status> statuses(xs.size());
  const int threads = ResolveNumThreads(options_.num_threads());
  if (static_cast<int64_t>(xs.size()) >= threads) {
    // Wide batch: batch-level parallelism saturates the pool; items stay
    // serial inside their task (nested ParallelFor would run inline anyway).
    ParallelFor(0, static_cast<int64_t>(xs.size()), options_.num_threads(),
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    statuses[i] = MultiplyWithControls(v, *xs[i], &results[i],
                                                       &profiles[i],
                                                       /*num_threads=*/1, ctl);
                  }
                });
  } else {
    // Narrow batch: item-level parallelism would idle most of the pool, so
    // run items sequentially with full row-level parallelism each.
    for (size_t i = 0; i < xs.size(); ++i) {
      statuses[i] = MultiplyWithControls(v, *xs[i], &results[i], &profiles[i],
                                         options_.num_threads(), ctl);
    }
  }
  // Fail without touching the caller's profile: a partial accumulation would
  // double-count the successful items when the batch is retried.
  for (const Status& st : statuses) HCSPMM_RETURN_NOT_OK(st);
  if (profile != nullptr) {
    for (const KernelProfile& p : profiles) profile->Accumulate(p);  // batch order
  }
  *zs = std::move(results);
  return Status::OK();
}

Status Session::MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                              std::vector<DenseMatrix>* zs, KernelProfile* profile,
                              const ExecControls& ctl) const {
  HCSPMM_RETURN_NOT_OK(init_.status());
  auto v = CurrentVersion();
  return MultiplyBatchOn(*v, xs, zs, profile, ctl);
}

Future<std::vector<DenseMatrix>> Session::MultiplyBatchAsync(
    std::vector<DenseMatrix> xs, KernelProfile* profile, int stream,
    ExecControls ctl) {
  if (xs.empty()) {
    // Fast path: no stream task, no pool dispatch — chained on init only so
    // a broken session stays observable (an init error propagates, matching
    // the synchronous path). Resolves inline once preprocessing is done.
    return init_.Then([](const bool&) { return std::vector<DenseMatrix>(); });
  }
  Promise<std::vector<DenseMatrix>> promise;
  auto self = shared_from_this();
  auto pinned = TryPinVersion();  // snapshot at submission, like MultiplyAsync
  Enqueue(stream, [self, pinned = std::move(pinned), xs = std::move(xs), profile,
                   ctl = std::move(ctl), promise]() mutable {
    if (!self->init_.status().ok()) {
      promise.Set(self->init_.status());
      return;
    }
    const PlanVersion& v = pinned != nullptr ? *pinned : *self->initial_;
    std::vector<const DenseMatrix*> ptrs;
    ptrs.reserve(xs.size());
    for (const DenseMatrix& x : xs) ptrs.push_back(&x);
    std::vector<DenseMatrix> zs;
    Status st = self->MultiplyBatchOn(v, ptrs, &zs, profile, ctl);
    if (st.ok()) {
      promise.Set(std::move(zs));
    } else {
      promise.Set(std::move(st));
    }
  });
  return promise.future();
}

}  // namespace hcspmm
