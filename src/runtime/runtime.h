// Runtime: owns the executor ThreadPool and the PlanCache that Sessions
// share. The default runtime (Runtime::Default()) backs TrainGnn and shares
// the process-wide PlanCache::Global(); tests and embedders can instead
// construct isolated runtimes with their own pool size and cache budget.
#pragma once

#include <cstdint>
#include <memory>

#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "runtime/session.h"
#include "sparse/csr.h"

namespace hcspmm {

struct RuntimeOptions {
  /// Executor pool size — bounds how many streams make progress at once.
  /// <= 0 selects min(4, hardware concurrency): executor tasks are coarse
  /// (session init, stream pumps) and fan their row loops out to the global
  /// pool, so matching the hardware here would only add idle threads.
  int num_threads = 0;
  /// PlanCache byte budget. 0 defers to the HCSPMM_PLAN_CACHE_BYTES
  /// environment variable (falling back to PlanCache::kDefaultByteBudget).
  /// Applied to the runtime's own cache — the default runtime's budget is
  /// the global cache's and is only overridden when this is non-zero.
  int64_t plan_cache_bytes = 0;
};

/// \brief Execution context for Sessions. Outlives every session it opens.
class Runtime {
 public:
  explicit Runtime(const RuntimeOptions& options = RuntimeOptions());

  /// Process-wide runtime: hardware-sized pool + PlanCache::Global().
  /// Never destroyed (its worker threads must not outlive it during static
  /// teardown), mirroring ThreadPool::Global().
  static Runtime* Default();

  /// Bind `abar` (caller keeps it alive for the session's lifetime) to a
  /// kernel/device/dtype. Returns immediately: preprocessing runs on the
  /// pool; the first multiply — or Session::WaitReady() — waits on it.
  /// Errors (unknown kernel, failed plan build) surface through WaitReady
  /// and through every operation's Status/Future.
  std::shared_ptr<Session> OpenSession(const CsrMatrix* abar,
                                       const SessionOptions& options);

  /// Shared-ownership open: the session keeps `abar` alive itself, so the
  /// caller may drop (or swap, as the streaming SessionPool does when a
  /// graph is patched or unregistered) its reference at any time.
  std::shared_ptr<Session> OpenSession(std::shared_ptr<const CsrMatrix> abar,
                                       const SessionOptions& options);

  ThreadPool* pool() { return pool_.get(); }
  PlanCache* plan_cache() { return cache_; }

  /// hits/misses/evictions/bytes of this runtime's plan cache.
  PlanCacheStats plan_cache_stats() const { return cache_->stats(); }

 private:
  Runtime(const RuntimeOptions& options, PlanCache* shared_cache);

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<PlanCache> owned_cache_;  // null for the default runtime
  PlanCache* cache_;
};

}  // namespace hcspmm
