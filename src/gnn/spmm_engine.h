// SpmmEngine: thin *synchronous* adapter over the runtime Session API, kept
// for callers that want blocking construction and blocking multiplies. The
// engine logic itself — kernel binding, PlanCache amortization (Appendix F),
// batched serving — lives in src/runtime/session.{h,cc}; new code should
// open a Session via Runtime::OpenSession and use MultiplyAsync/Futures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/hybrid_spmm.h"
#include "kernels/spmm_kernel.h"
#include "runtime/session.h"
#include "shard/sharded_session.h"

namespace hcspmm {

/// Per-phase simulated time breakdown of a forward or backward pass.
struct PhaseBreakdown {
  double agg_ns = 0.0;          ///< Aggregation (SpMM) kernel time
  double update_ns = 0.0;       ///< Update (GEMM) kernel time
  double elementwise_ns = 0.0;  ///< activations and their gradients
  double launch_ns = 0.0;       ///< kernel launch overheads

  double TotalNs() const { return agg_ns + update_ns + elementwise_ns + launch_ns; }
  double TotalMs() const { return TotalNs() / 1e6; }
  void Add(const PhaseBreakdown& o) {
    agg_ns += o.agg_ns;
    update_ns += o.update_ns;
    elementwise_ns += o.elementwise_ns;
    launch_ns += o.launch_ns;
  }
};

/// \brief A kernel bound to one sparse operator (the normalized adjacency).
///
/// Construction opens a Session on Runtime::Default() and blocks until its
/// preprocessing finished, reproducing the historical synchronous contract.
class SpmmEngine {
 public:
  /// `abar` must outlive the engine. `kernel_name` is any registry name; an
  /// unknown name is surfaced through status() (and every Multiply call)
  /// instead of crashing. `num_threads` seeds KernelOptions::num_threads for
  /// all multiplies (<= 0 => hardware concurrency, 1 => serial).
  /// `num_shards` > 1 splits `abar` into that many row-disjoint shards (see
  /// ShardedSession), each with its own plan and PlanCache entry; the
  /// default 1 is today's single-Session path and fp32 results are
  /// bit-identical for every shard count.
  SpmmEngine(std::string kernel_name, const CsrMatrix* abar, const DeviceSpec& dev,
             DataType dtype, int num_threads = 0, int num_shards = 1);

  /// Construction outcome: OK, or InvalidArgument naming the unknown kernel
  /// and listing the registered ones.
  const Status& status() const { return status_; }

  /// z = Abar * x with metering. Appends to `profile` if non-null. Output
  /// contract of Session::Multiply (z reused when its shape matches, z == &x
  /// rejected).
  Status Multiply(const DenseMatrix& x, DenseMatrix* z, KernelProfile* profile) const;

  /// Batched entry point for serving many independent feature matrices; see
  /// Session::MultiplyBatch for the full contract (scratch results, aliasing
  /// with *zs allowed, profiles accumulate in batch order, empty batch is an
  /// OK no-op, first item error wins).
  Status MultiplyBatch(const std::vector<const DenseMatrix*>& xs,
                       std::vector<DenseMatrix>* zs, KernelProfile* profile) const;

  /// One-time preprocessing time in ns (plan building for hcspmm,
  /// format conversion for tensor baselines, zero for CUDA kernels; summed
  /// over shards when sharded). A PlanCache hit reports 0: nothing was
  /// rebuilt.
  double PreprocessNs() const { return agg().PreprocessNs(); }

  /// True when the hybrid plan came out of the process-wide PlanCache
  /// (sharded: true only if every shard's plan did).
  bool plan_from_cache() const { return agg().plan_from_cache(); }

  /// Framework-specific auxiliary GPU memory (Table XII differences; summed
  /// over shards when sharded).
  int64_t AuxMemoryBytes() const { return agg().AuxMemoryBytes(); }

  const std::string& kernel_name() const { return agg().kernel_name(); }
  const DeviceSpec& device() const { return agg().device(); }
  DataType dtype() const { return agg().dtype(); }
  int num_threads() const { return agg().num_threads(); }
  const CsrMatrix& abar() const { return *abar_; }
  int num_shards() const { return sharded_ != nullptr ? sharded_->num_shards() : 1; }

  /// Hybrid plan (populated only for "hcspmm"; sharded engines expose shard
  /// 0's plan — use sharded_session() for the rest).
  const HybridPlan* plan() const {
    return session_ != nullptr ? session_->plan() : sharded_->shard_session(0)->plan();
  }

  /// The underlying async session; null when the engine is sharded (use
  /// sharded_session() / agg() instead).
  Session* session() const { return session_.get(); }

  /// The underlying sharded session; null for num_shards == 1.
  ShardedSession* sharded_session() const { return sharded_.get(); }

  /// Whichever backend this engine wraps, as the handle models accept.
  AggregatorRef agg() const {
    return session_ != nullptr ? AggregatorRef(session_.get())
                               : AggregatorRef(sharded_.get());
  }

 private:
  const CsrMatrix* abar_ = nullptr;
  std::shared_ptr<Session> session_;          // num_shards == 1
  std::shared_ptr<ShardedSession> sharded_;   // num_shards > 1
  Status status_;
};

}  // namespace hcspmm
