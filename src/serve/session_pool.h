// SessionPool: the long-lived resource manager under the serving layer. It
// owns the registered graph operands (CSR matrices, deduplicated by content
// fingerprint — the same FNV-1a hash the PlanCache keys on) and lazily opens
// one Session per graph on first demand, LRU-evicting
// open sessions once a configurable budget is exceeded. Eviction only drops
// the pool's reference: in-flight work holds its own shared_ptr, and the
// graph itself stays registered, so a re-acquired session rebuilds instantly
// off the PlanCache (same content fingerprint => plan cache hit). This is
// the Hyrise StorageManager pattern: named immutable resources behind one
// concurrent facade.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/session.h"
#include "sparse/csr.h"
#include "stream/delta.h"
#include "util/status.h"

namespace hcspmm {

class Runtime;

/// Configuration for SessionPool.
struct SessionPoolOptions {
  /// Budget: max sessions kept open at once (>= 1). The pool LRU-evicts
  /// beyond it; evicted graphs reopen on demand (cheap on a PlanCache hit).
  int max_sessions = 8;
  /// Template for every session the pool opens (kernel/device/dtype/
  /// threads/streams/selector/sharding).
  SessionOptions session;
};

/// Counters exposed for tests and the serving stats snapshot.
struct SessionPoolStats {
  int64_t graphs = 0;    ///< registered distinct graph contents
  int64_t resident = 0;  ///< sessions currently open
  int64_t hits = 0;      ///< Acquire found an open session
  int64_t misses = 0;    ///< Acquire had to (re)open
  int64_t opened = 0;    ///< sessions opened over the pool's lifetime
  int64_t evicted = 0;   ///< sessions LRU-evicted
};

/// \brief Concurrent, LRU-bounded manager of graphs and their sessions.
class SessionPool {
 public:
  SessionPool(Runtime* runtime, SessionPoolOptions options);
  /// Blocks until every session the pool ever opened (including evicted
  /// ones still finishing their queued plan build) is done preprocessing —
  /// sessions read the pool-owned CSR during plan building, so the graphs
  /// must not be freed under them. Callers must still drain their own
  /// multiplies and drop acquired sessions before destroying the pool.
  ~SessionPool();
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Register a graph operand, taking ownership of the CSR. Returns its
  /// content fingerprint — the graph handle every subsequent call keys on.
  /// Registering identical content again returns the same handle without
  /// storing a second copy (and without touching any open session). The
  /// graph stays registered for the pool's lifetime; only sessions are
  /// evicted, so handles never dangle.
  uint64_t RegisterGraph(CsrMatrix abar);

  bool HasGraph(uint64_t handle) const;

  /// Columns of the registered operand (what x.rows() must equal), or -1
  /// for an unknown handle — the server validates admission with this.
  int32_t GraphCols(uint64_t handle) const;

  /// Nonzero count of the registered operand, or -1 for an unknown handle —
  /// the server's size-aware WFQ cost (nnz x feature dim) reads this.
  int64_t GraphNnz(uint64_t handle) const;

  /// Get-or-open the session for `handle` (refreshing its LRU position).
  /// Opening is non-blocking — plan building runs on the runtime pool, and
  /// the session's operations gate on it — and may evict the
  /// least-recently-used open session to hold the budget. Holding the
  /// returned session keeps it alive across eviction. Unknown handles
  /// return InvalidArgument.
  Result<std::shared_ptr<Session>> Acquire(uint64_t handle);

  /// Streaming admission: patch the registered graph `handle` in place with
  /// an edge-delta batch and re-fingerprint its entry. The stored CSR is
  /// swapped for the patched content; a resident session is patched through
  /// Session::ApplyDeltas (incremental plan maintenance), so its in-flight
  /// multiplies finish on the old snapshot. Returns the new
  /// handle — FoldFingerprint(handle, batch.Hash()) — under which the entry
  /// is now registered; the old handle is forgotten. If patched content
  /// collides with an already-registered graph, the patched entry is merged
  /// into it (content-addressed dedup, like RegisterGraph). Fails without
  /// side effects on unknown handles or inapplicable batches.
  Result<uint64_t> ApplyDeltas(uint64_t handle, const DeltaBatch& batch,
                               DeltaApplyStats* stats = nullptr);

  /// Drop a registered graph entirely (its open session too, if resident).
  /// Unconditional at the pool level: sessions still referenced by in-flight
  /// work stay alive through their own shared ownership. The serving layer
  /// (Server::UnregisterGraph) adds the requests-in-flight refusal on top.
  Status Unregister(uint64_t handle);

  /// Drop the open session for `handle` if any (the graph stays). Returns
  /// true when a session was actually evicted.
  bool Evict(uint64_t handle);

  SessionPoolStats stats() const;

 private:
  struct GraphEntry {
    /// Shared content snapshot: sessions co-own it (shared-ptr
    /// OpenSession), so ApplyDeltas/Unregister may swap or drop it while an
    /// already-open session still computes on the old snapshot.
    std::shared_ptr<const CsrMatrix> abar;
    std::shared_ptr<Session> open;  // null when not resident
    std::list<uint64_t>::iterator lru_pos;
    bool resident = false;
  };

  /// Open a session for the entry (lock held; the open itself is
  /// non-blocking so the critical section stays short). `handle` seeds the
  /// session's fault scope so each graph is its own deterministic fault
  /// domain (shards offset from it).
  std::shared_ptr<Session> OpenLocked(uint64_t handle, GraphEntry* entry);
  void EvictToBudgetLocked();

  Runtime* runtime_;
  SessionPoolOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, GraphEntry> graphs_;
  std::list<uint64_t> lru_;  // front = most recently used, resident only
  /// Weak refs to every session ever opened; the destructor waits on the
  /// survivors so no plan-build task outlives the pool.
  std::vector<std::weak_ptr<Session>> ever_opened_;
  int64_t resident_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t opened_ = 0;
  int64_t evicted_ = 0;
};

}  // namespace hcspmm
