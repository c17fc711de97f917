// Edge-delta streams for dynamic graphs: the unit of mutation against a
// registered CSR. A DeltaBatch is a validated, sorted set of edge upserts
// and deletes; ApplyDeltasToCsr merges it into a new CSR touching only the
// dirty rows, and FoldFingerprint derives the patched content fingerprint
// from the old one plus the batch hash — no full re-hash of the matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.h"
#include "util/status.h"

namespace hcspmm {

/// One edge mutation. For upserts `val` is the new edge weight; for deletes
/// it is ignored.
struct EdgeDelta {
  int32_t row = 0;
  int32_t col = 0;
  float val = 0.0f;
};

/// Counters describing one applied delta batch, filled by the layers that
/// consume it (Session / SessionPool) and surfaced in the
/// streaming bench artifact.
struct DeltaApplyStats {
  uint64_t version = 0;       ///< plan version published by this batch
  int64_t inserted = 0;       ///< upserts that created a new edge
  int64_t updated = 0;        ///< upserts that overwrote an existing weight
  int64_t deleted = 0;        ///< removed edges
  int64_t total_windows = 0;  ///< row windows in the plan
  int64_t dirty_windows = 0;  ///< windows rebuilt by the patch
  bool repacked = false;      ///< packed-index sidecar was re-encoded
  bool repartitioned = false; ///< a sharded session moved its range boundaries
  double apply_ms = 0.0;      ///< wall-clock of the apply (CSR merge + plan patch)
};

/// \brief A sorted, validated batch of edge upserts and deletes.
///
/// Invariants established by Make():
///  - upserts and deletes are each sorted by (row, col)
///  - no duplicate (row, col) within a list, no (row, col) in both lists
/// Semantics: an upsert inserts the edge or overwrites its weight if it
/// already exists; deleting an absent edge is an error at apply time (it
/// signals a producer/consumer disagreement about graph state).
class DeltaBatch {
 public:
  static Result<DeltaBatch> Make(std::vector<EdgeDelta> upserts,
                                 std::vector<EdgeDelta> deletes);

  const std::vector<EdgeDelta>& upserts() const { return upserts_; }
  const std::vector<EdgeDelta>& deletes() const { return deletes_; }
  bool empty() const { return upserts_.empty() && deletes_.empty(); }
  int64_t size() const {
    return static_cast<int64_t>(upserts_.size() + deletes_.size());
  }

  /// FNV-1a over the sorted payload (kind tag, row, col, upsert value bits).
  /// Deterministic for a given logical batch regardless of the order the
  /// caller listed the edges in.
  uint64_t Hash() const;

  /// InvalidArgument when any endpoint falls outside rows x cols.
  Status CheckBounds(int32_t rows, int32_t cols) const;

  /// Sorted distinct row ids touched by the batch.
  std::vector<int32_t> DirtyRows() const;

 private:
  DeltaBatch() = default;
  std::vector<EdgeDelta> upserts_;
  std::vector<EdgeDelta> deletes_;
};

/// Merge `batch` into `base`, producing a new CSR. Only dirty rows are
/// re-merged (two-pointer walk against the sorted upsert/delete runs);
/// clean rows are copied wholesale. Requires `base` to have sorted columns
/// within each row. Fails on out-of-bounds endpoints or deleting an absent
/// edge. When `stats` is non-null its inserted/updated/deleted counters are
/// accumulated.
Result<CsrMatrix> ApplyDeltasToCsr(const CsrMatrix& base, const DeltaBatch& batch,
                                   DeltaApplyStats* stats = nullptr);

/// Fold a delta-batch hash into an existing content fingerprint. This is
/// the streaming replacement for re-running FingerprintCsr over the whole
/// patched matrix: fold(fp, h) is order-sensitive (applying batches A then
/// B yields a different fingerprint than B then A, matching the fact that
/// upsert/delete sequences do not commute) and never collides with the
/// untouched base fingerprint for a non-empty batch.
uint64_t FoldFingerprint(uint64_t base_fingerprint, uint64_t delta_hash);

}  // namespace hcspmm
