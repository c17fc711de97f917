// Row-window sharding: split one matrix's row windows into K contiguous
// window ranges balanced by nnz (or by predicted window cost). HC-SpMM
// windows write disjoint output rows (SS IV-A), so a shard is just a run of
// one plan's windows: it writes its rows straight into the shared output,
// and no per-shard matrix, plan or merge step exists. Per-row fp32
// summation order is untouched by a split at window boundaries, so sharded
// results are bit-identical to the unsharded path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/row_window.h"
#include "gpusim/device.h"
#include "sparse/csr.h"

namespace hcspmm {

struct CalibratedCostModel;

/// One shard: windows [window_begin, window_end) of the plan, which own
/// output rows [row_begin, row_end) and carry `nnz` nonzeros.
struct ShardRange {
  int32_t window_begin = 0;
  int32_t window_end = 0;
  int32_t row_begin = 0;
  int32_t row_end = 0;
  int64_t nnz = 0;

  int32_t NumRows() const { return row_end - row_begin; }
};

/// Configuration for SessionOptions::set_sharding.
struct ShardingOptions {
  /// Requested shard count. Clamped to [1, number of row windows]: a value
  /// <= 0 means 1, and K greater than the window count degrades gracefully
  /// to one window per shard.
  int num_shards = 1;
  /// Cost-driven balancing: weight each window by its predicted routed cost
  /// (cheaper of the two core paths) instead of its raw nnz. Equal-nnz
  /// shards are not equal-time shards — a dense-window shard routes to
  /// Tensor cores and finishes sooner than a scattered shard of the same
  /// nnz — so balancing predicted time tightens the join. Boundaries still
  /// fall between whole windows, so results stay bit-identical.
  bool balance_by_cost = false;
  /// Dense dimension / dtype / device the per-window cost is predicted for
  /// (only read when balance_by_cost is set).
  int32_t cost_dim = 32;
  DataType cost_dtype = DataType::kTf32;
  DeviceSpec cost_device = Rtx3090();
  /// Predictor for cost-driven balancing: a calibration artifact
  /// (calib/calibrated_model.h), or nullptr to fall back to the hand-set
  /// analytic cost model. Not owned; must outlive the sessions using it.
  const CalibratedCostModel* cost_model = nullptr;
  /// Streaming rebalance trigger: after Session::ApplyDeltas the range
  /// boundaries are recomputed from the patched plan when max shard nnz
  /// exceeds `rebalance_threshold` times the mean shard nnz. Values <= 1.0
  /// rebalance after every batch that changes nnz; large values never do.
  double rebalance_threshold = 1.5;
};

/// Split `windows` — the kRowWindowHeight-row windows of `m`, tiling its
/// rows in order (a HybridPlan's windowing) — into options.num_shards
/// contiguous ranges (clamped as documented there). Boundary i targets the
/// prefix-nnz (or prefix-cost) quantile (i+1)/K, rounded to the nearest
/// window boundary, and every shard keeps at least one window. Empty
/// `windows` yield one empty range.
std::vector<ShardRange> PartitionWindows(const CsrMatrix& m,
                                         const std::vector<RowWindow>& windows,
                                         const ShardingOptions& options);

/// Predicted cost (ns) of every window under `options`'s cost configuration
/// — the weights cost-driven partitioning balances. Exposed for tests and
/// placement diagnostics.
std::vector<double> PredictedWindowCostNs(const std::vector<RowWindow>& windows,
                                          const ShardingOptions& options);

}  // namespace hcspmm
