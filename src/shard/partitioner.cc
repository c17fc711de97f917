#include "shard/partitioner.h"

#include <algorithm>

#include "calib/calibrated_model.h"
#include "util/logging.h"

namespace hcspmm {

std::vector<ShardRange> PartitionWindows(const CsrMatrix& m,
                                         const std::vector<RowWindow>& windows,
                                         const ShardingOptions& options) {
  const int64_t units = static_cast<int64_t>(windows.size());
  if (units == 0) return {ShardRange{}};  // one empty range, like one empty window
  const int k = static_cast<int>(
      std::min<int64_t>(std::max(1, options.num_shards), units));
  const std::vector<int64_t>& row_ptr = m.row_ptr();
  const auto unit_row = [&](int64_t u) {
    return u == units ? m.rows() : windows[u].first_row;
  };

  // Cost-driven mode balances predicted per-window time instead of nnz:
  // prefix_cost[u] is the predicted ns of windows [0, u), binary-searched
  // the same way row_ptr (the prefix-nnz array) is below.
  std::vector<double> prefix_cost;
  if (options.balance_by_cost && k > 1) {
    const std::vector<double> unit_cost = PredictedWindowCostNs(windows, options);
    prefix_cost.resize(unit_cost.size() + 1, 0.0);
    for (size_t u = 0; u < unit_cost.size(); ++u) {
      prefix_cost[u + 1] = prefix_cost[u] + unit_cost[u];
    }
  }

  std::vector<ShardRange> ranges;
  ranges.reserve(k);
  int64_t prev_unit = 0;
  for (int i = 0; i < k; ++i) {
    int64_t end_unit = units;
    if (i < k - 1) {
      if (!prefix_cost.empty()) {
        const double target =
            prefix_cost.back() * static_cast<double>(i + 1) / static_cast<double>(k);
        end_unit = std::lower_bound(prefix_cost.begin() + prev_unit + 1,
                                    prefix_cost.end() - 1, target) -
                   prefix_cost.begin();
      } else {
        // Smallest row whose prefix nnz reaches the target, rounded to the
        // nearest window boundary.
        const int64_t target = m.nnz() * (i + 1) / k;
        const auto it = std::lower_bound(row_ptr.begin() + unit_row(prev_unit) + 1,
                                         row_ptr.begin() + m.rows(), target);
        end_unit = (it - row_ptr.begin() + kRowWindowHeight / 2) / kRowWindowHeight;
      }
      // Strictly increasing, leaving one window for each remaining shard.
      end_unit = std::max(end_unit, prev_unit + 1);
      end_unit = std::min(end_unit, units - (k - 1 - i));
    }
    ShardRange range;
    range.window_begin = static_cast<int32_t>(prev_unit);
    range.window_end = static_cast<int32_t>(end_unit);
    range.row_begin = unit_row(prev_unit);
    range.row_end = unit_row(end_unit);
    range.nnz = row_ptr[range.row_end] - row_ptr[range.row_begin];
    ranges.push_back(range);
    prev_unit = end_unit;
  }
  HCSPMM_CHECK(ranges.back().row_end == m.rows());
  return ranges;
}

std::vector<double> PredictedWindowCostNs(const std::vector<RowWindow>& windows,
                                          const ShardingOptions& options) {
  std::vector<double> costs;
  costs.reserve(windows.size());
  for (const RowWindow& w : windows) {
    const WindowShape shape = w.Shape(options.cost_dim);
    if (options.cost_model != nullptr) {
      costs.push_back(options.cost_model->PredictRoutedNs(shape));
      continue;
    }
    // Hand-set fallback: the analytic per-block cost of the cheaper core
    // path, converted to time like the profile layer does.
    const double cuda = options.cost_device.CyclesToNs(
        CudaWindowCost(shape, CudaPathTuning{}, options.cost_device,
                       options.cost_dtype)
            .BlockCycles());
    const double tensor = options.cost_device.CyclesToNs(
        TensorWindowCost(shape, TensorPathTuning{}, options.cost_device,
                         options.cost_dtype)
            .BlockCycles());
    costs.push_back(std::min(cuda, tensor));
  }
  return costs;
}

}  // namespace hcspmm
