#include "stream/delta.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

namespace hcspmm {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

bool DeltaOrder(const EdgeDelta& a, const EdgeDelta& b) {
  if (a.row != b.row) return a.row < b.row;
  return a.col < b.col;
}

Status CheckSortedDistinct(const std::vector<EdgeDelta>& deltas, const char* what) {
  for (size_t i = 1; i < deltas.size(); ++i) {
    if (deltas[i - 1].row == deltas[i].row && deltas[i - 1].col == deltas[i].col) {
      return Status::InvalidArgument(
          std::string("DeltaBatch: duplicate ") + what + " for edge (" +
          std::to_string(deltas[i].row) + ", " + std::to_string(deltas[i].col) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Result<DeltaBatch> DeltaBatch::Make(std::vector<EdgeDelta> upserts,
                                    std::vector<EdgeDelta> deletes) {
  std::sort(upserts.begin(), upserts.end(), DeltaOrder);
  std::sort(deletes.begin(), deletes.end(), DeltaOrder);
  HCSPMM_RETURN_NOT_OK(CheckSortedDistinct(upserts, "upsert"));
  HCSPMM_RETURN_NOT_OK(CheckSortedDistinct(deletes, "delete"));
  // Cross-list overlap: an edge both upserted and deleted in one batch has
  // no defined order, so reject instead of guessing.
  size_t u = 0, d = 0;
  while (u < upserts.size() && d < deletes.size()) {
    if (DeltaOrder(upserts[u], deletes[d])) {
      ++u;
    } else if (DeltaOrder(deletes[d], upserts[u])) {
      ++d;
    } else {
      return Status::InvalidArgument(
          "DeltaBatch: edge (" + std::to_string(upserts[u].row) + ", " +
          std::to_string(upserts[u].col) +
          ") appears in both the upsert and delete lists");
    }
  }
  DeltaBatch batch;
  batch.upserts_ = std::move(upserts);
  batch.deletes_ = std::move(deletes);
  return batch;
}

uint64_t DeltaBatch::Hash() const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(upserts_.size()));
  for (const EdgeDelta& e : upserts_) {
    uint32_t bits;
    std::memcpy(&bits, &e.val, sizeof(bits));
    h = FnvMix(h, 1);
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(e.row)));
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(e.col)));
    h = FnvMix(h, bits);
  }
  h = FnvMix(h, static_cast<uint64_t>(deletes_.size()));
  for (const EdgeDelta& e : deletes_) {
    h = FnvMix(h, 2);
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(e.row)));
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(e.col)));
  }
  return h;
}

Status DeltaBatch::CheckBounds(int32_t rows, int32_t cols) const {
  auto check = [&](const std::vector<EdgeDelta>& deltas) -> Status {
    for (const EdgeDelta& e : deltas) {
      if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols) {
        return Status::InvalidArgument(
            "DeltaBatch: edge (" + std::to_string(e.row) + ", " +
            std::to_string(e.col) + ") outside " + std::to_string(rows) + "x" +
            std::to_string(cols) + " graph");
      }
    }
    return Status::OK();
  };
  HCSPMM_RETURN_NOT_OK(check(upserts_));
  return check(deletes_);
}

std::vector<int32_t> DeltaBatch::DirtyRows() const {
  std::vector<int32_t> rows;
  rows.reserve(upserts_.size() + deletes_.size());
  for (const EdgeDelta& e : upserts_) rows.push_back(e.row);
  for (const EdgeDelta& e : deletes_) rows.push_back(e.row);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

Result<CsrMatrix> ApplyDeltasToCsr(const CsrMatrix& base, const DeltaBatch& batch,
                                   DeltaApplyStats* stats) {
  HCSPMM_RETURN_NOT_OK(batch.CheckBounds(base.rows(), base.cols()));

  const std::vector<EdgeDelta>& ups = batch.upserts();
  const std::vector<EdgeDelta>& dels = batch.deletes();
  std::vector<int64_t> row_ptr;
  row_ptr.reserve(static_cast<size_t>(base.rows()) + 1);
  row_ptr.push_back(0);
  std::vector<int32_t> col_ind;
  std::vector<float> val;
  col_ind.reserve(static_cast<size_t>(base.nnz() + static_cast<int64_t>(ups.size())));
  val.reserve(col_ind.capacity());

  int64_t inserted = 0, updated = 0, deleted = 0;
  size_t u = 0, d = 0;
  for (int32_t r = 0; r < base.rows(); ++r) {
    const size_t u_begin = u, d_begin = d;
    while (u < ups.size() && ups[u].row == r) ++u;
    while (d < dels.size() && dels[d].row == r) ++d;
    if (u == u_begin && d == d_begin) {
      // Clean row: copy the span verbatim.
      col_ind.insert(col_ind.end(), base.col_ind().begin() + base.RowBegin(r),
                     base.col_ind().begin() + base.RowEnd(r));
      val.insert(val.end(), base.val().begin() + base.RowBegin(r),
                 base.val().begin() + base.RowEnd(r));
      row_ptr.push_back(static_cast<int64_t>(col_ind.size()));
      continue;
    }
    // Dirty row: three-way sorted merge of base entries, upserts, deletes.
    int64_t i = base.RowBegin(r);
    const int64_t i_end = base.RowEnd(r);
    size_t ui = u_begin, di = d_begin;
    int32_t prev = -1;
    constexpr int64_t kPastEnd = std::numeric_limits<int32_t>::max();
    while (i < i_end || ui < u) {
      const int64_t base_col = i < i_end ? base.col_ind()[i] : kPastEnd + 1;
      const int64_t ups_col = ui < u ? ups[ui].col : kPastEnd + 1;
      const int64_t del_col = di < d ? dels[di].col : kPastEnd + 1;
      if (i < i_end && base.col_ind()[i] < prev) {
        return Status::InvalidArgument(
            "ApplyDeltasToCsr requires columns sorted non-decreasing within "
            "each row (row " +
            std::to_string(r) + " is unsorted; call CsrMatrix::SortRows first)");
      }
      if (del_col < base_col && del_col < ups_col) {
        return Status::InvalidArgument(
            "ApplyDeltasToCsr: delete of absent edge (" + std::to_string(r) + ", " +
            std::to_string(dels[di].col) + ")");
      }
      if (ups_col < base_col) {
        col_ind.push_back(ups[ui].col);
        val.push_back(ups[ui].val);
        prev = ups[ui].col;
        ++inserted;
        ++ui;
      } else if (base_col < ups_col) {
        if (del_col == base_col) {
          ++deleted;
          ++di;
        } else {
          col_ind.push_back(base.col_ind()[i]);
          val.push_back(base.val()[i]);
        }
        prev = base.col_ind()[i];
        ++i;
      } else {  // upsert of an existing edge: overwrite the weight
        col_ind.push_back(ups[ui].col);
        val.push_back(ups[ui].val);
        prev = ups[ui].col;
        ++updated;
        ++i;
        ++ui;
      }
    }
    if (di < d) {
      return Status::InvalidArgument(
          "ApplyDeltasToCsr: delete of absent edge (" + std::to_string(r) + ", " +
          std::to_string(dels[di].col) + ")");
    }
    row_ptr.push_back(static_cast<int64_t>(col_ind.size()));
  }

  if (stats != nullptr) {
    stats->inserted += inserted;
    stats->updated += updated;
    stats->deleted += deleted;
  }
  return CsrMatrix(base.rows(), base.cols(), std::move(row_ptr), std::move(col_ind),
                   std::move(val));
}

uint64_t FoldFingerprint(uint64_t base_fingerprint, uint64_t delta_hash) {
  uint64_t h = FnvMix(kFnvOffset, base_fingerprint);
  h = FnvMix(h, delta_hash);
  // Tag the fold so a folded fingerprint cannot collide with the base one
  // even for a degenerate hash.
  h = FnvMix(h, 0x5354524541u);  // "STREA"
  return h;
}

}  // namespace hcspmm
