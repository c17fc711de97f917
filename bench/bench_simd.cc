// Scalar vs. SIMD throughput of the vectorized hot loops: single-thread CSR
// SpMM (fp32, and with TF32-rounded operands) on an RMAT graph plus a dense
// GEMM sweep, each run through the
// forced-scalar table and the dispatched table. Working sets are sized to
// stay cache-resident so the measurement reflects vector width rather than
// DRAM bandwidth. Every point is checked for bitwise identity between the
// two paths; `--json out.json` writes the sweep as a machine-readable
// artifact and the exit code is non-zero on any mismatch, so the run
// doubles as a smoke gate.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "sparse/convert.h"
#include "sparse/generate.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/timer.h"

using namespace hcspmm;
using namespace hcspmm::bench;

namespace {

constexpr int32_t kRmatScale = 13;  // 8192 rows: x stays L2/L3-resident
constexpr int64_t kRmatEdges = 300000;

double BestOfMs(int iters, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedMs());
  }
  return best;
}

struct Point {
  std::string op;
  int32_t dim;
  double scalar_ms;
  double simd_ms;
  double max_abs_diff;
  bool bit_identical;
  double gflops_simd;
  double bytes;          // analytic traffic of one run (reads + writes)
  double bytes_per_nnz;  // spmm only; 0 elsewhere (field omitted from JSON)
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonOutputPath(argc, argv);
  const simd::SimdKernels& scalar = simd::KernelsFor(SimdLevel::kScalar);
  const simd::SimdKernels& vec = simd::Active();

  PrintTitle("SIMD layer: scalar vs dispatched (single thread)");
  std::printf("  best supported level: %s, dispatched: %s (HCSPMM_FORCE_SCALAR %s)\n",
              SimdLevelName(BestSupportedSimdLevel()), simd::ActiveLevelName(),
              std::getenv("HCSPMM_FORCE_SCALAR") != nullptr ? "set" : "unset");

  std::vector<Point> points;

  // --- SpMM: RMAT adjacency, feature-dim sweep -----------------------------
  Pcg32 rng(7);
  Graph g = RMat(kRmatScale, kRmatEdges, 16, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  std::printf("  rmat graph: %d rows, %lld nnz\n", abar.rows(),
              static_cast<long long>(abar.nnz()));
  // `spmm` is the plain fp32 kernel; `spmm_tf32` is the rounded kernel the
  // hybrid's Tensor-routed windows run (TF32 operands, fp32 accumulate).
  const auto spmm_point = [&](const std::string& op, int32_t dim) {
    const bool tf32 = op == "spmm_tf32";
    const auto run = [&](const simd::SimdKernels& k, DenseMatrix* z,
                         const DenseMatrix& x) {
      z->Fill(0.0f);
      if (tf32) {
        k.spmm_rows_rounded(abar.row_ptr().data(), abar.col_ind().data(),
                            abar.val().data(), x.RowData(0), z->MutableRowData(0), 0,
                            abar.rows(), dim, /*bf16=*/false);
      } else {
        k.spmm_rows(abar.row_ptr().data(), abar.col_ind().data(), abar.val().data(),
                    x.RowData(0), z->MutableRowData(0), 0, abar.rows(), dim);
      }
    };
    DenseMatrix x = GenerateDense(abar.cols(), dim, &rng);
    DenseMatrix z_scalar(abar.rows(), dim);
    DenseMatrix z_simd(abar.rows(), dim);
    const int iters = dim >= 128 ? 3 : 5;
    const double scalar_ms = BestOfMs(iters, [&] { run(scalar, &z_scalar, x); });
    const double simd_ms = BestOfMs(iters, [&] { run(vec, &z_simd, x); });
    const double flops = 2.0 * static_cast<double>(abar.nnz()) * dim;
    // Analytic traffic: per nonzero one index + one value + one gathered
    // feature row, plus the row pointers and the output writes.
    const double bytes = static_cast<double>(abar.nnz()) * (4.0 + 4.0 + dim * 4.0) +
                         (abar.rows() + 1) * 8.0 +
                         static_cast<double>(abar.rows()) * dim * 4.0;
    const double diff = z_scalar.MaxAbsDifference(z_simd);
    points.push_back({op, dim, scalar_ms, simd_ms, diff, diff == 0.0,
                      flops / (simd_ms * 1e6), bytes,
                      bytes / static_cast<double>(abar.nnz())});
  };
  for (int32_t dim : {22, 32, 64, 128}) spmm_point("spmm", dim);
  for (int32_t dim : {32, 64}) spmm_point("spmm_tf32", dim);

  // --- Dense GEMM sweep ----------------------------------------------------
  for (int32_t n : {32, 64, 128, 256}) {
    const int32_t m = 512, k = 256;
    DenseMatrix a = GenerateDense(m, k, &rng);
    DenseMatrix b = GenerateDense(k, n, &rng);
    DenseMatrix c_scalar(m, n), c_simd(m, n);
    const double scalar_ms = BestOfMs(3, [&] {
      c_scalar.Fill(0.0f);
      scalar.gemm_rows(a.RowData(0), b.RowData(0), c_scalar.MutableRowData(0), k,
                       n, 0, m);
    });
    const double simd_ms = BestOfMs(3, [&] {
      c_simd.Fill(0.0f);
      vec.gemm_rows(a.RowData(0), b.RowData(0), c_simd.MutableRowData(0), k, n, 0,
                    m);
    });
    const double flops = 2.0 * m * k * n;
    const double bytes = (static_cast<double>(m) * k + static_cast<double>(k) * n +
                          static_cast<double>(m) * n) * 4.0;
    const double diff = c_scalar.MaxAbsDifference(c_simd);
    points.push_back({"gemm", n, scalar_ms, simd_ms, diff, diff == 0.0,
                      flops / (simd_ms * 1e6), bytes, 0.0});
  }

  // --- Elementwise: ReLU over a large buffer -------------------------------
  {
    const int64_t n = 1 << 22;  // 16 MB
    DenseMatrix buf = GenerateDense(1 << 11, 1 << 11, &rng);
    DenseMatrix buf2 = buf;
    const double scalar_ms =
        BestOfMs(5, [&] { scalar.relu(buf.data().data(), buf.mutable_data().data(), n); });
    const double simd_ms =
        BestOfMs(5, [&] { vec.relu(buf2.data().data(), buf2.mutable_data().data(), n); });
    const double diff = buf.MaxAbsDifference(buf2);
    points.push_back({"relu", static_cast<int32_t>(1 << 11), scalar_ms, simd_ms,
                      diff, diff == 0.0,
                      static_cast<double>(n) / (simd_ms * 1e6),
                      static_cast<double>(n) * 8.0,  // read + write
                      0.0});
  }

  std::vector<std::vector<std::string>> rows;
  bool all_identical = true;
  for (const Point& p : points) {
    all_identical = all_identical && p.bit_identical;
    rows.push_back({p.op, std::to_string(p.dim), FormatDouble(p.scalar_ms, 3),
                    FormatDouble(p.simd_ms, 3),
                    FormatDouble(p.scalar_ms / p.simd_ms, 2),
                    p.bit_identical ? "yes" : "NO",
                    FormatDouble(p.gflops_simd, 2)});
  }
  PrintTable({"op", "dim", "scalar ms", "simd ms", "speedup", "bit-identical",
              "gflop/s"},
             rows);
  PrintNote("scalar table is compiled with auto-vectorization disabled; the "
            "speedup measures vector width, not compiler flags");

  if (!json_path.empty()) {
    std::vector<std::string> json_points;
    for (const Point& p : points) {
      std::vector<std::string> members = {
          JsonField("op", p.op), JsonField("dim", p.dim),
          JsonField("scalar_ms", p.scalar_ms), JsonField("simd_ms", p.simd_ms),
          JsonField("speedup", p.scalar_ms / p.simd_ms),
          JsonField("bit_identical", p.bit_identical),
          JsonField("max_abs_diff", p.max_abs_diff),
          JsonField("gflops_simd", p.gflops_simd),
          JsonField("effective_gbps", p.bytes / (p.simd_ms * 1e6))};
      if (p.bytes_per_nnz > 0.0) {
        members.push_back(JsonField("bytes_per_nnz", p.bytes_per_nnz));
      }
      json_points.push_back(JsonObject(members));
    }
    const std::string report = JsonObject(
        {JsonField("bench", std::string("simd")),
         JsonField("simd_level", std::string(simd::ActiveLevelName())),
         JsonField("best_supported",
                   std::string(SimdLevelName(BestSupportedSimdLevel()))),
         JsonField("rows", static_cast<int64_t>(abar.rows())),
         JsonField("nnz", abar.nnz()),
         JsonValue(std::string("points")) + ": " + JsonArray(json_points)});
    HCSPMM_CHECK(WriteTextFile(json_path, report)) << "cannot write " << json_path;
    std::printf("\n  wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
