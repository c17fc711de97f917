// SIMD execution layer: lane-width/tail handling, bitwise identity of the
// SpMM (plain and TF32/BF16-rounded) and GEMM row kernels against naive
// in-test oracles at every level and of every dispatched kernel against the
// forced-scalar reference table (including full GCN/GIN training, TF32
// session multiplies and the sharded path), DenseMatrix alignment, and the
// HCSPMM_FORCE_SCALAR environment round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "gnn/optimizers.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "shard/partitioner.h"
#include "sparse/convert.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/cpu_features.h"
#include "util/half.h"
#include "util/random.h"
#include "util/simd.h"

namespace hcspmm {
namespace {

// Bitwise float equality: catches sign-of-zero and NaN-payload divergence
// that EXPECT_EQ on values would miss.
void ExpectBitwiseEqual(const float* a, const float* b, int64_t n,
                        const char* what) {
  for (int64_t i = 0; i < n; ++i) {
    uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " diverges at element " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

void ExpectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ExpectBitwiseEqual(a.data().data(), b.data().data(),
                     static_cast<int64_t>(a.data().size()), what);
}

// Restores the previous active level on scope exit so tests cannot leak a
// forced level into each other.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(SetActiveSimdLevel(level)) {}
  ~ScopedSimdLevel() { SetActiveSimdLevel(prev_); }

 private:
  SimdLevel prev_;
};

std::vector<float> RandomVec(int64_t n, uint64_t seed, bool with_edge_values) {
  Pcg32 rng(seed);
  std::vector<float> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.NextDouble(-2.0, 2.0));
  }
  if (with_edge_values && n >= 4) {
    v[0] = 0.0f;
    v[1] = -0.0f;
    v[2] = 1e-30f;   // denormal-adjacent magnitude
    v[3] = -1e-30f;
  }
  return v;
}

// The dims the tail logic must survive: below, at, just above, and well
// above every lane width (1..8) and every SpMM register tile (up to 8
// vectors, 64 floats at AVX2), plus non-multiples.
const std::vector<int32_t> kDimSweep = {1,  7,  8,  9,  15,  16,  31, 32,
                                        33, 63, 64, 65, 100, 128, 129};

// Every table compiled in; KernelsFor falls back toward scalar, so a level
// the CPU lacks repeats a lower table instead of failing.
const std::vector<SimdLevel> kAllLevels = {SimdLevel::kScalar, SimdLevel::kSse2,
                                           SimdLevel::kNeon, SimdLevel::kAvx2};

// The spmm_rows definition as a naive triple loop: one mul and one add per
// nonzero, in k order, into whatever z held. Every table must match it bit
// for bit.
void NaiveSpmmRows(const CsrMatrix& a, const DenseMatrix& x, DenseMatrix* z) {
  for (int32_t r = 0; r < a.rows(); ++r) {
    for (int32_t j = 0; j < x.cols(); ++j) {
      float acc = z->At(r, j);
      for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
        const float p = a.val()[k] * x.At(a.col_ind()[k], j);
        acc = acc + p;
      }
      z->At(r, j) = acc;
    }
  }
}

// `a` with every 5th row and rows [40, 60) emptied.
CsrMatrix WithEmptyRows(const CsrMatrix& a) {
  std::vector<int64_t> row_ptr = {0};
  std::vector<int32_t> col_ind;
  std::vector<float> val;
  for (int32_t r = 0; r < a.rows(); ++r) {
    if (r % 5 != 0 && (r < 40 || r >= 60)) {
      for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
        col_ind.push_back(a.col_ind()[k]);
        val.push_back(a.val()[k]);
      }
    }
    row_ptr.push_back(static_cast<int64_t>(col_ind.size()));
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col_ind),
                   std::move(val));
}

TEST(SimdDispatchTest, LevelNamesAndTables) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse2), "sse2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kNeon), "neon");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_EQ(simd::KernelsFor(SimdLevel::kScalar).level, SimdLevel::kScalar);
  // Whatever the dispatcher resolves must never exceed hardware support.
  EXPECT_LE(static_cast<int>(simd::Active().level),
            static_cast<int>(BestSupportedSimdLevel()));
  EXPECT_NE(simd::ActiveLevelName(), nullptr);
#if defined(__x86_64__)
  // x86-64 always has at least SSE2, so the dispatched table should not be
  // scalar unless the environment forced it before the level latched.
  if (DetectSimdLevel() != SimdLevel::kScalar) {
    EXPECT_NE(simd::Active().level, SimdLevel::kScalar);
  }
#endif
}

TEST(SimdDispatchTest, ForceScalarEnvRoundTrip) {
  ASSERT_EQ(setenv("HCSPMM_FORCE_SCALAR", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(DetectSimdLevel(), SimdLevel::kScalar);
  ASSERT_EQ(setenv("HCSPMM_FORCE_SCALAR", "0", /*overwrite=*/1), 0);
  EXPECT_EQ(DetectSimdLevel(), BestSupportedSimdLevel());
  ASSERT_EQ(unsetenv("HCSPMM_FORCE_SCALAR"), 0);
  EXPECT_EQ(DetectSimdLevel(), BestSupportedSimdLevel());
}

TEST(SimdDispatchTest, SetActiveSimdLevelOverridesAndRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_EQ(simd::Active().level, SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

TEST(SimdKernelTest, SpmmMatchesNaiveOracleAtEveryLevelAndTile) {
  for (int32_t dim : kDimSweep) {
    Pcg32 rng(91 + dim);
    const CsrMatrix a = WithEmptyRows(GenerateUniformSparse(120, 90, 0.08, &rng));
    const DenseMatrix x = GenerateDense(90, dim, &rng);
    // A non-zero starting z pins the z += contract, not just z = A * x.
    const DenseMatrix z0 = GenerateDense(a.rows(), dim, &rng);
    DenseMatrix expected = z0;
    NaiveSpmmRows(a, x, &expected);
    for (SimdLevel level : kAllLevels) {
      const simd::SimdKernels& k = simd::KernelsFor(level);
      DenseMatrix z = z0;
      k.spmm_rows(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                  x.RowData(0), z.MutableRowData(0), 0, a.rows(), dim);
      ExpectBitwiseEqual(expected, z, SimdLevelName(k.level));
      // Split row ranges: the prefetch lookahead stops at each range's end.
      z = z0;
      for (int32_t begin = 0; begin < a.rows(); begin += 37) {
        const int32_t end = std::min(a.rows(), begin + 37);
        k.spmm_rows(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                    x.RowData(0), z.MutableRowData(0), begin, end, dim);
      }
      ExpectBitwiseEqual(expected, z, SimdLevelName(k.level));
    }
  }
}

// The spmm_rows_rounded definition: the scalar loop the Tensor-routed
// windows ran before they had a tiled kernel, verbatim, with the shared
// RoundTf32 / RoundBf16 of util/half.h, accumulating into whatever z held.
void NaiveRoundedSpmmRows(const CsrMatrix& a, const DenseMatrix& x, bool bf16,
                          DenseMatrix* z) {
  const auto round = [bf16](float f) { return bf16 ? RoundBf16(f) : RoundTf32(f); };
  const int32_t dim = x.cols();
  for (int32_t r = 0; r < a.rows(); ++r) {
    float* zr = z->MutableRowData(r);
    for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      const float v = round(a.val()[k]);
      const int32_t col = a.col_ind()[k];
      const float* xr = x.RowData(col);
      for (int32_t j = 0; j < dim; ++j) zr[j] += v * round(xr[j]);
    }
  }
}

// kDimSweep plus 22 (two AVX2 vectors and a partial one: the GCN class
// count of synthesized Pubmed).
std::vector<int32_t> DimSweepWith22() {
  std::vector<int32_t> dims = kDimSweep;
  dims.push_back(22);
  return dims;
}

TEST(SimdKernelTest, RoundedSpmmMatchesNaiveOracleAtEveryLevelAndTile) {
  for (bool bf16 : {false, true}) {
    for (int32_t dim : DimSweepWith22()) {
      Pcg32 rng(57 + dim);
      const CsrMatrix a = WithEmptyRows(GenerateUniformSparse(120, 90, 0.08, &rng));
      const DenseMatrix x = GenerateDense(90, dim, &rng);
      const DenseMatrix z0 = GenerateDense(a.rows(), dim, &rng);
      DenseMatrix expected = z0;
      NaiveRoundedSpmmRows(a, x, bf16, &expected);
      // The rounding must be visible, or the test would pass on spmm_rows.
      DenseMatrix unrounded = z0;
      NaiveSpmmRows(a, x, &unrounded);
      ASSERT_GT(expected.MaxAbsDifference(unrounded), 0.0) << "dim " << dim;
      for (SimdLevel level : kAllLevels) {
        const simd::SimdKernels& k = simd::KernelsFor(level);
        DenseMatrix z = z0;
        k.spmm_rows_rounded(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                            x.RowData(0), z.MutableRowData(0), 0, a.rows(), dim, bf16);
        ExpectBitwiseEqual(expected, z, SimdLevelName(k.level));
        z = z0;
        for (int32_t begin = 0; begin < a.rows(); begin += 37) {
          const int32_t end = std::min(a.rows(), begin + 37);
          k.spmm_rows_rounded(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                              x.RowData(0), z.MutableRowData(0), begin, end, dim, bf16);
        }
        ExpectBitwiseEqual(expected, z, SimdLevelName(k.level));
      }
    }
  }
}

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

uint32_t ToBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

TEST(SimdKernelTest, RoundedSpmmRoundsEdgeValuesLikeTheScalarRounding) {
  const std::vector<uint32_t> edges = {
      0x00000000u, 0x80000000u,  // +0, -0
      0x7f800000u, 0xff800000u,  // +Inf, -Inf
      0x7fc00000u, 0xffc00000u,  // quiet NaNs
      0x7fffffffu,               // NaN: + (1 << 12) carries into the sign bit
      0xffffffffu,               // NaN: + (1 << 12) wraps to +0
      0x7f800001u,               // signalling NaN that rounds to Inf
      0x7fbfffffu,               // signalling NaN that rounds to a quiet one
      0x00000001u, 0x80000fffu,  // subnormals that round to zero
      0x00001000u, 0x007fffffu,  // subnormal tie; carry into the normals
      0x3f801000u, 0x3f803000u,  // TF32 ties at bit 12
      0x3f800fffu, 0x3f808000u,  // below a TF32 tie; BF16 tie, even
      0x3f818000u, 0xbf818000u,  // BF16 ties, odd
      0x3fffffffu, 0xbfffffffu,  // mantissas that carry into the exponent
      0x7f7fffffu, 0xff7fffffu,  // FLT_MAX: the carry overflows to Inf
      0x3f9e0419u, 0x40490fdbu,  // ordinary values
  };
  const int32_t n = static_cast<int32_t>(edges.size());
  for (bool bf16 : {false, true}) {
    const auto round = [bf16](float f) { return bf16 ? RoundBf16(f) : RoundTf32(f); };
    for (int32_t dim : {1, 7, 9, 22, 26}) {
      // X holds the edge values (each also scaled by val 1): row r of A
      // picks X row r, so z = -0 + 1 * R(x) = R(x) exactly. Then A's values
      // hold them against all-ones X rows.
      const int32_t rows = (n + dim - 1) / dim;
      DenseMatrix x(rows + 1, dim, 1.0f);
      for (int32_t i = 0; i < n; ++i) x.At(i / dim, i % dim) = FromBits(edges[i]);
      std::vector<int64_t> row_ptr = {0};
      std::vector<int32_t> col_ind;
      std::vector<float> val;
      for (int32_t r = 0; r < rows; ++r) {
        col_ind.push_back(r);
        val.push_back(1.0f);
        row_ptr.push_back(static_cast<int64_t>(col_ind.size()));
      }
      for (int32_t i = 0; i < n; ++i) {
        col_ind.push_back(rows);
        val.push_back(FromBits(edges[i]));
        row_ptr.push_back(static_cast<int64_t>(col_ind.size()));
      }
      const CsrMatrix a(rows + n, rows + 1, std::move(row_ptr), std::move(col_ind),
                        std::move(val));
      const DenseMatrix z0(a.rows(), dim, -0.0f);
      DenseMatrix expected = z0;
      NaiveRoundedSpmmRows(a, x, bf16, &expected);
      for (int32_t i = 0; i < n; ++i) {
        const float want = round(FromBits(edges[i]));
        if (std::isnan(want)) continue;  // 1 * NaN may quiet the payload
        ASSERT_EQ(ToBits(expected.At(i / dim, i % dim)), ToBits(want)) << i;
        ASSERT_EQ(ToBits(expected.At(rows + i, 0)), ToBits(want)) << i;
      }
      for (SimdLevel level : kAllLevels) {
        const simd::SimdKernels& k = simd::KernelsFor(level);
        DenseMatrix z = z0;
        k.spmm_rows_rounded(a.row_ptr().data(), a.col_ind().data(), a.val().data(),
                            x.RowData(0), z.MutableRowData(0), 0, a.rows(), dim, bf16);
        ExpectBitwiseEqual(expected, z, SimdLevelName(k.level));
      }
    }
  }
}

TEST(SimdKernelTest, PartialTailStaysInsideExactSizeBuffers) {
  // X and z are exact-size heap buffers and the last nonzero gathers X's
  // last row, so a partial vector that read or wrote past n lanes would
  // touch memory past the allocation (caught under ASan, which does not see
  // inside the AVX2 masked-move builtins). A guard row after z then catches
  // a store past n lanes at every level, sanitizer or not.
  for (int32_t dim : {1, 3, 7, 9, 22, 33}) {
    Pcg32 rng(3 + dim);
    const int32_t x_rows = 40;
    CsrMatrix a = GenerateUniformSparse(30, x_rows, 0.1, &rng);
    std::vector<int64_t> row_ptr = a.row_ptr();
    std::vector<int32_t> col_ind = a.col_ind();
    std::vector<float> val = a.val();
    row_ptr.push_back(row_ptr.back() + 1);
    col_ind.push_back(x_rows - 1);
    val.push_back(0.5f);
    const CsrMatrix last(a.rows() + 1, x_rows, std::move(row_ptr), std::move(col_ind),
                         std::move(val));
    const DenseMatrix xm = GenerateDense(x_rows, dim, &rng);
    const std::vector<float> x(xm.data().begin(), xm.data().end());
    for (bool rounded : {false, true}) {
      DenseMatrix expected(last.rows(), dim);
      if (rounded) {
        NaiveRoundedSpmmRows(last, xm, /*bf16=*/false, &expected);
      } else {
        NaiveSpmmRows(last, xm, &expected);
      }
      for (SimdLevel level : kAllLevels) {
        const simd::SimdKernels& k = simd::KernelsFor(level);
        std::vector<float> z(static_cast<size_t>(last.rows()) * dim, 0.0f);
        if (rounded) {
          k.spmm_rows_rounded(last.row_ptr().data(), last.col_ind().data(),
                              last.val().data(), x.data(), z.data(), 0, last.rows(),
                              dim, /*bf16=*/false);
        } else {
          k.spmm_rows(last.row_ptr().data(), last.col_ind().data(), last.val().data(),
                      x.data(), z.data(), 0, last.rows(), dim);
        }
        ExpectBitwiseEqual(expected.data().data(), z.data(),
                           static_cast<int64_t>(z.size()), SimdLevelName(k.level));

        const std::vector<float> guard(dim, 7.5f);
        z.assign(z.size(), 0.0f);
        z.insert(z.end(), guard.begin(), guard.end());
        if (rounded) {
          k.spmm_rows_rounded(last.row_ptr().data(), last.col_ind().data(),
                              last.val().data(), x.data(), z.data(), 0, last.rows(),
                              dim, /*bf16=*/false);
        } else {
          k.spmm_rows(last.row_ptr().data(), last.col_ind().data(), last.val().data(),
                      x.data(), z.data(), 0, last.rows(), dim);
        }
        ExpectBitwiseEqual(guard.data(), z.data() + z.size() - dim, dim, "guard row");
      }
    }
  }
}

// The three GEMM definitions as naive triple loops. gemm_rows and
// gemm_ta_rows: each output starts at +0 and takes one mul and one add per
// nonzero A element, k ascending; a zero A element (either sign) is skipped
// even when its B entry is Inf or NaN. gemm_tb_rows: a double dot product
// over every k, rounded to float once.
void NaiveGemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  for (int32_t i = 0; i < a.rows(); ++i) {
    for (int32_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int32_t k = 0; k < a.cols(); ++k) {
        if (a.At(i, k) == 0.0f) continue;
        const float p = a.At(i, k) * b.At(k, j);
        acc = acc + p;
      }
      c->At(i, j) = acc;
    }
  }
}

void NaiveGemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  for (int32_t i = 0; i < a.cols(); ++i) {
    for (int32_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int32_t k = 0; k < a.rows(); ++k) {
        if (a.At(k, i) == 0.0f) continue;
        const float p = a.At(k, i) * b.At(k, j);
        acc = acc + p;
      }
      c->At(i, j) = acc;
    }
  }
}

void NaiveGemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  for (int32_t i = 0; i < a.rows(); ++i) {
    for (int32_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int32_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.At(i, k)) * static_cast<double>(b.At(j, k));
      }
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

// Every output starts as NaN, so a kernel that accumulates into C instead
// of overwriting it cannot pass.
DenseMatrix Garbage(int32_t rows, int32_t cols) {
  return DenseMatrix(rows, cols, std::nanf(""));
}

TEST(SimdKernelTest, GemmVariantsMatchNaiveOracleAtEveryLevelAndTile) {
  // 300 rows of A: more than one k-block of the A^T * B kernel.
  const int32_t m = 300, k = 29;
  for (int32_t n : DimSweepWith22()) {
    Pcg32 rng(17 + n);
    // About half of A is zero, as after a ReLU, with -0 among the zeros.
    DenseMatrix a = GenerateDense(m, k, &rng);
    for (float& v : a.mutable_data()) {
      if (v < 0.0f) v = v < -0.5f ? -0.0f : 0.0f;
    }
    // Zero A entries facing Inf and NaN in B must contribute nothing: B row
    // 3 (and row 7 of the A^T B operand) holds them, and A column 3 (row 7)
    // is +0 or -0 except at every tenth index, whose outputs turn Inf/NaN.
    DenseMatrix b = GenerateDense(k, n, &rng);
    DenseMatrix b2 = GenerateDense(m, n, &rng);
    for (int32_t j = 0; j < n; ++j) {
      b.At(3, j) = j % 2 == 0 ? INFINITY : std::nanf("");
      b2.At(7, j) = j % 2 == 0 ? -INFINITY : std::nanf("");
    }
    for (int32_t i = 0; i < m; ++i) {
      a.At(i, 3) = i % 10 == 1 ? 0.75f : (i % 2 == 0 ? 0.0f : -0.0f);
    }
    for (int32_t i = 0; i < k; ++i) {
      a.At(7, i) = i % 10 == 1 ? -1.25f : (i % 2 == 0 ? -0.0f : 0.0f);
    }
    // A * B^T rows where the summation order shows through the double
    // accumulator: 2^60 - 2^60 + 1 is 1 in k order and 0 in reverse.
    DenseMatrix b3 = GenerateDense(n, k, &rng);
    for (int32_t j = 0; j < n; ++j) {
      b3.At(j, 0) = 0x1p30f;
      b3.At(j, 1) = 0x1p30f;
      b3.At(j, 2) = 1.0f;
    }
    for (int32_t i = 3; i < m; i += 10) {
      a.At(i, 0) = 0x1p30f;
      a.At(i, 1) = -0x1p30f;
      a.At(i, 2) = 1.0f;
    }

    DenseMatrix want(m, n), want_ta(k, n), want_tb(m, n);
    NaiveGemm(a, b, &want);
    NaiveGemmTransA(a, b2, &want_ta);
    NaiveGemmTransB(a, b3, &want_tb);
    for (SimdLevel level : kAllLevels) {
      const simd::SimdKernels& kt = simd::KernelsFor(level);
      const char* name = SimdLevelName(kt.level);
      DenseMatrix c = Garbage(m, n), ta = Garbage(k, n), tb = Garbage(m, n);
      kt.gemm_rows(a.RowData(0), b.RowData(0), c.MutableRowData(0), k, n, 0, m);
      kt.gemm_ta_rows(a.RowData(0), b2.RowData(0), ta.MutableRowData(0), m, k, n, 0, k);
      kt.gemm_tb_rows(a.RowData(0), b3.RowData(0), tb.MutableRowData(0), k, n, 0, m);
      ExpectBitwiseEqual(want, c, name);
      ExpectBitwiseEqual(want_ta, ta, name);
      ExpectBitwiseEqual(want_tb, tb, name);

      // Split ranges, none a multiple of a tile's row count.
      c = Garbage(m, n);
      ta = Garbage(k, n);
      tb = Garbage(m, n);
      for (int32_t begin = 0; begin < m; begin += 37) {
        const int32_t end = std::min(m, begin + 37);
        kt.gemm_rows(a.RowData(0), b.RowData(0), c.MutableRowData(0), k, n, begin, end);
        kt.gemm_tb_rows(a.RowData(0), b3.RowData(0), tb.MutableRowData(0), k, n, begin,
                        end);
      }
      for (int32_t begin = 0; begin < k; begin += 5) {
        kt.gemm_ta_rows(a.RowData(0), b2.RowData(0), ta.MutableRowData(0), m, k, n, begin,
                        std::min(k, begin + 5));
      }
      ExpectBitwiseEqual(want, c, name);
      ExpectBitwiseEqual(want_ta, ta, name);
      ExpectBitwiseEqual(want_tb, tb, name);
    }
  }
}

TEST(SimdKernelTest, ElementwiseBitIdenticalIncludingEdgeValues) {
  const simd::SimdKernels& scalar = simd::KernelsFor(SimdLevel::kScalar);
  const simd::SimdKernels& best = simd::Active();
  for (int64_t n : {1, 7, 8, 9, 64, 100, 1003}) {
    std::vector<float> z1 = RandomVec(n, 5 + n, /*with_edge_values=*/true);
    std::vector<float> z2 = z1, out(n);
    best.relu(z1.data(), out.data(), n);
    scalar.relu(z1.data(), z1.data(), n);
    best.relu(z2.data(), z2.data(), n);
    ExpectBitwiseEqual(z1.data(), z2.data(), n, "relu");
    ExpectBitwiseEqual(z1.data(), out.data(), n, "relu out of place");

    std::vector<float> go = RandomVec(n, 7 + n, true);
    std::vector<float> pa = RandomVec(n, 11 + n, true);
    std::vector<float> d1(n), d2(n);
    scalar.relu_grad(go.data(), pa.data(), d1.data(), n);
    best.relu_grad(go.data(), pa.data(), d2.data(), n);
    ExpectBitwiseEqual(d1.data(), d2.data(), n, "relu_grad");
  }
}

TEST(SimdKernelTest, OptimizerUpdatesBitIdentical) {
  const simd::SimdKernels& scalar = simd::KernelsFor(SimdLevel::kScalar);
  const simd::SimdKernels& best = simd::Active();
  const double lr = 0.05, wd = 1e-4, mom = 0.9;
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  for (int64_t n : {1, 7, 8, 9, 64, 100, 1003}) {
    std::vector<float> w1 = RandomVec(n, 3 + n, true), w2 = w1;
    std::vector<float> g = RandomVec(n, 13 + n, true);
    scalar.sgd(w1.data(), g.data(), n, lr);
    best.sgd(w2.data(), g.data(), n, lr);
    ExpectBitwiseEqual(w1.data(), w2.data(), n, "sgd");

    scalar.sgd_decay(w1.data(), g.data(), n, lr, wd);
    best.sgd_decay(w2.data(), g.data(), n, lr, wd);
    ExpectBitwiseEqual(w1.data(), w2.data(), n, "sgd_decay");

    std::vector<float> m1 = RandomVec(n, 23 + n, false), m2 = m1;
    scalar.momentum(w1.data(), g.data(), m1.data(), n, lr, mom, wd);
    best.momentum(w2.data(), g.data(), m2.data(), n, lr, mom, wd);
    ExpectBitwiseEqual(m1.data(), m2.data(), n, "momentum m");
    ExpectBitwiseEqual(w1.data(), w2.data(), n, "momentum w");

    std::vector<float> am1 = RandomVec(n, 31 + n, false), am2 = am1;
    // Second moments must be non-negative, as Adam produces them.
    std::vector<float> av1(n), av2(n);
    for (int64_t i = 0; i < n; ++i) {
      av1[i] = std::abs(RandomVec(1, 37 + n + i, false)[0]);
      av2[i] = av1[i];
    }
    for (int step = 1; step <= 3; ++step) {
      const double bc1 = 1.0 - std::pow(b1, step);
      const double bc2 = 1.0 - std::pow(b2, step);
      scalar.adam(w1.data(), g.data(), am1.data(), av1.data(), n, lr, b1, b2, eps,
                  wd, bc1, bc2);
      best.adam(w2.data(), g.data(), am2.data(), av2.data(), n, lr, b1, b2, eps,
                wd, bc1, bc2);
    }
    ExpectBitwiseEqual(am1.data(), am2.data(), n, "adam m");
    ExpectBitwiseEqual(av1.data(), av2.data(), n, "adam v");
    ExpectBitwiseEqual(w1.data(), w2.data(), n, "adam w");
  }
}

TEST(SimdKernelTest, OptimizerClassMatchesAcrossLevels) {
  // Drive the real Optimizer through both dispatch levels.
  for (OptimizerKind kind :
       {OptimizerKind::kSgd, OptimizerKind::kMomentum, OptimizerKind::kAdam}) {
    OptimizerConfig cfg;
    cfg.kind = kind;
    cfg.weight_decay = 1e-4;
    Pcg32 rng(55);
    DenseMatrix w_scalar = GenerateDense(9, 13, &rng);
    DenseMatrix w_simd = w_scalar;
    DenseMatrix g = GenerateDense(9, 13, &rng);

    Optimizer opt_scalar(cfg), opt_simd(cfg);
    opt_scalar.AddParameter(&w_scalar);
    opt_simd.AddParameter(&w_simd);
    for (int step = 0; step < 3; ++step) {
      {
        ScopedSimdLevel forced(SimdLevel::kScalar);
        opt_scalar.Step({&g});
      }
      opt_simd.Step({&g});
    }
    ExpectBitwiseEqual(w_scalar, w_simd, "Optimizer::Step");
  }
}

TEST(SimdIntegrationTest, EngineSpmmBitIdenticalScalarVsDispatched) {
  Pcg32 rng(4242);
  Graph g = RMat(10, 8000, 32, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 48, 0.5f);

  DenseMatrix z_scalar, z_simd;
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    auto session = Runtime::Default()->OpenSession(
        &abar, SessionOptions().set_dtype(DataType::kFp32));
    ASSERT_TRUE(session->Multiply(x, &z_scalar, nullptr).ok());
  }
  {
    auto session = Runtime::Default()->OpenSession(
        &abar, SessionOptions().set_dtype(DataType::kFp32));
    ASSERT_TRUE(session->Multiply(x, &z_simd, nullptr).ok());
  }
  ExpectBitwiseEqual(z_scalar, z_simd, "hcspmm session multiply");
  // And against the (scalar) host reference, which never dispatches.
  ExpectBitwiseEqual(ReferenceSpmm(abar, x), z_simd, "vs ReferenceSpmm");
}

TEST(SimdIntegrationTest, Tf32SessionMultiplyBitIdenticalScalarVsDispatched) {
  // The default dtype: Tensor-routed windows round through the rounded
  // kernel. Forced scalar vs dispatched, at 1, 2 and 4 threads.
  Pcg32 rng(4343);
  Graph g = RMat(10, 8000, 32, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  for (int32_t dim : {22, 48}) {
    const DenseMatrix x = GenerateDense(abar.cols(), dim, &rng);
    const SessionOptions tf32 = SessionOptions().set_dtype(DataType::kTf32);
    DenseMatrix z_scalar, z_fp32;
    {
      ScopedSimdLevel forced(SimdLevel::kScalar);
      auto session = Runtime::Default()->OpenSession(&abar, tf32);
      ASSERT_TRUE(session->Multiply(x, &z_scalar, nullptr).ok());
    }
    auto fp32 = Runtime::Default()->OpenSession(
        &abar, SessionOptions().set_dtype(DataType::kFp32));
    ASSERT_TRUE(fp32->Multiply(x, &z_fp32, nullptr).ok());
    ASSERT_GT(z_scalar.MaxAbsDifference(z_fp32), 0.0)
        << "no window was Tensor-routed, so nothing was rounded";
    for (int threads : {1, 2, 4}) {
      auto session = Runtime::Default()->OpenSession(
          &abar, SessionOptions(tf32).set_num_threads(threads));
      DenseMatrix z;
      ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
      ExpectBitwiseEqual(z_scalar, z, "tf32 session multiply");
    }
  }
}

TEST(SimdIntegrationTest, ShardedSpmmBitIdenticalScalarVsDispatched) {
  Pcg32 rng(777);
  Graph g = RMat(10, 6000, 16, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x = GenerateDense(abar.cols(), 33, &rng);  // tails in play

  for (DataType dtype : {DataType::kFp32, DataType::kTf32}) {
    DenseMatrix z_scalar;
    {
      ScopedSimdLevel forced(SimdLevel::kScalar);
      auto unsharded =
          Runtime::Default()->OpenSession(&abar, SessionOptions().set_dtype(dtype));
      ASSERT_TRUE(unsharded->Multiply(x, &z_scalar, nullptr).ok());
    }
    for (int k : {1, 2, 4, 7}) {
      ShardingOptions shards;
      shards.num_shards = k;
      auto sharded = Runtime::Default()->OpenSession(
          &abar, SessionOptions().set_dtype(dtype).set_sharding(shards));
      DenseMatrix z;
      ASSERT_TRUE(sharded->Multiply(x, &z, nullptr).ok());
      ExpectBitwiseEqual(z_scalar, z, "sharded multiply");
    }
  }
}

TEST(SimdIntegrationTest, GcnAndGinTrainingBitIdenticalScalarVsDispatched) {
  Pcg32 rng(33);
  Graph g = MoleculeUnion(200, 800, 20, 12, &rng);
  g.num_classes = 4;
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = (v / 17) % 4;
  AttachSyntheticFeatures(&g, &rng);

  for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kGin}) {
    GnnConfig cfg;
    TrainStats scalar_stats, simd_stats;
    {
      ScopedSimdLevel forced(SimdLevel::kScalar);
      scalar_stats =
          TrainGnn(g, kind, "hcspmm", cfg, Rtx3090(), 3, DataType::kFp32);
    }
    simd_stats = TrainGnn(g, kind, "hcspmm", cfg, Rtx3090(), 3, DataType::kFp32);
    ASSERT_EQ(scalar_stats.epochs.size(), simd_stats.epochs.size());
    for (size_t e = 0; e < scalar_stats.epochs.size(); ++e) {
      EXPECT_EQ(scalar_stats.epochs[e].loss, simd_stats.epochs[e].loss)
          << "epoch " << e << " loss diverges between scalar and SIMD";
      EXPECT_EQ(scalar_stats.epochs[e].accuracy, simd_stats.epochs[e].accuracy);
    }
    EXPECT_EQ(scalar_stats.final_loss, simd_stats.final_loss);
    EXPECT_EQ(scalar_stats.final_accuracy, simd_stats.final_accuracy);
  }
}

TEST(DenseMatrixAlignmentTest, StorageIs64ByteAligned) {
  for (int32_t rows : {1, 3, 17}) {
    for (int32_t cols : {1, 7, 16, 64, 100, 128}) {
      DenseMatrix m(rows, cols, 1.0f);
      const auto base = reinterpret_cast<uintptr_t>(m.RowData(0));
      EXPECT_EQ(base % 64, 0u) << rows << "x" << cols;
      if (cols % 16 == 0) {
        // Leading dimension is cols, so every row start stays aligned for
        // multiple-of-16 feature dims (the typical GNN configuration).
        for (int32_t r = 0; r < rows; ++r) {
          EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowData(r)) % 64, 0u)
              << rows << "x" << cols << " row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hcspmm
