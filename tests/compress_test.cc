// Compressed-storage suite: PackedCsr encode/decode round trips (escape
// paths, empty rows, giant rows, unsorted rejection), bitwise identity of
// the packed-index SpMM against the plain path across SIMD levels x threads
// x shard counts, fp16/bf16 feature-storage determinism + error bounds, the
// PlanCache no-aliasing contract for the new key fields, and the exact
// memory accounting the compression story reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/preprocess.h"
#include "exec/plan_cache.h"
#include "gnn/trainer.h"
#include "gpusim/device.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "shard/partitioner.h"
#include "sparse/generate.h"
#include "sparse/packed_csr.h"
#include "util/cpu_features.h"
#include "util/half.h"
#include "util/packed_index.h"
#include "util/random.h"
#include "util/simd.h"

namespace hcspmm {
namespace {

void ExpectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.data().size(); ++i) {
    uint32_t ba, bb;
    std::memcpy(&ba, &a.data()[i], sizeof(ba));
    std::memcpy(&bb, &b.data()[i], sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " diverges at element " << i << ": "
                      << a.data()[i] << " vs " << b.data()[i];
  }
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

DenseMatrix RandomFeatures(int32_t rows, int32_t cols, uint64_t seed) {
  Pcg32 rng(seed);
  DenseMatrix x(rows, cols);
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      x.At(r, c) = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    }
  }
  return x;
}

CsrMatrix GraphOperator(int32_t scale, int64_t edges, uint64_t seed) {
  Pcg32 rng(seed);
  Graph g = RMat(scale, edges, /*feature_dim=*/8, &rng);
  return GcnNormalized(g.adjacency);
}

SessionOptions Fp32Options() { return SessionOptions().set_dtype(DataType::kFp32); }

// ---------------------------------------------------------------------------
// PackedCsr encode/decode round trips
// ---------------------------------------------------------------------------

TEST(PackedCsrTest, RoundTripUniformMatrix) {
  Pcg32 rng(7);
  const CsrMatrix m = GenerateUniformSparse(300, 300, 0.04, &rng);
  ASSERT_TRUE(m.Validate(/*require_sorted_columns=*/true));
  auto packed = PackedCsr::Encode(m);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const PackedCsr& pc = packed.ValueOrDie();
  EXPECT_EQ(pc.rows(), m.rows());
  EXPECT_EQ(pc.cols(), m.cols());
  EXPECT_EQ(pc.nnz(), m.nnz());
  EXPECT_EQ(pc.DecodeAll(), m.col_ind());
  // The sidecar must actually be smaller than the 4 B/nnz it replaces.
  EXPECT_LT(pc.IndexBytesPerNnz(), 4.0);
  EXPECT_GT(pc.MemoryBytes(), 0);
}

TEST(PackedCsrTest, RoundTripEdgeCases) {
  // Empty rows around populated ones, a first column needing a wide escape,
  // a 2-byte gap, a 4-byte gap, duplicate columns (delta 0), and columns at
  // the top of the int32 range.
  const int32_t cols = 2147483647;
  std::vector<int64_t> row_ptr = {0, 0, 3, 3, 6, 8, 8};
  std::vector<int32_t> col_ind = {
      5,         6,          400,         // 1-byte, 1-byte(dup-adjacent), 2-byte
      100000,    100001,     2147483646,  // 4-byte-ish first, 1-byte, 4-byte gap
      70000,     70000,                   // duplicate column: delta 0
  };
  std::vector<float> val(col_ind.size(), 1.0f);
  const CsrMatrix m(6, cols, row_ptr, col_ind, val);
  auto packed = PackedCsr::Encode(m);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const PackedCsr& pc = packed.ValueOrDie();
  EXPECT_EQ(pc.DecodeAll(), col_ind);
  // Empty rows occupy zero stream bytes.
  EXPECT_EQ(pc.pack_ptr()[0], pc.pack_ptr()[1]);
  EXPECT_EQ(pc.pack_ptr()[2], pc.pack_ptr()[3]);
  std::vector<int32_t> row;
  ASSERT_TRUE(pc.DecodeRow(0, &row).ok());
  EXPECT_TRUE(row.empty());
  ASSERT_TRUE(pc.DecodeRow(4, &row).ok());
  EXPECT_EQ(row, (std::vector<int32_t>{70000, 70000}));
  EXPECT_FALSE(pc.DecodeRow(6, &row).ok());
  EXPECT_FALSE(pc.DecodeRow(-1, &row).ok());
}

TEST(PackedCsrTest, RoundTripEmptyAndGiantRow) {
  // A matrix that is one giant dense row: every delta after the first is 1.
  const int32_t n = 5000;
  std::vector<int64_t> row_ptr = {0, n};
  std::vector<int32_t> col_ind(n);
  for (int32_t i = 0; i < n; ++i) col_ind[i] = i;
  std::vector<float> val(n, 0.5f);
  const CsrMatrix m(1, n, row_ptr, col_ind, val);
  auto packed = PackedCsr::Encode(m);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed.ValueOrDie().DecodeAll(), col_ind);
  // Dense run: exactly 1 byte per nonzero in the stream.
  EXPECT_EQ(packed.ValueOrDie().stream().size(), static_cast<size_t>(n));

  // Fully empty matrix (rows but no nonzeros).
  const CsrMatrix empty(3, 10, {0, 0, 0, 0}, {}, {});
  auto packed_empty = PackedCsr::Encode(empty);
  ASSERT_TRUE(packed_empty.ok());
  EXPECT_EQ(packed_empty.ValueOrDie().nnz(), 0);
  EXPECT_TRUE(packed_empty.ValueOrDie().stream().empty());
  EXPECT_EQ(packed_empty.ValueOrDie().DecodeAll(), std::vector<int32_t>{});
}

TEST(PackedCsrTest, ExactEscapeLaneSizes) {
  // One row per encoding class; stream bytes must match the format spec.
  EXPECT_EQ(packed::EncodedDeltaBytes(0), 1);
  EXPECT_EQ(packed::EncodedDeltaBytes(253), 1);
  EXPECT_EQ(packed::EncodedDeltaBytes(254), 3);
  EXPECT_EQ(packed::EncodedDeltaBytes(65535), 3);
  EXPECT_EQ(packed::EncodedDeltaBytes(65536), 5);
  const CsrMatrix m(1, 1 << 20, {0, 3}, {253, 253 + 254, 253 + 254 + 65536},
                    {1.0f, 1.0f, 1.0f});
  auto packed = PackedCsr::Encode(m);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed.ValueOrDie().stream().size(), 1u + 3u + 5u);
  EXPECT_EQ(packed.ValueOrDie().DecodeAll(), m.col_ind());
}

TEST(PackedCsrTest, RejectsUnsortedAndOutOfRange) {
  const CsrMatrix unsorted(1, 10, {0, 2}, {5, 3}, {1.0f, 1.0f});
  auto st = PackedCsr::Encode(unsorted);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);

  const CsrMatrix oob(1, 4, {0, 1}, {9}, {1.0f});
  EXPECT_FALSE(PackedCsr::Encode(oob).ok());
}

// ---------------------------------------------------------------------------
// Bitwise identity of the compressed-index execution path
// ---------------------------------------------------------------------------

TEST(CompressedSpmmTest, BitIdenticalAcrossSimdLevelsAndThreads) {
  const CsrMatrix abar = GraphOperator(/*scale=*/9, /*edges=*/4000, /*seed=*/3);
  auto plain = Runtime::Default()->OpenSession(&abar, Fp32Options());
  auto packed = Runtime::Default()->OpenSession(
      &abar, Fp32Options().set_compress_indices(true));
  ASSERT_TRUE(plain->WaitReady().ok());
  ASSERT_TRUE(packed->WaitReady().ok());
  ASSERT_NE(packed->plan()->packed, nullptr);
  EXPECT_EQ(plain->plan()->packed, nullptr);  // no aliasing via the cache

  const std::vector<SimdLevel> levels = {SimdLevel::kScalar, ActiveSimdLevel()};
  for (SimdLevel level : levels) {
    ScopedSimdLevel scoped(level);
    for (int32_t dim : {1, 7, 8, 9, 64}) {
      const DenseMatrix x = RandomFeatures(abar.cols(), dim, 1000 + dim);
      DenseMatrix z_plain, z_packed;
      for (int threads : {1, 4}) {
        SessionOptions opts = Fp32Options().set_num_threads(threads);
        auto p = Runtime::Default()->OpenSession(&abar, opts);
        auto c = Runtime::Default()->OpenSession(
            &abar, opts.set_compress_indices(true));
        ASSERT_TRUE(p->Multiply(x, &z_plain, nullptr).ok());
        ASSERT_TRUE(c->Multiply(x, &z_packed, nullptr).ok());
        ExpectBitwiseEqual(z_plain, z_packed, "packed vs plain");
      }
    }
  }
}

TEST(CompressedSpmmTest, BitIdenticalAcrossShardCounts) {
  const CsrMatrix abar = GraphOperator(/*scale=*/10, /*edges=*/9000, /*seed=*/5);
  const DenseMatrix x = RandomFeatures(abar.cols(), 24, 77);
  auto plain = Runtime::Default()->OpenSession(&abar, Fp32Options());
  DenseMatrix z_ref;
  ASSERT_TRUE(plain->Multiply(x, &z_ref, nullptr).ok());
  for (int k : {1, 2, 4, 7}) {
    ShardingOptions sharding;
    sharding.num_shards = k;
    auto sharded = Runtime::Default()->OpenSession(
        &abar, Fp32Options().set_compress_indices(true).set_sharding(sharding));
    ASSERT_TRUE(sharded->WaitReady().ok()) << "K=" << k;
    DenseMatrix z;
    ASSERT_TRUE(sharded->Multiply(x, &z, nullptr).ok());
    ExpectBitwiseEqual(z_ref, z, "sharded packed vs unsharded plain");
  }
}

TEST(CompressedSpmmTest, MetersFewerHostBytesPerNnz) {
  const CsrMatrix abar = GraphOperator(/*scale=*/9, /*edges=*/6000, /*seed=*/21);
  const DenseMatrix x = RandomFeatures(abar.cols(), 32, 9);
  auto plain = Runtime::Default()->OpenSession(&abar, Fp32Options());
  auto packed = Runtime::Default()->OpenSession(
      &abar, Fp32Options().set_compress_indices(true));
  DenseMatrix z;
  KernelProfile prof_plain, prof_packed;
  ASSERT_TRUE(plain->Multiply(x, &z, &prof_plain).ok());
  ASSERT_TRUE(packed->Multiply(x, &z, &prof_packed).ok());
  EXPECT_EQ(prof_plain.host_nnz, abar.nnz());
  EXPECT_EQ(prof_packed.host_nnz, abar.nnz());
  EXPECT_GT(prof_plain.HostBytesPerNnz(), 0.0);
  EXPECT_LT(prof_packed.host_bytes, prof_plain.host_bytes);
  // And the compressed session reports the sidecar as resident structure.
  EXPECT_GT(packed->AuxMemoryBytes(), plain->AuxMemoryBytes());
}

TEST(CompressedSpmmTest, CompressRequiresHcspmmKernel) {
  const CsrMatrix abar = GraphOperator(/*scale=*/8, /*edges=*/2000, /*seed=*/2);
  auto session = Runtime::Default()->OpenSession(
      &abar, Fp32Options().set_kernel("cusparse").set_compress_indices(true));
  const Status st = session->WaitReady();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(CompressedSpmmTest, TrainingIsLosslessUnderCompression) {
  Pcg32 rng(13);
  Graph g = RMat(/*scale_log2=*/8, /*num_edges=*/1500, /*feature_dim=*/16, &rng);
  g.num_classes = 4;
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = v % 4;
  GnnConfig base;
  base.hidden_dim = 8;
  GnnConfig compressed = base;
  compressed.compress_indices = true;
  const TrainStats a = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", base,
                                Rtx3090(), /*epochs=*/2, DataType::kFp32);
  const TrainStats b = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", compressed,
                                Rtx3090(), /*epochs=*/2, DataType::kFp32);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].loss, b.epochs[e].loss) << "epoch " << e;
  }
  // Table XII accounting: compression adds the sidecar to aux memory.
  EXPECT_GT(b.memory_bytes, a.memory_bytes);
}

// ---------------------------------------------------------------------------
// Reduced-precision feature storage
// ---------------------------------------------------------------------------

// Scalar oracle of the reduced-precision SpMM: round X through the storage
// precision, widen exactly, accumulate fp32 in CSR order.
DenseMatrix HalfReferenceSpmm(const CsrMatrix& a, const DenseMatrix& x,
                              FeaturePrecision p) {
  DenseMatrix z(a.rows(), x.cols());
  for (int32_t r = 0; r < a.rows(); ++r) {
    float* zr = z.MutableRowData(r);
    for (int64_t k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
      const float v = a.val()[k];
      const int32_t col = a.col_ind()[k];
      for (int32_t j = 0; j < x.cols(); ++j) {
        const float xv = p == FeaturePrecision::kFp16
                             ? F16BitsToF32(F32ToF16Bits(x.At(col, j)))
                             : Bf16BitsToF32(F32ToBf16Bits(x.At(col, j)));
        zr[j] += v * xv;
      }
    }
  }
  return z;
}

TEST(ReducedPrecisionTest, F16DecodeMatchesHardwareSemanticsExhaustively) {
  // The bit-twiddled F16BitsToF32 must agree with the compiler's _Float16
  // widening for every one of the 65536 encodings (NaNs: same NaN-ness; the
  // payload passes through the mantissa shift unchanged).
  for (uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float ours = F16BitsToF32(h);
    _Float16 native_h;
    std::memcpy(&native_h, &h, sizeof(native_h));
    const float native = static_cast<float>(native_h);
    if (native != native) {  // NaN encoding
      EXPECT_NE(ours, ours) << "pattern 0x" << std::hex << bits;
      continue;
    }
    uint32_t a, b;
    std::memcpy(&a, &ours, sizeof(a));
    std::memcpy(&b, &native, sizeof(b));
    ASSERT_EQ(a, b) << "pattern 0x" << std::hex << bits;
  }
}

TEST(ReducedPrecisionTest, DenseMatrixConversionRoundTrips) {
  const DenseMatrix x = RandomFeatures(37, 19, 4);
  for (FeaturePrecision p : {FeaturePrecision::kFp16, FeaturePrecision::kBf16}) {
    const DenseMatrix reduced = x.ToPrecision(p);
    EXPECT_TRUE(reduced.reduced_storage());
    EXPECT_EQ(reduced.precision(), p);
    // 2 bytes/element vs 4.
    EXPECT_LT(reduced.MemoryBytes(), x.MemoryBytes());
    // Reduced -> fp32 -> reduced is the identity (widening is exact).
    const DenseMatrix widened = reduced.ToPrecision(FeaturePrecision::kFp32);
    EXPECT_FALSE(widened.reduced_storage());
    const DenseMatrix again = widened.ToPrecision(p);
    for (int32_t r = 0; r < x.rows(); ++r) {
      for (int32_t c = 0; c < x.cols(); ++c) {
        EXPECT_EQ(reduced.HalfRowData(r)[c], again.HalfRowData(r)[c]);
        EXPECT_EQ(reduced.ValueAt(r, c), widened.At(r, c));
      }
    }
  }
}

TEST(ReducedPrecisionTest, MatchesScalarOracleAtEverySimdLevel) {
  const CsrMatrix abar = GraphOperator(/*scale=*/9, /*edges=*/5000, /*seed=*/17);
  for (FeaturePrecision p : {FeaturePrecision::kFp16, FeaturePrecision::kBf16}) {
    for (int32_t dim : {1, 9, 64}) {
      const DenseMatrix x = RandomFeatures(abar.cols(), dim, 500 + dim);
      const DenseMatrix expected = HalfReferenceSpmm(abar, x, p);
      for (SimdLevel level : {SimdLevel::kScalar, ActiveSimdLevel()}) {
        ScopedSimdLevel scoped(level);
        auto session = Runtime::Default()->OpenSession(
            &abar, Fp32Options().set_feature_precision(p));
        DenseMatrix z;
        ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
        ExpectBitwiseEqual(expected, z, FeaturePrecisionName(p));
        // Packed indices + reduced features: still the oracle, bitwise.
        auto both = Runtime::Default()->OpenSession(
            &abar,
            Fp32Options().set_feature_precision(p).set_compress_indices(true));
        DenseMatrix z2;
        ASSERT_TRUE(both->Multiply(x, &z2, nullptr).ok());
        ExpectBitwiseEqual(expected, z2, "packed+reduced");
      }
    }
  }
}

TEST(ReducedPrecisionTest, ErrorBoundedAgainstFp32) {
  const CsrMatrix abar = GraphOperator(/*scale=*/10, /*edges=*/8000, /*seed=*/23);
  const DenseMatrix x = RandomFeatures(abar.cols(), 32, 6);
  auto fp32 = Runtime::Default()->OpenSession(&abar, Fp32Options());
  DenseMatrix z32;
  ASSERT_TRUE(fp32->Multiply(x, &z32, nullptr).ok());
  // Per-element: |z_half - z_fp32| <= eps_rel * sum_k |val_k * x_kj|.
  // GcnNormalized rows sum to ~1 and |x| <= 2, so 2 * eps_rel is a safe
  // row-sum bound; keep a 2x cushion for accumulation.
  const struct {
    FeaturePrecision p;
    double max_err;
  } cases[] = {
      {FeaturePrecision::kFp16, 4.0 * 0x1p-11},
      {FeaturePrecision::kBf16, 4.0 * 0x1p-8},
  };
  for (const auto& c : cases) {
    auto session = Runtime::Default()->OpenSession(
        &abar, Fp32Options().set_feature_precision(c.p));
    DenseMatrix z;
    ASSERT_TRUE(session->Multiply(x, &z, nullptr).ok());
    const double err = z.MaxAbsDifference(z32);
    EXPECT_LE(err, c.max_err) << FeaturePrecisionName(c.p);
  }
}

// ---------------------------------------------------------------------------
// PlanCache no-aliasing for the new key fields
// ---------------------------------------------------------------------------

TEST(CompressPlanCacheTest, KeyFieldsNeverAlias) {
  Pcg32 rng(31);
  const CsrMatrix m = GenerateUniformSparse(64, 64, 0.1, &rng);
  PlanCacheKey plain = MakePlanCacheKey(m, Rtx3090(), DataType::kFp32);
  PlanCacheKey packed = plain;
  packed.index_storage = 1;
  PlanCacheKey fp16 = plain;
  fp16.feature_precision = static_cast<uint8_t>(FeaturePrecision::kFp16);
  EXPECT_FALSE(plain == packed);
  EXPECT_FALSE(plain == fp16);
  EXPECT_FALSE(packed == fp16);

  auto plan = Preprocess(m, Rtx3090(), DefaultSelectorModel());
  ASSERT_TRUE(plan.ok());
  plan.ValueOrDie().windows.csr = nullptr;
  auto shared = std::make_shared<const HybridPlan>(std::move(plan.ValueOrDie()));
  PlanCache cache;
  cache.Insert(plain, shared);
  EXPECT_NE(cache.Lookup(plain), nullptr);
  EXPECT_EQ(cache.Lookup(packed), nullptr);
  EXPECT_EQ(cache.Lookup(fp16), nullptr);
}

TEST(CompressPlanCacheTest, SessionsShareOnlyMatchingStorageEncodings) {
  Pcg32 rng(41);
  const CsrMatrix m = GenerateUniformSparse(256, 256, 0.05, &rng);
  Runtime runtime;  // isolated cache
  auto plain = runtime.OpenSession(&m, Fp32Options());
  ASSERT_TRUE(plain->WaitReady().ok());
  EXPECT_FALSE(plain->plan_from_cache());
  // Compressed must *miss* the plain entry and build its own sidecar plan.
  auto packed1 = runtime.OpenSession(&m, Fp32Options().set_compress_indices(true));
  ASSERT_TRUE(packed1->WaitReady().ok());
  EXPECT_FALSE(packed1->plan_from_cache());
  ASSERT_NE(packed1->plan()->packed, nullptr);
  // A second compressed session hits the compressed entry.
  auto packed2 = runtime.OpenSession(&m, Fp32Options().set_compress_indices(true));
  ASSERT_TRUE(packed2->WaitReady().ok());
  EXPECT_TRUE(packed2->plan_from_cache());
  ASSERT_NE(packed2->plan()->packed, nullptr);
  // And a plain re-open still finds the plain entry (not the packed one).
  auto plain2 = runtime.OpenSession(&m, Fp32Options());
  ASSERT_TRUE(plain2->WaitReady().ok());
  EXPECT_TRUE(plain2->plan_from_cache());
  EXPECT_EQ(plain2->plan()->packed, nullptr);
}

// ---------------------------------------------------------------------------
// Exact memory accounting
// ---------------------------------------------------------------------------

TEST(CompressMemoryTest, CsrAndPackedFootprintsAreExact) {
  Pcg32 rng(51);
  const CsrMatrix m = GenerateUniformSparse(128, 128, 0.08, &rng);
  const int64_t expected =
      static_cast<int64_t>(m.row_ptr().capacity() * sizeof(int64_t) +
                           m.col_ind().capacity() * sizeof(int32_t) +
                           m.val().capacity() * sizeof(float));
  EXPECT_EQ(m.MemoryBytes(), expected);

  auto packed = PackedCsr::Encode(m);
  ASSERT_TRUE(packed.ok());
  const PackedCsr& pc = packed.ValueOrDie();
  const int64_t expected_packed =
      static_cast<int64_t>(pc.stream().capacity() * sizeof(uint8_t) +
                           pc.pack_ptr().capacity() * sizeof(uint32_t));
  EXPECT_EQ(pc.MemoryBytes(), expected_packed);
  // The whole point: sidecar + offsets beat 4 B/nnz plain indices.
  EXPECT_LT(pc.MemoryBytes(),
            static_cast<int64_t>(m.col_ind().size() * sizeof(int32_t)));
}

}  // namespace
}  // namespace hcspmm
