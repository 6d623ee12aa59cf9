// Unit tests for src/tensor: Tensor container semantics, numeric kernels
// (GEMM against a naive reference, parameterized over shapes/transposes),
// segment softmax, and initializers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/vec.h"

namespace cgkgr {
namespace tensor {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(TensorTest, ShapeAndVolume) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.ShapeString(), "[2, 3, 4]");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({5, 5});
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, CopiesShareStorage) {
  Tensor a({3});
  Tensor b = a;
  a[0] = 7.0f;
  EXPECT_EQ(b[0], 7.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a({3});
  Tensor b = a.Clone();
  a[0] = 7.0f;
  EXPECT_EQ(b[0], 0.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a({2, 3});
  Tensor b = a.Reshape({6});
  a.at(1, 2) = 9.0f;
  EXPECT_EQ(b[5], 9.0f);
  EXPECT_EQ(b.rank(), 1);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(t[3], 3.5f);
  Tensor s = Tensor::Scalar(-1.0f);
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s[0], -1.0f);
}

TEST(TensorTest, At2D) {
  Tensor t({2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
}

TEST(TensorTest, ShapeVolumeEmptyShapeIsOne) {
  EXPECT_EQ(ShapeVolume({}), 1);
  EXPECT_EQ(ShapeVolume({0, 5}), 0);
}

// --- GEMM against naive reference, parameterized over transposes/shapes ---

class GemmTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {
};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [trans_a, trans_b, m, n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 1000 + n * 100 + k * 10 +
                                (trans_a ? 2 : 0) + (trans_b ? 1 : 0)));
  // Storage shapes before the op-transpose.
  Tensor a(trans_a ? std::vector<int64_t>{k, m} : std::vector<int64_t>{m, k});
  Tensor b(trans_b ? std::vector<int64_t>{n, k} : std::vector<int64_t>{k, n});
  UniformInit(&a, &rng, -1.0f, 1.0f);
  UniformInit(&b, &rng, -1.0f, 1.0f);
  Tensor c({m, n});
  UniformInit(&c, &rng, -1.0f, 1.0f);
  Tensor c_ref = c.Clone();

  const float alpha = 0.7f;
  const float beta = 0.3f;
  Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta, c.data());

  auto a_at = [&](int64_t i, int64_t kk) {
    return trans_a ? a.at(kk, i) : a.at(i, kk);
  };
  auto b_at = [&](int64_t kk, int64_t j) {
    return trans_b ? b.at(j, kk) : b.at(kk, j);
  };
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = beta * c_ref.at(i, j);
      for (int64_t kk = 0; kk < k; ++kk) {
        expected += alpha * a_at(i, kk) * b_at(kk, j);
      }
      EXPECT_NEAR(c.at(i, j), expected, 1e-4f)
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 3, 8), ::testing::Values(1, 5),
                       ::testing::Values(1, 4, 7)));

TEST(KernelTest, GemmBetaZeroIgnoresGarbage) {
  // beta = 0 must overwrite even NaN garbage in C.
  Tensor a({1, 1}, {2.0f});
  Tensor b({1, 1}, {3.0f});
  Tensor c({1, 1}, {std::nanf("")});
  Gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 6.0f);
}

TEST(KernelTest, AxpyAndScale) {
  Tensor x({3}, {1.0f, 2.0f, 3.0f});
  Tensor y({3}, {10.0f, 20.0f, 30.0f});
  Axpy(3, 2.0f, x.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
  ScaleInPlace(3, 0.5f, y.data());
  EXPECT_FLOAT_EQ(y[0], 6.0f);
}

TEST(KernelTest, Elementwise) {
  Tensor a({2}, {3.0f, -1.0f});
  Tensor b({2}, {2.0f, 4.0f});
  Tensor out({2});
  Add(2, a.data(), b.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  Sub(2, a.data(), b.data(), out.data());
  EXPECT_FLOAT_EQ(out[1], -5.0f);
  Mul(2, a.data(), b.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 6.0f);
}

TEST(KernelTest, AddRowVectorBroadcasts) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor v({3}, {10, 20, 30});
  AddRowVector(2, 3, v.data(), x.data());
  EXPECT_FLOAT_EQ(x.at(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 31.0f);
}

TEST(KernelTest, RowDotAndRowScale) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor d({2});
  RowDot(2, 2, a.data(), b.data(), d.data());
  EXPECT_FLOAT_EQ(d[0], 17.0f);
  EXPECT_FLOAT_EQ(d[1], 53.0f);
  Tensor s({2}, {2.0f, -1.0f});
  Tensor scaled({2, 2});
  RowScale(2, 2, a.data(), s.data(), scaled.data());
  EXPECT_FLOAT_EQ(scaled.at(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(scaled.at(1, 0), -3.0f);
}

TEST(KernelTest, SegmentSoftmaxNormalizes) {
  Tensor x({6}, {1.0f, 2.0f, 3.0f, -1.0f, 0.0f, 1.0f});
  Tensor out({6});
  SegmentSoftmax(2, 3, x.data(), out.data());
  for (int s = 0; s < 2; ++s) {
    float total = 0.0f;
    for (int i = 0; i < 3; ++i) total += out[s * 3 + i];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  // Monotone within segment.
  EXPECT_LT(out[0], out[1]);
  EXPECT_LT(out[1], out[2]);
}

TEST(KernelTest, SegmentSoftmaxStableForLargeInputs) {
  Tensor x({3}, {1000.0f, 1001.0f, 999.0f});
  Tensor out({3});
  SegmentSoftmax(1, 3, x.data(), out.data());
  float total = 0.0f;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(std::isnan(out[i]));
    total += out[i];
  }
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

TEST(KernelTest, SigmoidStableAndCorrect) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(1.0f) + Sigmoid(-1.0f), 1.0f, 1e-6f);
}

TEST(KernelTest, SumDotSquaredNorm) {
  Tensor x({3}, {1.0f, -2.0f, 3.0f});
  EXPECT_FLOAT_EQ(Sum(3, x.data()), 2.0f);
  EXPECT_FLOAT_EQ(SquaredNorm(3, x.data()), 14.0f);
  Tensor y({3}, {1.0f, 1.0f, 1.0f});
  EXPECT_FLOAT_EQ(Dot(3, x.data(), y.data()), 2.0f);
}

TEST(KernelTest, SumPairwiseAccurateOnLargeArrays) {
  // Pairwise (cascade) summation keeps rounding error O(log n) instead of
  // the naive loop's O(n). One million uniform values drift the naive float
  // sum by hundreds of ulps; the pairwise result must stay within a tight
  // relative bound of the double-accumulated reference.
  const int64_t n = 1 << 20;
  std::vector<float> x(static_cast<size_t>(n));
  Rng rng(13);
  double reference = 0.0;
  float naive = 0.0f;
  for (auto& v : x) {
    v = rng.UniformFloat();
    reference += static_cast<double>(v);
    naive += v;
  }
  const float pairwise = Sum(n, x.data());
  const double pairwise_err =
      std::abs(static_cast<double>(pairwise) - reference);
  const double naive_err = std::abs(static_cast<double>(naive) - reference);
  EXPECT_LT(pairwise_err, reference * 1e-6);
  EXPECT_LE(pairwise_err, naive_err);
}

TEST(KernelTest, SumExactForOddAndTinySizes) {
  // The pairwise recursion splits on arbitrary boundaries; integer-valued
  // floats must still sum exactly at every size crossing the base case.
  for (int64_t n = 1; n <= 33; ++n) {
    std::vector<float> x(static_cast<size_t>(n));
    float expected = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] = static_cast<float>(i + 1);
      expected += static_cast<float>(i + 1);
    }
    EXPECT_FLOAT_EQ(Sum(n, x.data()), expected) << "n=" << n;
  }
}

// --- kernel boundary and IEEE-semantics coverage ---
//
// The blocked kernel rewrite (docs/kernels.md) promises two things per op:
// either bit-identical results to the historical scalar loop (association
// preserved), or an explicitly documented numeric change bounded in ulps
// (SegmentSoftmax's fast-exp widths). These tests pin both, at sizes that
// straddle every block width and the PairwiseSum base case.

constexpr int64_t kBoundarySizes[] = {0, 1, 7, 8, 9, 63, 64, 65};

/// Ulp distance between two floats of the same sign regime; NaN/inf -> huge.
int64_t UlpDiff(float a, float b) {
  if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b)) {
    return a == b ? 0 : (1ll << 40);
  }
  auto ordered = [](float x) {
    int32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    // Map to a monotone integer line so distances work across zero.
    return bits < 0 ? static_cast<int64_t>(INT32_MIN) - bits
                    : static_cast<int64_t>(bits);
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

void ExpectNearUlps(float actual, float expected, int64_t max_ulps,
                    const std::string& what) {
  EXPECT_LE(UlpDiff(actual, expected), max_ulps)
      << what << ": actual=" << actual << " expected=" << expected;
}

/// The pre-rewrite scalar Gemm, minus the IEEE-breaking zero-skip: the
/// association (beta prepass, then kk-ascending accumulation per element)
/// is what the blocked kernel must reproduce bit for bit.
void ReferenceGemm(bool trans_a, bool trans_b, int64_t m, int64_t n,
                   int64_t k, float alpha, const float* a, const float* b,
                   float beta, float* c) {
  if (beta == 0.0f) {
    for (int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a_ik = alpha * (trans_a ? a[kk * m + i] : a[i * k + kk]);
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += a_ik * (trans_b ? b[j * k + kk] : b[kk * n + j]);
      }
    }
  }
}

/// The pre-rewrite scalar SegmentSoftmax (libm exp, serial double
/// normalizer) — still the exact semantics of the generic-width path.
void ReferenceSegmentSoftmax(int64_t segments, int64_t segment,
                             const float* x, float* out) {
  for (int64_t s = 0; s < segments; ++s) {
    const float* in = x + s * segment;
    float* o = out + s * segment;
    float max_value = in[0];
    for (int64_t i = 1; i < segment; ++i) {
      if (in[i] > max_value) max_value = in[i];
    }
    double total = 0.0;
    for (int64_t i = 0; i < segment; ++i) {
      o[i] = std::exp(in[i] - max_value);
      total += o[i];
    }
    const float inv = 1.0f / static_cast<float>(total);
    for (int64_t i = 0; i < segment; ++i) o[i] *= inv;
  }
}

Tensor RandomFilled(int64_t size, uint64_t seed, float scale = 2.0f) {
  Tensor t({std::max<int64_t>(size, 1)});
  Rng rng(seed);
  for (int64_t i = 0; i < size; ++i) {
    t[i] = scale * (rng.UniformFloat() - 0.5f);
  }
  return t;
}

TEST(KernelTest, GemmPropagatesNanAndInf) {
  // The old kernel skipped a_ik == 0 terms, silently turning 0*inf and
  // 0*nan into 0 contributions; IEEE says they are NaN and the product
  // matrix must reflect that.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({1, 2}, {0.0f, 1.0f});
  Tensor b({2, 2}, {inf, nan, 1.0f, 1.0f});
  Tensor c({1, 2});
  Gemm(false, false, 1, 2, 2, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_TRUE(std::isnan(c[0])) << "0*inf must contribute NaN, got " << c[0];
  EXPECT_TRUE(std::isnan(c[1])) << "0*nan must contribute NaN, got " << c[1];
  // Same through the transposed-B (blocked accumulator) path.
  Tensor bt({2, 2}, {inf, 1.0f, nan, 1.0f});
  Tensor ct({1, 2});
  Gemm(false, true, 1, 2, 2, 1.0f, a.data(), bt.data(), 0.0f, ct.data());
  EXPECT_TRUE(std::isnan(ct[0]));
  EXPECT_TRUE(std::isnan(ct[1]));
  // And rows untouched by specials stay clean.
  Tensor a2({1, 2}, {1.0f, 1.0f});
  Tensor b2({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor c2({1, 2});
  Gemm(false, false, 1, 2, 2, 1.0f, a2.data(), b2.data(), 0.0f, c2.data());
  EXPECT_FLOAT_EQ(c2[0], 4.0f);
  EXPECT_FLOAT_EQ(c2[1], 6.0f);
}

TEST(KernelTest, GemmBitIdenticalToReferenceAtBoundarySizes) {
  for (const int64_t n : kBoundarySizes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          Tensor a = RandomFilled(n * n, 100 + static_cast<uint64_t>(n));
          Tensor b = RandomFilled(n * n, 200 + static_cast<uint64_t>(n));
          Tensor c = RandomFilled(n * n, 300 + static_cast<uint64_t>(n));
          Tensor expected({std::max<int64_t>(n * n, 1)});
          for (int64_t i = 0; i < n * n; ++i) expected[i] = c[i];
          ReferenceGemm(trans_a, trans_b, n, n, n, 1.25f, a.data(), b.data(),
                        beta, expected.data());
          Gemm(trans_a, trans_b, n, n, n, 1.25f, a.data(), b.data(), beta,
               c.data());
          for (int64_t i = 0; i < n * n; ++i) {
            ASSERT_EQ(c[i], expected[i])
                << "n=" << n << " ta=" << trans_a << " tb=" << trans_b
                << " beta=" << beta << " i=" << i;
          }
        }
      }
    }
  }
  // Non-square shapes: n = 16 takes the register row, other n the row
  // loop, and n < 4 is all tail. A transposed B is copied row-major first.
  struct Shape {
    int64_t m, n, k;
  };
  for (const Shape shape : {Shape{3, 16, 7}, Shape{1, 16, 16}, Shape{9, 16, 1},
                            Shape{5, 2, 9}, Shape{4, 3, 17}, Shape{2, 1, 5},
                            Shape{7, 17, 16}, Shape{1, 33, 3},
                            Shape{65, 5, 8}}) {
    const auto [m, n, k] = shape;
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const float alpha : {1.0f, -0.75f}) {
          for (const float beta : {0.0f, 1.0f, 0.5f}) {
            const uint64_t seed =
                static_cast<uint64_t>(m * 10000 + n * 100 + k);
            Tensor a = RandomFilled(m * k, seed);
            Tensor b = RandomFilled(k * n, seed + 1);
            Tensor c = RandomFilled(m * n, seed + 2);
            Tensor expected = c.Clone();
            ReferenceGemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(),
                          beta, expected.data());
            Gemm(trans_a, trans_b, m, n, k, alpha, a.data(), b.data(), beta,
                 c.data());
            for (int64_t i = 0; i < m * n; ++i) {
              ASSERT_EQ(c[i], expected[i])
                  << "m=" << m << " n=" << n << " k=" << k << " ta=" << trans_a
                  << " tb=" << trans_b << " alpha=" << alpha
                  << " beta=" << beta << " i=" << i;
            }
          }
        }
      }
    }
  }
}

/// Bitwise equality: tells -0 from +0 and compares NaN payloads.
bool SameFloat(float actual, float expected) {
  return std::memcmp(&actual, &expected, sizeof(float)) == 0;
}

/// Bitwise equality, except that a NaN matches any NaN: where two NaNs
/// meet in one sum IEEE 754 leaves the surviving payload open.
bool SameOrBothNan(float actual, float expected) {
  return (std::isnan(actual) && std::isnan(expected)) ||
         SameFloat(actual, expected);
}

TEST(KernelTest, GemmN16BitIdenticalToReferenceWithSpecialValues) {
  // n == 16 keeps each C row in registers, and a transposed B is copied
  // row-major before the same row kernels run; every element must still be
  // the scalar loop's beta-scaled seed plus kk-ascending products. Widths
  // other than 16, down to all-tail n < 4, run the row loop.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t n : {16, 17, 5, 3, 1}) {
    for (const int64_t m : {1, 3, 16}) {
      for (const int64_t k : {1, 7, 16, 33}) {
        for (const bool trans_a : {false, true}) {
          for (const bool trans_b : {false, true}) {
            for (const float beta : {0.0f, 1.0f, 0.5f}) {
              const uint64_t seed =
                  static_cast<uint64_t>(n * 100000 + m * 1000 + k);
              Tensor a = RandomFilled(m * k, seed);
              Tensor b = RandomFilled(k * n, seed + 1);
              Tensor c = RandomFilled(m * n, seed + 2);
              // op(B)[kk][j] in B's storage order.
              auto b_at = [&](int64_t kk, int64_t j) -> float& {
                return trans_b ? b[j * k + kk] : b[kk * n + j];
              };
              // A zero of A meets an inf of B (0 * inf is NaN), a NaN and a
              // -0 ride along, and C seeds with specials of its own.
              const int64_t inf_col = std::min<int64_t>(3, n - 1);
              a[0] = 0.0f;
              b_at(0, inf_col) = inf;
              b_at(k - 1, std::min<int64_t>(5, n - 1)) = nan;
              a[m * k - 1] = -0.0f;
              c[m * n - 1] = -inf;
              c[std::min<int64_t>(2, m * n - 1)] = -0.0f;
              Tensor expected = c.Clone();
              ReferenceGemm(trans_a, trans_b, m, n, k, -1.25f, a.data(),
                            b.data(), beta, expected.data());
              Gemm(trans_a, trans_b, m, n, k, -1.25f, a.data(), b.data(),
                   beta, c.data());
              for (int64_t i = 0; i < m * n; ++i) {
                ASSERT_TRUE(SameFloat(c[i], expected[i]))
                    << "n=" << n << " m=" << m << " k=" << k
                    << " ta=" << trans_a << " tb=" << trans_b
                    << " beta=" << beta << " i=" << i << ": " << c[i]
                    << " vs " << expected[i];
              }
              EXPECT_TRUE(std::isnan(c[inf_col]))
                  << "0 * inf must contribute NaN";
            }
          }
        }
      }
    }
  }
}

TEST(KernelTest, RelationMatMulRowsAreOneByDGemms) {
  // Each row has the bits of the 1 x d x d Gemm that autograd's
  // RelationMatMul used to issue per row.
  for (const int64_t d : {1, 3, 8, 16, 17, 33}) {
    const int64_t rows = 5;
    const int64_t num_relations = 3;
    Tensor x = RandomFilled(rows * d, 40 + static_cast<uint64_t>(d));
    Tensor matrices =
        RandomFilled(num_relations * d * d, 50 + static_cast<uint64_t>(d));
    const std::vector<int64_t> rel = {2, 0, 2, 1, 0};
    Tensor out({rows * d});
    RelationMatMul(rows, d, num_relations, x.data(), rel.data(),
                   matrices.data(), out.data());
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<float> expected(static_cast<size_t>(d));
      ReferenceGemm(false, false, 1, d, d, 1.0f, x.data() + r * d,
                    matrices.data() + rel[static_cast<size_t>(r)] * d * d,
                    0.0f, expected.data());
      for (int64_t j = 0; j < d; ++j) {
        ASSERT_TRUE(SameFloat(out[r * d + j], expected[static_cast<size_t>(j)]))
            << "d=" << d << " r=" << r << " j=" << j;
      }
    }
  }
}

TEST(KernelTest, RelationMatMulGradKernelsBitIdenticalToPerRowLoops) {
  // The references are the loops RelationMatMul's backward ran before the
  // whole-op kernels: per row, one 1 x d x d transposed-B product into dx
  // and d Axpy calls into dM[rel]. Both gradient buffers are live on entry.
  // Where two NaNs meet in one sum, IEEE 754 leaves open whose payload
  // survives, and the compiler may order a commutative add either way, so
  // a NaN matches any NaN; every other value, -0 included, matches bitwise.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  enum class Pattern { kAllEqual, kAllDistinct, kRandom };
  for (const int64_t d : {1, 3, 8, 16, 17, 33}) {
    for (const int64_t n : {0, 1, 512}) {
      for (const Pattern pattern :
           {Pattern::kAllEqual, Pattern::kAllDistinct, Pattern::kRandom}) {
        for (const bool specials : {false, true}) {
          const int64_t num_relations =
              pattern == Pattern::kAllDistinct ? std::max<int64_t>(n, 1) : 13;
          const uint64_t seed = static_cast<uint64_t>(
              d * 10000 + n * 10 + static_cast<int64_t>(pattern));
          std::vector<int64_t> rel(static_cast<size_t>(n));
          Rng rng(seed);
          for (int64_t r = 0; r < n; ++r) {
            int64_t q = 4;
            if (pattern == Pattern::kAllDistinct) q = r;
            if (pattern == Pattern::kRandom) {
              q = static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(num_relations)));
            }
            rel[static_cast<size_t>(r)] = q;
          }
          Tensor x = RandomFilled(n * d, seed + 1);
          Tensor g = RandomFilled(n * d, seed + 2);
          Tensor matrices = RandomFilled(num_relations * d * d, seed + 3);
          Tensor xg = RandomFilled(n * d, seed + 4);
          Tensor mg = RandomFilled(num_relations * d * d, seed + 5);
          if (specials && n > 0) {
            // -0 in a live gradient, inf meeting a zero (NaN), a NaN and a
            // -inf in the inputs, each in its own column.
            const int64_t last = n * d - 1;
            xg[0] = -0.0f;
            mg[0] = -0.0f;
            g[0] = 0.0f;
            matrices[rel[0] * d * d] = inf;
            x[0] = inf;
            g[last] = nan;
            x[last] = -inf;
            matrices[rel[static_cast<size_t>(n - 1)] * d * d + d * d - 1] = nan;
          }
          Tensor xg_expected = xg.Clone();
          Tensor mg_expected = mg.Clone();
          for (int64_t r = 0; r < n; ++r) {
            const int64_t q = rel[static_cast<size_t>(r)];
            ReferenceGemm(false, true, 1, d, d, 1.0f, g.data() + r * d,
                          matrices.data() + q * d * d, 1.0f,
                          xg_expected.data() + r * d);
            for (int64_t i = 0; i < d; ++i) {
              Axpy(d, x[r * d + i], g.data() + r * d,
                   mg_expected.data() + q * d * d + i * d);
            }
          }
          RelationMatMulGradX(n, d, num_relations, g.data(), rel.data(),
                              matrices.data(), xg.data());
          RelationMatMulGradM(n, d, num_relations, x.data(), g.data(),
                              rel.data(), mg.data());
          for (int64_t i = 0; i < n * d; ++i) {
            ASSERT_TRUE(SameOrBothNan(xg[i], xg_expected[i]))
                << "dX d=" << d << " n=" << n
                << " pattern=" << static_cast<int>(pattern)
                << " specials=" << specials << " i=" << i << ": " << xg[i]
                << " vs " << xg_expected[i];
          }
          for (int64_t i = 0; i < num_relations * d * d; ++i) {
            ASSERT_TRUE(SameOrBothNan(mg[i], mg_expected[i]))
                << "dM d=" << d << " n=" << n
                << " pattern=" << static_cast<int>(pattern)
                << " specials=" << specials << " i=" << i << ": " << mg[i]
                << " vs " << mg_expected[i];
          }
        }
      }
    }
  }
}

TEST(KernelTest, GroupedRelationRowDotMatchesRepeatedRowsThenRowDot) {
  // The scoring form multiplies each distinct relation of a group once;
  // the reference repeats every group's x row and multiplies every row.
  const int64_t groups = 3;
  const int64_t num_relations = 6;
  enum class Pattern { kAllEqual, kAllDistinct, kMixed };
  for (const int64_t d : {1, 3, 8, 16, 17, 33}) {
    for (int64_t group = 1; group <= 5; ++group) {
      for (const Pattern pattern :
           {Pattern::kAllEqual, Pattern::kAllDistinct, Pattern::kMixed}) {
        const int64_t rows = groups * group;
        std::vector<int64_t> rel(static_cast<size_t>(rows));
        for (int64_t g = 0; g < groups; ++g) {
          for (int64_t i = 0; i < group; ++i) {
            int64_t r = g;
            if (pattern == Pattern::kAllDistinct) r = (g + i) % num_relations;
            if (pattern == Pattern::kMixed) r = i % 2 == 0 ? g : g + 1 + i / 2;
            rel[static_cast<size_t>(g * group + i)] = r % num_relations;
          }
        }
        const uint64_t seed = static_cast<uint64_t>(d * 100 + group);
        Tensor x = RandomFilled(groups * d, seed);
        Tensor y = RandomFilled(rows * d, seed + 1);
        Tensor matrices = RandomFilled(num_relations * d * d, seed + 2);
        Tensor repeated({rows * d});
        for (int64_t c = 0; c < rows; ++c) {
          std::copy_n(x.data() + c / group * d, d, repeated.data() + c * d);
        }
        Tensor transformed({rows * d});
        RelationMatMul(rows, d, num_relations, repeated.data(), rel.data(),
                       matrices.data(), transformed.data());
        Tensor expected({rows});
        RowDot(rows, d, transformed.data(), y.data(), expected.data());

        Tensor scratch({group * d});
        Tensor out({rows});
        GroupedRelationRowDot(groups, group, d, num_relations, x.data(),
                              rel.data(), matrices.data(), y.data(),
                              scratch.data(), out.data());
        for (int64_t c = 0; c < rows; ++c) {
          ASSERT_TRUE(SameFloat(out[c], expected[c]))
              << "d=" << d << " group=" << group
              << " pattern=" << static_cast<int>(pattern) << " row=" << c;
        }
      }
    }
  }
}

TEST(KernelTest, SegmentWeightedSumAccumulatesFromZeroInOrder) {
  const int64_t segments = 3;
  const int64_t segment = 4;
  for (const int64_t d : {1, 16, 17}) {
    Tensor values = RandomFilled(segments * segment * d, 60);
    Tensor weights = RandomFilled(segments * segment, 61);
    Tensor out = RandomFilled(segments * d, 62);  // overwritten, not added
    SegmentWeightedSum(segments, segment, d, values.data(), weights.data(),
                       out.data());
    for (int64_t s = 0; s < segments; ++s) {
      for (int64_t j = 0; j < d; ++j) {
        float expected = 0.0f;
        for (int64_t i = 0; i < segment; ++i) {
          const int64_t row = s * segment + i;
          expected += weights[row] * values[row * d + j];
        }
        ASSERT_EQ(out[s * d + j], expected) << "d=" << d << " s=" << s;
      }
    }
  }
}

/// Writes NaN, +inf, -inf and -0 into `t` at spread positions, plus a row
/// of `width` zeros at `zero_row` whose products with negative entries are
/// -0, so a sum seeded from its first term instead of +0 shows.
void PlantSpecials(Tensor* t, int64_t size, int64_t width, int64_t zero_row,
                   uint64_t seed) {
  if (size == 0) return;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), inf,
                            -inf, -0.0f};
  Rng rng(seed);
  for (int64_t k = 0; k < 4; ++k) {
    (*t)[static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(size)))] =
        specials[k];
  }
  for (int64_t j = 0; j < width && zero_row * width + j < size; ++j) {
    (*t)[zero_row * width + j] = 0.0f;
  }
}

TEST(KernelTest, GroupedRelationRowDotD16BitIdenticalWithTailsAndSpecials) {
  // d = 16 pairs the distinct relations' products and dots four children
  // at once; odd distinct counts and group % 4 children take the tails.
  const int64_t d = 16;
  const int64_t groups = 6;
  const int64_t num_relations = 9;
  enum class Pattern { kAllEqual, kAllDistinct, kRandom };
  for (const int64_t group : {1, 2, 3, 4, 5, 7, 8}) {
    for (const Pattern pattern :
         {Pattern::kAllEqual, Pattern::kAllDistinct, Pattern::kRandom}) {
      for (const bool specials : {false, true}) {
        const int64_t rows = groups * group;
        const uint64_t seed = static_cast<uint64_t>(
            group * 100 + static_cast<int64_t>(pattern) * 10 + specials);
        std::vector<int64_t> rel(static_cast<size_t>(rows));
        Rng rng(seed);
        for (int64_t c = 0; c < rows; ++c) {
          int64_t q = 3;
          if (pattern == Pattern::kAllDistinct) q = c % group;
          if (pattern == Pattern::kRandom) {
            q = static_cast<int64_t>(
                rng.UniformInt(static_cast<uint64_t>(num_relations)));
          }
          rel[static_cast<size_t>(c)] = q;
        }
        Tensor x = RandomFilled(groups * d, seed + 1);
        Tensor y = RandomFilled(rows * d, seed + 2);
        Tensor matrices = RandomFilled(num_relations * d * d, seed + 3);
        if (specials) {
          PlantSpecials(&x, groups * d, d, 5, seed + 4);
          PlantSpecials(&y, rows * d, d, rows - 1, seed + 5);
          PlantSpecials(&matrices, num_relations * d * d, d, 2, seed + 6);
          // Group 1: x is all +0 and its children all negative, so every
          // dot term is -0 and only a +0 seed yields +0.
          for (int64_t j = 0; j < d; ++j) x[d + j] = 0.0f;
          for (int64_t i = group * d; i < 2 * group * d; ++i) {
            y[i] = -std::abs(y[i]) - 0.5f;
          }
        }
        Tensor repeated({rows * d});
        for (int64_t c = 0; c < rows; ++c) {
          std::copy_n(x.data() + c / group * d, d, repeated.data() + c * d);
        }
        Tensor transformed({rows * d});
        RelationMatMul(rows, d, num_relations, repeated.data(), rel.data(),
                       matrices.data(), transformed.data());
        Tensor expected({rows});
        RowDot(rows, d, transformed.data(), y.data(), expected.data());

        Tensor scratch({group * d});
        Tensor out({rows});
        GroupedRelationRowDot(groups, group, d, num_relations, x.data(),
                              rel.data(), matrices.data(), y.data(),
                              scratch.data(), out.data());
        for (int64_t c = 0; c < rows; ++c) {
          ASSERT_TRUE(SameOrBothNan(out[c], expected[c]))
              << "group=" << group << " pattern=" << static_cast<int>(pattern)
              << " specials=" << specials << " row=" << c << ": " << out[c]
              << " vs " << expected[c];
        }
      }
    }
  }
}

TEST(KernelTest, SegmentRowDotMatchesDotPerChild) {
  for (const int64_t d : {1, 3, 8, 16, 17, 33}) {
    for (const int64_t segment : {1, 3, 4, 8, 12}) {
      for (const bool specials : {false, true}) {
        const int64_t n = 5;
        const int64_t children = n * segment;
        const uint64_t seed =
            static_cast<uint64_t>(d * 1000 + segment * 10 + specials);
        Tensor centers = RandomFilled(n * d, seed);
        Tensor neighbors = RandomFilled(children * d, seed + 1);
        if (specials) {
          PlantSpecials(&centers, n * d, d, 4, seed + 2);
          PlantSpecials(&neighbors, children * d, d, children - 1, seed + 3);
          // Center 1 is all +0 against negative neighbors: -0 terms only.
          for (int64_t j = 0; j < d; ++j) centers[d + j] = 0.0f;
          for (int64_t i = segment * d; i < 2 * segment * d; ++i) {
            neighbors[i] = -std::abs(neighbors[i]) - 0.5f;
          }
        }
        Tensor out({children});
        SegmentRowDot(n, segment, d, centers.data(), neighbors.data(),
                      out.data());
        for (int64_t c = 0; c < children; ++c) {
          const float expected = Dot(d, centers.data() + c / segment * d,
                                     neighbors.data() + c * d);
          ASSERT_TRUE(SameOrBothNan(out[c], expected))
              << "d=" << d << " segment=" << segment
              << " specials=" << specials << " child=" << c << ": " << out[c]
              << " vs " << expected;
        }
      }
    }
  }
}

TEST(KernelTest, SegmentWeightedSumD16MatchesPerRowAxpy) {
  // The reference is the per-row Axpy loop SegmentWeightedSum ran at every
  // width before d = 16 kept the output row in registers.
  const int64_t d = 16;
  const int64_t segments = 5;
  for (const int64_t segment : {0, 1, 3, 4, 8, 16}) {
    for (const bool specials : {false, true}) {
      const int64_t rows = segments * segment;
      const uint64_t seed = static_cast<uint64_t>(segment * 10 + specials);
      Tensor values = RandomFilled(rows * d, seed);
      Tensor weights = RandomFilled(rows, seed + 1);
      if (specials && segment > 0) {
        PlantSpecials(&values, rows * d, d, rows - 1, seed + 2);
        PlantSpecials(&weights, rows, 1, rows - 1, seed + 3);
        // Segment 1: zero weights on negative rows, -0 terms only.
        for (int64_t i = segment; i < 2 * segment; ++i) weights[i] = 0.0f;
        for (int64_t i = segment * d; i < 2 * segment * d; ++i) {
          values[i] = -std::abs(values[i]) - 0.5f;
        }
      }
      Tensor expected({segments * d});
      for (int64_t s = 0; s < segments; ++s) {
        for (int64_t i = 0; i < segment; ++i) {
          const int64_t row = s * segment + i;
          Axpy(d, weights[row], values.data() + row * d,
               expected.data() + s * d);
        }
      }
      Tensor out = RandomFilled(segments * d, seed + 4);  // overwritten
      SegmentWeightedSum(segments, segment, d, values.data(), weights.data(),
                         out.data());
      for (int64_t i = 0; i < segments * d; ++i) {
        ASSERT_TRUE(SameOrBothNan(out[i], expected[i]))
            << "segment=" << segment << " specials=" << specials
            << " i=" << i << ": " << out[i] << " vs " << expected[i];
      }
    }
  }
}

TEST(KernelTest, ElementwiseBitIdenticalAtBoundarySizes) {
  for (const int64_t n : kBoundarySizes) {
    Tensor a = RandomFilled(n, 400 + static_cast<uint64_t>(n));
    Tensor b = RandomFilled(n, 500 + static_cast<uint64_t>(n));
    Tensor out({std::max<int64_t>(n, 1)});
    Add(n, a.data(), b.data(), out.data());
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] + b[i]);
    Sub(n, a.data(), b.data(), out.data());
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] - b[i]);
    Mul(n, a.data(), b.data(), out.data());
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] * b[i]);
    Tensor y = b.Clone();
    Axpy(n, 0.75f, a.data(), y.data());
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(y[i], b[i] + 0.75f * a[i]);
    Tensor z = a.Clone();
    ScaleInPlace(n, -1.5f, z.data());
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(z[i], a[i] * -1.5f);
  }
}

TEST(KernelTest, RowKernelsBitIdenticalAtBoundarySizes) {
  const int64_t rows = 3;
  for (const int64_t cols : kBoundarySizes) {
    Tensor a = RandomFilled(rows * cols, 600 + static_cast<uint64_t>(cols));
    Tensor b = RandomFilled(rows * cols, 700 + static_cast<uint64_t>(cols));
    Tensor s = RandomFilled(rows, 800 + static_cast<uint64_t>(cols));
    Tensor out({std::max<int64_t>(rows * cols, 1)});
    Tensor rdots({rows});
    RowDot(rows, cols, a.data(), b.data(), rdots.data());
    for (int64_t r = 0; r < rows; ++r) {
      float expected = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        expected += a[r * cols + c] * b[r * cols + c];
      }
      ASSERT_EQ(rdots[r], expected) << "cols=" << cols << " r=" << r;
    }
    RowScale(rows, cols, a.data(), s.data(), out.data());
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(out[r * cols + c], s[r] * a[r * cols + c]);
      }
    }
    Tensor x = a.Clone();
    Tensor v = RandomFilled(cols, 900 + static_cast<uint64_t>(cols));
    AddRowVector(rows, cols, v.data(), x.data());
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        ASSERT_EQ(x[r * cols + c], a[r * cols + c] + v[c]);
      }
    }
  }
}

TEST(KernelTest, SumAndDotStableAtBoundarySizes) {
  for (const int64_t n : kBoundarySizes) {
    Tensor a = RandomFilled(n, 1000 + static_cast<uint64_t>(n));
    Tensor b = RandomFilled(n, 1100 + static_cast<uint64_t>(n));
    // Dot's association is pinned serial left-to-right.
    float dot = 0.0f;
    for (int64_t i = 0; i < n; ++i) dot += a[i] * b[i];
    ASSERT_EQ(Dot(n, a.data(), b.data()), dot) << "n=" << n;
    // Sum's association is the pairwise cascade with base case 8.
    struct Cascade {
      static float Run(int64_t len, const float* x) {
        if (len <= 8) {
          float total = 0.0f;
          for (int64_t i = 0; i < len; ++i) total += x[i];
          return total;
        }
        const int64_t half = len / 2;
        return Run(half, x) + Run(len - half, x + half);
      }
    };
    ASSERT_EQ(Sum(n, a.data()), Cascade::Run(n, a.data())) << "n=" << n;
  }
}

TEST(KernelTest, SegmentSoftmaxZeroWidthAndZeroCountAreNoOps) {
  // The old kernel read in[0] before checking the width: UB on width 0.
  SegmentSoftmax(0, 0, nullptr, nullptr);
  SegmentSoftmax(0, 8, nullptr, nullptr);
  Tensor x({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor out({4}, {9.0f, 9.0f, 9.0f, 9.0f});
  SegmentSoftmax(4, 0, x.data(), out.data());
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], 9.0f) << "zero-width call must not touch the output";
  }
}

TEST(KernelTest, SegmentSoftmaxGenericWidthsBitIdenticalToReference) {
  // Widths without a fused vector path (everything but 4/8/16) must keep
  // the exact historical numerics: libm exp, serial double normalizer.
  for (const int64_t width : {1, 2, 3, 5, 7, 9, 63, 64, 65}) {
    const int64_t segments = 5;
    Tensor x = RandomFilled(segments * width,
                            1200 + static_cast<uint64_t>(width), 8.0f);
    Tensor got({segments * width});
    Tensor expected({segments * width});
    SegmentSoftmax(segments, width, x.data(), got.data());
    ReferenceSegmentSoftmax(segments, width, x.data(), expected.data());
    for (int64_t i = 0; i < segments * width; ++i) {
      ASSERT_EQ(got[i], expected[i]) << "width=" << width << " i=" << i;
    }
  }
}

TEST(KernelTest, SegmentSoftmaxFastWidthsWithinUlpBudget) {
  // Widths 4/8/16 run the fused fast-exp path. The documented contract
  // (docs/kernels.md): within 256 ulps of the libm reference per weight —
  // fast exp's ~5.4e-6 relative error (~90 ulps) plus normalizer rounding —
  // and each segment still sums to 1.
  for (const int64_t width : {4, 8, 16}) {
    const int64_t segments = 64;  // exercises the interleave and its tail
    Tensor x = RandomFilled(segments * width,
                            1300 + static_cast<uint64_t>(width), 8.0f);
    Tensor got({segments * width});
    Tensor expected({segments * width});
    SegmentSoftmax(segments, width, x.data(), got.data());
    ReferenceSegmentSoftmax(segments, width, x.data(), expected.data());
    for (int64_t i = 0; i < segments * width; ++i) {
      ExpectNearUlps(got[i], expected[i], 256,
                     "width=" + std::to_string(width) +
                         " i=" + std::to_string(i));
    }
    for (int64_t s = 0; s < segments; ++s) {
      float total = 0.0f;
      for (int64_t i = 0; i < width; ++i) total += got[s * width + i];
      EXPECT_NEAR(total, 1.0f, 1e-5f) << "width=" << width << " s=" << s;
    }
  }
}

TEST(KernelTest, SegmentSoftmaxFastPathHandlesSpecialValues) {
  // NaN in a segment poisons that segment (as the old kernel's normalizer
  // did) and leaves its neighbors alone; a large negative outlier gets a
  // tiny-but-harmless weight (fast exp clamps instead of flushing to 0).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({16}, {nan, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f,
                  0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f});
  Tensor out({16});
  SegmentSoftmax(2, 8, x.data(), out.data());
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(std::isnan(out[i])) << "i=" << i;
  }
  float total = 0.0f;
  for (int64_t i = 8; i < 16; ++i) {
    EXPECT_FALSE(std::isnan(out[i])) << "i=" << i;
    total += out[i];
  }
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

TEST(KernelTest, FastExpAccuracy) {
  // The vector fast exp and its scalar twin against libm over the clamp
  // range, plus the special values the kernels rely on.
  int64_t worst_ulps = 0;
  for (float x = -87.0f; x <= 20.0f; x += 0.0173f) {
    const float got = FastExp(x);
    const float want = std::exp(x);
    const double rel =
        std::abs(static_cast<double>(got) - want) / std::max(want, 1e-38f);
    EXPECT_LT(rel, 1e-5) << "x=" << x;
    V4f v = {x, x, x, x};
    const V4f gv = FastExpV4f(v);
    EXPECT_EQ(gv[0], got) << "vector/scalar twin mismatch at x=" << x;
    worst_ulps = std::max(worst_ulps, UlpDiff(got, want));
  }
  EXPECT_LE(worst_ulps, 128);
  EXPECT_TRUE(std::isnan(FastExp(std::numeric_limits<float>::quiet_NaN())));
  // -inf clamps to exp(-87.34) ~= 1.2e-38: tiny, positive, finite.
  const float tiny = FastExp(-std::numeric_limits<float>::infinity());
  EXPECT_GT(tiny, 0.0f);
  EXPECT_LT(tiny, 1e-37f);
  // +inf clamps to exp(88.38): huge but still finite.
  const float huge = FastExp(std::numeric_limits<float>::infinity());
  EXPECT_FALSE(std::isinf(huge));
  EXPECT_GT(huge, 1e38f);
}

// --- initializers ---

TEST(InitTest, XavierUniformBounds) {
  Rng rng(31);
  Tensor w({64, 32});
  XavierUniform(&w, &rng);
  const float bound = std::sqrt(6.0f / (64 + 32));
  float max_abs = 0.0f;
  for (int64_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(w[i]));
  }
  EXPECT_LE(max_abs, bound);
  EXPECT_GT(max_abs, bound * 0.5f);  // actually spread out
}

TEST(InitTest, XavierOn3DUsesLastTwoDims) {
  Rng rng(33);
  Tensor w({5, 16, 16});
  XavierUniform(&w, &rng);
  const float bound = std::sqrt(6.0f / 32);
  for (int64_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w[i]), bound);
  }
}

TEST(InitTest, NormalInitMoments) {
  Rng rng(35);
  Tensor w({10000});
  NormalInit(&w, &rng, 1.0f, 2.0f);
  double sum = 0.0;
  for (int64_t i = 0; i < w.size(); ++i) sum += w[i];
  EXPECT_NEAR(sum / static_cast<double>(w.size()), 1.0, 0.1);
}

}  // namespace
}  // namespace tensor
}  // namespace cgkgr
