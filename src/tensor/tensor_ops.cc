#include "tensor/tensor_ops.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "common/macros.h"
#include "tensor/vec.h"

namespace cgkgr {
namespace tensor {

namespace {

// ---------------------------------------------------------------------------
// Gemm inner kernels.
//
// Both variants preserve the per-element association of the original scalar
// kernel exactly: each c[i,j] starts from its beta-scaled value and
// accumulates a_ik * b_kj with kk ascending. That is what keeps every model
// golden stable across this rewrite (docs/kernels.md, "association policy").
// The old `a_ik == 0.0f` early-continue is gone: it silently turned
// 0*inf / 0*nan into a skip instead of NaN and its branch defeated
// vectorization. Adding an exact +0.0f term is bit-preserving for every
// finite accumulator value, so dropping the skip only changes results when
// the IEEE semantics say it must.
// ---------------------------------------------------------------------------

// B row-major (trans_b == false): sweep full contiguous rows of B and C.
// The j loop is a clean fused multiply-add stream the compiler vectorizes.
template <bool kTransA>
void GemmRowMajorB(int64_t m, int64_t n, int64_t k, float alpha,
                   const float* __restrict a, const float* __restrict b,
                   float* __restrict c) {
  for (int64_t i = 0; i < m; ++i) {
    float* __restrict c_row = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a_ik = alpha * (kTransA ? a[kk * m + i] : a[i * k + kk]);
      const float* __restrict b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
    }
  }
}

// B row-major with n == 16, the embedding width of every preset: the C row
// lives in four vector registers for the whole kk sweep instead of being
// reloaded and stored once per kk. Lanes are seeded from c_row and add
// a_ik * b_kj kk-ascending, so every element keeps GemmRowMajorB's bits.
template <bool kTransA>
void GemmRowMajorB16(int64_t m, int64_t k, float alpha,
                     const float* __restrict a, const float* __restrict b,
                     float* __restrict c) {
  for (int64_t i = 0; i < m; ++i) {
    float* __restrict c_row = c + i * 16;
    V4f acc0 = LoadV4f(c_row);
    V4f acc1 = LoadV4f(c_row + 4);
    V4f acc2 = LoadV4f(c_row + 8);
    V4f acc3 = LoadV4f(c_row + 12);
    for (int64_t kk = 0; kk < k; ++kk) {
      const V4f a_ik =
          BroadcastV4f(alpha * (kTransA ? a[kk * m + i] : a[i * k + kk]));
      const float* __restrict b_row = b + kk * 16;
      acc0 += a_ik * LoadV4f(b_row);
      acc1 += a_ik * LoadV4f(b_row + 4);
      acc2 += a_ik * LoadV4f(b_row + 8);
      acc3 += a_ik * LoadV4f(b_row + 12);
    }
    StoreV4f(c_row, acc0);
    StoreV4f(c_row + 4, acc1);
    StoreV4f(c_row + 8, acc2);
    StoreV4f(c_row + 12, acc3);
  }
}

// dst (cols, rows) = src (rows, cols) transposed. Gemm's transposed-B path
// and the relation input gradient copy op(B) row-major with it, so both run
// the row kernels above.
void Transpose(int64_t rows, int64_t cols, const float* __restrict src,
               float* __restrict dst) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  // Scale or clear the destination first; the inner kernels accumulate.
  if (beta == 0.0f) {
    for (int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
  } else if (beta != 1.0f) {
    ScaleInPlace(m * n, beta, c);
  }
  // A transposed B is copied row-major once per call: O(n k) next to the
  // O(m n k) product, and every element keeps its seed and kk order.
  std::vector<float> b_rows;
  if (trans_b) {
    b_rows.resize(static_cast<size_t>(k * n));
    Transpose(n, k, b, b_rows.data());
    b = b_rows.data();
  }
  if (n == 16) {
    if (!trans_a) {
      GemmRowMajorB16<false>(m, k, alpha, a, b, c);
    } else {
      GemmRowMajorB16<true>(m, k, alpha, a, b, c);
    }
  } else if (!trans_a) {
    GemmRowMajorB<false>(m, n, k, alpha, a, b, c);
  } else {
    GemmRowMajorB<true>(m, n, k, alpha, a, b, c);
  }
}

namespace {

// out = x * M for one length-d row and one (d, d) matrix: a 1 x d x d Gemm
// with a zero seed, run on Gemm's row kernels without its dispatch. The one
// row kernel behind both forward relation kernels; d == 16 keeps the row in
// registers.
inline void RelationRow(int64_t d, const float* __restrict x,
                        const float* __restrict m, float* __restrict out) {
  for (int64_t j = 0; j < d; ++j) out[j] = 0.0f;
  if (d == 16) {
    GemmRowMajorB16<false>(1, 16, 1.0f, x, m, out);
  } else {
    GemmRowMajorB<false>(1, d, d, 1.0f, x, m, out);
  }
}

inline void CheckRelation(int64_t rel, int64_t num_relations) {
  CGKGR_CHECK_MSG(rel >= 0 && rel < num_relations,
                  "relation id %lld out of range [0, %lld)",
                  static_cast<long long>(rel),
                  static_cast<long long>(num_relations));
}

// out0 = x * m0 and out1 = x * m1 for one row of 16: RelationRow's bits for
// each (a zero seed, then x_kk * m_kk,j kk-ascending), with the broadcast of
// x[kk] shared by the two products and both rows in eight registers.
inline void RelationRowPair16(const float* __restrict x,
                              const float* __restrict m0,
                              const float* __restrict m1,
                              float* __restrict out0,
                              float* __restrict out1) {
  V4f a0 = {}, a1 = {}, a2 = {}, a3 = {};
  V4f b0 = {}, b1 = {}, b2 = {}, b3 = {};
  for (int64_t kk = 0; kk < 16; ++kk) {
    const V4f x_kk = BroadcastV4f(x[kk]);
    const float* __restrict m0_row = m0 + kk * 16;
    const float* __restrict m1_row = m1 + kk * 16;
    a0 += x_kk * LoadV4f(m0_row);
    a1 += x_kk * LoadV4f(m0_row + 4);
    a2 += x_kk * LoadV4f(m0_row + 8);
    a3 += x_kk * LoadV4f(m0_row + 12);
    b0 += x_kk * LoadV4f(m1_row);
    b1 += x_kk * LoadV4f(m1_row + 4);
    b2 += x_kk * LoadV4f(m1_row + 8);
    b3 += x_kk * LoadV4f(m1_row + 12);
  }
  StoreV4f(out0, a0);
  StoreV4f(out0 + 4, a1);
  StoreV4f(out0 + 8, a2);
  StoreV4f(out0 + 12, a3);
  StoreV4f(out1, b0);
  StoreV4f(out1 + 4, b1);
  StoreV4f(out1 + 8, b2);
  StoreV4f(out1 + 12, b3);
}

// Transposes the 4 x 4 block held in r0..r3 in place: afterwards r_j holds
// column j, so lane l of r_j is element j of input row l.
inline void Transpose4x4(V4f& r0, V4f& r1, V4f& r2, V4f& r3) {
  const V4f t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
  const V4f t1 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
  const V4f t2 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
  const V4f t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
  r0 = __builtin_shufflevector(t0, t1, 0, 1, 4, 5);
  r1 = __builtin_shufflevector(t0, t1, 2, 3, 6, 7);
  r2 = __builtin_shufflevector(t2, t3, 0, 1, 4, 5);
  r3 = __builtin_shufflevector(t2, t3, 2, 3, 6, 7);
}

// Four length-16 dot products at once: lane l is Dot(16, a[l], b[l]), a
// zero seed and then a[l][kk] * b[l][kk] added kk-ascending, which is Dot's
// serial sum. 4 x 4 transposes of the rows feed the lanes.
inline V4f Dot4x16(const float* const (&a)[4], const float* const (&b)[4]) {
  V4f acc = {};
  for (int64_t kk = 0; kk < 16; kk += 4) {
    V4f a0 = LoadV4f(a[0] + kk);
    V4f a1 = LoadV4f(a[1] + kk);
    V4f a2 = LoadV4f(a[2] + kk);
    V4f a3 = LoadV4f(a[3] + kk);
    V4f b0 = LoadV4f(b[0] + kk);
    V4f b1 = LoadV4f(b[1] + kk);
    V4f b2 = LoadV4f(b[2] + kk);
    V4f b3 = LoadV4f(b[3] + kk);
    Transpose4x4(a0, a1, a2, a3);
    Transpose4x4(b0, b1, b2, b3);
    acc += a0 * b0;
    acc += a1 * b1;
    acc += a2 * b2;
    acc += a3 * b3;
  }
  return acc;
}

// Index of the first child of the group whose relation is child i's.
inline int64_t FirstSibling(const int64_t* __restrict rel_g, int64_t i) {
  for (int64_t j = 0; j < i; ++j) {
    if (rel_g[j] == rel_g[i]) return j;
  }
  return i;
}

// GroupedRelationRowDot at d == 16: the distinct relations' products two
// per kk sweep, then the children's logits four at a time. An odd last
// product and the group % 4 last children take RelationRow and Dot.
void GroupedRelationRowDot16(int64_t groups, int64_t group,
                             int64_t num_relations, const float* __restrict x,
                             const int64_t* __restrict rel,
                             const float* __restrict matrices,
                             const float* __restrict y,
                             float* __restrict scratch,
                             float* __restrict out) {
  for (int64_t g = 0; g < groups; ++g) {
    const float* __restrict x_g = x + g * 16;
    const int64_t* __restrict rel_g = rel + g * group;
    // Slot i of scratch holds the product of child i when i is the first
    // child with its relation.
    int64_t pending = -1;
    for (int64_t i = 0; i < group; ++i) {
      CheckRelation(rel_g[i], num_relations);
      if (FirstSibling(rel_g, i) != i) continue;
      if (pending < 0) {
        pending = i;
        continue;
      }
      RelationRowPair16(x_g, matrices + rel_g[pending] * 256,
                        matrices + rel_g[i] * 256, scratch + pending * 16,
                        scratch + i * 16);
      pending = -1;
    }
    if (pending >= 0) {
      RelationRow(16, x_g, matrices + rel_g[pending] * 256,
                  scratch + pending * 16);
    }
    const float* __restrict y_g = y + g * group * 16;
    float* __restrict out_g = out + g * group;
    int64_t i = 0;
    for (; i + 4 <= group; i += 4) {
      const float* const products[4] = {
          scratch + FirstSibling(rel_g, i) * 16,
          scratch + FirstSibling(rel_g, i + 1) * 16,
          scratch + FirstSibling(rel_g, i + 2) * 16,
          scratch + FirstSibling(rel_g, i + 3) * 16};
      const float* const children[4] = {y_g + i * 16, y_g + (i + 1) * 16,
                                        y_g + (i + 2) * 16,
                                        y_g + (i + 3) * 16};
      StoreV4f(out_g + i, Dot4x16(products, children));
    }
    for (; i < group; ++i) {
      out_g[i] = Dot(16, scratch + FirstSibling(rel_g, i) * 16, y_g + i * 16);
    }
  }
}

}  // namespace

void RelationMatMul(int64_t n, int64_t d, int64_t num_relations,
                    const float* __restrict x, const int64_t* __restrict rel,
                    const float* __restrict matrices, float* __restrict out) {
  for (int64_t r = 0; r < n; ++r) {
    CheckRelation(rel[r], num_relations);
    RelationRow(d, x + r * d, matrices + rel[r] * d * d, out + r * d);
  }
}

void GroupedRelationRowDot(int64_t groups, int64_t group, int64_t d,
                           int64_t num_relations, const float* __restrict x,
                           const int64_t* __restrict rel,
                           const float* __restrict matrices,
                           const float* __restrict y,
                           float* __restrict scratch, float* __restrict out) {
  if (d == 16) {
    GroupedRelationRowDot16(groups, group, num_relations, x, rel, matrices, y,
                            scratch, out);
    return;
  }
  for (int64_t g = 0; g < groups; ++g) {
    const float* __restrict x_g = x + g * d;
    const int64_t* __restrict rel_g = rel + g * group;
    for (int64_t i = 0; i < group; ++i) {
      CheckRelation(rel_g[i], num_relations);
      // Row i reuses the product of the first sibling with its relation.
      const int64_t first = FirstSibling(rel_g, i);
      float* __restrict product = scratch + first * d;
      if (first == i) {
        RelationRow(d, x_g, matrices + rel_g[i] * d * d, product);
      }
      const int64_t c = g * group + i;
      out[c] = Dot(d, product, y + c * d);
    }
  }
}

void SegmentRowDot(int64_t n, int64_t segment, int64_t d,
                   const float* __restrict centers,
                   const float* __restrict neighbors, float* __restrict out) {
  const int64_t children = n * segment;
  int64_t c = 0;
  if (d == 16) {
    for (; c + 4 <= children; c += 4) {
      const float* const center_rows[4] = {
          centers + c / segment * 16, centers + (c + 1) / segment * 16,
          centers + (c + 2) / segment * 16, centers + (c + 3) / segment * 16};
      const float* const neighbor_rows[4] = {
          neighbors + c * 16, neighbors + (c + 1) * 16,
          neighbors + (c + 2) * 16, neighbors + (c + 3) * 16};
      StoreV4f(out + c, Dot4x16(center_rows, neighbor_rows));
    }
  }
  for (; c < children; ++c) {
    out[c] = Dot(d, centers + c / segment * d, neighbors + c * d);
  }
}

void RelationMatMulGradX(int64_t n, int64_t d, int64_t num_relations,
                         const float* __restrict g,
                         const int64_t* __restrict rel,
                         const float* __restrict matrices,
                         float* __restrict xg) {
  // Row kk of M[q]^T is column kk of M[q]: one transpose per relation per
  // call, then each row is a 1 x d x d product on Gemm's row kernels.
  std::vector<float> transposed(static_cast<size_t>(num_relations * d * d));
  for (int64_t q = 0; q < num_relations; ++q) {
    Transpose(d, d, matrices + q * d * d, transposed.data() + q * d * d);
  }
  for (int64_t r = 0; r < n; ++r) {
    CheckRelation(rel[r], num_relations);
    const float* __restrict mt = transposed.data() + rel[r] * d * d;
    if (d == 16) {
      GemmRowMajorB16<false>(1, 16, 1.0f, g + r * 16, mt, xg + r * 16);
    } else {
      GemmRowMajorB<false>(1, d, d, 1.0f, g + r * d, mt, xg + r * d);
    }
  }
}

void RelationMatMulGradM(int64_t n, int64_t d, int64_t num_relations,
                         const float* __restrict x, const float* __restrict g,
                         const int64_t* __restrict rel,
                         float* __restrict mg) {
  // Stable counting sort: the rows of relation q are
  // order[begin[q], begin[q + 1]) in ascending r.
  std::vector<int64_t> begin(static_cast<size_t>(num_relations + 1), 0);
  for (int64_t r = 0; r < n; ++r) {
    CheckRelation(rel[r], num_relations);
    ++begin[static_cast<size_t>(rel[r] + 1)];
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<int64_t> next(begin.begin(), begin.end() - 1);
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    order[static_cast<size_t>(next[static_cast<size_t>(rel[r])]++)] = r;
  }
  for (int64_t q = 0; q < num_relations; ++q) {
    const int64_t first = begin[static_cast<size_t>(q)];
    const int64_t count = begin[static_cast<size_t>(q + 1)] - first;
    if (count == 0) continue;
    const int64_t* __restrict rows = order.data() + first;
    float* __restrict m = mg + q * d * d;
    if (d == 16) {
      // Matrix row i stays in four registers over the relation's rows.
      for (int64_t i = 0; i < 16; ++i) {
        float* __restrict m_row = m + i * 16;
        V4f acc0 = LoadV4f(m_row);
        V4f acc1 = LoadV4f(m_row + 4);
        V4f acc2 = LoadV4f(m_row + 8);
        V4f acc3 = LoadV4f(m_row + 12);
        for (int64_t t = 0; t < count; ++t) {
          const int64_t r = rows[t];
          const V4f x_ri = BroadcastV4f(x[r * 16 + i]);
          const float* __restrict g_r = g + r * 16;
          acc0 += x_ri * LoadV4f(g_r);
          acc1 += x_ri * LoadV4f(g_r + 4);
          acc2 += x_ri * LoadV4f(g_r + 8);
          acc3 += x_ri * LoadV4f(g_r + 12);
        }
        StoreV4f(m_row, acc0);
        StoreV4f(m_row + 4, acc1);
        StoreV4f(m_row + 8, acc2);
        StoreV4f(m_row + 12, acc3);
      }
    } else {
      for (int64_t i = 0; i < d; ++i) {
        for (int64_t t = 0; t < count; ++t) {
          const int64_t r = rows[t];
          Axpy(d, x[r * d + i], g + r * d, m + i * d);
        }
      }
    }
  }
}

void Axpy(int64_t n, float alpha, const float* __restrict x,
          float* __restrict y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleInPlace(int64_t n, float alpha, float* __restrict x) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void Add(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void Sub(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void Mul(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void AddRowVector(int64_t rows, int64_t cols, const float* __restrict v,
                  float* __restrict x) {
  for (int64_t r = 0; r < rows; ++r) {
    float* __restrict row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += v[c];
  }
}

void RowDot(int64_t rows, int64_t cols, const float* __restrict a,
            const float* __restrict b, float* __restrict out) {
  // Each row goes through Dot so the serial left-to-right association stays
  // pinned (see Dot below); only the row loop is restructured.
  for (int64_t r = 0; r < rows; ++r) {
    out[r] = Dot(cols, a + r * cols, b + r * cols);
  }
}

void RowScale(int64_t rows, int64_t cols, const float* __restrict x,
              const float* __restrict s, float* __restrict out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float factor = s[r];
    const float* __restrict in_row = x + r * cols;
    float* __restrict out_row = out + r * cols;
    for (int64_t c = 0; c < cols; ++c) out_row[c] = factor * in_row[c];
  }
}

void SegmentWeightedSum(int64_t segments, int64_t segment, int64_t d,
                        const float* __restrict values,
                        const float* __restrict weights,
                        float* __restrict out) {
  if (d == 16) {
    // The output row stays in four registers over the segment: a zero
    // seed, then w_i * v_i added in i order, Axpy's bits per element.
    for (int64_t s = 0; s < segments; ++s) {
      V4f acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
      for (int64_t i = 0; i < segment; ++i) {
        const int64_t row = s * segment + i;
        const V4f w = BroadcastV4f(weights[row]);
        const float* __restrict v = values + row * 16;
        acc0 += w * LoadV4f(v);
        acc1 += w * LoadV4f(v + 4);
        acc2 += w * LoadV4f(v + 8);
        acc3 += w * LoadV4f(v + 12);
      }
      float* __restrict o = out + s * 16;
      StoreV4f(o, acc0);
      StoreV4f(o + 4, acc1);
      StoreV4f(o + 8, acc2);
      StoreV4f(o + 12, acc3);
    }
    return;
  }
  for (int64_t s = 0; s < segments; ++s) {
    float* __restrict o = out + s * d;
    for (int64_t j = 0; j < d; ++j) o[j] = 0.0f;
    for (int64_t i = 0; i < segment; ++i) {
      const int64_t row = s * segment + i;
      Axpy(d, weights[row], values + row * d, o);
    }
  }
}

namespace {

// ---------------------------------------------------------------------------
// SegmentSoftmax.
//
// The widths the models actually use (4, 8, 16 — the sampled-neighbor
// fan-outs) get fused vector paths: one sweep does max, exp, and the
// normalizer with no trip back to memory. The normalizer stays a double
// accumulator as documented, summed pairwise over lanes (the fixed
// association is documented in docs/kernels.md; in double the association
// is 11 guard bits below float resolution for these widths anyway).
// Other widths keep the original scalar code — and the original libm exp —
// so odd-width callers see the exact historical numerics.
// ---------------------------------------------------------------------------

// One width-8 segment; shared by the interleaved loop's tail.
inline void SoftmaxOneW8(const float* __restrict in, float* __restrict o) {
  const V4f a = LoadV4f(in);
  const V4f b = LoadV4f(in + 4);
  const V4f m = HorizontalMaxV4f(MaxV4f(a, b));
  const V4f ea = FastExpV4f(a - m);
  const V4f eb = FastExpV4f(b - m);
  const V2d lo = WidenLoV2d(ea) + WidenLoV2d(eb);
  const V2d hi = WidenHiV2d(ea) + WidenHiV2d(eb);
  const V2d pair = lo + hi;
  const float inv = 1.0f / static_cast<float>(pair[0] + pair[1]);
  StoreV4f(o, ea * inv);
  StoreV4f(o + 4, eb * inv);
}

void SegmentSoftmaxW8(int64_t segments, const float* __restrict x,
                      float* __restrict out) {
  // Two segments per iteration: each segment's max -> exp -> sum -> divide
  // chain is serial, so interleaving two keeps the pipeline full.
  int64_t s = 0;
  for (; s + 2 <= segments; s += 2) {
    const float* __restrict in = x + s * 8;
    float* __restrict o = out + s * 8;
    const V4f a0 = LoadV4f(in);
    const V4f b0 = LoadV4f(in + 4);
    const V4f a1 = LoadV4f(in + 8);
    const V4f b1 = LoadV4f(in + 12);
    const V4f m0 = HorizontalMaxV4f(MaxV4f(a0, b0));
    const V4f m1 = HorizontalMaxV4f(MaxV4f(a1, b1));
    const V4f ea0 = FastExpV4f(a0 - m0);
    const V4f eb0 = FastExpV4f(b0 - m0);
    const V4f ea1 = FastExpV4f(a1 - m1);
    const V4f eb1 = FastExpV4f(b1 - m1);
    const V2d lo0 = WidenLoV2d(ea0) + WidenLoV2d(eb0);
    const V2d hi0 = WidenHiV2d(ea0) + WidenHiV2d(eb0);
    const V2d lo1 = WidenLoV2d(ea1) + WidenLoV2d(eb1);
    const V2d hi1 = WidenHiV2d(ea1) + WidenHiV2d(eb1);
    const V2d pair0 = lo0 + hi0;
    const V2d pair1 = lo1 + hi1;
    const float inv0 = 1.0f / static_cast<float>(pair0[0] + pair0[1]);
    const float inv1 = 1.0f / static_cast<float>(pair1[0] + pair1[1]);
    StoreV4f(o, ea0 * inv0);
    StoreV4f(o + 4, eb0 * inv0);
    StoreV4f(o + 8, ea1 * inv1);
    StoreV4f(o + 12, eb1 * inv1);
  }
  for (; s < segments; ++s) SoftmaxOneW8(x + s * 8, out + s * 8);
}

inline void SoftmaxOneW4(const float* __restrict in, float* __restrict o) {
  const V4f a = LoadV4f(in);
  const V4f m = HorizontalMaxV4f(a);
  const V4f e = FastExpV4f(a - m);
  const V2d pair = WidenLoV2d(e) + WidenHiV2d(e);
  const float inv = 1.0f / static_cast<float>(pair[0] + pair[1]);
  StoreV4f(o, e * inv);
}

void SegmentSoftmaxW4(int64_t segments, const float* __restrict x,
                      float* __restrict out) {
  int64_t s = 0;
  for (; s + 2 <= segments; s += 2) {
    const V4f a0 = LoadV4f(x + s * 4);
    const V4f a1 = LoadV4f(x + s * 4 + 4);
    const V4f m0 = HorizontalMaxV4f(a0);
    const V4f m1 = HorizontalMaxV4f(a1);
    const V4f e0 = FastExpV4f(a0 - m0);
    const V4f e1 = FastExpV4f(a1 - m1);
    const V2d pair0 = WidenLoV2d(e0) + WidenHiV2d(e0);
    const V2d pair1 = WidenLoV2d(e1) + WidenHiV2d(e1);
    const float inv0 = 1.0f / static_cast<float>(pair0[0] + pair0[1]);
    const float inv1 = 1.0f / static_cast<float>(pair1[0] + pair1[1]);
    StoreV4f(out + s * 4, e0 * inv0);
    StoreV4f(out + s * 4 + 4, e1 * inv1);
  }
  for (; s < segments; ++s) SoftmaxOneW4(x + s * 4, out + s * 4);
}

void SegmentSoftmaxW16(int64_t segments, const float* __restrict x,
                       float* __restrict out) {
  // Four vectors per segment already provide the instruction-level
  // parallelism the width-8 path gets from interleaving two segments.
  for (int64_t s = 0; s < segments; ++s) {
    const float* __restrict in = x + s * 16;
    float* __restrict o = out + s * 16;
    const V4f a = LoadV4f(in);
    const V4f b = LoadV4f(in + 4);
    const V4f c = LoadV4f(in + 8);
    const V4f d = LoadV4f(in + 12);
    const V4f m = HorizontalMaxV4f(MaxV4f(MaxV4f(a, b), MaxV4f(c, d)));
    const V4f ea = FastExpV4f(a - m);
    const V4f eb = FastExpV4f(b - m);
    const V4f ec = FastExpV4f(c - m);
    const V4f ed = FastExpV4f(d - m);
    const V2d lo = (WidenLoV2d(ea) + WidenLoV2d(eb)) +
                   (WidenLoV2d(ec) + WidenLoV2d(ed));
    const V2d hi = (WidenHiV2d(ea) + WidenHiV2d(eb)) +
                   (WidenHiV2d(ec) + WidenHiV2d(ed));
    const V2d pair = lo + hi;
    const float inv = 1.0f / static_cast<float>(pair[0] + pair[1]);
    StoreV4f(o, ea * inv);
    StoreV4f(o + 4, eb * inv);
    StoreV4f(o + 8, ec * inv);
    StoreV4f(o + 12, ed * inv);
  }
}

}  // namespace

void SegmentSoftmax(int64_t segments, int64_t segment, const float* x,
                    float* out) {
  // Zero-width (or zero-count) calls are well-defined no-ops. The old code
  // read in[0] before checking the width, which was UB for segment == 0.
  if (segments <= 0 || segment <= 0) return;
  switch (segment) {
    case 4:
      SegmentSoftmaxW4(segments, x, out);
      return;
    case 8:
      SegmentSoftmaxW8(segments, x, out);
      return;
    case 16:
      SegmentSoftmaxW16(segments, x, out);
      return;
    default:
      break;
  }
  for (int64_t s = 0; s < segments; ++s) {
    const float* in = x + s * segment;
    float* o = out + s * segment;
    float max_value = in[0];
    for (int64_t i = 1; i < segment; ++i) {
      if (in[i] > max_value) max_value = in[i];
    }
    // Double accumulator: the normalizer is a sum of up-to-segment many
    // exponentials and single-precision serial addition drifts for wide
    // segments (and loses bits even for narrow ones).
    double total = 0.0;
    for (int64_t i = 0; i < segment; ++i) {
      o[i] = std::exp(in[i] - max_value);
      total += o[i];
    }
    const float inv = 1.0f / static_cast<float>(total);
    for (int64_t i = 0; i < segment; ++i) o[i] *= inv;
  }
}

namespace {

// Recursive pairwise (cascade) summation: error grows O(log n) instead of
// the O(n) of a serial float accumulator. The base case is small enough
// that the recursion cost is negligible next to the loads.
float PairwiseSum(int64_t n, const float* x) {
  if (n <= 8) {
    // The sanctioned cascade's own base case: bounded at 8 terms, fixed
    // association, so serial float accumulation is exact enough here.
    float total = 0.0f;
    for (int64_t i = 0; i < n; ++i) total += x[i];  // NOLINT(det-naive-float-sum)
    return total;
  }
  const int64_t half = n / 2;
  return PairwiseSum(half, x) + PairwiseSum(n - half, x + half);
}

}  // namespace

float Sum(int64_t n, const float* x) { return PairwiseSum(n, x); }

float Dot(int64_t n, const float* a, const float* b) {
  // Serial with a fixed left-to-right association: every caller sees the
  // same order every run, which is what the bit-identity contract needs
  // (changing this to a cascade would shift every model golden).
  float total = 0.0f;
  for (int64_t i = 0; i < n; ++i) total += a[i] * b[i];  // NOLINT(det-naive-float-sum)
  return total;
}

float SquaredNorm(int64_t n, const float* x) { return Dot(n, x, x); }

float Sigmoid(float x) {
  // Split by sign for numerical stability.
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

}  // namespace tensor
}  // namespace cgkgr
