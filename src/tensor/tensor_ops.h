#ifndef CGKGR_TENSOR_TENSOR_OPS_H_
#define CGKGR_TENSOR_TENSOR_OPS_H_

#include <cmath>
#include <cstdint>

#include "tensor/tensor.h"

namespace cgkgr {
namespace tensor {

/// \file
/// Numeric kernels shared by the autograd ops. Kernels are single-threaded,
/// blocked, compiler-vectorized loops (see docs/kernels.md for the blocking
/// scheme and the association policy); shapes are validated by CGKGR_CHECK.
///
/// Pointer parameters are `__restrict`-qualified: an output buffer must not
/// alias any input buffer. Two read-only inputs may alias each other (e.g.
/// `Add(n, x, x, out)`), which the restrict contract permits because no
/// store goes through those pointers.

/// C = alpha * op(A) * op(B) + beta * C, where op transposes when the flag is
/// set. A is (m, k) pre-op, B is (k, n) pre-op, C is (m, n). Each C element
/// accumulates with a fixed kk-ascending association, so results are
/// bit-identical for any blocking and any thread count. IEEE special values
/// propagate: 0 * inf and 0 * nan contribute NaN rather than being skipped.
/// With trans_b set, B is copied row-major once per call. With n == 16, each
/// C row stays in registers for the whole kk sweep (same association).
void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Relation-specific row products: out row r = x row r * M[rel[r]], where
/// x is (n, d) and `matrices` stacks `num_relations` (d, d) matrices. Each
/// element has Gemm's association (zero seed, kk ascending), so a row has
/// the bits of a 1 x d x d Gemm; d == 16 keeps the row in registers. Every
/// relation id is CHECKed against [0, num_relations).
void RelationMatMul(int64_t n, int64_t d, int64_t num_relations,
                    const float* __restrict x, const int64_t* __restrict rel,
                    const float* __restrict matrices, float* __restrict out);

/// RelationMatMul followed by RowDot, for rows that share x in groups: row g
/// of x (groups, d) belongs to the `group` consecutive rows
/// [g * group, (g + 1) * group) of `rel` and of y (groups * group, d), and
/// out[c] = Dot(d, x_g * M[rel[c]], y_c). That is the bits of RelationMatMul
/// on x with each row repeated `group` times, then RowDot with y. Within a
/// group each distinct relation is multiplied once; finding an earlier
/// sibling with the same relation costs at most group - 1 id compares per
/// row. `scratch` holds group * d floats. d == 16 forms two products per
/// kk sweep and four children's dot products at once, one per vector lane;
/// each element keeps its association.
void GroupedRelationRowDot(int64_t groups, int64_t group, int64_t d,
                           int64_t num_relations, const float* __restrict x,
                           const int64_t* __restrict rel,
                           const float* __restrict matrices,
                           const float* __restrict y,
                           float* __restrict scratch, float* __restrict out);

/// RelationMatMul's input gradient: xg row r += g row r * M[rel[r]]^T, for
/// g and xg (n, d). Each element starts from its running xg value and adds
/// g_kk * M[rel]_j,kk kk-ascending: the bits of a 1 x d x d
/// Gemm(false, true, ..., beta = 1) per row. Each relation matrix is
/// transposed once per call; d == 16 keeps the row in registers. Every
/// relation id is CHECKed against [0, num_relations).
void RelationMatMulGradX(int64_t n, int64_t d, int64_t num_relations,
                         const float* __restrict g,
                         const int64_t* __restrict rel,
                         const float* __restrict matrices,
                         float* __restrict xg);

/// RelationMatMul's matrix gradient: dM[rel[r]] += outer(x row r, g row r)
/// for x and g (n, d) and the (num_relations, d, d) stack mg. Each element
/// starts from its running value and adds x_r[i] * g_r[j] over the rows of
/// its relation in ascending r: the bits of one Axpy per row and matrix row.
/// Rows are bucketed by relation with a stable counting sort; d == 16 keeps
/// each matrix row in registers over its relation's rows. Every relation id
/// is CHECKed against [0, num_relations).
void RelationMatMulGradM(int64_t n, int64_t d, int64_t num_relations,
                         const float* __restrict x, const float* __restrict g,
                         const int64_t* __restrict rel,
                         float* __restrict mg);

/// y += alpha * x over n elements.
void Axpy(int64_t n, float alpha, const float* __restrict x,
          float* __restrict y);

/// x *= alpha over n elements.
void ScaleInPlace(int64_t n, float alpha, float* __restrict x);

/// out[i] = a[i] + b[i].
void Add(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out);

/// out[i] = a[i] - b[i].
void Sub(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out);

/// out[i] = a[i] * b[i].
void Mul(int64_t n, const float* __restrict a, const float* __restrict b,
         float* __restrict out);

/// Adds row vector `v` (length cols) to every row of `x` (rows x cols).
void AddRowVector(int64_t rows, int64_t cols, const float* __restrict v,
                  float* __restrict x);

/// out[r] = dot(a_row_r, b_row_r) for row-major (rows x cols) inputs.
/// Association per row matches Dot (serial left-to-right, pinned).
void RowDot(int64_t rows, int64_t cols, const float* __restrict a,
            const float* __restrict b, float* __restrict out);

/// out[s * segment + i] = Dot(d, centers row s, neighbors row
/// (s * segment + i)) for n centers (n, d) and their segment consecutive
/// neighbors each. d == 16 computes four dot products at once, one per
/// vector lane, each with Dot's serial association.
void SegmentRowDot(int64_t n, int64_t segment, int64_t d,
                   const float* __restrict centers,
                   const float* __restrict neighbors, float* __restrict out);

/// Scales row r of `x` (rows x cols) by s[r], writing into out.
void RowScale(int64_t rows, int64_t cols, const float* __restrict x,
              const float* __restrict s, float* __restrict out);

/// Attention pooling: out row s (segments, d) = sum over i < segment of
/// weights[s * segment + i] * values row (s * segment + i), accumulated from
/// zero in i order. d == 16 keeps the output row in registers.
void SegmentWeightedSum(int64_t segments, int64_t segment, int64_t d,
                        const float* __restrict values,
                        const float* __restrict weights,
                        float* __restrict out);

/// Numerically stable softmax over each consecutive segment of length
/// `segment` in `x` (total length = segments * segment). Zero segments or
/// zero width is a no-op. Widths 4/8/16 take a fused vector path with a
/// fast exp (max relative error ~5e-6, see tensor/vec.h); other widths use
/// libm exp. The normalizer is double-accumulated in both paths.
void SegmentSoftmax(int64_t segments, int64_t segment, const float* x,
                    float* out);

/// Sum of all n elements (pairwise cascade, fixed association).
float Sum(int64_t n, const float* x);

/// Dot product of two length-n vectors (serial, fixed association).
float Dot(int64_t n, const float* a, const float* b);

/// Squared L2 norm of a length-n vector.
float SquaredNorm(int64_t n, const float* x);

/// Scalar sigmoid.
float Sigmoid(float x);

/// Scalar activations shared by the autograd ops and nn::Dense's raw rows.
inline float Relu(float x) { return x > 0.0f ? x : 0.0f; }
inline float LeakyRelu(float x, float negative_slope) {
  return x > 0.0f ? x : negative_slope * x;
}
inline float Tanh(float x) { return std::tanh(x); }

}  // namespace tensor
}  // namespace cgkgr

#endif  // CGKGR_TENSOR_TENSOR_OPS_H_
