#ifndef CGKGR_NN_DENSE_H_
#define CGKGR_NN_DENSE_H_

#include <string>

#include "autograd/ops.h"
#include "nn/parameter.h"

namespace cgkgr {
namespace nn {

/// Activation applied after the affine transform.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid, kLeakyRelu };

/// Fully-connected layer: activation(x * W + b). Implements the trainable
/// aggregator transforms g(.) of the paper (Eqs. 7-9).
class Dense {
 public:
  /// Creates weights `name`/W (in_dim, out_dim) and `name`/b (out_dim) in
  /// `store`, Xavier/zero initialized.
  Dense(ParameterStore* store, const std::string& name, int64_t in_dim,
        int64_t out_dim, Activation activation, Rng* rng);

  /// Applies the layer to `x` of shape (n, in_dim) -> (n, out_dim).
  autograd::Variable Apply(const autograd::Variable& x) const;

  /// Apply on raw row-major buffers, with Apply's bits and no tape: `x` is
  /// (n, in_dim) and `out`, which must not alias it, is (n, out_dim).
  void ApplyRows(int64_t n, const float* x, float* out) const;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  Activation activation_;
  autograd::Variable weight_;
  autograd::Variable bias_;
};

}  // namespace nn
}  // namespace cgkgr

#endif  // CGKGR_NN_DENSE_H_
