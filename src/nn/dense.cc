#include "nn/dense.h"

#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace nn {

namespace {
constexpr float kLeakySlope = 0.2f;
}  // namespace

Dense::Dense(ParameterStore* store, const std::string& name, int64_t in_dim,
             int64_t out_dim, Activation activation, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim), activation_(activation) {
  CGKGR_CHECK(store != nullptr && in_dim > 0 && out_dim > 0);
  weight_ =
      store->Create(name + "/W", {in_dim, out_dim}, Init::kXavierUniform, rng);
  bias_ = store->Create(name + "/b", {out_dim}, Init::kZeros, rng);
}

autograd::Variable Dense::Apply(const autograd::Variable& x) const {
  CGKGR_CHECK_MSG(x.value().rank() == 2 && x.value().dim(1) == in_dim_,
                  "Dense expects (n, %lld), got %s",
                  static_cast<long long>(in_dim_),
                  x.value().ShapeString().c_str());
  autograd::Variable out =
      autograd::AddRowBias(autograd::MatMul(x, weight_), bias_);
  switch (activation_) {
    case Activation::kIdentity:
      return out;
    case Activation::kRelu:
      return autograd::Relu(out);
    case Activation::kTanh:
      return autograd::Tanh(out);
    case Activation::kSigmoid:
      return autograd::SigmoidV(out);
    case Activation::kLeakyRelu:
      return autograd::LeakyRelu(out, kLeakySlope);
  }
  CGKGR_CHECK_MSG(false, "unreachable activation");
  return out;
}

void Dense::ApplyRows(int64_t n, const float* x, float* out) const {
  tensor::Gemm(false, false, n, out_dim_, in_dim_, 1.0f, x,
               weight_.value().data(), 0.0f, out);
  tensor::AddRowVector(n, out_dim_, bias_.value().data(), out);
  const int64_t size = n * out_dim_;
  switch (activation_) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (int64_t i = 0; i < size; ++i) out[i] = tensor::Relu(out[i]);
      return;
    case Activation::kTanh:
      for (int64_t i = 0; i < size; ++i) out[i] = tensor::Tanh(out[i]);
      return;
    case Activation::kSigmoid:
      for (int64_t i = 0; i < size; ++i) out[i] = tensor::Sigmoid(out[i]);
      return;
    case Activation::kLeakyRelu:
      for (int64_t i = 0; i < size; ++i) {
        out[i] = tensor::LeakyRelu(out[i], kLeakySlope);
      }
      return;
  }
  CGKGR_CHECK_MSG(false, "unreachable activation");
}

}  // namespace nn
}  // namespace cgkgr
