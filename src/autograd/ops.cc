#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace autograd {

namespace {

/// Accumulates `src` into the grad sink of `input` if that input requires
/// grad. Like every backward function here, the write goes through
/// GradAccumulator so per-shard sinks (GradSinkGuard) are honored.
void AccumulateInto(const NodePtr& input, const float* src, int64_t n) {
  if (!input->requires_grad) return;
  tensor::Axpy(n, 1.0f, src, GradAccumulator(input.get()).data());
}

}  // namespace

Variable Constant(tensor::Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable Gather(const Variable& table, std::vector<int64_t> indices) {
  const tensor::Tensor& t = table.value();
  CGKGR_CHECK_MSG(t.rank() == 2, "Gather table must be rank-2, got %s",
                  t.ShapeString().c_str());
  const int64_t rows = t.dim(0);
  const int64_t d = t.dim(1);
  const int64_t n = static_cast<int64_t>(indices.size());
  tensor::Tensor out({n, d});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = indices[static_cast<size_t>(i)];
    CGKGR_CHECK_MSG(row >= 0 && row < rows, "Gather index %lld out of [0, %lld)",
                    static_cast<long long>(row), static_cast<long long>(rows));
    std::copy_n(t.data() + row * d, d, out.data() + i * d);
  }
  auto idx = std::make_shared<std::vector<int64_t>>(std::move(indices));
  return MakeOpResult(
      "Gather", std::move(out), {table}, [idx, d](Node* node) {
        const NodePtr& table_node = node->inputs[0];
        if (!table_node->requires_grad) return;
        const float* g = node->grad.data();
        float* tg = GradAccumulator(table_node.get()).data();
        const int64_t n = static_cast<int64_t>(idx->size());
        for (int64_t i = 0; i < n; ++i) {
          tensor::Axpy(d, 1.0f, g + i * d,
                       tg + (*idx)[static_cast<size_t>(i)] * d);
        }
      });
}

Variable RowRepeat(const Variable& x, int64_t times) {
  const tensor::Tensor& t = x.value();
  CGKGR_CHECK(t.rank() == 2 && times >= 1);
  const int64_t n = t.dim(0);
  const int64_t d = t.dim(1);
  tensor::Tensor out({n * times, d});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < times; ++j) {
      std::copy_n(t.data() + i * d, d, out.data() + (i * times + j) * d);
    }
  }
  return MakeOpResult(
      "RowRepeat", std::move(out), {x}, [n, d, times](Node* node) {
        const NodePtr& input = node->inputs[0];
        if (!input->requires_grad) return;
        const float* g = node->grad.data();
        float* xg = GradAccumulator(input.get()).data();
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < times; ++j) {
            tensor::Axpy(d, 1.0f, g + (i * times + j) * d, xg + i * d);
          }
        }
      });
}

Variable MatMul(const Variable& a, const Variable& b) {
  const tensor::Tensor& ta = a.value();
  const tensor::Tensor& tb = b.value();
  CGKGR_CHECK(ta.rank() == 2 && tb.rank() == 2);
  const int64_t m = ta.dim(0);
  const int64_t k = ta.dim(1);
  const int64_t n = tb.dim(1);
  CGKGR_CHECK_MSG(tb.dim(0) == k, "MatMul inner dims mismatch: %s x %s",
                  ta.ShapeString().c_str(), tb.ShapeString().c_str());
  tensor::Tensor out({m, n});
  tensor::Gemm(false, false, m, n, k, 1.0f, ta.data(), tb.data(), 0.0f,
               out.data());
  return MakeOpResult(
      "MatMul", std::move(out), {a, b}, [m, n, k](Node* node) {
        // Both backward Gemms accumulate (beta=1) into grad buffers that
        // other ops also feed; bit-identity relies on tensor::Gemm's fixed
        // per-element association (docs/kernels.md), not on this call site.
        const NodePtr& na = node->inputs[0];
        const NodePtr& nb = node->inputs[1];
        const float* g = node->grad.data();
        if (na->requires_grad) {
          // dA += G * B^T : (m,n) x (n,k)
          tensor::Gemm(false, true, m, k, n, 1.0f, g, nb->value.data(), 1.0f,
                       GradAccumulator(na.get()).data());
        }
        if (nb->requires_grad) {
          // dB += A^T * G : (k,m) x (m,n)
          tensor::Gemm(true, false, k, n, m, 1.0f, na->value.data(), g, 1.0f,
                       GradAccumulator(nb.get()).data());
        }
      });
}

Variable Add(const Variable& a, const Variable& b) {
  CGKGR_CHECK(a.value().SameShape(b.value()));
  const int64_t n = a.value().size();
  tensor::Tensor out(a.value().shape());
  tensor::Add(n, a.value().data(), b.value().data(), out.data());
  return MakeOpResult("Add", std::move(out), {a, b}, [n](Node* node) {
    AccumulateInto(node->inputs[0], node->grad.data(), n);
    AccumulateInto(node->inputs[1], node->grad.data(), n);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  CGKGR_CHECK(a.value().SameShape(b.value()));
  const int64_t n = a.value().size();
  tensor::Tensor out(a.value().shape());
  tensor::Sub(n, a.value().data(), b.value().data(), out.data());
  return MakeOpResult("Sub", std::move(out), {a, b}, [n](Node* node) {
    AccumulateInto(node->inputs[0], node->grad.data(), n);
    const NodePtr& nb = node->inputs[1];
    if (nb->requires_grad) {
      tensor::Axpy(n, -1.0f, node->grad.data(),
                   GradAccumulator(nb.get()).data());
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  CGKGR_CHECK(a.value().SameShape(b.value()));
  const int64_t n = a.value().size();
  tensor::Tensor out(a.value().shape());
  tensor::Mul(n, a.value().data(), b.value().data(), out.data());
  return MakeOpResult("Mul", std::move(out), {a, b}, [n](Node* node) {
    const NodePtr& na = node->inputs[0];
    const NodePtr& nb = node->inputs[1];
    const float* g = node->grad.data();
    if (na->requires_grad) {
      const float* bv = nb->value.data();
      float* ag = GradAccumulator(na.get()).data();
      for (int64_t i = 0; i < n; ++i) ag[i] += g[i] * bv[i];
    }
    if (nb->requires_grad) {
      const float* av = na->value.data();
      float* bg = GradAccumulator(nb.get()).data();
      for (int64_t i = 0; i < n; ++i) bg[i] += g[i] * av[i];
    }
  });
}

Variable AddRowBias(const Variable& x, const Variable& b) {
  const tensor::Tensor& tx = x.value();
  const tensor::Tensor& tb = b.value();
  CGKGR_CHECK(tx.rank() == 2 && tb.rank() == 1 && tb.dim(0) == tx.dim(1));
  const int64_t rows = tx.dim(0);
  const int64_t cols = tx.dim(1);
  tensor::Tensor out = tx.Clone();
  tensor::AddRowVector(rows, cols, tb.data(), out.data());
  return MakeOpResult(
      "AddRowBias", std::move(out), {x, b}, [rows, cols](Node* node) {
        AccumulateInto(node->inputs[0], node->grad.data(), rows * cols);
        const NodePtr& nb = node->inputs[1];
        if (nb->requires_grad) {
          const float* g = node->grad.data();
          float* bg = GradAccumulator(nb.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(cols, 1.0f, g + r * cols, bg);
          }
        }
      });
}

Variable RowDot(const Variable& a, const Variable& b) {
  const tensor::Tensor& ta = a.value();
  CGKGR_CHECK(ta.rank() == 2 && ta.SameShape(b.value()));
  const int64_t rows = ta.dim(0);
  const int64_t cols = ta.dim(1);
  tensor::Tensor out({rows});
  tensor::RowDot(rows, cols, ta.data(), b.value().data(), out.data());
  return MakeOpResult(
      "RowDot", std::move(out), {a, b}, [rows, cols](Node* node) {
        const NodePtr& na = node->inputs[0];
        const NodePtr& nb = node->inputs[1];
        const float* g = node->grad.data();
        if (na->requires_grad) {
          float* ag = GradAccumulator(na.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(cols, g[r], nb->value.data() + r * cols,
                         ag + r * cols);
          }
        }
        if (nb->requires_grad) {
          float* bg = GradAccumulator(nb.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(cols, g[r], na->value.data() + r * cols,
                         bg + r * cols);
          }
        }
      });
}

Variable RowScale(const Variable& x, const Variable& s) {
  const tensor::Tensor& tx = x.value();
  const tensor::Tensor& ts = s.value();
  CGKGR_CHECK(tx.rank() == 2 && ts.rank() == 1 && ts.dim(0) == tx.dim(0));
  const int64_t rows = tx.dim(0);
  const int64_t cols = tx.dim(1);
  tensor::Tensor out({rows, cols});
  tensor::RowScale(rows, cols, tx.data(), ts.data(), out.data());
  return MakeOpResult(
      "RowScale", std::move(out), {x, s}, [rows, cols](Node* node) {
        const NodePtr& nx = node->inputs[0];
        const NodePtr& ns = node->inputs[1];
        const float* g = node->grad.data();
        if (nx->requires_grad) {
          const float* sv = ns->value.data();
          float* xg = GradAccumulator(nx.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(cols, sv[r], g + r * cols, xg + r * cols);
          }
        }
        if (ns->requires_grad) {
          const float* xv = nx->value.data();
          float* sg = GradAccumulator(ns.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            sg[r] += tensor::Dot(cols, g + r * cols, xv + r * cols);
          }
        }
      });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  const tensor::Tensor& ta = a.value();
  const tensor::Tensor& tb = b.value();
  CGKGR_CHECK(ta.rank() == 2 && tb.rank() == 2 && ta.dim(0) == tb.dim(0));
  const int64_t rows = ta.dim(0);
  const int64_t d1 = ta.dim(1);
  const int64_t d2 = tb.dim(1);
  tensor::Tensor out({rows, d1 + d2});
  for (int64_t r = 0; r < rows; ++r) {
    std::copy_n(ta.data() + r * d1, d1, out.data() + r * (d1 + d2));
    std::copy_n(tb.data() + r * d2, d2, out.data() + r * (d1 + d2) + d1);
  }
  return MakeOpResult(
      "ConcatCols", std::move(out), {a, b}, [rows, d1, d2](Node* node) {
        const NodePtr& na = node->inputs[0];
        const NodePtr& nb = node->inputs[1];
        const float* g = node->grad.data();
        if (na->requires_grad) {
          float* ag = GradAccumulator(na.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(d1, 1.0f, g + r * (d1 + d2), ag + r * d1);
          }
        }
        if (nb->requires_grad) {
          float* bg = GradAccumulator(nb.get()).data();
          for (int64_t r = 0; r < rows; ++r) {
            tensor::Axpy(d2, 1.0f, g + r * (d1 + d2) + d1, bg + r * d2);
          }
        }
      });
}

Variable SegmentSoftmax(const Variable& x, int64_t segment_size) {
  const tensor::Tensor& tx = x.value();
  CGKGR_CHECK(tx.rank() == 1 && segment_size > 0 &&
              tx.dim(0) % segment_size == 0);
  const int64_t segments = tx.dim(0) / segment_size;
  tensor::Tensor out({tx.dim(0)});
  tensor::SegmentSoftmax(segments, segment_size, tx.data(), out.data());
  // The backward closure needs the forward output; keep a handle to it.
  tensor::Tensor y = out;
  return MakeOpResult(
      "SegmentSoftmax", std::move(out), {x},
      [segments, segment_size, y](Node* node) {
        const NodePtr& nx = node->inputs[0];
        if (!nx->requires_grad) return;
        const float* g = node->grad.data();
        const float* yv = y.data();
        float* xg = GradAccumulator(nx.get()).data();
        for (int64_t s = 0; s < segments; ++s) {
          const int64_t base = s * segment_size;
          const float inner =
              tensor::Dot(segment_size, g + base, yv + base);
          for (int64_t i = 0; i < segment_size; ++i) {
            xg[base + i] += yv[base + i] * (g[base + i] - inner);
          }
        }
      });
}

Variable SegmentWeightedSum(const Variable& values, const Variable& weights,
                            int64_t segment_size) {
  const tensor::Tensor& tv = values.value();
  const tensor::Tensor& tw = weights.value();
  CGKGR_CHECK(tv.rank() == 2 && tw.rank() == 1 && tw.dim(0) == tv.dim(0));
  CGKGR_CHECK(segment_size > 0 && tv.dim(0) % segment_size == 0);
  const int64_t segments = tv.dim(0) / segment_size;
  const int64_t d = tv.dim(1);
  tensor::Tensor out({segments, d});
  tensor::SegmentWeightedSum(segments, segment_size, d, tv.data(), tw.data(),
                             out.data());
  return MakeOpResult(
      "SegmentWeightedSum", std::move(out), {values, weights},
      [segments, segment_size, d](Node* node) {
        const NodePtr& nv = node->inputs[0];
        const NodePtr& nw = node->inputs[1];
        const float* g = node->grad.data();
        if (nv->requires_grad) {
          const float* wv = nw->value.data();
          float* vg = GradAccumulator(nv.get()).data();
          for (int64_t s = 0; s < segments; ++s) {
            for (int64_t i = 0; i < segment_size; ++i) {
              const int64_t row = s * segment_size + i;
              tensor::Axpy(d, wv[row], g + s * d, vg + row * d);
            }
          }
        }
        if (nw->requires_grad) {
          const float* vv = nv->value.data();
          float* wg = GradAccumulator(nw.get()).data();
          for (int64_t s = 0; s < segments; ++s) {
            for (int64_t i = 0; i < segment_size; ++i) {
              const int64_t row = s * segment_size + i;
              wg[row] += tensor::Dot(d, g + s * d, vv + row * d);
            }
          }
        }
      });
}

namespace {

/// Shared implementation for elementwise activations whose derivative can be
/// expressed from the forward output y.
template <typename Forward, typename BackwardFromOutput>
Variable UnaryFromOutput(const char* op_name, const Variable& x, Forward fwd,
                         BackwardFromOutput dydx) {
  const int64_t n = x.value().size();
  tensor::Tensor out(x.value().shape());
  const float* xv = x.value().data();
  float* ov = out.data();
  for (int64_t i = 0; i < n; ++i) ov[i] = fwd(xv[i]);
  tensor::Tensor y = out;
  return MakeOpResult(op_name, std::move(out), {x}, [n, y, dydx](Node* node) {
    const NodePtr& nx = node->inputs[0];
    if (!nx->requires_grad) return;
    const float* g = node->grad.data();
    const float* yv = y.data();
    float* xg = GradAccumulator(nx.get()).data();
    for (int64_t i = 0; i < n; ++i) xg[i] += g[i] * dydx(yv[i]);
  });
}

}  // namespace

Variable Relu(const Variable& x) {
  return UnaryFromOutput(
      "Relu", x, [](float v) { return tensor::Relu(v); },
      [](float y) { return y > 0.0f ? 1.0f : 0.0f; });
}

Variable LeakyRelu(const Variable& x, float negative_slope) {
  return UnaryFromOutput(
      "LeakyRelu", x,
      [negative_slope](float v) {
        return tensor::LeakyRelu(v, negative_slope);
      },
      [negative_slope](float y) {
        return y > 0.0f ? 1.0f : negative_slope;
      });
}

Variable Tanh(const Variable& x) {
  return UnaryFromOutput(
      "Tanh", x, [](float v) { return tensor::Tanh(v); },
      [](float y) { return 1.0f - y * y; });
}

Variable SigmoidV(const Variable& x) {
  return UnaryFromOutput(
      "Sigmoid", x, [](float v) { return tensor::Sigmoid(v); },
      [](float y) { return y * (1.0f - y); });
}

Variable PairwiseMax(const Variable& a, const Variable& b) {
  CGKGR_CHECK(a.value().SameShape(b.value()));
  const int64_t n = a.value().size();
  tensor::Tensor out(a.value().shape());
  const float* av = a.value().data();
  const float* bv = b.value().data();
  float* ov = out.data();
  for (int64_t i = 0; i < n; ++i) ov[i] = std::max(av[i], bv[i]);
  return MakeOpResult("PairwiseMax", std::move(out), {a, b}, [n](Node* node) {
    const NodePtr& na = node->inputs[0];
    const NodePtr& nb = node->inputs[1];
    const float* g = node->grad.data();
    const float* av = na->value.data();
    const float* bv = nb->value.data();
    if (na->requires_grad) {
      float* ag = GradAccumulator(na.get()).data();
      for (int64_t i = 0; i < n; ++i) {
        if (av[i] >= bv[i]) ag[i] += g[i];
      }
    }
    if (nb->requires_grad) {
      float* bg = GradAccumulator(nb.get()).data();
      for (int64_t i = 0; i < n; ++i) {
        if (av[i] < bv[i]) bg[i] += g[i];
      }
    }
  });
}

Variable Scale(const Variable& x, float c) {
  const int64_t n = x.value().size();
  tensor::Tensor out(x.value().shape());
  const float* xv = x.value().data();
  float* ov = out.data();
  for (int64_t i = 0; i < n; ++i) ov[i] = c * xv[i];
  return MakeOpResult("Scale", std::move(out), {x}, [n, c](Node* node) {
    const NodePtr& nx = node->inputs[0];
    if (!nx->requires_grad) return;
    tensor::Axpy(n, c, node->grad.data(),
                 GradAccumulator(nx.get()).data());
  });
}

Variable Mean(const Variable& x) {
  const int64_t n = x.value().size();
  CGKGR_CHECK(n > 0);
  tensor::Tensor out({1}, {tensor::Sum(n, x.value().data()) /
                           static_cast<float>(n)});
  return MakeOpResult("Mean", std::move(out), {x}, [n](Node* node) {
    const NodePtr& nx = node->inputs[0];
    if (!nx->requires_grad) return;
    const float g = node->grad[0] / static_cast<float>(n);
    float* xg = GradAccumulator(nx.get()).data();
    for (int64_t i = 0; i < n; ++i) xg[i] += g;
  });
}

Variable SumAll(const Variable& x) {
  const int64_t n = x.value().size();
  tensor::Tensor out({1}, {tensor::Sum(n, x.value().data())});
  return MakeOpResult("SumAll", std::move(out), {x}, [n](Node* node) {
    const NodePtr& nx = node->inputs[0];
    if (!nx->requires_grad) return;
    const float g = node->grad[0];
    float* xg = GradAccumulator(nx.get()).data();
    for (int64_t i = 0; i < n; ++i) xg[i] += g;
  });
}

Variable RelationMatMul(const Variable& x, std::vector<int64_t> relations,
                        const Variable& matrices) {
  const tensor::Tensor& tx = x.value();
  const tensor::Tensor& tm = matrices.value();
  CGKGR_CHECK(tx.rank() == 2);
  CGKGR_CHECK_MSG(tm.rank() == 3 && tm.dim(1) == tx.dim(1) &&
                      tm.dim(2) == tx.dim(1),
                  "relation matrices must be (R, d, d); got %s for d=%lld",
                  tm.ShapeString().c_str(),
                  static_cast<long long>(tx.dim(1)));
  const int64_t n = tx.dim(0);
  const int64_t d = tx.dim(1);
  const int64_t num_relations = tm.dim(0);
  CGKGR_CHECK(static_cast<int64_t>(relations.size()) == n);
  tensor::Tensor out({n, d});
  tensor::RelationMatMul(n, d, num_relations, tx.data(), relations.data(),
                         tm.data(), out.data());
  auto rels = std::make_shared<std::vector<int64_t>>(std::move(relations));
  return MakeOpResult(
      "RelationMatMul", std::move(out), {x, matrices},
      [rels, n, d, num_relations](Node* node) {
        const NodePtr& nx = node->inputs[0];
        const NodePtr& nm = node->inputs[1];
        const float* g = node->grad.data();
        if (nx->requires_grad) {
          // dx_row += g_row * M[rel]^T.
          tensor::RelationMatMulGradX(n, d, num_relations, g, rels->data(),
                                      nm->value.data(),
                                      GradAccumulator(nx.get()).data());
        }
        if (nm->requires_grad) {
          // dM[rel] += outer(x_row, g_row).
          tensor::RelationMatMulGradM(n, d, num_relations, nx->value.data(), g,
                                      rels->data(),
                                      GradAccumulator(nm.get()).data());
        }
      });
}

Variable Reshape(const Variable& x, std::vector<int64_t> shape) {
  const int64_t n = x.value().size();
  tensor::Tensor out = x.value().Reshape(std::move(shape));
  return MakeOpResult("Reshape", std::move(out), {x}, [n](Node* node) {
    AccumulateInto(node->inputs[0], node->grad.data(), n);
  });
}

Variable BCEWithLogits(const Variable& logits, std::vector<float> labels) {
  const tensor::Tensor& tl = logits.value();
  CGKGR_CHECK(tl.rank() == 1);
  const int64_t n = tl.dim(0);
  CGKGR_CHECK(static_cast<int64_t>(labels.size()) == n);
  // loss_i = softplus(x) - y*x  (stable form: max(x,0) - y*x + log1p(exp(-|x|)))
  // Accumulated in double so the reduction is order-robust (same policy as
  // tensor::SegmentSoftmax; see docs/parallel_training.md).
  double total = 0.0;
  const float* x = tl.data();
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float yi = labels[static_cast<size_t>(i)];
    total += std::max(xi, 0.0f) - yi * xi + std::log1p(std::exp(-std::abs(xi)));
  }
  tensor::Tensor out({1}, {static_cast<float>(total / n)});
  auto y = std::make_shared<std::vector<float>>(std::move(labels));
  return MakeOpResult("BCEWithLogits", std::move(out), {logits},
                      [y, n](Node* node) {
    const NodePtr& nl = node->inputs[0];
    if (!nl->requires_grad) return;
    const float g = node->grad[0] / static_cast<float>(n);
    const float* x = nl->value.data();
    float* lg = GradAccumulator(nl.get()).data();
    for (int64_t i = 0; i < n; ++i) {
      lg[i] += g * (tensor::Sigmoid(x[i]) - (*y)[static_cast<size_t>(i)]);
    }
  });
}

Variable BPRLoss(const Variable& positive_scores,
                 const Variable& negative_scores) {
  const tensor::Tensor& tp = positive_scores.value();
  const tensor::Tensor& tn = negative_scores.value();
  CGKGR_CHECK(tp.rank() == 1 && tp.SameShape(tn));
  const int64_t n = tp.dim(0);
  CGKGR_CHECK(n > 0);
  double total = 0.0;  // double accumulator: order-robust reduction
  for (int64_t i = 0; i < n; ++i) {
    const float margin = tn[i] - tp[i];
    // softplus(margin), numerically stable.
    total += std::max(margin, 0.0f) + std::log1p(std::exp(-std::abs(margin)));
  }
  tensor::Tensor out({1}, {static_cast<float>(total / n)});
  return MakeOpResult(
      "BPRLoss", std::move(out), {positive_scores, negative_scores},
      [n](Node* node) {
        const NodePtr& np = node->inputs[0];
        const NodePtr& nn = node->inputs[1];
        const float g = node->grad[0] / static_cast<float>(n);
        float* pg =
            np->requires_grad ? GradAccumulator(np.get()).data() : nullptr;
        float* ng =
            nn->requires_grad ? GradAccumulator(nn.get()).data() : nullptr;
        for (int64_t i = 0; i < n; ++i) {
          const float d =
              g * tensor::Sigmoid(nn->value[i] - np->value[i]);
          if (pg != nullptr) pg[i] -= d;
          if (ng != nullptr) ng[i] += d;
        }
      });
}

}  // namespace autograd
}  // namespace cgkgr
