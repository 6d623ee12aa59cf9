// API-misuse tests: the library's contract is that programming errors abort
// with a CGKGR_CHECK message (it never throws). These tests pin down that
// contract for the most error-prone entry points.

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "baselines/bprmf.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cgkgr_model.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "graph/interaction_graph.h"
#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace cgkgr {
namespace {

using autograd::Variable;

TEST(DeathTest, ResultValueOnError) {
  Result<int> r(Status::NotFound("x"));
  EXPECT_DEATH((void)r.value(), "Result::value\\(\\) on error");
}

TEST(DeathTest, TensorValueCountMismatch) {
  EXPECT_DEATH(tensor::Tensor({2, 2}, {1.0f}), "does not match shape volume");
}

TEST(DeathTest, TensorReshapeVolumeMismatch) {
  tensor::Tensor t({2, 3});
  EXPECT_DEATH((void)t.Reshape({5}), "reshape volume mismatch");
}

TEST(DeathTest, GatherIndexOutOfRange) {
  Variable table(tensor::Tensor({3, 2}), true);
  EXPECT_DEATH((void)autograd::Gather(table, {3}), "out of");
}

TEST(DeathTest, MatMulShapeMismatch) {
  Variable a(tensor::Tensor({2, 3}), true);
  Variable b(tensor::Tensor({4, 2}), true);
  EXPECT_DEATH((void)autograd::MatMul(a, b), "inner dims mismatch");
}

TEST(DeathTest, BackwardOnNonScalar) {
  Variable x(tensor::Tensor({3}), true);
  Variable y = autograd::Scale(x, 2.0f);
  EXPECT_DEATH(y.Backward(), "requires a scalar");
}

TEST(DeathTest, BackwardWithoutGrad) {
  Variable c = autograd::Constant(tensor::Tensor::Scalar(1.0f));
  EXPECT_DEATH(c.Backward(), "does not require grad");
}

TEST(DeathTest, UndefinedVariableAccess) {
  Variable v;
  EXPECT_DEATH((void)v.value(), "undefined Variable");
}

TEST(DeathTest, DuplicateParameterName) {
  nn::ParameterStore store;
  Rng rng(1);
  store.Create("w", {2}, nn::Init::kZeros, &rng);
  EXPECT_DEATH(store.Create("w", {2}, nn::Init::kZeros, &rng),
               "duplicate parameter name");
}

TEST(DeathTest, UnknownParameterName) {
  nn::ParameterStore store;
  EXPECT_DEATH((void)store.Get("missing"), "unknown parameter");
}

TEST(DeathTest, InteractionGraphRejectsOutOfRangeIds) {
  EXPECT_DEATH(graph::InteractionGraph(2, 2, {{5, 0}}), "out of range");
}

TEST(DeathTest, ScoreBeforeFit) {
  core::CgKgrConfig config;
  core::CgKgrModel model(config);
  std::vector<float> out;
  EXPECT_DEATH(model.ScorePairs({0}, {0}, &out), "before Fit");
}

data::Dataset TinyDataset() {
  data::SyntheticConfig config;
  config.num_users = 20;
  config.num_items = 30;
  config.num_noise_entities = 20;
  config.entities_per_relation_pool = 10;
  return data::GenerateSyntheticDataset(config, 3);
}

// ScorePairs bounds every id before a model indexes a table or a graph
// with it.
TEST(DeathTest, ScorePairsRejectsOutOfRangeIds) {
  const data::Dataset d = TinyDataset();
  baselines::BprMf bprmf(data::PresetHyperParams{});
  core::CgKgrModel cgkgr(core::CgKgrConfig{});
  for (models::RecommenderModel* model :
       std::vector<models::RecommenderModel*>{&bprmf, &cgkgr}) {
    ASSERT_TRUE(model->Prepare(d, 1).ok());
    std::vector<float> out;
    EXPECT_DEATH(model->ScorePairs({0, d.num_users}, {0, 0}, &out),
                 "user id 20 out of range \\[0, 20\\)")
        << model->name();
    EXPECT_DEATH(model->ScorePairs({0, 0}, {1, -1}, &out),
                 "item id -1 out of range \\[0, 30\\)")
        << model->name();
  }
}

TEST(DeathTest, UnknownPresetName) {
  EXPECT_DEATH((void)data::GetPreset("jazz"), "unknown preset");
}

TEST(DeathTest, SegmentSoftmaxIndivisibleLength) {
  Variable x(tensor::Tensor({7}), true);
  EXPECT_DEATH((void)autograd::SegmentSoftmax(x, 3), "CHECK failed");
}

TEST(DeathTest, RelationMatMulBadRelationId) {
  Variable x(tensor::Tensor({1, 2}), true);
  Variable mats(tensor::Tensor({2, 2, 2}), true);
  EXPECT_DEATH((void)autograd::RelationMatMul(x, {5}, mats),
               "relation id .* out of range");
}

}  // namespace
}  // namespace cgkgr
