#include "core/cgkgr_model.h"

#include <algorithm>
#include <vector>

#include "autograd/ops.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "models/trainer_util.h"
#include "obs/trace.h"

namespace cgkgr {
namespace core {

namespace {
using autograd::Variable;

/// Rows per ScoreChunk forward task. Like ParallelTrainer's kShardRows it
/// never depends on the lane count, so the slice plan is the same at every
/// num_threads; 64 rows keep a forward long enough to amortize dispatch
/// while a 1,024-pair chunk still yields 16 tasks per pass.
constexpr int64_t kSliceRows = 64;

/// Rows [begin, end) of `values`, whose `rows` rows own equal contiguous
/// blocks (an empty array stays empty).
std::vector<int64_t> RowBlock(const std::vector<int64_t>& values,
                              int64_t rows, int64_t begin, int64_t end) {
  const int64_t width = static_cast<int64_t>(values.size()) / rows;
  CGKGR_CHECK(width * rows == static_cast<int64_t>(values.size()));
  return std::vector<int64_t>(values.begin() + begin * width,
                              values.begin() + end * width);
}
}  // namespace

CgKgrModel::CgKgrModel(CgKgrConfig config, std::string name)
    : RecommenderModel(config.learning_rate, config.l2,
                       0x7777777777777777ULL),
      config_(config),
      name_(std::move(name)) {
  CGKGR_CHECK(config_.embedding_dim > 0);
  CGKGR_CHECK(config_.depth >= 0);
  CGKGR_CHECK(config_.num_heads > 0);
}

Status CgKgrModel::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.num_users <= 0 || dataset.num_items <= 0) {
    return Status::InvalidArgument("empty dataset");
  }
  train_graph_ = std::make_unique<graph::InteractionGraph>(
      dataset.BuildTrainGraph());
  kg_ = std::make_unique<graph::KnowledgeGraph>(dataset.BuildKnowledgeGraph());

  // --- parameter construction ---
  const int64_t d = config_.embedding_dim;
  interact_heads_.clear();
  kg_heads_.clear();
  agg_kg_.clear();
  Rng init_rng(seed ^ 0xC0FFEE1234567890ULL);
  user_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "user_emb", dataset.num_users, d, &init_rng);
  entity_table_ = std::make_unique<nn::EmbeddingTable>(
      &store_, "entity_emb", dataset.num_entities, d, &init_rng);
  if (config_.use_interactive_summarization) {
    for (int64_t h = 0; h < config_.num_heads; ++h) {
      interact_heads_.push_back(
          store_.Create("m_rstar/head" + std::to_string(h), {d, d},
                        nn::Init::kXavierUniform, &init_rng));
    }
  }
  if (config_.depth >= 1 && config_.use_knowledge_attention) {
    const int64_t relation_slots = kg_->relation_id_space();
    for (int64_t h = 0; h < config_.num_heads; ++h) {
      kg_heads_.push_back(
          store_.Create("m_rel/head" + std::to_string(h),
                        {relation_slots, d, d}, nn::Init::kXavierUniform,
                        &init_rng));
    }
  }
  const int64_t agg_in =
      config_.aggregator == AggregatorType::kConcat ? 2 * d : d;
  if (config_.use_interactive_summarization) {
    // tanh keeps user/item representations sign-symmetric; with ReLU the
    // inner-product score (Eq. 21) would be confined to the non-negative
    // orthant on the user side.
    agg_user_ = std::make_unique<nn::Dense>(&store_, "agg_user", agg_in, d,
                                            nn::Activation::kTanh, &init_rng);
    agg_item_ = std::make_unique<nn::Dense>(&store_, "agg_item", agg_in, d,
                                            nn::Activation::kTanh, &init_rng);
  } else {
    agg_user_.reset();
    agg_item_.reset();
  }
  for (int64_t l = 1; l <= config_.depth; ++l) {
    // The hop-1 aggregator (the one feeding the score) uses tanh to bound
    // scores, as in the KGCN family; deeper hops use ReLU.
    const nn::Activation act =
        l == 1 ? nn::Activation::kTanh : nn::Activation::kRelu;
    agg_kg_.push_back(std::make_unique<nn::Dense>(
        &store_, "agg_kg/hop" + std::to_string(l), agg_in, d, act,
        &init_rng));
  }
  return Status::OK();
}

Variable CgKgrModel::BatchLoss(const models::TrainBatch& batch, Rng* rng) {
  // One forward over positives and negatives together (Eq. 22 with
  // |Y+| = |Y-| and labels 1/0).
  LabelledPairs pairs = LabelPairs(batch);
  BatchGraph bg = [&] {
    obs::ScopedSpan sample_span("train/sample");
    return SampleBatch(pairs.users, pairs.items, rng);
  }();
  obs::ScopedSpan forward_span("train/forward");
  Variable scores = Forward(bg, nullptr);
  return autograd::BCEWithLogits(scores, std::move(pairs.labels));
}

CgKgrModel::BatchGraph CgKgrModel::SampleBatch(
    const std::vector<int64_t>& users, const std::vector<int64_t>& items,
    Rng* rng) const {
  CGKGR_CHECK(users.size() == items.size());
  BatchGraph batch;
  batch.users = users;
  batch.items = items;
  if (config_.use_interactive_summarization) {
    batch.user_neighbors = graph::NeighborSampler::SampleUserNeighbors(
        *train_graph_, users, config_.user_sample_size, /*fallback_item=*/0,
        rng);
    batch.item_neighbors = graph::NeighborSampler::SampleItemNeighbors(
        *train_graph_, items, config_.item_sample_size, /*fallback_user=*/0,
        rng);
  }
  if (config_.depth >= 1) {
    batch.flow = graph::NeighborSampler::SampleNodeFlow(
        *kg_, items, config_.depth, config_.kg_sample_size, rng,
        config_.sampling_strategy);
  }
  return batch;
}

CgKgrModel::BatchGraph CgKgrModel::SliceRows(const BatchGraph& batch,
                                             int64_t begin, int64_t end) {
  const int64_t rows = static_cast<int64_t>(batch.users.size());
  BatchGraph slice;
  slice.users = RowBlock(batch.users, rows, begin, end);
  slice.items = RowBlock(batch.items, rows, begin, end);
  slice.user_neighbors = RowBlock(batch.user_neighbors, rows, begin, end);
  slice.item_neighbors = RowBlock(batch.item_neighbors, rows, begin, end);
  for (size_t l = 0; l < batch.flow.entities.size(); ++l) {
    slice.flow.entities.push_back(
        RowBlock(batch.flow.entities[l], rows, begin, end));
    slice.flow.relations.push_back(
        RowBlock(batch.flow.relations[l], rows, begin, end));
  }
  return slice;
}

Variable CgKgrModel::InteractiveAttentionPool(const Variable& centers,
                                              const Variable& neighbors,
                                              int64_t segment) {
  // Eqs. 2-5: multi-head collaboration attention averaged over heads.
  Variable center_rep = autograd::RowRepeat(centers, segment);
  Variable accumulated;
  for (const Variable& head : interact_heads_) {
    Variable transformed = autograd::MatMul(center_rep, head);
    Variable logits = autograd::RowDot(transformed, neighbors);
    Variable weights = autograd::SegmentSoftmax(logits, segment);
    Variable pooled =
        autograd::SegmentWeightedSum(neighbors, weights, segment);
    accumulated =
        accumulated.defined() ? autograd::Add(accumulated, pooled) : pooled;
  }
  return autograd::Scale(accumulated,
                         1.0f / static_cast<float>(interact_heads_.size()));
}

Variable CgKgrModel::Aggregate(const nn::Dense& dense, const Variable& self,
                               const Variable& neighbors) const {
  switch (config_.aggregator) {
    case AggregatorType::kSum:
      return dense.Apply(autograd::Add(self, neighbors));
    case AggregatorType::kConcat:
      return dense.Apply(autograd::ConcatCols(self, neighbors));
    case AggregatorType::kNeighbor:
      return dense.Apply(neighbors);
  }
  CGKGR_CHECK_MSG(false, "unreachable aggregator");
  return self;
}

Variable CgKgrModel::EncodeGuidance(const Variable& vu,
                                    const Variable& vi) const {
  switch (config_.encoder) {
    case EncoderType::kSum:
      return autograd::Add(vu, vi);
    case EncoderType::kMean:
      return autograd::Scale(autograd::Add(vu, vi), 0.5f);
    case EncoderType::kPairwiseMax:
      return autograd::PairwiseMax(vu, vi);
  }
  CGKGR_CHECK_MSG(false, "unreachable encoder");
  return vu;
}

Variable CgKgrModel::Forward(const BatchGraph& batch,
                             std::vector<float>* capture_hop1_attention) {
  const int64_t batch_size = static_cast<int64_t>(batch.users.size());
  const int64_t d = config_.embedding_dim;

  Variable vu_raw = user_table_->Lookup(batch.users);
  Variable vi_raw = entity_table_->Lookup(batch.items);

  // --- 1. interactive information summarization (Eqs. 3-6) ---
  Variable vu = vu_raw;
  Variable vi = vi_raw;
  if (config_.use_interactive_summarization) {
    Variable user_neighbor_emb = entity_table_->Lookup(batch.user_neighbors);
    Variable v_su = InteractiveAttentionPool(vu_raw, user_neighbor_emb,
                                             config_.user_sample_size);
    vu = Aggregate(*agg_user_, vu_raw, v_su);
    Variable item_neighbor_emb = user_table_->Lookup(batch.item_neighbors);
    Variable v_sui = InteractiveAttentionPool(vi_raw, item_neighbor_emb,
                                              config_.item_sample_size);
    vi = Aggregate(*agg_item_, vi_raw, v_sui);
  }

  // --- 2. collaborative guidance signal (Eqs. 10-13) ---
  Variable guidance;
  if (!config_.use_collaborative_guidance) {
    guidance = autograd::Constant(
        tensor::Tensor::Full({batch_size, d}, 1.0f));
  } else {
    switch (config_.guidance_mode) {
      case GuidanceMode::kFull:
        guidance = EncodeGuidance(vu, vi);
        break;
      case GuidanceMode::kNodeEmbeddingsOnly:
        guidance = EncodeGuidance(vu_raw, vi_raw);
        break;
      case GuidanceMode::kPreferenceFilterOnly:
        guidance = EncodeGuidance(vu, vi_raw);
        break;
      case GuidanceMode::kAttractionGroupOnly:
        guidance = EncodeGuidance(vu_raw, vi);
        break;
    }
  }

  // --- 3. knowledge extraction with collaborative guidance (Eqs. 14-20) ---
  Variable item_final = vi;
  if (config_.depth >= 1) {
    std::vector<Variable> hop_emb(static_cast<size_t>(config_.depth) + 1);
    hop_emb[0] = vi;
    for (int64_t l = 1; l <= config_.depth; ++l) {
      hop_emb[static_cast<size_t>(l)] = entity_table_->Lookup(
          batch.flow.entities[static_cast<size_t>(l)]);
    }
    for (int64_t l = config_.depth; l >= 1; --l) {
      const Variable& parents = hop_emb[static_cast<size_t>(l - 1)];
      const Variable& children = hop_emb[static_cast<size_t>(l)];
      const int64_t num_children = children.value().dim(0);
      const int64_t segment = config_.kg_sample_size;
      Variable pooled;
      if (config_.use_knowledge_attention) {
        // Guided bilinear attention: omega = (v_parent . f)^T M_r v_child,
        // the row-broadcast reading of Eq. 13's f (.) M_r.
        Variable parent_rep = autograd::RowRepeat(parents, segment);
        Variable guidance_rep =
            autograd::RowRepeat(guidance, num_children / batch_size);
        Variable guided = autograd::Mul(parent_rep, guidance_rep);
        Variable accumulated;
        const auto& relations =
            batch.flow.relations[static_cast<size_t>(l)];
        for (const Variable& head : kg_heads_) {
          Variable transformed =
              autograd::RelationMatMul(guided, relations, head);
          Variable logits = autograd::RowDot(transformed, children);
          Variable weights = autograd::SegmentSoftmax(logits, segment);
          if (capture_hop1_attention != nullptr && l == 1) {
            if (capture_hop1_attention->empty()) {
              capture_hop1_attention->assign(
                  static_cast<size_t>(num_children), 0.0f);
            }
            const float inv_heads =
                1.0f / static_cast<float>(kg_heads_.size());
            for (int64_t i = 0; i < num_children; ++i) {
              (*capture_hop1_attention)[static_cast<size_t>(i)] +=
                  inv_heads * weights.value()[i];
            }
          }
          Variable head_pooled =
              autograd::SegmentWeightedSum(children, weights, segment);
          accumulated = accumulated.defined()
                            ? autograd::Add(accumulated, head_pooled)
                            : head_pooled;
        }
        pooled = autograd::Scale(
            accumulated, 1.0f / static_cast<float>(kg_heads_.size()));
      } else {
        // w/o ATT: every sampled neighbor contributes equally.
        Variable uniform = autograd::Constant(tensor::Tensor::Full(
            {num_children}, 1.0f / static_cast<float>(segment)));
        pooled = autograd::SegmentWeightedSum(children, uniform, segment);
      }
      hop_emb[static_cast<size_t>(l - 1)] = Aggregate(
          *agg_kg_[static_cast<size_t>(l - 1)], parents, pooled);
    }
    item_final = hop_emb[0];
  }

  // --- 4. prediction (Eq. 21) ---
  return autograd::RowDot(vu, item_final);
}

void CgKgrModel::ScoreChunk(std::span<const int64_t> users,
                            std::span<const int64_t> items, Rng* rng,
                            std::span<float> out) {
  const int64_t rows = static_cast<int64_t>(users.size());
  const int64_t passes = std::max<int64_t>(1, config_.inference_samples);
  const float inv_passes = 1.0f / static_cast<float>(passes);
  // 1. Sample on this thread, pass by pass: the draws from `rng` never
  //    depend on how the forwards are scheduled.
  const std::vector<int64_t> chunk_users(users.begin(), users.end());
  const std::vector<int64_t> chunk_items(items.begin(), items.end());
  std::vector<BatchGraph> samples(static_cast<size_t>(passes));
  std::vector<std::vector<float>> pass_scores(
      static_cast<size_t>(passes), std::vector<float>(users.size()));
  for (BatchGraph& sample : samples) {
    sample = SampleBatch(chunk_users, chunk_items, rng);
  }
  // 2. Forward fixed row slices of every pass on the score lanes. Each
  //    forward kernel is per-row (docs/kernels.md), so a slice yields the
  //    bits the whole chunk would. The lanes live for this chunk only: idle
  //    workers kept between calls would each pin a malloc arena holding
  //    their last forwards' memory.
  ThreadPool pool(score_lanes(), "score");
  const int64_t slices = (rows + kSliceRows - 1) / kSliceRows;
  pool.ParallelForEach(0, passes * slices, 1, [&](int64_t task) {
    autograd::NoGradGuard no_grad;  // grad mode is thread-local
    const size_t pass = static_cast<size_t>(task / slices);
    const int64_t slice_begin = task % slices * kSliceRows;
    const int64_t slice_end = std::min(rows, slice_begin + kSliceRows);
    const Variable scores =
        Forward(SliceRows(samples[pass], slice_begin, slice_end), nullptr);
    std::copy_n(scores.value().data(), slice_end - slice_begin,
                pass_scores[pass].begin() + slice_begin);
  });
  // 3. Average the passes in pass order.
  std::fill(out.begin(), out.end(), 0.0f);
  for (const std::vector<float>& scores : pass_scores) {
    for (size_t r = 0; r < out.size(); ++r) out[r] += inv_passes * scores[r];
  }
}

CgKgrModel::AttentionInspection CgKgrModel::InspectKnowledgeAttention(
    int64_t user, int64_t item, uint64_t seed) {
  CGKGR_CHECK_MSG(prepared(), "InspectKnowledgeAttention before Fit");
  CGKGR_CHECK_MSG(config_.depth >= 1 && config_.use_knowledge_attention,
                  "attention inspection requires depth >= 1 and attention on");
  autograd::NoGradGuard no_grad;
  Rng rng(seed);
  BatchGraph batch = SampleBatch({user}, {item}, &rng);
  AttentionInspection inspection;
  Forward(batch, &inspection.weights);
  inspection.entities = batch.flow.entities[1];
  inspection.relations = batch.flow.relations[1];
  return inspection;
}

}  // namespace core
}  // namespace cgkgr
