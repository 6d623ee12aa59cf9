#include "core/cgkgr_model.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "models/trainer_util.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace core {

namespace {
using autograd::Variable;

/// Rows per ScoreChunk forward task. Like ParallelTrainer's kShardRows it
/// never depends on the lane count, so the slice plan is the same at every
/// num_threads; 64 rows keep a forward long enough to amortize a claim
/// while a 1,024-pair chunk still yields 16 tasks per pass.
constexpr int64_t kSliceRows = 64;

/// How many of a chunk's inference passes have been drawn. The drawing lane
/// publishes each pass once its sample is complete; a lane that claims a
/// slice of a later pass waits for it.
class DrawnPasses {
 public:
  explicit DrawnPasses(int64_t drawn) : drawn_(drawn) {}

  void Publish(int64_t drawn) CGKGR_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      drawn_ = drawn;
    }
    cv_.notify_all();
  }

  void WaitUntilDrawn(int64_t pass) CGKGR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (drawn_ <= pass) cv_.wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int64_t drawn_ CGKGR_GUARDED_BY(mu_);
};

/// `buffer` with room for at least `size` floats. Scratch only grows, so a
/// lane's buffers settle after its first slice.
float* Grow(std::vector<float>* buffer, int64_t size) {
  if (static_cast<int64_t>(buffer->size()) < size) {
    buffer->resize(static_cast<size_t>(size));
  }
  return buffer->data();
}

/// autograd::Gather's forward on raw rows: `n` rows of `table` at `ids`,
/// with its range check.
void GatherRows(const nn::EmbeddingTable& table, const int64_t* ids,
                int64_t n, float* out) {
  const int64_t rows = table.count();
  const int64_t d = table.dim();
  const float* values = table.table().value().data();
  for (int64_t i = 0; i < n; ++i) {
    CGKGR_CHECK_MSG(ids[i] >= 0 && ids[i] < rows,
                    "Gather index %lld out of [0, %lld)",
                    static_cast<long long>(ids[i]),
                    static_cast<long long>(rows));
    std::copy_n(values + ids[i] * d, d, out + i * d);
  }
}
}  // namespace

struct CgKgrModel::ScoreScratch {
  std::vector<float> vu_raw;       // (rows, d)
  std::vector<float> vi_raw;       // (rows, d)
  std::vector<float> vu;           // (rows, d)
  std::vector<float> vi;           // (rows, d)
  std::vector<float> guidance;     // (rows, d)
  std::vector<float> neighbors;    // (rows * |S|, d)
  std::vector<float> transformed;  // (rows, d): centers times one head
  std::vector<float> guided;       // (parents, d): v_p (.) f
  std::vector<float> products;     // (K, d): one parent's relation products
  std::vector<float> logits;       // one per neighbor or KG child
  std::vector<float> weights;      // one per neighbor or KG child
  std::vector<float> pooled;       // (parents, d): the head average
  std::vector<float> head_pooled;  // (parents, d): one head's pooling
  std::vector<float> agg_in;       // (parents, d or 2d)
  std::vector<float> next_hop;     // (parents, d)
  std::vector<std::vector<float>> hops;  // hop l: (rows * K^l, d)
};

struct CgKgrModel::ScoreLanes {
  explicit ScoreLanes(int64_t lanes)
      : pool(lanes, "score"),
        scratch(static_cast<size_t>(pool.num_threads())) {}

  ThreadPool pool;
  /// scratch[lane] belongs to the lane's claim loop in ScoreChunk.
  std::vector<ScoreScratch> scratch;
};

CgKgrModel::CgKgrModel(CgKgrConfig config, std::string name)
    : RecommenderModel(config.learning_rate, config.l2,
                       0x7777777777777777ULL),
      config_(config),
      name_(std::move(name)) {
  CGKGR_CHECK(config_.embedding_dim > 0);
  CGKGR_CHECK(config_.depth >= 0);
  CGKGR_CHECK(config_.num_heads > 0);
}

// Out of line: ScoreLanes is complete only here.
CgKgrModel::~CgKgrModel() = default;

Status CgKgrModel::Build(const data::Dataset& dataset, uint64_t seed) {
  if (dataset.num_users <= 0 || dataset.num_items <= 0) {
    return Status::InvalidArgument("empty dataset");
  }
  if (config_.inference_samples < 1) {
    return Status::InvalidArgument(
        "inference_samples must be >= 1, got " +
        std::to_string(config_.inference_samples));
  }
  // The samplers draw at least one neighbor per node; a stage that is
  // switched off never samples, so its size is not checked.
  const std::pair<const char*, int64_t> sample_sizes[] = {
      {"user_sample_size", config_.use_interactive_summarization
                               ? config_.user_sample_size
                               : 1},
      {"item_sample_size", config_.use_interactive_summarization
                               ? config_.item_sample_size
                               : 1},
      {"kg_sample_size", config_.depth >= 1 ? config_.kg_sample_size : 1}};
  for (const auto& [field, size] : sample_sizes) {
    if (size < 1) {
      return Status::InvalidArgument(std::string(field) +
                                     " must be >= 1 for a stage that is "
                                     "switched on, got " +
                                     std::to_string(size));
    }
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

void CgKgrModel::InteractiveAttentionPoolRows(int64_t n,
                                              const float* centers,
                                              const float* neighbors,
                                              int64_t segment,
                                              ScoreScratch* scratch) const {
  // InteractiveAttentionPool repeats each center `segment` times before the
  // head transform; the repeats are equal rows, so transform each once.
  const int64_t d = config_.embedding_dim;
  const int64_t children = n * segment;
  float* transformed = Grow(&scratch->transformed, n * d);
  float* logits = Grow(&scratch->logits, children);
  float* weights = Grow(&scratch->weights, children);
  float* pooled = Grow(&scratch->pooled, n * d);
  float* head_pooled = Grow(&scratch->head_pooled, n * d);
  for (size_t h = 0; h < interact_heads_.size(); ++h) {
    tensor::Gemm(false, false, n, d, d, 1.0f, centers,
                 interact_heads_[h].value().data(), 0.0f, transformed);
    tensor::SegmentRowDot(n, segment, d, transformed, neighbors, logits);
    tensor::SegmentSoftmax(n, segment, logits, weights);
    tensor::SegmentWeightedSum(n, segment, d, neighbors, weights,
                               h == 0 ? pooled : head_pooled);
    // Adds the head in place with Add's bits (1 * x == x).
    if (h > 0) tensor::Axpy(n * d, 1.0f, head_pooled, pooled);
  }
  tensor::ScaleInPlace(n * d,
                       1.0f / static_cast<float>(interact_heads_.size()),
                       pooled);
}

void CgKgrModel::AggregateRows(const nn::Dense& dense, int64_t n,
                               const float* self, const float* neighbors,
                               ScoreScratch* scratch, float* out) const {
  const int64_t d = config_.embedding_dim;
  switch (config_.aggregator) {
    case AggregatorType::kSum: {
      float* sum = Grow(&scratch->agg_in, n * d);
      tensor::Add(n * d, self, neighbors, sum);
      dense.ApplyRows(n, sum, out);
      return;
    }
    case AggregatorType::kConcat: {
      float* concat = Grow(&scratch->agg_in, n * 2 * d);
      for (int64_t r = 0; r < n; ++r) {
        std::copy_n(self + r * d, d, concat + r * 2 * d);
        std::copy_n(neighbors + r * d, d, concat + r * 2 * d + d);
      }
      dense.ApplyRows(n, concat, out);
      return;
    }
    case AggregatorType::kNeighbor:
      dense.ApplyRows(n, neighbors, out);
      return;
  }
  CGKGR_CHECK_MSG(false, "unreachable aggregator");
}

void CgKgrModel::EncodeGuidanceRows(int64_t n, const float* vu,
                                    const float* vi, float* out) const {
  const int64_t size = n * config_.embedding_dim;
  switch (config_.encoder) {
    case EncoderType::kSum:
      tensor::Add(size, vu, vi, out);
      return;
    case EncoderType::kMean:
      tensor::Add(size, vu, vi, out);
      tensor::ScaleInPlace(size, 0.5f, out);
      return;
    case EncoderType::kPairwiseMax:
      for (int64_t i = 0; i < size; ++i) out[i] = std::max(vu[i], vi[i]);
      return;
  }
  CGKGR_CHECK_MSG(false, "unreachable encoder");
}

void CgKgrModel::ScoreRows(const BatchGraph& batch, int64_t begin,
                           int64_t end, ScoreScratch* scratch,
                           float* out) const {
  // Forward's steps in its order, each as the same per-row kernel, so every
  // score keeps Forward's bits (docs/kernels.md, "Association policy").
  const int64_t rows = end - begin;
  const int64_t d = config_.embedding_dim;
  float* vu_raw = Grow(&scratch->vu_raw, rows * d);
  float* vi_raw = Grow(&scratch->vi_raw, rows * d);
  GatherRows(*user_table_, batch.users.data() + begin, rows, vu_raw);
  GatherRows(*entity_table_, batch.items.data() + begin, rows, vi_raw);

  // --- 1. interactive information summarization (Eqs. 3-6) ---
  const float* vu = vu_raw;
  const float* vi = vi_raw;
  if (config_.use_interactive_summarization) {
    const int64_t su = config_.user_sample_size;
    float* neighbors = Grow(&scratch->neighbors, rows * su * d);
    GatherRows(*entity_table_, batch.user_neighbors.data() + begin * su,
               rows * su, neighbors);
    InteractiveAttentionPoolRows(rows, vu_raw, neighbors, su, scratch);
    float* vu_summary = Grow(&scratch->vu, rows * d);
    AggregateRows(*agg_user_, rows, vu_raw, scratch->pooled.data(), scratch,
                  vu_summary);
    vu = vu_summary;
    const int64_t si = config_.item_sample_size;
    neighbors = Grow(&scratch->neighbors, rows * si * d);
    GatherRows(*user_table_, batch.item_neighbors.data() + begin * si,
               rows * si, neighbors);
    InteractiveAttentionPoolRows(rows, vi_raw, neighbors, si, scratch);
    float* vi_summary = Grow(&scratch->vi, rows * d);
    AggregateRows(*agg_item_, rows, vi_raw, scratch->pooled.data(), scratch,
                  vi_summary);
    vi = vi_summary;
  }

  // --- 2. collaborative guidance signal (Eqs. 10-13) ---
  float* guidance = Grow(&scratch->guidance, rows * d);
  if (!config_.use_collaborative_guidance) {
    std::fill_n(guidance, rows * d, 1.0f);
  } else {
    switch (config_.guidance_mode) {
      case GuidanceMode::kFull:
        EncodeGuidanceRows(rows, vu, vi, guidance);
        break;
      case GuidanceMode::kNodeEmbeddingsOnly:
        EncodeGuidanceRows(rows, vu_raw, vi_raw, guidance);
        break;
      case GuidanceMode::kPreferenceFilterOnly:
        EncodeGuidanceRows(rows, vu, vi_raw, guidance);
        break;
      case GuidanceMode::kAttractionGroupOnly:
        EncodeGuidanceRows(rows, vu_raw, vi, guidance);
        break;
    }
  }

  // --- 3. knowledge extraction with collaborative guidance (Eqs. 14-20) ---
  const float* item_final = vi;
  if (config_.depth >= 1) {
    const int64_t k = config_.kg_sample_size;
    std::vector<std::vector<float>>& hops = scratch->hops;
    hops.resize(static_cast<size_t>(config_.depth) + 1);
    std::copy_n(vi, rows * d, Grow(&hops[0], rows * d));
    std::vector<int64_t> widths(static_cast<size_t>(config_.depth) + 1, 1);
    for (size_t l = 1; l < widths.size(); ++l) {
      widths[l] = widths[l - 1] * k;
      GatherRows(*entity_table_, batch.flow.entities[l].data() + begin *
                                     widths[l],
                 rows * widths[l], Grow(&hops[l], rows * widths[l] * d));
    }
    for (int64_t l = config_.depth; l >= 1; --l) {
      const size_t hop = static_cast<size_t>(l);
      const int64_t parents_per_row = widths[hop - 1];
      const int64_t parents = rows * parents_per_row;
      const int64_t children = parents * k;
      const float* parent_emb = hops[hop - 1].data();
      const float* child_emb = hops[hop].data();
      float* weights = Grow(&scratch->weights, children);
      float* pooled = Grow(&scratch->pooled, parents * d);
      if (config_.use_knowledge_attention) {
        // Guided bilinear attention, omega = (v_parent . f)^T M_r v_child:
        // v_p (.) f once per parent, its product with M_r once per distinct
        // relation among the parent's children.
        float* guided = Grow(&scratch->guided, parents * d);
        for (int64_t p = 0; p < parents; ++p) {
          tensor::Mul(d, parent_emb + p * d,
                      guidance + p / parents_per_row * d, guided + p * d);
        }
        float* products = Grow(&scratch->products, k * d);
        float* logits = Grow(&scratch->logits, children);
        float* head_pooled = Grow(&scratch->head_pooled, parents * d);
        const int64_t* relations =
            batch.flow.relations[hop].data() + begin * widths[hop];
        for (size_t h = 0; h < kg_heads_.size(); ++h) {
          const tensor::Tensor& matrices = kg_heads_[h].value();
          tensor::GroupedRelationRowDot(parents, k, d, matrices.dim(0),
                                        guided, relations, matrices.data(),
                                        child_emb, products, logits);
          tensor::SegmentSoftmax(parents, k, logits, weights);
          tensor::SegmentWeightedSum(parents, k, d, child_emb, weights,
                                     h == 0 ? pooled : head_pooled);
          if (h > 0) tensor::Axpy(parents * d, 1.0f, head_pooled, pooled);
        }
        tensor::ScaleInPlace(parents * d,
                             1.0f / static_cast<float>(kg_heads_.size()),
                             pooled);
      } else {
        // w/o ATT: every sampled neighbor contributes equally.
        std::fill_n(weights, children, 1.0f / static_cast<float>(k));
        tensor::SegmentWeightedSum(parents, k, d, child_emb, weights, pooled);
      }
      AggregateRows(*agg_kg_[hop - 1], parents, parent_emb, pooled, scratch,
                    Grow(&scratch->next_hop, parents * d));
      std::swap(hops[hop - 1], scratch->next_hop);
    }
    item_final = hops[0].data();
  }

  // --- 4. prediction (Eq. 21) ---
  tensor::RowDot(rows, d, vu, item_final, out);
}

void CgKgrModel::ScoreChunk(std::span<const int64_t> users,
                            std::span<const int64_t> items, Rng* rng,
                            std::span<float> out) {
  MutexLock lock(&score_mu_);
  const int64_t num_lanes = std::max<int64_t>(1, score_lanes());
  if (lanes_ == nullptr || lanes_->pool.num_threads() != num_lanes) {
    lanes_.reset();  // joins the old lanes before the new ones start
    lanes_ = std::make_unique<ScoreLanes>(num_lanes);
  }
  ScoreLanes& lanes = *lanes_;
  const int64_t rows = static_cast<int64_t>(users.size());
  const int64_t passes = config_.inference_samples;
  const float inv_passes = 1.0f / static_cast<float>(passes);
  const std::vector<int64_t> chunk_users(users.begin(), users.end());
  const std::vector<int64_t> chunk_items(items.begin(), items.end());
  std::vector<BatchGraph> samples(static_cast<size_t>(passes));
  std::vector<std::vector<float>> pass_scores(
      static_cast<size_t>(passes), std::vector<float>(users.size()));
  // 1. Draw pass 0 on this thread. Every pass is drawn from `rng` in pass
  //    order by one thread, so the draws never depend on the scheduling.
  samples[0] = SampleBatch(chunk_users, chunk_items, rng);
  DrawnPasses drawn(1);
  // 2. Every lane claims (pass, slice) tasks one at a time, in pass-major
  //    order, and scores each with its own scratch. Lane 0 first draws
  //    passes 1..P-1 while the others score pass 0. Each kernel is per-row
  //    (docs/kernels.md), so a slice yields the bits the whole chunk would.
  const int64_t slices = (rows + kSliceRows - 1) / kSliceRows;
  const int64_t tasks = passes * slices;
  std::atomic<int64_t> next_task{0};
  lanes.pool.ParallelFor(0, num_lanes, 1, [&](int64_t lane, int64_t) {
    if (lane == 0) {
      for (int64_t pass = 1; pass < passes; ++pass) {
        samples[static_cast<size_t>(pass)] =
            SampleBatch(chunk_users, chunk_items, rng);
        drawn.Publish(pass + 1);
      }
    }
    ScoreScratch* scratch = &lanes.scratch[static_cast<size_t>(lane)];
    for (int64_t task = next_task.fetch_add(1); task < tasks;
         task = next_task.fetch_add(1)) {
      const int64_t pass = task / slices;
      drawn.WaitUntilDrawn(pass);
      const int64_t slice_begin = task % slices * kSliceRows;
      const int64_t slice_end = std::min(rows, slice_begin + kSliceRows);
      ScoreRows(samples[static_cast<size_t>(pass)], slice_begin, slice_end,
                scratch,
                pass_scores[static_cast<size_t>(pass)].data() + slice_begin);
    }
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
