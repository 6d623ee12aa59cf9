#include "models/trainer_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "nn/adam.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/trace.h"

namespace cgkgr {
namespace models {

namespace {

/// Cap on eval-split CTR examples used for per-epoch AUC early stopping.
constexpr int64_t kEvalMaxExamples = 4000;
/// Users sampled for per-epoch Recall@20 early stopping.
constexpr int64_t kEvalTopKUsers = 60;

/// Resolves the per-epoch JSONL path: the per-run TrainOptions field wins,
/// the CGKGR_METRICS_JSONL environment variable is the process default.
std::string MetricsJsonlPath(const TrainOptions& options) {
  if (!options.metrics_jsonl.empty()) return options.metrics_jsonl;
  const char* env = std::getenv("CGKGR_METRICS_JSONL");
  return env != nullptr ? env : "";
}

/// Resolves checkpoint knobs: the per-run nested options win, the
/// CGKGR_CKPT_DIR / CGKGR_CKPT_RESUME environment variables are process
/// defaults (read per call, like the metrics JSONL path).
CheckpointOptions ResolveCheckpointOptions(const TrainOptions& options) {
  CheckpointOptions copts = options.checkpoint;
  if (copts.directory.empty()) {
    const char* env = std::getenv("CGKGR_CKPT_DIR");
    if (env != nullptr) copts.directory = env;
  }
  if (!copts.resume && std::getenv("CGKGR_CKPT_RESUME") != nullptr) {
    copts.resume = true;
  }
  if (copts.interval_epochs < 1) copts.interval_epochs = 1;
  return copts;
}

/// The loop-owned slice of a trainer checkpoint (everything outside the
/// model's and optimizer's own sections).
struct LoopState {
  int64_t completed_epoch = 0;
  int64_t best_epoch = 0;
  double best_metric = -1.0;
  std::vector<double> epoch_losses;
  double epoch_seconds_sum = 0.0;
  Rng train_rng{0};
  std::vector<tensor::Tensor> best_snapshot;
};

/// Serializes one full trainer checkpoint: loop cursors + model state +
/// optimizer moments.
void WriteTrainerCheckpoint(const RecommenderModel& model,
                            const nn::AdamOptimizer& optimizer,
                            const std::string& dataset_name,
                            const LoopState& state, ckpt::Writer* writer) {
  writer->BeginSection("trainer");
  writer->WriteString(model.name());
  writer->WriteString(dataset_name);
  writer->WriteI64(state.completed_epoch);
  writer->WriteI64(state.best_epoch);
  writer->WriteF64(state.best_metric);
  writer->WriteDoubles(state.epoch_losses);
  writer->WriteF64(state.epoch_seconds_sum);
  ckpt::WriteRngState(state.train_rng, writer);
  writer->WriteBool(!state.best_snapshot.empty());
  if (!state.best_snapshot.empty()) {
    writer->WriteU64(state.best_snapshot.size());
    for (const tensor::Tensor& value : state.best_snapshot) {
      writer->WriteTensor(value);
    }
  }
  writer->BeginSection("model-state");
  model.SaveState(writer);
  optimizer.SaveState(writer);
}

/// Restores a trainer checkpoint produced by WriteTrainerCheckpoint.
/// Everything is validated before any live state is touched indirectly via
/// fatal paths (ParameterStore::RestoreValues CGKGR_CHECKs, so snapshot
/// shapes are pre-checked here and corruption surfaces as a Status).
Status ReadTrainerCheckpoint(ckpt::Reader* reader, RecommenderModel* model,
                             nn::AdamOptimizer* optimizer,
                             const nn::ParameterStore& store,
                             const std::string& dataset_name,
                             LoopState* state) {
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("trainer"));
  std::string model_name;
  CGKGR_RETURN_NOT_OK(reader->ReadString(&model_name));
  if (model_name != model->name()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint is for model \"%s\", resuming \"%s\"",
                  model_name.c_str(), model->name().c_str()));
  }
  std::string ckpt_dataset;
  CGKGR_RETURN_NOT_OK(reader->ReadString(&ckpt_dataset));
  if (ckpt_dataset != dataset_name) {
    return Status::InvalidArgument(
        StrFormat("checkpoint is for dataset \"%s\", resuming on \"%s\"",
                  ckpt_dataset.c_str(), dataset_name.c_str()));
  }
  CGKGR_RETURN_NOT_OK(reader->ReadI64(&state->completed_epoch));
  CGKGR_RETURN_NOT_OK(reader->ReadI64(&state->best_epoch));
  CGKGR_RETURN_NOT_OK(reader->ReadF64(&state->best_metric));
  CGKGR_RETURN_NOT_OK(reader->ReadDoubles(&state->epoch_losses));
  CGKGR_RETURN_NOT_OK(reader->ReadF64(&state->epoch_seconds_sum));
  if (state->completed_epoch < 0 ||
      state->completed_epoch !=
          static_cast<int64_t>(state->epoch_losses.size())) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint epoch cursor %lld does not match its loss history "
        "(%zu entries)", static_cast<long long>(state->completed_epoch),
        state->epoch_losses.size()));
  }
  CGKGR_RETURN_NOT_OK(ckpt::ReadRngState(reader, &state->train_rng));
  bool has_best_snapshot = false;
  CGKGR_RETURN_NOT_OK(reader->ReadBool(&has_best_snapshot));
  state->best_snapshot.clear();
  if (has_best_snapshot) {
    uint64_t count = 0;
    CGKGR_RETURN_NOT_OK(reader->ReadU64(&count));
    if (count != store.parameters().size()) {
      return Status::InvalidArgument(StrFormat(
          "best-snapshot arity mismatch: checkpoint has %llu tensors, "
          "store has %zu parameters",
          static_cast<unsigned long long>(count), store.parameters().size()));
    }
    state->best_snapshot.resize(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      tensor::Tensor& value = state->best_snapshot[static_cast<size_t>(i)];
      CGKGR_RETURN_NOT_OK(reader->ReadTensor(&value));
      if (!value.SameShape(
              store.parameters()[static_cast<size_t>(i)].value())) {
        return Status::InvalidArgument(StrFormat(
            "best-snapshot shape mismatch at parameter %llu",
            static_cast<unsigned long long>(i)));
      }
    }
  }
  CGKGR_RETURN_NOT_OK(reader->ExpectSection("model-state"));
  CGKGR_RETURN_NOT_OK(model->LoadState(reader));
  CGKGR_RETURN_NOT_OK(optimizer->LoadState(reader));
  if (!reader->AtEnd()) {
    return Status::InvalidArgument(
        "trailing records after trainer checkpoint state");
  }
  return Status::OK();
}

}  // namespace

double GradientNorm(const nn::ParameterStore& store) {
  double sum_sq = 0.0;
  for (autograd::Variable parameter : store.parameters()) {
    const tensor::Tensor& grad = parameter.grad();
    for (int64_t i = 0; i < grad.size(); ++i) {
      const double g = grad[i];
      sum_sq += g * g;
    }
  }
  return std::sqrt(sum_sq);
}

bool TapeLintEnabled(const TrainOptions& options) {
  static const bool env_enabled = std::getenv("CGKGR_LINT_TAPE") != nullptr;
  return options.lint_tape || env_enabled;
}

Status RunTrainingLoop(RecommenderModel* model, nn::ParameterStore* store,
                       nn::AdamOptimizer* optimizer,
                       const data::Dataset& dataset,
                       const TrainOptions& options,
                       const RunEpochFn& run_epoch, TrainStats* stats) {
  CGKGR_CHECK(model != nullptr && store != nullptr && optimizer != nullptr &&
              stats != nullptr);
  eval::PairScorer* scorer = model;
  if (dataset.train.empty()) {
    return Status::InvalidArgument("dataset has no training interactions");
  }
  *stats = TrainStats{};

  // Fixed eval-split CTR examples for a comparable per-epoch signal.
  Rng eval_rng(options.seed ^ 0x5151515151515151ULL);
  const auto all_positives = dataset.BuildAllPositives();
  std::vector<data::CtrExample> eval_examples = data::MakeCtrExamples(
      dataset.eval, all_positives, dataset.num_items, &eval_rng);
  if (static_cast<int64_t>(eval_examples.size()) > kEvalMaxExamples) {
    eval_rng.Shuffle(&eval_examples);
    eval_examples.resize(static_cast<size_t>(kEvalMaxExamples));
  }
  // Recall@20 early stopping ranks the eval split with train items masked.
  eval::TopKOptions topk_options;
  topk_options.ks = {20};
  topk_options.max_users = kEvalTopKUsers;
  topk_options.user_sample_seed = options.seed ^ 0x1313131313131313ULL;
  const auto train_positives = dataset.BuildTrainPositives();
  auto eval_metric = [&]() {
    if (options.early_stop_metric == EarlyStopMetric::kRecallAt20) {
      const eval::TopKResult result = eval::EvaluateTopK(
          scorer, dataset, dataset.eval, train_positives, topk_options);
      return result.recall.at(20);
    }
    return eval_examples.empty()
               ? 0.0
               : eval::EvaluateCtr(scorer, eval_examples).auc;
  };

  // Per-dataset registry instruments; the samples/sec gauge divides the
  // train-split size (one positive per interaction per epoch) by epoch time.
  const std::string model_label =
      options.run_label.empty() ? "model" : options.run_label;
  const obs::Labels labels = {{"dataset", dataset.name}};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* epochs_total =
      registry.GetCounter("train_epochs_total", labels);
  obs::Histogram* epoch_micros =
      registry.GetHistogram("train_epoch_micros", labels);
  obs::Gauge* epoch_loss = registry.GetGauge("train_epoch_loss", labels);
  obs::Gauge* eval_metric_gauge =
      registry.GetGauge("train_eval_metric", labels);
  obs::Gauge* samples_per_sec =
      registry.GetGauge("train_samples_per_sec", labels);
  const std::string jsonl_path = MetricsJsonlPath(options);
  std::unique_ptr<obs::JsonlSink> jsonl;
  if (!jsonl_path.empty()) {
    jsonl = std::make_unique<obs::JsonlSink>(jsonl_path);
    if (!jsonl->status().ok()) {
      CGKGR_LOG(Warning) << "metrics JSONL sink disabled: "
                         << jsonl->status().ToString();
    }
  }

  const CheckpointOptions copts = ResolveCheckpointOptions(options);
  static obs::Counter* resumes_total =
      registry.GetCounter("ckpt_resumes_total");

  LoopState state;
  state.train_rng = Rng(options.seed);
  ckpt::Manifest manifest;
  if (copts.enabled()) {
    Result<ckpt::Manifest> existing = ckpt::ReadManifest(copts.directory);
    if (existing.ok()) manifest = std::move(existing).value();
  }
  if (copts.enabled() && copts.resume) {
    ckpt::ManifestEntry entry;
    Result<ckpt::Reader> reader = ckpt::OpenLatestValid(copts.directory,
                                                        &entry);
    if (reader.ok()) {
      ckpt::Reader r = std::move(reader).value();
      CGKGR_RETURN_NOT_OK(ReadTrainerCheckpoint(&r, model, optimizer, *store,
                                                dataset.name, &state));
      stats->epoch_losses = state.epoch_losses;
      stats->epochs_run = state.completed_epoch;
      stats->resumed_epochs = state.completed_epoch;
      resumes_total->Increment();
      CGKGR_LOG(Info) << "resuming training"
                      << Kv("model", model_label)
                      << Kv("checkpoint", entry.file)
                      << Kv("epoch", state.completed_epoch)
                      << Kv("best_epoch", state.best_epoch);
    } else if (reader.status().code() == StatusCode::kNotFound) {
      CGKGR_LOG(Info) << "no checkpoint to resume from, starting fresh"
                      << Kv("dir", copts.directory);
    } else {
      return reader.status();
    }
  }

  // Publishes the current trainer state as `ckpt-<epoch>.ckpt` and updates
  // the MANIFEST + retention. A failed publish degrades to a warning —
  // training itself never aborts on checkpoint I/O.
  auto publish_checkpoint = [&]() -> std::string {
    ckpt::Writer writer;
    WriteTrainerCheckpoint(*model, *optimizer, dataset.name, state, &writer);
    const std::string file = StrFormat(
        "ckpt-%06lld.ckpt", static_cast<long long>(state.completed_epoch));
    const std::string path = copts.directory + "/" + file;
    Status status = writer.Commit(path);
    if (!status.ok()) {
      CGKGR_LOG(Warning) << "checkpoint publish failed"
                         << Kv("path", path)
                         << Kv("error", status.ToString());
      return "";
    }
    ckpt::ManifestEntry entry;
    entry.file = file;
    entry.epoch = state.completed_epoch;
    entry.metric = state.best_metric;
    // Replace any same-named row (an epoch re-published after resume).
    manifest.entries.erase(
        std::remove_if(manifest.entries.begin(), manifest.entries.end(),
                       [&](const ckpt::ManifestEntry& e) {
                         return e.file == file;
                       }),
        manifest.entries.end());
    manifest.entries.push_back(entry);
    status = ckpt::WriteManifest(copts.directory, manifest);
    if (!status.ok()) {
      CGKGR_LOG(Warning) << "manifest update failed"
                         << Kv("dir", copts.directory)
                         << Kv("error", status.ToString());
      return path;
    }
    ckpt::RetentionOptions retention;
    retention.keep_last = copts.keep_last;
    retention.keep_best = copts.keep_best;
    status = ckpt::ApplyRetention(copts.directory, &manifest, retention);
    if (!status.ok()) {
      CGKGR_LOG(Warning) << "checkpoint retention failed"
                         << Kv("dir", copts.directory)
                         << Kv("error", status.ToString());
    }
    return path;
  };

  WallTimer total_timer;
  for (int64_t epoch = state.completed_epoch + 1; epoch <= options.max_epochs;
       ++epoch) {
    WallTimer epoch_timer;
    Rng epoch_rng = state.train_rng.Fork();
    double loss = 0.0;
    {
      obs::ScopedSpan epoch_span("train/epoch");
      loss = run_epoch(epoch, &epoch_rng);
    }
    const double epoch_seconds = epoch_timer.ElapsedSeconds();
    state.epoch_seconds_sum += epoch_seconds;
    state.epoch_losses.push_back(loss);
    stats->epoch_losses.push_back(loss);
    stats->epochs_run = epoch;
    state.completed_epoch = epoch;

    double metric = 0.0;
    {
      obs::ScopedSpan eval_span("train/eval");
      metric = eval_metric();
    }
    const double samples_rate =
        epoch_seconds > 0.0
            ? static_cast<double>(dataset.train.size()) / epoch_seconds
            : 0.0;
    epochs_total->Increment();
    epoch_micros->Record(epoch_seconds * 1e6);
    epoch_loss->Set(loss);
    eval_metric_gauge->Set(metric);
    samples_per_sec->Set(samples_rate);
    // Epoch boundary: refresh the process_* gauges (peak RSS, CPU time) so
    // training artifacts and metric dumps carry the memory footprint.
    obs::SampleProcessStats();
    const bool improved = metric > state.best_metric;
    if (improved) {
      state.best_metric = metric;
      state.best_epoch = epoch;
      state.best_snapshot = store->SnapshotValues();
    }
    const bool patience_stop =
        !improved && epoch - state.best_epoch >= options.patience;
    const bool interrupted = ckpt::ShutdownRequested();
    const bool last_epoch =
        epoch == options.max_epochs || patience_stop || interrupted;

    std::string checkpoint_file;
    if (copts.enabled() &&
        (epoch % copts.interval_epochs == 0 || last_epoch)) {
      obs::ScopedSpan ckpt_span("train/checkpoint");
      checkpoint_file = publish_checkpoint();
    }
    if (jsonl != nullptr) {
      jsonl->Write(obs::JsonlRow()
                       .Add("dataset", dataset.name)
                       .Add("model", model_label)
                       .Add("epoch", epoch)
                       .Add("loss", loss)
                       .Add("eval_metric", metric)
                       .Add("epoch_seconds", epoch_seconds)
                       .Add("samples_per_sec", samples_rate));
    }
    if (options.verbose) {
      CGKGR_LOG(Info) << "train" << Kv("dataset", dataset.name)
                      << Kv("model", model_label) << Kv("epoch", epoch)
                      << Kv("loss", loss) << Kv("eval_metric", metric)
                      << Kv("samples_per_sec", samples_rate);
    }
    bool callback_stop = false;
    if (options.epoch_callback) {
      EpochEvent event;
      event.epoch = epoch;
      event.loss = loss;
      event.eval_metric = metric;
      event.epoch_seconds = epoch_seconds;
      event.improved = improved;
      event.checkpoint_file = checkpoint_file;
      callback_stop = !options.epoch_callback(event);
    }
    if (interrupted) {
      stats->interrupted = true;
      CGKGR_LOG(Info) << "training interrupted by shutdown signal"
                      << Kv("model", model_label) << Kv("epoch", epoch)
                      << Kv("checkpoint", checkpoint_file);
      break;
    }
    if (patience_stop || callback_stop) break;
  }

  if (!state.best_snapshot.empty()) store->RestoreValues(state.best_snapshot);
  stats->best_epoch = state.best_epoch;
  stats->best_eval_metric = state.best_metric;
  stats->total_seconds = total_timer.ElapsedSeconds();
  stats->seconds_per_epoch =
      stats->epochs_run > 0
          ? state.epoch_seconds_sum / static_cast<double>(stats->epochs_run)
          : 0.0;
  return Status::OK();
}

}  // namespace models
}  // namespace cgkgr
