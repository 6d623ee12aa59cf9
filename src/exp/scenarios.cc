// Scenario implementations behind exp::RunCase: one function per entry of
// ScenarioNames(), each producing labeled CaseResult rows with unit-suffixed
// metric names (the comparator's direction rules key off those suffixes) and
// wall / CPU / peak-RSS measurements bracketed by obs::ProcessStats samples.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "ckpt/io.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/cgkgr_config.h"
#include "core/cgkgr_model.h"
#include "data/corruption.h"
#include "data/dataset.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/protocol.h"
#include "eval/wilcoxon.h"
#include "exp/artifact.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "graph/knowledge_graph.h"
#include "graph/sampler.h"
#include "models/recommender.h"
#include "models/registry.h"
#include "nn/adam.h"
#include "obs/json.h"
#include "obs/process_stats.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "tensor/init.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace cgkgr {
namespace exp {

namespace {

/// Brackets one measured row: wall clock plus the CPU-seconds delta and
/// process peak RSS from obs::ProcessStats, published to the default
/// registry gauges at the closing boundary.
class RowProbe {
 public:
  RowProbe() : before_(obs::ProcessStats::Sample()) {}

  /// Stops the probe and stamps wall_seconds / cpu_seconds /
  /// peak_rss_bytes into `metrics`.
  void Finish(obs::Json* metrics) {
    const double wall = timer_.ElapsedSeconds();
    const obs::ProcessStats after = obs::SampleProcessStats();
    metrics->Set("wall_seconds", obs::Json::Double(wall));
    metrics->Set("cpu_seconds",
                 obs::Json::Double(after.CpuSeconds() - before_.CpuSeconds()));
    metrics->Set("peak_rss_bytes",
                 obs::Json::Int(after.peak_rss_bytes));
  }

  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  obs::ProcessStats before_;
  WallTimer timer_;
};

/// Seed for trial `trial` of a case seeded with `seed`.
uint64_t TrialSeed(uint64_t seed, int64_t trial) {
  return seed + 7919ULL * static_cast<uint64_t>(trial);
}

/// "/r<trial>" suffix, emitted only for multi-trial cases so the common
/// trials=1 labels stay short and stable.
std::string TrialSuffix(const CaseSpec& spec, int64_t trial) {
  return spec.trials > 1 ? StrFormat("/r%lld", static_cast<long long>(trial))
                         : std::string();
}

models::TrainOptions MakeTrainOptions(const CaseSpec& spec,
                                      const data::Preset& preset,
                                      uint64_t seed, int64_t threads) {
  models::TrainOptions train;
  train.max_epochs = spec.epochs;
  train.patience = 1000;  // never early-stop: every run sees every epoch
  train.batch_size = preset.hparams.batch_size;
  train.seed = seed;
  train.num_threads = threads;
  train.run_label = spec.model;
  return train;
}

/// train: ParallelTrainer thread sweep. Reports samples/sec per thread
/// count plus bit_identical, the determinism contract (the loss curve must
/// match the sweep's first configuration exactly).
Status RunTrainCase(const CaseSpec& spec, uint64_t seed,
                    const RunnerOptions& options,
                    std::vector<CaseResult>* rows) {
  const data::Preset preset = data::GetPreset(spec.dataset, spec.scale);
  for (int64_t trial = 0; trial < spec.trials; ++trial) {
    const uint64_t trial_seed = TrialSeed(seed, trial);
    const data::Dataset dataset =
        data::GenerateSyntheticDataset(preset.data, trial_seed);
    std::vector<double> reference_losses;
    for (const int64_t threads : spec.threads) {
      std::unique_ptr<models::RecommenderModel> model =
          models::CreateModel(spec.model, preset.hparams);
      const models::TrainOptions train =
          MakeTrainOptions(spec, preset, trial_seed, threads);

      RowProbe probe;
      CGKGR_RETURN_NOT_OK(model->Fit(dataset, train));

      const models::TrainStats& stats = model->train_stats();
      const int64_t samples =
          static_cast<int64_t>(dataset.train.size()) * stats.epochs_run;
      const bool bit_identical =
          reference_losses.empty() ||
          stats.epoch_losses == reference_losses;
      if (reference_losses.empty()) {
        reference_losses = stats.epoch_losses;
      }

      CaseResult row;
      row.label = StrFormat("train/%s/%s/t%lld", spec.model.c_str(),
                            spec.dataset.c_str(),
                            static_cast<long long>(threads)) +
                  TrialSuffix(spec, trial);
      row.scenario = "train";
      row.params.Set("model", obs::Json::Str(spec.model));
      row.params.Set("dataset", obs::Json::Str(spec.dataset));
      row.params.Set("scale", obs::Json::Double(spec.scale));
      row.params.Set("threads", obs::Json::Int(threads));
      row.params.Set("epochs", obs::Json::Int(stats.epochs_run));
      row.params.Set("trial", obs::Json::Int(trial));
      row.metrics.Set(
          "samples_per_sec",
          obs::Json::Double(static_cast<double>(samples) /
                            std::max(1e-12, probe.ElapsedSeconds())));
      row.metrics.Set("final_loss",
                      obs::Json::Double(stats.epoch_losses.empty()
                                            ? 0.0
                                            : stats.epoch_losses.back()));
      row.metrics.Set("bit_identical",
                      obs::Json::Int(bit_identical ? 1 : 0));
      probe.Finish(&row.metrics);
      if (options.verbose) {
        CGKGR_LOG(Info) << "exp.train " << row.label << Kv(
            "samples_per_sec",
            row.metrics.GetDouble("samples_per_sec", 0.0));
      }
      rows->push_back(std::move(row));
    }
  }
  return Status::OK();
}

/// serve: trains once per trial, freezes a snapshot, then sweeps
/// cache x threads over one fixed zipf-skewed request stream (half the
/// traffic on ~1/16 of users) through Engine::HandleBatch.
Status RunServeCase(const CaseSpec& spec, uint64_t seed,
                    const RunnerOptions& options,
                    std::vector<CaseResult>* rows) {
  const data::Preset preset = data::GetPreset(spec.dataset, spec.scale);
  for (int64_t trial = 0; trial < spec.trials; ++trial) {
    const uint64_t trial_seed = TrialSeed(seed, trial);
    const data::Dataset dataset =
        data::GenerateSyntheticDataset(preset.data, trial_seed);
    std::unique_ptr<models::RecommenderModel> model =
        models::CreateModel(spec.model, preset.hparams);
    CGKGR_RETURN_NOT_OK(model->Fit(
        dataset, MakeTrainOptions(spec, preset, trial_seed, /*threads=*/1)));
    auto snapshot = std::make_shared<const serve::Snapshot>(
        serve::BuildSnapshot(model.get(), dataset));

    std::vector<serve::Request> requests;
    requests.reserve(static_cast<size_t>(spec.queries));
    Rng rng(trial_seed ^ 0x5E2F);
    const uint64_t hot_users = static_cast<uint64_t>(
        std::max<int64_t>(1, snapshot->num_users / 16));
    for (int64_t q = 0; q < spec.queries; ++q) {
      serve::Request request;
      request.user =
          rng.Bernoulli(0.5)
              ? static_cast<int64_t>(rng.UniformInt(hot_users))
              : static_cast<int64_t>(rng.UniformInt(
                    static_cast<uint64_t>(snapshot->num_users)));
      request.k = spec.k;
      requests.push_back(std::move(request));
    }

    for (const bool cache : spec.cache) {
      for (const int64_t threads : spec.threads) {
        serve::EngineOptions engine_options;
        engine_options.num_threads = threads;
        engine_options.cache_capacity = cache ? 4096 : 0;
        Result<std::unique_ptr<serve::Engine>> engine =
            serve::Engine::Create(snapshot, engine_options);
        CGKGR_RETURN_NOT_OK(engine.status());

        // Untimed warmup over one batch to touch the snapshot pages.
        const size_t warm = std::min(requests.size(),
                                     static_cast<size_t>(spec.batch));
        engine.value()->HandleBatch(std::vector<serve::Request>(
            requests.begin(), requests.begin() + warm));
        engine.value()->ResetStats();

        RowProbe probe;
        for (size_t begin = 0; begin < requests.size();
             begin += static_cast<size_t>(spec.batch)) {
          const size_t end = std::min(
              requests.size(), begin + static_cast<size_t>(spec.batch));
          engine.value()->HandleBatch(std::vector<serve::Request>(
              requests.begin() + begin, requests.begin() + end));
        }
        const double seconds = probe.ElapsedSeconds();
        const serve::EngineStats stats = engine.value()->stats();

        CaseResult row;
        row.label = StrFormat("serve/%s/%s/t%lld", spec.dataset.c_str(),
                              cache ? "cache" : "nocache",
                              static_cast<long long>(threads)) +
                    TrialSuffix(spec, trial);
        row.scenario = "serve";
        row.params.Set("model", obs::Json::Str(spec.model));
        row.params.Set("dataset", obs::Json::Str(spec.dataset));
        row.params.Set("scale", obs::Json::Double(spec.scale));
        row.params.Set("threads", obs::Json::Int(threads));
        row.params.Set("cache", obs::Json::Bool(cache));
        row.params.Set("queries", obs::Json::Int(spec.queries));
        row.params.Set("batch", obs::Json::Int(spec.batch));
        row.params.Set("k", obs::Json::Int(spec.k));
        row.params.Set("trial", obs::Json::Int(trial));
        row.metrics.Set(
            "qps", obs::Json::Double(static_cast<double>(requests.size()) /
                                     std::max(1e-12, seconds)));
        row.metrics.Set("latency_p50_us",
                        obs::Json::Double(stats.p50_micros));
        row.metrics.Set("latency_p95_us",
                        obs::Json::Double(stats.p95_micros));
        row.metrics.Set("latency_p99_us",
                        obs::Json::Double(stats.p99_micros));
        row.metrics.Set("cache_hit_rate",
                        obs::Json::Double(stats.CacheHitRate()));
        probe.Finish(&row.metrics);
        if (options.verbose) {
          CGKGR_LOG(Info) << "exp.serve " << row.label
                          << Kv("qps", row.metrics.GetDouble("qps", 0.0));
        }
        rows->push_back(std::move(row));
      }
    }
  }
  return Status::OK();
}

/// serve_frontend: trains once per trial, publishes the frozen snapshot as
/// snap-000001.snap, then drives the async Frontend -> Router -> Engine
/// stack with the serve scenario's zipf stream in closed-loop waves. For
/// the "full" and "delta" reload modes a second artifact touching only the
/// upper half of the user space is published and hot-reloaded while a wave
/// is in flight, so each row captures shed accounting plus the
/// cache-survival difference between whole-cache and row-level
/// invalidation (the zipf-hot users are the low ids the delta spares).
Status RunServeFrontendCase(const CaseSpec& spec, uint64_t seed,
                            const RunnerOptions& options,
                            std::vector<CaseResult>* rows) {
  CGKGR_RETURN_NOT_OK(EnsureDirectory(options.scratch_dir));
  const data::Preset preset = data::GetPreset(spec.dataset, spec.scale);
  for (int64_t trial = 0; trial < spec.trials; ++trial) {
    const uint64_t trial_seed = TrialSeed(seed, trial);
    const data::Dataset dataset =
        data::GenerateSyntheticDataset(preset.data, trial_seed);
    std::unique_ptr<models::RecommenderModel> model =
        models::CreateModel(spec.model, preset.hparams);
    CGKGR_RETURN_NOT_OK(model->Fit(
        dataset, MakeTrainOptions(spec, preset, trial_seed, /*threads=*/1)));
    auto base = std::make_shared<const serve::Snapshot>(
        serve::BuildSnapshot(model.get(), dataset));

    // The retrained artifact published mid-stream: only the upper half of
    // the user space moves, so the hot users keep their rows — and, under
    // delta reload, their cached lists — across the reload.
    serve::Snapshot target = *base;
    for (int64_t user = base->num_users / 2; user < base->num_users;
         ++user) {
      float* row = target.scores.data() + user * target.num_items;
      for (int64_t item = 0; item < target.num_items; ++item) {
        row[item] += 1.0f;
      }
    }

    std::vector<serve::Request> requests;  // the serve scenario's stream
    requests.reserve(static_cast<size_t>(spec.queries));
    Rng rng(trial_seed ^ 0xF307);
    const uint64_t hot_users = static_cast<uint64_t>(
        std::max<int64_t>(1, base->num_users / 16));
    for (int64_t q = 0; q < spec.queries; ++q) {
      serve::Request request;
      request.user =
          rng.Bernoulli(0.5)
              ? static_cast<int64_t>(rng.UniformInt(hot_users))
              : static_cast<int64_t>(rng.UniformInt(
                    static_cast<uint64_t>(base->num_users)));
      request.k = spec.k;
      requests.push_back(std::move(request));
    }

    for (const std::string& reload : spec.reloads) {
      for (const int64_t threads : spec.threads) {
        const std::string dir =
            options.scratch_dir +
            StrFormat("/cgkgr_exp_frontend_p%lld_r%lld_%s_t%lld",
                      static_cast<long long>(::getpid()),
                      static_cast<long long>(trial), reload.c_str(),
                      static_cast<long long>(threads));
        CGKGR_RETURN_NOT_OK(EnsureDirectory(dir));
        CGKGR_RETURN_NOT_OK(
            serve::SaveSnapshot(*base, dir + "/snap-000001.snap"));

        serve::EngineOptions engine_options;
        engine_options.num_threads = threads;
        engine_options.cache_capacity = 4096;
        serve::Router router;
        CGKGR_RETURN_NOT_OK(router.AddTenant("main", base, engine_options));
        serve::Engine* engine = router.GetEngine("main");
        // Anchor the engine on snap-000001 so the mid-stream publication
        // below is picked up incrementally.
        CGKGR_RETURN_NOT_OK(engine->ReloadFromDir(dir));
        engine->ResetStats();
        const uint64_t generation_before = engine->generation();

        serve::FrontendOptions frontend_options;
        frontend_options.max_batch = spec.batch;
        frontend_options.max_queue = spec.queue_cap;
        Result<std::unique_ptr<serve::Frontend>> frontend =
            serve::Frontend::Create(&router, frontend_options);
        CGKGR_RETURN_NOT_OK(frontend.status());

        const size_t wave_size =
            static_cast<size_t>(std::min<int64_t>(spec.queue_cap, 256));
        int64_t served_ok = 0;
        int64_t mis_served = 0;  // any status besides ok/shed
        bool reloaded = false;

        RowProbe probe;
        for (size_t begin = 0; begin < requests.size();
             begin += wave_size) {
          const size_t end = std::min(requests.size(), begin + wave_size);
          std::vector<std::future<serve::Response>> wave;
          wave.reserve(end - begin);
          for (size_t i = begin; i < end; ++i) {
            wave.push_back(frontend.value()->Submit(requests[i]));
          }
          if (!reloaded && reload != "none" && end * 2 >= requests.size()) {
            // Publish while the wave is in flight: the reload races live
            // traffic exactly as it would in production.
            if (reload == "full") {
              CGKGR_RETURN_NOT_OK(
                  serve::SaveSnapshot(target, dir + "/snap-000002.snap"));
            } else {
              Result<serve::SnapshotDelta> delta =
                  serve::BuildDelta(*base, target);
              CGKGR_RETURN_NOT_OK(delta.status());
              CGKGR_RETURN_NOT_OK(serve::SaveDelta(
                  delta.value(), dir + "/snap-000002.delta"));
            }
            CGKGR_RETURN_NOT_OK(engine->ReloadFromDir(dir));
            reloaded = true;
          }
          for (std::future<serve::Response>& pending : wave) {
            const serve::Response response = pending.get();
            switch (response.status) {
              case serve::ResponseStatus::kOk:
                ++served_ok;
                break;
              case serve::ResponseStatus::kShedQueueFull:
                break;  // reported load shedding, not a drop
              default:
                ++mis_served;
                break;
            }
          }
        }
        const double seconds = probe.ElapsedSeconds();
        const serve::EngineStats engine_stats = engine->stats();
        const serve::FrontendStats frontend_stats =
            frontend.value()->stats();
        // The invariant the comparator gates on: every submission got a
        // real answer (served or shed — never lost or errored)
        // and the mid-stream publication actually installed.
        const bool all_served =
            mis_served == 0 &&
            frontend_stats.submitted ==
                static_cast<int64_t>(requests.size()) &&
            (!reloaded || engine->generation() > generation_before);

        CaseResult row;
        row.label = StrFormat("serve_frontend/%s/%s/t%lld",
                              spec.dataset.c_str(), reload.c_str(),
                              static_cast<long long>(threads)) +
                    TrialSuffix(spec, trial);
        row.scenario = "serve_frontend";
        row.params.Set("model", obs::Json::Str(spec.model));
        row.params.Set("dataset", obs::Json::Str(spec.dataset));
        row.params.Set("scale", obs::Json::Double(spec.scale));
        row.params.Set("threads", obs::Json::Int(threads));
        row.params.Set("reload", obs::Json::Str(reload));
        row.params.Set("queries", obs::Json::Int(spec.queries));
        row.params.Set("batch", obs::Json::Int(spec.batch));
        row.params.Set("k", obs::Json::Int(spec.k));
        row.params.Set("queue_cap", obs::Json::Int(spec.queue_cap));
        row.params.Set("trial", obs::Json::Int(trial));
        row.metrics.Set(
            "qps", obs::Json::Double(static_cast<double>(requests.size()) /
                                     std::max(1e-12, seconds)));
        row.metrics.Set("latency_p50_us",
                        obs::Json::Double(engine_stats.p50_micros));
        row.metrics.Set("latency_p95_us",
                        obs::Json::Double(engine_stats.p95_micros));
        row.metrics.Set("latency_p99_us",
                        obs::Json::Double(engine_stats.p99_micros));
        row.metrics.Set("cache_hit_rate",
                        obs::Json::Double(engine_stats.CacheHitRate()));
        row.metrics.Set("shed_frac",
                        obs::Json::Double(frontend_stats.ShedFraction()));
        row.metrics.Set("queue_peak",
                        obs::Json::Int(frontend_stats.queue_peak));
        row.metrics.Set("queue_wait_p99_us",
                        obs::Json::Double(frontend_stats.queue_wait_p99_us));
        row.metrics.Set("wakeup_frac",
                        obs::Json::Double(frontend_stats.WakeupFraction()));
        row.metrics.Set("served_ok", obs::Json::Int(served_ok));
        row.metrics.Set("all_served",
                        obs::Json::Int(all_served ? 1 : 0));
        probe.Finish(&row.metrics);
        if (options.verbose) {
          CGKGR_LOG(Info) << "exp.serve_frontend " << row.label
                          << Kv("qps", row.metrics.GetDouble("qps", 0.0))
                          << Kv("all_served", all_served);
        }
        rows->push_back(std::move(row));
      }
    }
  }
  return Status::OK();
}

double MedianSeconds(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

/// ckpt: checkpoint publish / open / load median latency vs embedding dim
/// (model size). Mirrors TrainOptions::checkpoint cost at interval 1.
Status RunCkptCase(const CaseSpec& spec, uint64_t seed,
                   const RunnerOptions& options,
                   std::vector<CaseResult>* rows) {
  CGKGR_RETURN_NOT_OK(EnsureDirectory(options.scratch_dir));
  const data::Preset preset = data::GetPreset(spec.dataset, spec.scale);
  for (int64_t trial = 0; trial < spec.trials; ++trial) {
    const uint64_t trial_seed = TrialSeed(seed, trial);
    const data::Dataset dataset =
        data::GenerateSyntheticDataset(preset.data, trial_seed);
    for (const int64_t dim : spec.dims) {
      data::PresetHyperParams hparams = preset.hparams;
      hparams.embedding_dim = dim;
      std::unique_ptr<models::RecommenderModel> model =
          models::CreateModel(spec.model, hparams);
      {
        data::Preset sized = preset;
        sized.hparams = hparams;
        CGKGR_RETURN_NOT_OK(model->Fit(
            dataset, MakeTrainOptions(spec, sized, trial_seed, 1)));
      }
      const std::string path =
          options.scratch_dir +
          StrFormat("/cgkgr_exp_ckpt_p%lld_d%lld.ckpt",
                    static_cast<long long>(::getpid()),
                    static_cast<long long>(dim));

      RowProbe probe;
      int64_t payload_bytes = 0;
      std::vector<double> write_s;
      std::vector<double> open_s;
      std::vector<double> load_s;
      for (int64_t rep = 0; rep < spec.reps; ++rep) {
        {
          WallTimer timer;
          CGKGR_RETURN_NOT_OK(models::SaveModelState(*model, path));
          write_s.push_back(timer.ElapsedSeconds());
        }
        {
          WallTimer timer;
          Result<ckpt::Reader> reader = ckpt::Reader::Open(path);
          if (!reader.ok()) return reader.status();
          open_s.push_back(timer.ElapsedSeconds());
          payload_bytes =
              static_cast<int64_t>(reader.value().payload().size());
        }
        {
          WallTimer timer;
          CGKGR_RETURN_NOT_OK(models::LoadModelState(model.get(), path));
          load_s.push_back(timer.ElapsedSeconds());
        }
      }
      const double write_ms = 1e3 * MedianSeconds(&write_s);
      const double open_ms = 1e3 * MedianSeconds(&open_s);
      const double mb = static_cast<double>(payload_bytes) / (1 << 20);

      CaseResult row;
      row.label = StrFormat("ckpt/%s/d%lld", spec.dataset.c_str(),
                            static_cast<long long>(dim)) +
                  TrialSuffix(spec, trial);
      row.scenario = "ckpt";
      row.params.Set("model", obs::Json::Str(spec.model));
      row.params.Set("dataset", obs::Json::Str(spec.dataset));
      row.params.Set("scale", obs::Json::Double(spec.scale));
      row.params.Set("dim", obs::Json::Int(dim));
      row.params.Set("reps", obs::Json::Int(spec.reps));
      row.params.Set("trial", obs::Json::Int(trial));
      row.metrics.Set("payload_bytes", obs::Json::Int(payload_bytes));
      row.metrics.Set("publish_ms", obs::Json::Double(write_ms));
      row.metrics.Set("open_ms", obs::Json::Double(open_ms));
      row.metrics.Set("load_ms",
                      obs::Json::Double(1e3 * MedianSeconds(&load_s)));
      row.metrics.Set(
          "write_mbps",
          obs::Json::Double(write_ms > 0.0 ? mb / (write_ms / 1e3) : 0.0));
      row.metrics.Set(
          "open_mbps",
          obs::Json::Double(open_ms > 0.0 ? mb / (open_ms / 1e3) : 0.0));
      probe.Finish(&row.metrics);
      if (options.verbose) {
        CGKGR_LOG(Info) << "exp.ckpt " << row.label
                        << Kv("publish_ms", write_ms);
      }
      rows->push_back(std::move(row));
    }
  }
  return Status::OK();
}

// --- micro_ops kernels -----------------------------------------------------
// Fixed-shape microbenchmarks of the substrate kernels. Each kernel runs
// `iters` timed iterations after one untimed warmup and reports items/sec
// plus per-iteration latency. The returned checksum defeats dead-code elimination
// and doubles as a determinism witness (recorded informationally).

tensor::Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  tensor::UniformInit(&t, &rng, -1.0f, 1.0f);
  return t;
}

struct KernelRun {
  /// Items processed per iteration (feeds items_per_sec).
  int64_t items_per_iter = 0;
  /// Anti-DCE witness accumulated across iterations.
  double checksum = 0.0;
};

using KernelFn = KernelRun (*)(int64_t iters, uint64_t seed);

KernelRun KernelGemm(int64_t iters, uint64_t seed) {
  const int64_t n = 64;
  tensor::Tensor a = RandomTensor({n, n}, seed);
  tensor::Tensor b = RandomTensor({n, n}, seed + 1);
  tensor::Tensor c({n, n});
  KernelRun run;
  run.items_per_iter = n * n * n;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::Gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                 c.data());
    if (it >= 0) run.checksum += static_cast<double>(c.data()[0]);
  }
  return run;
}

KernelRun KernelSegmentSoftmax(int64_t iters, uint64_t seed) {
  const int64_t segments = 4096;
  const int64_t width = 8;
  tensor::Tensor x = RandomTensor({segments * width}, seed);
  tensor::Tensor out({segments * width});
  KernelRun run;
  run.items_per_iter = segments * width;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::SegmentSoftmax(segments, width, x.data(), out.data());
    if (it >= 0) run.checksum += static_cast<double>(out.data()[0]);
  }
  return run;
}

KernelRun KernelGatherFwdBwd(int64_t iters, uint64_t seed) {
  const int64_t rows = 100000;
  const int64_t count = 1024;
  autograd::Variable table(RandomTensor({rows, 16}, seed), true);
  Rng rng(seed + 1);
  std::vector<int64_t> indices(static_cast<size_t>(count));
  for (auto& idx : indices) {
    idx = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(rows)));
  }
  KernelRun run;
  run.items_per_iter = count;
  for (int64_t it = -1; it < iters; ++it) {
    autograd::Variable loss =
        autograd::SumAll(autograd::Gather(table, indices));
    loss.Backward();
    table.ZeroGrad();
    if (it >= 0) run.checksum += static_cast<double>(loss.value().data()[0]);
  }
  return run;
}

KernelRun KernelRelationMatMul(int64_t iters, uint64_t seed) {
  const int64_t n = 512;
  autograd::Variable x(RandomTensor({n, 16}, seed), true);
  autograd::Variable mats(RandomTensor({8, 16, 16}, seed + 1), true);
  Rng rng(seed + 2);
  std::vector<int64_t> rels(static_cast<size_t>(n));
  for (auto& r : rels) r = static_cast<int64_t>(rng.UniformInt(8));
  KernelRun run;
  run.items_per_iter = n;
  for (int64_t it = -1; it < iters; ++it) {
    autograd::Variable loss =
        autograd::SumAll(autograd::RelationMatMul(x, rels, mats));
    loss.Backward();
    x.ZeroGrad();
    mats.ZeroGrad();
    if (it >= 0) run.checksum += static_cast<double>(loss.value().data()[0]);
  }
  return run;
}

KernelRun KernelKgAttentionScore(int64_t iters, uint64_t seed) {
  // One head of the scoring forward's guided knowledge attention at movie's
  // hop-2 shape: a 64-row slice's 256 parents with K = 4 children each,
  // d = 16, the children's relations drawn from 12 of 25 relation slots.
  const int64_t parents = 256;
  const int64_t k = 4;
  const int64_t d = 16;
  const int64_t slots = 25;
  tensor::Tensor guided = RandomTensor({parents, d}, seed);
  tensor::Tensor children = RandomTensor({parents * k, d}, seed + 1);
  tensor::Tensor matrices = RandomTensor({slots, d, d}, seed + 2);
  Rng rng(seed + 3);
  std::vector<int64_t> relations(static_cast<size_t>(parents * k));
  for (auto& r : relations) r = static_cast<int64_t>(rng.UniformInt(12));
  tensor::Tensor products({k, d});
  tensor::Tensor logits({parents * k});
  tensor::Tensor weights({parents * k});
  tensor::Tensor pooled({parents, d});
  KernelRun run;
  run.items_per_iter = parents * k;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::GroupedRelationRowDot(parents, k, d, slots, guided.data(),
                                  relations.data(), matrices.data(),
                                  children.data(), products.data(),
                                  logits.data());
    tensor::SegmentSoftmax(parents, k, logits.data(), weights.data());
    tensor::SegmentWeightedSum(parents, k, d, children.data(),
                               weights.data(), pooled.data());
    if (it >= 0) run.checksum += static_cast<double>(pooled.data()[0]);
  }
  return run;
}

KernelRun KernelNodeFlowSampling(int64_t iters, uint64_t seed) {
  Rng build_rng(seed);
  std::vector<graph::Triplet> triplets;
  triplets.reserve(20000);
  for (int64_t i = 0; i < 20000; ++i) {
    triplets.push_back({static_cast<int64_t>(build_rng.UniformInt(5000)),
                        static_cast<int64_t>(build_rng.UniformInt(10)),
                        static_cast<int64_t>(build_rng.UniformInt(5000))});
  }
  graph::KnowledgeGraph kg(5000, 10, std::move(triplets));
  std::vector<int64_t> seeds(256);
  for (auto& s : seeds) {
    s = static_cast<int64_t>(build_rng.UniformInt(5000));
  }
  Rng rng(seed + 1);
  KernelRun run;
  run.items_per_iter = static_cast<int64_t>(seeds.size());
  for (int64_t it = -1; it < iters; ++it) {
    graph::NodeFlow flow =
        graph::NeighborSampler::SampleNodeFlow(kg, seeds, /*depth=*/2,
                                               /*sample_size=*/4, &rng);
    if (it >= 0) {
      run.checksum += static_cast<double>(flow.entities.back().back());
    }
  }
  return run;
}

KernelRun KernelSegmentAttention(int64_t iters, uint64_t seed) {
  // The hot path of every attention op in the repo: softmax + weighted sum
  // over fixed-size neighbor segments, forward + backward.
  const int64_t batch = 1024;
  const int64_t segment = 8;
  autograd::Variable values(RandomTensor({batch * segment, 16}, seed), true);
  autograd::Variable logits(RandomTensor({batch * segment}, seed + 1), true);
  KernelRun run;
  run.items_per_iter = batch * segment;
  for (int64_t it = -1; it < iters; ++it) {
    autograd::Variable weights = autograd::SegmentSoftmax(logits, segment);
    autograd::Variable pooled =
        autograd::SegmentWeightedSum(values, weights, segment);
    autograd::Variable loss = autograd::SumAll(pooled);
    loss.Backward();
    values.ZeroGrad();
    logits.ZeroGrad();
    if (it >= 0) run.checksum += static_cast<double>(loss.value().data()[0]);
  }
  return run;
}

KernelRun KernelGemmTransA(int64_t iters, uint64_t seed) {
  // Backward-pass shape: dB = A^T * dC goes through the trans_a path.
  const int64_t n = 64;
  tensor::Tensor a = RandomTensor({n, n}, seed);
  tensor::Tensor b = RandomTensor({n, n}, seed + 1);
  tensor::Tensor c({n, n});
  KernelRun run;
  run.items_per_iter = n * n * n;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::Gemm(true, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                 c.data());
    if (it >= 0) run.checksum += static_cast<double>(c.data()[0]);
  }
  return run;
}

KernelRun KernelGemmTransB(int64_t iters, uint64_t seed) {
  // Backward-pass shape: dA = dC * B^T goes through the blocked
  // column-major-B path.
  const int64_t n = 64;
  tensor::Tensor a = RandomTensor({n, n}, seed);
  tensor::Tensor b = RandomTensor({n, n}, seed + 1);
  tensor::Tensor c({n, n});
  KernelRun run;
  run.items_per_iter = n * n * n;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::Gemm(false, true, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                 c.data());
    if (it >= 0) run.checksum += static_cast<double>(c.data()[0]);
  }
  return run;
}

KernelRun KernelElementwise(int64_t iters, uint64_t seed) {
  // The restrict-qualified elementwise family chained the way the autograd
  // tape chains them: mul, add, axpy, row scale.
  const int64_t rows = 1024;
  const int64_t cols = 64;
  const int64_t n = rows * cols;
  tensor::Tensor a = RandomTensor({n}, seed);
  tensor::Tensor b = RandomTensor({n}, seed + 1);
  tensor::Tensor s = RandomTensor({rows}, seed + 2);
  tensor::Tensor t1({n});
  tensor::Tensor t2({n});
  KernelRun run;
  run.items_per_iter = n;
  for (int64_t it = -1; it < iters; ++it) {
    tensor::Mul(n, a.data(), b.data(), t1.data());
    tensor::Add(n, t1.data(), a.data(), t2.data());
    tensor::Axpy(n, 0.5f, b.data(), t2.data());
    tensor::RowScale(rows, cols, t2.data(), s.data(), t1.data());
    if (it >= 0) run.checksum += static_cast<double>(t1.data()[0]);
  }
  return run;
}

KernelRun KernelAdamStep(int64_t iters, uint64_t seed) {
  const int64_t n = 65536;
  autograd::Variable param(RandomTensor({n}, seed), true);
  tensor::Tensor grads = RandomTensor({n}, seed + 1);
  nn::AdamOptions options;
  nn::AdamOptimizer optimizer({param}, options);
  KernelRun run;
  run.items_per_iter = n;
  for (int64_t it = -1; it < iters; ++it) {
    // Refill grads every iteration: Step() zeroes them in-pass.
    std::copy(grads.data(), grads.data() + n, param.grad().data());
    optimizer.Step();
    if (it >= 0) run.checksum += static_cast<double>(param.value().data()[0]);
  }
  return run;
}

KernelRun KernelServeTopK(int64_t iters, uint64_t seed) {
  // Uncached single-user top-k over a mid-size catalog; exercises the
  // engine's one-pass bounded selection and the final sort.
  const int64_t num_items = 65536;
  serve::Snapshot snapshot;
  snapshot.num_users = 1;
  snapshot.num_items = num_items;
  tensor::Tensor scores = RandomTensor({num_items}, seed);
  snapshot.scores.assign(scores.data(), scores.data() + num_items);
  snapshot.seen.resize(1);
  for (int64_t item = 0; item < num_items; item += 37) {
    snapshot.seen[0].push_back(item);
  }
  serve::EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;  // measure compute, not the cache
  serve::Engine engine(
      std::make_shared<const serve::Snapshot>(std::move(snapshot)), options);
  serve::Request request;
  request.user = 0;
  request.k = 50;
  KernelRun run;
  run.items_per_iter = num_items;
  for (int64_t it = -1; it < iters; ++it) {
    const serve::Response response = engine.Handle(request);
    if (it >= 0) {
      run.checksum += static_cast<double>(response.items.front().score);
    }
  }
  return run;
}

struct KernelEntry {
  const char* name;
  KernelFn fn;
};

constexpr KernelEntry kKernels[] = {
    {"gemm64", &KernelGemm},
    {"gemm64_tn", &KernelGemmTransA},
    {"gemm64_nt", &KernelGemmTransB},
    {"elementwise", &KernelElementwise},
    {"adam_step", &KernelAdamStep},
    {"serve_topk", &KernelServeTopK},
    {"segment_softmax", &KernelSegmentSoftmax},
    {"gather_fwd_bwd", &KernelGatherFwdBwd},
    {"relation_matmul", &KernelRelationMatMul},
    {"kg_attention_score", &KernelKgAttentionScore},
    {"node_flow_sampling", &KernelNodeFlowSampling},
    {"segment_attention", &KernelSegmentAttention},
};

Status RunMicroOpsCase(const CaseSpec& spec, uint64_t seed,
                       const RunnerOptions& options,
                       std::vector<CaseResult>* rows) {
  std::vector<std::string> wanted =
      spec.kernels.empty() ? MicroKernelNames() : spec.kernels;
  for (const std::string& name : wanted) {
    const KernelEntry* entry = nullptr;
    for (const KernelEntry& candidate : kKernels) {
      if (name == candidate.name) {
        entry = &candidate;
        break;
      }
    }
    if (entry == nullptr) {
      return Status::InvalidArgument(
          "unknown micro_ops kernel \"" + name + "\" (known: " +
          Join(MicroKernelNames(), ", ") + ")");
    }
    RowProbe probe;
    const KernelRun run = entry->fn(spec.iters, seed);
    const double seconds = probe.ElapsedSeconds();

    CaseResult row;
    row.label = std::string("micro/") + entry->name;
    row.scenario = "micro_ops";
    row.params.Set("kernel", obs::Json::Str(entry->name));
    row.params.Set("iters", obs::Json::Int(spec.iters));
    row.metrics.Set(
        "items_per_sec",
        obs::Json::Double(
            static_cast<double>(run.items_per_iter * spec.iters) /
            std::max(1e-12, seconds)));
    row.metrics.Set(
        "iter_us",
        obs::Json::Double(1e6 * seconds /
                          static_cast<double>(std::max<int64_t>(
                              1, spec.iters))));
    row.metrics.Set("checksum", obs::Json::Double(run.checksum));
    probe.Finish(&row.metrics);
    if (options.verbose) {
      CGKGR_LOG(Info) << "exp.micro " << row.label
                      << Kv("iter_us", row.metrics.GetDouble("iter_us", 0.0));
    }
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

// --- quality ---------------------------------------------------------------
// The loop every paper table shares: preset -> trial dataset (optionally
// KG-corrupted) -> each variant's Fit -> EvaluateTopK / EvaluateCtr on the
// test split -> eval::TrialAggregator. Seeds follow the historical per-table
// binaries, so a table spec reproduces their numbers exactly.

/// Top-K cutoffs of Fig. 4; Recall@20 is Table IV's headline metric.
constexpr int64_t kTopKCutoffs[] = {1, 5, 10, 20, 50, 100};

/// Users sampled per Top-K evaluation.
constexpr int64_t kQualityEvalUsers = 100;

/// Per-user mask of train+eval positives: what full-ranking test-split
/// evaluation excludes from the candidate set.
std::vector<std::vector<int64_t>> TestMask(const data::Dataset& dataset) {
  auto mask = dataset.BuildTrainPositives();
  const auto eval_pos =
      data::Dataset::BuildPositives(dataset.eval, dataset.num_users);
  for (int64_t u = 0; u < dataset.num_users; ++u) {
    auto& m = mask[static_cast<size_t>(u)];
    m.insert(m.end(), eval_pos[static_cast<size_t>(u)].begin(),
             eval_pos[static_cast<size_t>(u)].end());
    std::sort(m.begin(), m.end());
  }
  return mask;
}

Result<std::unique_ptr<models::RecommenderModel>> CreateVariant(
    const VariantSpec& variant, const data::PresetHyperParams& hparams) {
  if (variant.config.members().empty()) {
    return models::CreateModel(variant.model, hparams);
  }
  core::CgKgrConfig config = core::CgKgrConfig::FromPreset(hparams);
  CGKGR_RETURN_NOT_OK(ApplyCgKgrOverrides(variant.config, &config));
  std::unique_ptr<models::RecommenderModel> model =
      std::make_unique<core::CgKgrModel>(config, variant.label);
  return model;
}

/// Fits `variant` on `dataset` with the preset's schedule, early-stopping on
/// Recall@20 (topk) or AUC (ctr), and records its test-split metrics plus
/// seconds_per_epoch and best_epoch in `agg` under the variant's label.
/// `mask` is TestMask(dataset) for topk and unused for ctr.
Status FitAndEvaluate(const VariantSpec& variant, const data::Preset& preset,
                      int64_t epochs, bool topk, uint64_t train_seed,
                      const data::Dataset& dataset,
                      const std::vector<std::vector<int64_t>>& mask,
                      eval::TrialAggregator* agg) {
  Result<std::unique_ptr<models::RecommenderModel>> created =
      CreateVariant(variant, preset.hparams);
  CGKGR_RETURN_NOT_OK(created.status());
  models::RecommenderModel* model = created.value().get();
  models::TrainOptions train;
  train.max_epochs = epochs;
  train.patience = preset.hparams.patience;
  train.batch_size = preset.hparams.batch_size;
  train.seed = train_seed;
  train.early_stop_metric = topk ? models::EarlyStopMetric::kRecallAt20
                                 : models::EarlyStopMetric::kAuc;
  train.run_label = variant.label;
  CGKGR_RETURN_NOT_OK(model->Fit(dataset, train));

  const std::string& label = variant.label;
  if (topk) {
    eval::TopKOptions options;
    options.ks.assign(std::begin(kTopKCutoffs), std::end(kTopKCutoffs));
    options.max_users = kQualityEvalUsers;
    options.user_sample_seed = train_seed ^ 0x55AA55AA55AA55AAULL;
    const eval::TopKResult result =
        eval::EvaluateTopK(model, dataset, dataset.test, mask, options);
    for (const int64_t k : kTopKCutoffs) {
      const std::string at = StrFormat("@%lld", static_cast<long long>(k));
      agg->Add(label, "recall" + at, result.recall.at(k));
      agg->Add(label, "ndcg" + at, result.ndcg.at(k));
    }
  } else {
    Rng ctr_rng(train_seed ^ 0x1234123412341234ULL);
    const eval::CtrResult result = eval::EvaluateCtr(
        model, data::MakeCtrExamples(dataset.test, dataset.BuildAllPositives(),
                                     dataset.num_items, &ctr_rng));
    agg->Add(label, "auc", result.auc);
    agg->Add(label, "f1", result.f1);
  }
  agg->Add(label, "seconds_per_epoch", model->train_stats().seconds_per_epoch);
  agg->Add(label, "best_epoch",
           static_cast<double>(model->train_stats().best_epoch));
  return Status::OK();
}

/// quality: for each dataset, trial, corruption ratio and variant,
/// FitAndEvaluate. One row per (dataset, ratio, variant) carries each
/// metric's mean plus <metric>_std / <metric>_n; the CG-KGR row also carries
/// its <metric>_gain over the best other row on the protocol's headline
/// metrics and, with two or more trials, the Wilcoxon p-value.
Status RunQualityCase(const CaseSpec& spec, uint64_t seed,
                      const RunnerOptions& options,
                      std::vector<CaseResult>* rows) {
  const bool topk = spec.protocol == "topk";
  std::vector<std::string> metric_names;
  if (topk) {
    for (const char* family : {"recall", "ndcg"}) {
      for (const int64_t k : kTopKCutoffs) {
        metric_names.push_back(StrFormat("%s@%lld", family,
                                         static_cast<long long>(k)));
      }
    }
  } else {
    metric_names = {"auc", "f1"};
  }
  metric_names.push_back("seconds_per_epoch");
  metric_names.push_back("best_epoch");
  // The gain columns: Table IV's Recall@20 / NDCG@20, Table V's AUC / F1.
  const std::vector<std::string> gain_metrics =
      topk ? std::vector<std::string>{"recall@20", "ndcg@20"}
           : std::vector<std::string>{"auc", "f1"};

  const std::vector<std::string> datasets =
      spec.datasets.empty() ? std::vector<std::string>{spec.dataset}
                            : spec.datasets;
  // Without ratios the KG stays clean: one pass, never corrupted.
  const bool corrupt = !spec.ratios.empty();
  const std::vector<double> ratios =
      corrupt ? spec.ratios : std::vector<double>{0.0};
  for (const std::string& dataset_name : datasets) {
    const data::Preset preset = data::GetPreset(dataset_name, spec.scale);
    const int64_t epochs =
        spec.epochs > 0 ? spec.epochs : preset.hparams.max_epochs;
    std::vector<eval::TrialAggregator> aggregators(ratios.size());
    for (int64_t trial = 0; trial < spec.trials; ++trial) {
      const data::Dataset clean =
          data::GenerateSyntheticDataset(preset.data, TrialSeed(seed, trial));
      const uint64_t train_seed =
          seed + 1000003ULL * static_cast<uint64_t>(trial + 1);
      for (size_t r = 0; r < ratios.size(); ++r) {
        data::Dataset corrupted;
        if (corrupt) {
          Rng corrupt_rng(seed + 31ULL * static_cast<uint64_t>(trial) +
                          static_cast<uint64_t>(ratios[r] * 1000.0));
          corrupted =
              data::CorruptKnowledgeGraph(clean, ratios[r], &corrupt_rng);
        }
        const data::Dataset& dataset = corrupt ? corrupted : clean;
        const std::vector<std::vector<int64_t>> mask =
            topk ? TestMask(dataset) : std::vector<std::vector<int64_t>>();
        for (const VariantSpec& variant : spec.variants) {
          CGKGR_RETURN_NOT_OK(FitAndEvaluate(variant, preset, epochs, topk,
                                             train_seed, dataset, mask,
                                             &aggregators[r]));
          if (options.verbose) {
            CGKGR_LOG(Info) << "exp.quality " << Kv("dataset", dataset_name)
                            << Kv("trial", trial) << Kv("ratio", ratios[r])
                            << Kv("variant", variant.label);
          }
        }
      }
    }

    for (size_t r = 0; r < ratios.size(); ++r) {
      const eval::TrialAggregator& agg = aggregators[r];
      const std::string second = agg.BestRowExcept(gain_metrics[0], "CG-KGR");
      for (const VariantSpec& variant : spec.variants) {
        const std::string& label = variant.label;
        CaseResult row;
        row.label = "quality/" + spec.protocol + "/" + dataset_name +
                    (corrupt ? StrFormat("/r%.0f", ratios[r] * 100.0)
                             : std::string()) +
                    "/" + label;
        row.scenario = "quality";
        row.params.Set("protocol", obs::Json::Str(spec.protocol));
        row.params.Set("dataset", obs::Json::Str(dataset_name));
        row.params.Set("scale", obs::Json::Double(spec.scale));
        if (corrupt) row.params.Set("ratio", obs::Json::Double(ratios[r]));
        row.params.Set("variant", obs::Json::Str(label));
        row.params.Set("model", obs::Json::Str(variant.model));
        if (!variant.config.members().empty()) {
          row.params.Set("config", variant.config);
        }
        row.params.Set("trials", obs::Json::Int(spec.trials));
        row.params.Set("epochs", obs::Json::Int(epochs));
        for (const std::string& metric : metric_names) {
          const eval::MeanStd summary = agg.Summary(label, metric);
          row.metrics.Set(metric, obs::Json::Double(summary.mean));
          row.metrics.Set(metric + "_std", obs::Json::Double(summary.std));
          row.metrics.Set(metric + "_n",
                          obs::Json::Int(static_cast<int64_t>(
                              agg.Samples(label, metric).size())));
        }
        if (label == "CG-KGR" && !second.empty()) {
          row.params.Set("gain_vs", obs::Json::Str(second));
          for (const std::string& metric : gain_metrics) {
            const double other = agg.Summary(second, metric).mean;
            if (other == 0.0) continue;
            row.metrics.Set(
                metric + "_gain",
                obs::Json::Double((agg.Summary(label, metric).mean - other) /
                                  other));
          }
          if (spec.trials >= 2) {
            row.metrics.Set(
                gain_metrics[0] + "_p_value",
                obs::Json::Double(
                    eval::WilcoxonSignedRank(
                        agg.Samples(label, gain_metrics[0]),
                        agg.Samples(second, gain_metrics[0]))
                        .p_value));
          }
        }
        rows->push_back(std::move(row));
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> MicroKernelNames() {
  std::vector<std::string> names;
  for (const KernelEntry& entry : kKernels) names.push_back(entry.name);
  return names;
}

Status RunCase(const CaseSpec& spec, uint64_t seed,
               const RunnerOptions& options, std::vector<CaseResult>* rows) {
  CGKGR_CHECK(rows != nullptr);
  if (spec.scenario == "train") {
    return RunTrainCase(spec, seed, options, rows);
  }
  if (spec.scenario == "serve") {
    return RunServeCase(spec, seed, options, rows);
  }
  if (spec.scenario == "serve_frontend") {
    return RunServeFrontendCase(spec, seed, options, rows);
  }
  if (spec.scenario == "ckpt") {
    return RunCkptCase(spec, seed, options, rows);
  }
  if (spec.scenario == "micro_ops") {
    return RunMicroOpsCase(spec, seed, options, rows);
  }
  if (spec.scenario == "quality") {
    return RunQualityCase(spec, seed, options, rows);
  }
  return Status::InvalidArgument("unknown scenario \"" + spec.scenario +
                                 "\"");
}

}  // namespace exp
}  // namespace cgkgr
