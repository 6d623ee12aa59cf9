// Serving-plane demo: train a model on a small preset, freeze it into a
// score snapshot on disk, then stand up the full online stack — a Router
// hosting the snapshot as a tenant, an async Frontend micro-batching
// admissions in front of it — and hot-publish a *delta* snapshot while
// traffic flows. Model code never runs on the request path. Exits 1 when
// no query is served or the hot reload or the delta publish fails.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_serve_topk --preset music --model CG-KGR
//
//   --threads 4        serve with 4 lanes
//   --snapshot <path>  where to persist the frozen scores (the hot-reload
//                      demo publishes into <path>.d/)
//   --metrics          print the process metrics registry at exit
//
// With CGKGR_TRACE=trace.json in the environment, the whole run (training
// epochs with sample/forward/backward phases, serve requests with
// rank/merge) is exported as Chrome trace-event JSON loadable in Perfetto.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/presets.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/delta.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  using namespace cgkgr;

  FlagParser flags;
  flags.DefineString("preset", "music",
                     "dataset preset: music|book|movie|restaurant");
  flags.DefineString("model", "CG-KGR", "registry model to train and freeze");
  flags.DefineInt64("epochs", 6, "training epochs before the freeze");
  flags.DefineInt64("seed", 1, "random seed");
  flags.DefineDouble("scale", 1.0, "dataset scale factor");
  flags.DefineInt64("threads", 4, "serving lanes");
  flags.DefineInt64("queries", 2000, "demo queries to serve");
  flags.DefineString("snapshot", "/tmp/cgkgr_demo.snapshot",
                     "snapshot file path");
  flags.DefineBool("metrics", false,
                   "print the process metrics registry at exit");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  // 1. Train on a laptop-scale preset (the offline half of the system).
  const data::Preset preset =
      data::GetPreset(flags.GetString("preset"), flags.GetDouble("scale"));
  const data::Dataset dataset = data::GenerateSyntheticDataset(
      preset.data, static_cast<uint64_t>(flags.GetInt64("seed")));
  auto model = models::CreateModel(flags.GetString("model"), preset.hparams);
  models::TrainOptions train;
  train.max_epochs = flags.GetInt64("epochs");
  train.patience = preset.hparams.patience;
  train.batch_size = preset.hparams.batch_size;
  train.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  train.early_stop_metric = models::EarlyStopMetric::kRecallAt20;
  train.run_label = flags.GetString("model");
  std::printf("training %s on %s (%lld users, %lld items)...\n",
              model->name().c_str(), dataset.name.c_str(),
              (long long)dataset.num_users, (long long)dataset.num_items);
  st = model->Fit(dataset, train);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Freeze the trained model into a snapshot and persist it.
  WallTimer timer;
  serve::Snapshot snapshot = serve::BuildSnapshot(model.get(), dataset);
  std::printf("snapshot built in %.2f s (%lld x %lld scores)\n",
              timer.ElapsedSeconds(), (long long)snapshot.num_users,
              (long long)snapshot.num_items);
  const std::string path = flags.GetString("snapshot");
  st = serve::SaveSnapshot(snapshot, path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. A serving process would start here: load the snapshot (no model
  // code), host it behind a Router tenant, and put the async Frontend's
  // admission queue in front.
  Result<serve::Snapshot> loaded = serve::LoadSnapshot(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  serve::EngineOptions options;
  options.num_threads = flags.GetInt64("threads");
  serve::Router router;
  st = router.AddTenant("main",
                        std::make_shared<const serve::Snapshot>(
                            std::move(loaded).value()),
                        options);
  if (!st.ok()) {
    std::fprintf(stderr, "tenant failed: %s\n", st.ToString().c_str());
    return 1;
  }
  serve::FrontendOptions admission;
  admission.max_batch = 64;
  admission.max_queue = 4096;
  Result<std::unique_ptr<serve::Frontend>> frontend =
      serve::Frontend::Create(&router, admission);
  if (!frontend.ok()) {
    std::fprintf(stderr, "frontend failed: %s\n",
                 frontend.status().ToString().c_str());
    return 1;
  }

  // 4. Show a few recommendation lists through the unified Request API.
  for (int64_t user = 0; user < std::min<int64_t>(3, dataset.num_users);
       ++user) {
    serve::Request request;
    request.user = user;
    request.k = 5;
    const serve::Response response = router.Handle(request);
    std::printf("user %lld top-5:", (long long)user);
    for (const serve::ScoredItem& rec : response.items) {
      std::printf("  item %lld (%.3f)", (long long)rec.item, rec.score);
    }
    std::printf("\n");
  }

  // 5. Serve a demo workload through the Frontend: producers Submit() and
  // block on futures while the dispatcher coalesces the queue into
  // micro-batches. Repeats make the LRU cache earn hits.
  const int64_t num_queries = flags.GetInt64("queries");
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")) ^ 0xC0FFEE);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(static_cast<size_t>(num_queries));
  timer.Restart();
  for (int64_t q = 0; q < num_queries; ++q) {
    // Zipf-ish skew: half the traffic hits a small head of hot users.
    const int64_t user =
        rng.Bernoulli(0.5)
            ? static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(std::max<int64_t>(
                      1, dataset.num_users / 16))))
            : static_cast<int64_t>(rng.UniformInt(
                  static_cast<uint64_t>(dataset.num_users)));
    serve::Request request;
    request.user = user;
    request.k = 20;
    futures.push_back(frontend.value()->Submit(std::move(request)));
  }
  int64_t served = 0;
  for (std::future<serve::Response>& future : futures) {
    if (future.get().ok()) ++served;
  }
  const double seconds = timer.ElapsedSeconds();
  std::printf("served %lld/%lld queries in %.3f s (%.0f queries/s, %lld lanes)\n",
              (long long)served, (long long)num_queries, seconds,
              static_cast<double>(num_queries) / seconds,
              (long long)options.num_threads);

  // 6. Hot-reload: a trainer publishes numbered snapshots into a watched
  // directory (atomic rename, so a reader never sees a torn file) and the
  // engine picks up the newest valid one. A half-written file is skipped
  // with a logged warning — corruption never takes the engine down. The
  // watch directory starts empty, so every run publishes the same timeline.
  serve::Engine* engine = router.GetEngine("main");
  const std::string watch_dir = path + ".d";
  std::error_code ec;
  std::filesystem::remove_all(watch_dir, ec);
  std::filesystem::create_directories(watch_dir, ec);
  st = serve::SaveSnapshot(snapshot, watch_dir + "/snap-000001.snap");
  if (st.ok()) {
    { std::ofstream torn(watch_dir + "/snap-000002.snap"); torn << "CGKG"; }
    st = engine->ReloadFromDir(watch_dir);
  }
  const bool reloaded = st.ok() && engine->stats().snapshot_reloads == 1;
  std::printf("hot-reload from %s: %s (reloads=%lld)\n", watch_dir.c_str(),
              reloaded  ? "picked newest valid snapshot"
              : st.ok() ? "installed nothing"
                        : st.ToString().c_str(),
              (long long)engine->stats().snapshot_reloads);

  // 7. Delta publish: an online updater that only moved some users ships
  // the changed rows as a `.delta` — a fraction of the full snapshot's
  // bytes — and only those users' cached lists are invalidated on apply.
  // ReloadFromDir skips an inapplicable delta and still returns OK, so the
  // delta reload count tells whether it was applied.
  serve::Snapshot updated = snapshot;
  for (int64_t user = 0; user < updated.num_users; user += 7) {
    for (int64_t item = 0; item < updated.num_items; ++item) {
      updated.scores[static_cast<size_t>(user * updated.num_items + item)] +=
          0.01f;
    }
  }
  Result<serve::SnapshotDelta> delta = serve::BuildDelta(snapshot, updated);
  st = delta.status();
  if (st.ok()) {
    st = serve::SaveDelta(delta.value(), watch_dir + "/snap-000003.delta");
  }
  if (st.ok()) st = engine->ReloadFromDir(watch_dir);
  const bool delta_applied =
      st.ok() && engine->stats().snapshot_delta_reloads == 1;
  std::printf("delta publish (%zu/%lld users changed): %s "
              "(delta reloads=%lld, generation=%llu)\n",
              delta.ok() ? delta.value().rows.size() : size_t{0},
              (long long)updated.num_users,
              delta_applied ? "applied with row-level cache invalidation"
              : st.ok()     ? "skipped"
                            : st.ToString().c_str(),
              (long long)engine->stats().snapshot_delta_reloads,
              (unsigned long long)engine->generation());

  // 8. Serving counters: per-engine scoring/cache stats and the
  // frontend's admission stats.
  std::printf("%s", engine->stats().ToTable().c_str());
  std::printf("%s", frontend.value()->stats().ToTable().c_str());

  // 9. Whole-process telemetry: every instrument (trainer, serve engine,
  // LRU cache, thread pool) that accumulated during the run.
  if (flags.GetBool("metrics")) {
    std::printf("\n== metrics registry ==\n%s",
                obs::MetricsRegistry::Default().ToTable().c_str());
  }
  if (obs::TraceCollector::IsEnabled()) {
    std::printf("trace spans will be written to %s at exit\n",
                obs::TraceCollector::Default().output_path().c_str());
  }
  if (served == 0 || !reloaded || !delta_applied) {
    std::fprintf(stderr, "serve demo failed: %lld queries served, hot "
                 "reload %s, delta publish %s\n", (long long)served,
                 reloaded ? "ok" : "failed",
                 delta_applied ? "ok" : "failed");
    return 1;
  }
  return 0;
}
