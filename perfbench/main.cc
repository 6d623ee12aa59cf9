// perfbench: the CG-KGR loop benchmark. Runs one workload (pipeline or
// serve) and prints one JSON result line as the last line of stdout:
//
//   cgkgr_perfbench --workload pipeline --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the traced run that reports per-layer metrics. NOTES.md beside this file
// describes every workload and metric.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "loop.h"
#include "obs/process_stats.h"
#include "probes.h"
#include "serve/delta.h"
#include "traffic.h"

namespace perfbench {
namespace {

using cgkgr::Status;
using cgkgr::StrFormat;
using cgkgr::WallTimer;

/// Named metrics in insertion order, printed as the result's "metrics".
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  /// The result line. A non-finite metric, which JSON cannot carry, prints
  /// as 0 and fails a check.
  std::string Json(Tally* tally) const {
    std::string metrics;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const bool finite = std::isfinite(e.value);
      tally->Check(finite, e.name + " is finite");
      metrics += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           i == 0 ? "" : ", ", e.name.c_str(),
                           finite ? e.value : 0.0, e.unit.c_str());
    }
    return StrFormat(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {%s}}",
        tally->wrong == 0 && tally->failed == 0 ? "true" : "false",
        static_cast<long long>(tally->attempted),
        static_cast<long long>(tally->failed), metrics.c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// An end-to-end run repeats fit -> export -> quality -> traffic in rounds, so
/// every metric samples the host at several points of the run and reports
/// the median over all rounds' samples.
struct RunContext {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  int rounds = 1;
  std::string work_dir;

  /// One round's traffic: the sync client gets 30% of it, the closed loop
  /// the rest, with the round's share of the workload's publishes.
  double RoundSeconds() const {
    return seconds * spec.traffic_share / spec.rounds;
  }
  double SyncSeconds() const { return RoundSeconds() * 0.3; }
  double LoopSeconds() const { return RoundSeconds() - SyncSeconds(); }
  int64_t Publishes() const { return spec.traffic.publishes / spec.rounds; }
  std::string Path(const std::string& leaf) const {
    return work_dir + "/" + leaf;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  return static_cast<double>(
             cgkgr::obs::ProcessStats::Sample().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

/// A serving stack over a fresh directory holding `snapshot_file`.
std::unique_ptr<ServeSession> OpenSession(
    const RunContext& ctx, const std::string& dir_name,
    const std::string& snapshot_file,
    std::shared_ptr<const cgkgr::serve::Snapshot> snapshot, int64_t lanes,
    double* prep_seconds, double* warmup_seconds, Tally* tally) {
  const std::string dir = ctx.Path(dir_name);
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  const bool copied = std::filesystem::copy_file(
      snapshot_file, dir + "/snap-000001.snap", error);
  tally->Op(copied, "stage the snapshot for serving");
  auto session = std::make_unique<ServeSession>(
      ctx.spec.traffic, std::move(snapshot), dir, lanes, ctx.seed);
  const Status prepared = session->Prepare(prep_seconds);
  tally->Op(prepared.ok(), "serving stack: " + prepared.ToString());
  if (!prepared.ok()) return nullptr;
  const Status warmed = session->WarmUp(warmup_seconds);
  tally->Op(warmed.ok(), "cache warm-up: " + warmed.ToString());
  return session;
}

/// --trace 0: the end-to-end metrics, tracing off.
Report RunEndToEnd(const RunContext& ctx, Tally* tally) {
  const WorkloadSpec& spec = ctx.spec;
  const HostSample host_start = HostSample::Read();

  // Set-up, repeated: input generation and model construction.
  std::vector<double> setup_inputs;
  cgkgr::data::Dataset dataset;
  for (int round = 0; round < 7; ++round) {
    WallTimer timer;
    dataset = GenerateInputs(spec, ctx.seed);
    const auto model = Construct(spec);
    setup_inputs.push_back(timer.ElapsedSeconds());
  }

  const std::string export_path = ctx.Path("export.snap");
  FitResult first_fit;
  Quality first_quality;
  uint64_t first_fingerprint = 0;
  std::vector<double> epoch_seconds;
  std::vector<double> gap_seconds;
  std::vector<double> export_seconds;
  std::vector<double> setup_serving;
  std::vector<double> sync_latency_us;
  std::vector<double> loop_qps;
  std::vector<double> visible_ms;
  std::unique_ptr<ServeSession> session;
  for (int round = 0; round < ctx.rounds; ++round) {
    FitResult fit =
        Fit(spec, dataset, spec.train_lanes, ctx.Path("ckpt"), tally);
    const ExportResult exported =
        Export(fit.model.get(), dataset, export_path, tally);
    const Quality quality =
        EvaluateQuality(*exported.snapshot, dataset, tally);
    const uint64_t fingerprint =
        cgkgr::serve::SnapshotFingerprint(*exported.snapshot);
    epoch_seconds.insert(epoch_seconds.end(), fit.epoch_seconds.begin(),
                         fit.epoch_seconds.end());
    gap_seconds.insert(gap_seconds.end(), fit.gap_seconds.begin(),
                       fit.gap_seconds.end());
    export_seconds.push_back(exported.build_seconds + exported.save_seconds);
    if (round == 0) {
      // Serving set-up, repeated: stack construction, snapshot load and
      // cache warm-up. The last stack serves every round's traffic.
      for (int setup = 0; setup < 5; ++setup) {
        if (session != nullptr) tally->Merge(session->tally());
        double prep = 0.0;
        double warmup = 0.0;
        session.reset();
        session = OpenSession(ctx, "serve", export_path, exported.snapshot,
                              1, &prep, &warmup, tally);
        if (session == nullptr) break;
        setup_serving.push_back(prep + warmup);
      }
      first_quality = quality;
      first_fingerprint = fingerprint;
      first_fit = std::move(fit);
    } else {
      // Training is deterministic: every round must reproduce round 0.
      tally->Check(fit.best_eval == first_fit.best_eval &&
                       fit.epochs_to_target == first_fit.epochs_to_target,
                   "retraining reproduces eval AUC");
      tally->Check(fingerprint == first_fingerprint &&
                       quality.recall_at_20 == first_quality.recall_at_20 &&
                       quality.ndcg_at_20 == first_quality.ndcg_at_20,
                   "re-export reproduces the snapshot and its quality");
    }
    if (session == nullptr) continue;
    const SyncResult sync = session->RunSync(ctx.SyncSeconds());
    sync_latency_us.insert(sync_latency_us.end(), sync.latency_us.begin(),
                           sync.latency_us.end());
    const ClosedLoopResult loop =
        session->RunClosedLoop(ctx.LoopSeconds(), ctx.Publishes());
    loop_qps.insert(loop_qps.end(), loop.window_qps.begin(),
                    loop.window_qps.end());
    visible_ms.insert(visible_ms.end(), loop.visible_ms.begin(),
                      loop.visible_ms.end());
  }
  if (session != nullptr) {
    session->VerifySamples();
    tally->Merge(session->tally());
  }
  const HostShare host = HostBetween(host_start, HostSample::Read());
  std::fprintf(stderr,
               "host: steal_frac=%.4f cpu_pressure_frac=%.4f "
               "setup_inputs_s=%.4f setup_serving_s=%.4f "
               "epochs_to_target=%lld\n",
               host.steal_frac, host.cpu_pressure_frac, Median(setup_inputs),
               Median(setup_serving),
               static_cast<long long>(first_fit.epochs_to_target));

  const int64_t target_epochs =
      first_fit.epochs_to_target > 0
          ? first_fit.epochs_to_target
          : static_cast<int64_t>(first_fit.epoch_seconds.size());
  Report report;
  report.Add("setup_s", Median(setup_inputs) + Median(setup_serving), "s");
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  report.Add("train_samples_per_s",
             Ratio(static_cast<double>(first_fit.train_rows),
                   Median(epoch_seconds)),
             "samples/s");
  report.Add("train_to_target_s",
             static_cast<double>(target_epochs) * Median(gap_seconds), "s");
  report.Add("eval_auc", first_fit.best_eval, "ratio");
  report.Add("export_s", Median(export_seconds), "s");
  report.Add("recall_at_20", first_quality.recall_at_20, "ratio");
  report.Add("ndcg_at_20", first_quality.ndcg_at_20, "ratio");
  report.Add("serve_qps", Median(loop_qps), "req/s");  // over windows
  report.Add("serve_p50_us", Median(sync_latency_us), "us");
  report.Add("reload_visible_ms", Median(visible_ms), "ms");
  return report;
}

/// Traced fit: per-epoch self time of the program's `train/*` spans and the
/// trainer's registry counters. Returns the fit, whose model is exported
/// next.
FitResult TraceTraining(const RunContext& ctx,
                        const cgkgr::data::Dataset& dataset, Report* report,
                        Tally* tally) {
  const int64_t lanes = ctx.spec.train_lanes;
  const cgkgr::obs::Labels train_pool = {{"pool", "train"}};
  const int64_t busy_before =
      CounterValue("threadpool_busy_micros_total", train_pool);
  const int64_t ckpt_bytes_before = CounterValue("ckpt_write_bytes_total");
  const int64_t ckpt_writes_before = CounterValue("ckpt_writes_total");
  const cgkgr::obs::HistogramSnapshot imbalance_before =
      cgkgr::obs::MetricsRegistry::Default()
          .GetHistogram("train_shard_imbalance_micros")
          ->Snapshot();
  FitResult fit = Fit(ctx.spec, dataset, lanes, ctx.Path("ckpt"), tally);
  SpanTable spans;
  spans.Drain();

  const double epochs =
      std::max<double>(1.0, static_cast<double>(fit.epoch_seconds.size()));
  double train_seconds = 0.0;
  for (const double s : fit.epoch_seconds) train_seconds += s;
  auto per_epoch_self_ms = [&](const char* span) {
    return spans.Get(span).self_us / epochs * 1e-3;
  };
  report->Add("models.epoch_train_s", Median(fit.epoch_seconds), "s");
  report->Add("graph.sample_ms", per_epoch_self_ms("train/sample"), "ms");
  report->Add("core.forward_ms", per_epoch_self_ms("train/forward"), "ms");
  report->Add("autograd.backward_ms", per_epoch_self_ms("train/backward"),
              "ms");
  report->Add("models.negatives_ms", per_epoch_self_ms("train/negatives"),
              "ms");
  report->Add("models.reduce_ms", per_epoch_self_ms("train/reduce"), "ms");
  report->Add("nn.adam_ms", per_epoch_self_ms("train/adam"), "ms");
  report->Add("models.shard_imbalance_us",
              HistogramMedianSince("train_shard_imbalance_micros",
                                   imbalance_before),
              "us");
  report->Add(
      "common.train_busy_frac",
      Ratio(static_cast<double>(
                CounterValue("threadpool_busy_micros_total", train_pool) -
                busy_before),
            train_seconds * 1e6 * static_cast<double>(lanes)),
      "ratio");
  report->Add("models.cpu_per_wall", Ratio(fit.cpu_seconds, fit.wall_seconds),
              "ratio");
  report->Add("eval.epoch_eval_ms", spans.Get("train/eval").MeanUs() * 1e-3,
              "ms");
  report->Add("ckpt.publish_ms",
              spans.Get("train/checkpoint").MeanUs() * 1e-3, "ms");
  report->Add(
      "ckpt.bytes",
      Ratio(static_cast<double>(CounterValue("ckpt_write_bytes_total") -
                                ckpt_bytes_before),
            static_cast<double>(CounterValue("ckpt_writes_total") -
                                ckpt_writes_before)),
      "B");
  report->Add("models.epochs_to_target",
              static_cast<double>(fit.epochs_to_target), "count");
  return fit;
}

/// Traced export and quality, from the benchmark's own spans.
ExportResult TraceExport(const RunContext& ctx, FitResult* fit,
                         const cgkgr::data::Dataset& dataset,
                         Quality* quality, Report* report, Tally* tally) {
  ExportResult exported =
      Export(fit->model.get(), dataset, ctx.Path("export.snap"), tally);
  *quality = EvaluateQuality(*exported.snapshot, dataset, tally);
  SpanTable spans;
  spans.Drain();
  const double build_us = spans.Get("bench/serve.build_snapshot").MeanUs();
  report->Add("serve.snapshot_build_s", build_us * 1e-6, "s");
  report->Add("core.score_pair_us",
              Ratio(build_us, static_cast<double>(exported.pairs)), "us");
  report->Add("serve.snapshot_save_ms",
              spans.Get("bench/serve.save_snapshot").MeanUs() * 1e-3, "ms");
  report->Add("serve.snapshot_bytes", static_cast<double>(exported.bytes),
              "B");
  report->Add("eval.quality_ms",
              spans.Get("bench/eval.quality").MeanUs() * 1e-3, "ms");
  return exported;
}

/// Traced serving: set-up, a sync client and a closed loop with publishes,
/// attributed from the benchmark's `bench/serve.*` spans, the engine's
/// `serve/*` spans and the engine and frontend counters. Returns the
/// closed loop's qps.
double TraceServing(ServeSession* session, double sync_seconds,
                    double loop_seconds, int64_t publishes, Report* report) {
  SpanTable prep_spans;
  prep_spans.Drain();
  report->Add("serve.snapshot_prep_s",
              prep_spans.Get("bench/serve.prep").MeanUs() * 1e-6, "s");
  report->Add("serve.warmup_s",
              prep_spans.Get("bench/serve.warmup").MeanUs() * 1e-6, "s");

  const SyncResult sync = session->RunSync(sync_seconds);
  SpanTable sync_spans;
  sync_spans.Drain();
  const SpanStat& request = sync_spans.Get("serve/request");
  report->Add("serve.submit_us",
              sync_spans.Get("bench/serve.submit").MeanUs(), "us");
  report->Add("serve.engine_request_us", request.MeanSelfUs(), "us");
  report->Add("serve.rank_us", sync_spans.Get("serve/rank").MeanSelfUs(),
              "us");
  report->Add("serve.merge_us", sync_spans.Get("serve/merge").MeanSelfUs(),
              "us");
  report->Add("serve.outside_engine_us",
              Mean(sync.latency_us) - request.MeanUs(), "us");
  report->Add("serve.sync_p99_us", Quantile(sync.latency_us, 0.99), "us");
  report->Add("serve.sync_samples",
              static_cast<double>(sync.latency_us.size()), "count");

  const ClosedLoopResult loop = session->RunClosedLoop(loop_seconds,
                                                       publishes);
  SpanTable loop_spans;
  loop_spans.Drain();
  const PhaseCounters& c = loop.counters;
  auto ratio = [](int64_t num, int64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  report->Add("serve.cache_hit_ratio", ratio(c.cache_hits, c.cache_lookups),
              "ratio");
  report->Add("serve.cache_hits", static_cast<double>(c.cache_hits),
              "count");
  report->Add("serve.cache_lookups", static_cast<double>(c.cache_lookups),
              "count");
  report->Add("serve.computes_per_req", ratio(c.computes, c.requests),
              "ratio");
  report->Add("serve.coalesced_frac", ratio(c.coalesced, c.requests),
              "ratio");
  report->Add("serve.batch_mean", ratio(c.completed, c.batches), "count");
  report->Add("serve.queue_peak", static_cast<double>(c.queue_peak),
              "count");
  auto span_ms = [&](const char* span) {
    return loop_spans.Get(span).MeanUs() * 1e-3;
  };
  report->Add("serve.delta_build_ms", span_ms("bench/serve.delta_build"),
              "ms");
  report->Add("serve.delta_save_ms", span_ms("bench/serve.delta_save"),
              "ms");
  report->Add("serve.reload_apply_ms", span_ms("bench/serve.reload"), "ms");
  report->Add("serve.visible_wait_ms", Median(loop.visible_after_reload_ms),
              "ms");
  report->Add("serve.delta_rows", Median(loop.delta_rows), "count");
  return loop.qps;
}

/// Lane sweep (informational): the median epoch at 1, 2 and 4 training
/// lanes. Each other lane count trains, exports and scores again, and its
/// quality must equal the workload's own lane count's exactly.
void SweepLanes(const RunContext& ctx, const cgkgr::data::Dataset& dataset,
                const FitResult& fit, const Quality& quality, Report* report,
                Tally* tally) {
  for (const int64_t lanes : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    const std::string metric = StrFormat("models.epoch_train_s.lanes%lld",
                                         static_cast<long long>(lanes));
    if (lanes == ctx.spec.train_lanes) {
      report->Add(metric, Median(fit.epoch_seconds), "s");
      continue;
    }
    const FitResult swept =
        Fit(ctx.spec, dataset, lanes, ctx.Path("ckpt"), tally);
    const ExportResult swept_export =
        Export(swept.model.get(), dataset, ctx.Path("sweep.snap"), tally);
    const Quality swept_quality =
        EvaluateQuality(*swept_export.snapshot, dataset, tally);
    const std::string at =
        StrFormat(" equal at %lld lanes", static_cast<long long>(lanes));
    tally->Check(swept.best_eval == fit.best_eval, "eval_auc" + at);
    tally->Check(swept_quality.recall_at_20 == quality.recall_at_20,
                 "recall_at_20" + at);
    tally->Check(swept_quality.ndcg_at_20 == quality.ndcg_at_20,
                 "ndcg_at_20" + at);
    report->Add(metric, Median(swept.epoch_seconds), "s");
  }
}

/// --trace 1: per-layer metrics from the benchmark's own spans around each
/// layer call plus the program's spans and registry counters, the tracing
/// overhead, a lane sweep and an open-loop phase.
Report RunTraced(const RunContext& ctx, Tally* tally) {
  const WorkloadSpec& spec = ctx.spec;
  const HostSample host_start = HostSample::Read();
  Report report;

  // Untraced reference for the tracing overhead: the second of two fits,
  // since the first fit in a process runs slower while the allocator warms.
  cgkgr::data::Dataset dataset = GenerateInputs(spec, ctx.seed);
  double untraced_train = 0.0;
  for (int warm = 0; warm < 2; ++warm) {
    untraced_train = Fit(spec, dataset, spec.train_lanes, ctx.Path("ckpt"),
                         tally)
                         .SamplesPerSecond();
  }

  SetTracing(true);
  SpanTable().Drain();  // start from an empty collector
  SpanTable setup_spans;
  for (int round = 0; round < 3; ++round) {
    dataset = GenerateInputs(spec, ctx.seed);
  }
  setup_spans.Drain();
  report.Add("data.generate_s",
             setup_spans.Get("bench/data.generate").MeanUs() * 1e-6, "s");
  FitResult fit = TraceTraining(ctx, dataset, &report, tally);
  const double train_overhead =
      1.0 - Ratio(fit.SamplesPerSecond(), untraced_train);
  Quality quality;
  const ExportResult exported =
      TraceExport(ctx, &fit, dataset, &quality, &report, tally);

  // Each traffic phase lasts half an end-to-end round, at the same publish
  // cadence. That keeps the engine thread's spans far below the per-thread
  // trace buffer cap.
  const double sync_seconds = ctx.SyncSeconds() / 2;
  const double loop_seconds = ctx.LoopSeconds() / 2;
  const int64_t publishes = std::max<int64_t>(1, ctx.Publishes() / 2);
  const std::string export_path = ctx.Path("export.snap");
  double prep = 0.0;
  double warmup = 0.0;
  std::unique_ptr<ServeSession> session = OpenSession(
      ctx, "serve", export_path, exported.snapshot, 1, &prep, &warmup, tally);
  double traced_qps = 0.0;
  if (session != nullptr) {
    traced_qps = TraceServing(session.get(), sync_seconds, loop_seconds,
                              publishes, &report);
  }
  SetTracing(false);
  SpanTable().Drain();
  const int64_t dropped = CounterValue("obs_trace_dropped_spans_total");
  tally->Check(dropped == 0, "no trace span dropped");

  double untraced_qps = 0.0;
  OpenLoopResult open;
  if (session != nullptr) {
    untraced_qps = session->RunClosedLoop(loop_seconds, publishes).qps;
    open = session->RunOpenLoop(sync_seconds, spec.traffic.open_rate_qps);
    session->VerifySamples();
    tally->Merge(session->tally());
    session.reset();
  }
  report.Add("serve.open_p50_us", Median(open.latency_us), "us");
  report.Add("serve.open_p99_us", Quantile(open.latency_us, 0.99), "us");
  report.Add("serve.open_slo_frac",
             Ratio(static_cast<double>(open.within_slo),
                   static_cast<double>(open.attempted)),
             "ratio");
  report.Add("serve.open_late_ms", open.max_late_ms, "ms");
  report.Add("serve.open_samples", static_cast<double>(open.latency_us.size()),
             "count");

  double lanes2_qps = 0.0;
  std::unique_ptr<ServeSession> lanes2 = OpenSession(
      ctx, "serve2", export_path, exported.snapshot, 2, &prep, &warmup, tally);
  if (lanes2 != nullptr) {
    lanes2_qps = lanes2->RunClosedLoop(loop_seconds, publishes).qps;
    lanes2->VerifySamples();
    tally->Merge(lanes2->tally());
    lanes2.reset();
  }
  report.Add("serve.qps.lanes2", lanes2_qps, "req/s");
  SweepLanes(ctx, dataset, fit, quality, &report, tally);

  const HostShare host = HostBetween(host_start, HostSample::Read());
  const double serve_overhead = 1.0 - Ratio(traced_qps, untraced_qps);
  report.Add("host.steal_frac", host.steal_frac, "ratio");
  report.Add("host.cpu_pressure_frac", host.cpu_pressure_frac, "ratio");
  report.Add("trace.overhead_frac", std::max(train_overhead, serve_overhead),
             "ratio");
  report.Add("trace.train_overhead_frac", train_overhead, "ratio");
  report.Add("trace.serve_overhead_frac", serve_overhead, "ratio");
  report.Add("trace.dropped_spans", static_cast<double>(dropped), "count");
  return report;
}

int Main(int argc, char** argv) {
  cgkgr::FlagParser flags;
  flags.DefineString("workload", "", "pipeline | serve");
  flags.DefineString("seed", "1", "input seed (unsigned integer)");
  flags.DefineDouble("seconds", 10.0, "run length scale (traffic budget)");
  flags.DefineInt64("trace", 0, "0: end-to-end metrics, 1: traced run");
  flags.DefineString("work_dir", ".bench_work",
                     "scratch directory for checkpoints and snapshots");
  flags.DefineBool("short", false,
                   "self-test mode: one round of at most 3 training epochs");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return parsed.ok() ? 0 : 2;
  }
  cgkgr::Result<WorkloadSpec> spec = FindWorkload(flags.GetString("workload"));
  const std::string& seed_text = flags.GetString("seed");
  uint64_t seed = 0;
  const auto [seed_end, seed_error] = std::from_chars(
      seed_text.data(), seed_text.data() + seed_text.size(), seed);
  if (!spec.ok() || seed_error != std::errc() ||
      seed_end != seed_text.data() + seed_text.size() ||
      flags.GetDouble("seconds") <= 0.0) {
    std::fprintf(stderr, "bad arguments: %s\n",
                 spec.ok() ? "--seed / --seconds"
                           : spec.status().ToString().c_str());
    return 2;
  }
  RunContext ctx;
  ctx.spec = std::move(spec).value();
  ctx.rounds = ctx.spec.rounds;
  if (flags.GetBool("short")) {
    ctx.spec.epochs = std::min<int64_t>(ctx.spec.epochs, 3);
    ctx.rounds = 1;
  }
  ctx.seed = seed;
  ctx.seconds = flags.GetDouble("seconds");
  ctx.work_dir = StrFormat("%s/%s-%d", flags.GetString("work_dir").c_str(),
                           ctx.spec.name.c_str(), static_cast<int>(getpid()));
  std::error_code error;
  std::filesystem::create_directories(ctx.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.work_dir.c_str(),
                 error.message().c_str());
    return 2;
  }

  Tally tally;
  const Report report = flags.GetInt64("trace") != 0
                            ? RunTraced(ctx, &tally)
                            : RunEndToEnd(ctx, &tally);
  std::filesystem::remove_all(ctx.work_dir, error);
  const std::string result = report.Json(&tally);
  for (const std::string& note : tally.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
