// Tests for the unified experiment harness: the obs::Json library the
// artifacts are built from, spec parsing, the schema-v1 artifact
// writer/validator, process-stats sampling, the perf-regression comparator
// behind tools/bench_compare, and the quality scenario the paper-table
// specs run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cgkgr_config.h"
#include "exp/artifact.h"
#include "exp/compare.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"

namespace cgkgr {
namespace {

// ---------------------------------------------------------------------------
// obs::Json

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");
  EXPECT_EQ(obs::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonTest, RoundTripsHostileStrings) {
  // The hand-rolled concatenation this library replaced emitted invalid
  // JSON for exactly these: quotes, backslashes (paths), control chars.
  const std::vector<std::string> hostile = {
      "music \"deluxe\" edition", "C:\\tmp\\bench",
      "line1\nline2\ttabbed",     std::string("nul\x01\x1f", 5),
      "unicode \xc3\xa9 passthrough"};
  for (const std::string& text : hostile) {
    obs::Json doc = obs::Json::Object();
    doc.Set("key with \"quotes\"", obs::Json::Str(text));
    Result<obs::Json> parsed = obs::Json::Parse(doc.Dump());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const obs::Json* value = parsed.value().Get("key with \"quotes\"");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value->AsString(), text);
  }
}

TEST(JsonTest, PreservesIntsAndInsertionOrder) {
  obs::Json doc = obs::Json::Object();
  doc.Set("zebra", obs::Json::Int(INT64_C(9007199254740993)));
  doc.Set("alpha", obs::Json::Double(0.5));
  doc.Set("mid", obs::Json::Bool(true));
  Result<obs::Json> parsed = obs::Json::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Not alphabetized: order is insertion order, so artifacts diff cleanly.
  const auto& members = parsed.value().members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "zebra");
  EXPECT_EQ(members[1].first, "alpha");
  // A 2^53+1 integer survives exactly (doubles could not represent it).
  EXPECT_TRUE(members[0].second.is_int());
  EXPECT_EQ(members[0].second.AsInt(), INT64_C(9007199254740993));
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(obs::Json::Parse("{").ok());
  EXPECT_FALSE(obs::Json::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::Json::Parse("{'single': 1}").ok());
  EXPECT_FALSE(obs::Json::Parse("[1, 2,]").ok());
}

// ---------------------------------------------------------------------------
// exp::ParseSpec

TEST(SpecTest, ParsesFullSpec) {
  Result<exp::ExperimentSpec> spec = exp::ParseSpecString(R"({
    "name": "unit",
    "seed": 99,
    "cases": [
      {"scenario": "train", "model": "BPRMF", "dataset": "music",
       "threads": [1, 2], "epochs": 1},
      {"scenario": "micro_ops", "iters": 5, "kernels": "gemm64"}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().name, "unit");
  EXPECT_EQ(spec.value().seed, 99u);
  ASSERT_EQ(spec.value().cases.size(), 2u);
  EXPECT_EQ(spec.value().cases[0].threads, (std::vector<int64_t>{1, 2}));
  // Scalar-or-array: a bare string is accepted for list-valued keys.
  EXPECT_EQ(spec.value().cases[1].kernels,
            (std::vector<std::string>{"gemm64"}));
}

TEST(SpecTest, BadInputsProduceCleanStatusesNotCrashes) {
  const std::vector<std::string> bad = {
      // Name with a path separator (lands in the artifact file name).
      R"({"name": "../evil", "cases": [{"scenario": "train"}]})",
      // Empty name, missing name.
      R"({"name": "", "cases": [{"scenario": "train"}]})",
      R"({"cases": [{"scenario": "train"}]})",
      // Unknown scenario / model / dataset must not reach the fatal
      // registry lookups.
      R"({"name": "x", "cases": [{"scenario": "teleport"}]})",
      R"({"name": "x", "cases": [{"scenario": "train", "model": "GPT"}]})",
      R"({"name": "x",
          "cases": [{"scenario": "train", "dataset": "nosuch"}]})",
      // Unknown key (typo protection).
      R"({"name": "x", "cases": [{"scenario": "train", "treads": 2}]})",
      // Out-of-range values.
      R"({"name": "x", "cases": [{"scenario": "train", "trials": 0}]})",
      R"({"name": "x", "cases": [{"scenario": "train", "scale": -1.0}]})",
      R"({"name": "x",
          "cases": [{"scenario": "micro_ops", "kernels": "nosuch"}]})",
      // No cases at all.
      R"({"name": "x", "cases": []})",
      // Not even JSON.
      "]]]",
  };
  for (const std::string& text : bad) {
    Result<exp::ExperimentSpec> spec = exp::ParseSpecString(text);
    EXPECT_FALSE(spec.ok()) << "accepted: " << text;
  }
}

TEST(SpecTest, ParsesQualityCase) {
  Result<exp::ExperimentSpec> spec = exp::ParseSpecString(R"({
    "name": "q",
    "cases": [
      {"scenario": "quality", "protocol": "ctr",
       "datasets": ["music", "book"], "ratios": [0.0, 0.2],
       "epochs": "preset",
       "variants": ["BPRMF",
                    {"label": "w/o KG", "model": "CG-KGR",
                     "config": {"depth": 0, "guidance_mode": "NE",
                                "use_knowledge_attention": false}}]}
    ]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const exp::CaseSpec& quality = spec.value().cases[0];
  EXPECT_EQ(quality.protocol, "ctr");
  EXPECT_EQ(quality.epochs, 0);  // each preset's own budget
  EXPECT_EQ(quality.datasets, (std::vector<std::string>{"music", "book"}));
  EXPECT_EQ(quality.ratios, (std::vector<double>{0.0, 0.2}));
  ASSERT_EQ(quality.variants.size(), 2u);
  EXPECT_EQ(quality.variants[0].label, "BPRMF");  // defaults to the model
  EXPECT_EQ(quality.variants[1].label, "w/o KG");
  core::CgKgrConfig config;
  ASSERT_TRUE(
      exp::ApplyCgKgrOverrides(quality.variants[1].config, &config).ok());
  EXPECT_EQ(config.depth, 0);
  EXPECT_EQ(config.guidance_mode, core::GuidanceMode::kNodeEmbeddingsOnly);
  EXPECT_FALSE(config.use_knowledge_attention);
}

TEST(SpecTest, BadQualityCasesAreInvalidArgument) {
  const std::vector<std::string> bad_cases = {
      // Unknown override key.
      R"({"scenario": "quality",
          "variants": [{"model": "CG-KGR", "config": {"dept": 0}}]})",
      // Override of the wrong type.
      R"({"scenario": "quality",
          "variants": [{"model": "CG-KGR", "config": {"depth": "zero"}}]})",
      R"({"scenario": "quality",
          "variants": [{"model": "CG-KGR",
                        "config": {"use_knowledge_attention": 1}}]})",
      // Overrides on a model that has no CG-KGR config.
      R"({"scenario": "quality",
          "variants": [{"model": "BPRMF", "config": {"depth": 0}}]})",
      // Unknown variant model.
      R"({"scenario": "quality", "variants": ["GPT"]})",
      // Empty (and missing) variant list.
      R"({"scenario": "quality", "variants": []})",
      R"({"scenario": "quality"})",
      // Duplicate variant label.
      R"({"scenario": "quality",
          "variants": ["BPRMF", {"label": "BPRMF", "model": "CG-KGR"}]})",
      // Corruption ratio outside [0, 1).
      R"({"scenario": "quality", "ratios": [0.2, 1.0],
          "variants": ["CG-KGR"]})",
      R"({"scenario": "quality", "ratios": -0.1, "variants": ["CG-KGR"]})",
      // Unknown protocol / dataset; the preset budget outside quality.
      R"({"scenario": "quality", "protocol": "auc",
          "variants": ["CG-KGR"]})",
      R"({"scenario": "quality", "datasets": ["music", "nosuch"],
          "variants": ["CG-KGR"]})",
      R"({"scenario": "train", "epochs": "preset"})",
  };
  for (const std::string& bad_case : bad_cases) {
    Result<exp::ExperimentSpec> spec = exp::ParseSpecString(
        R"({"name": "x", "cases": [)" + bad_case + "]}");
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
        << "case: " << bad_case << "\n" << spec.status().ToString();
  }
}

TEST(SpecTest, MissingSpecFileIsCleanError) {
  EXPECT_FALSE(exp::ParseSpecFile("/nonexistent/spec.json").ok());
}

// ---------------------------------------------------------------------------
// exp artifact schema

obs::Json PinnedHeader() {
  obs::Json header = obs::Json::Object();
  header.Set("git_sha", obs::Json::Str("deadbeef"));
  header.Set("build_type", obs::Json::Str("Release"));
  header.Set("compiler", obs::Json::Str("testc++ 1.0"));
  header.Set("host", obs::Json::Str("testhost"));
  header.Set("arch", obs::Json::Str("x86_64"));
  header.Set("created_unix", obs::Json::Int(1700000000));
  header.Set("created_iso", obs::Json::Str("2023-11-14T22:13:20Z"));
  return header;
}

std::vector<exp::CaseResult> OneRow(const std::string& label, double qps) {
  exp::CaseResult row;
  row.label = label;
  row.scenario = "serve";
  row.params.Set("threads", obs::Json::Int(2));
  row.metrics.Set("qps", obs::Json::Double(qps));
  return {row};
}

TEST(ArtifactTest, GoldenSchema) {
  const obs::Json artifact = exp::BuildArtifact(
      "unit", OneRow("serve/music/t2", 1000.0), PinnedHeader(),
      obs::Json::Array());
  // The serialized layout is the schema contract with bench_compare and
  // any external tooling; changing it requires a schema_version bump.
  EXPECT_EQ(artifact.Dump(2), R"({
  "schema_version": 1,
  "bench": "unit",
  "header": {
    "git_sha": "deadbeef",
    "build_type": "Release",
    "compiler": "testc++ 1.0",
    "host": "testhost",
    "arch": "x86_64",
    "created_unix": 1700000000,
    "created_iso": "2023-11-14T22:13:20Z"
  },
  "rows": [
    {
      "label": "serve/music/t2",
      "scenario": "serve",
      "params": {
        "threads": 2
      },
      "metrics": {
        "qps": 1000
      }
    }
  ],
  "metrics_dump": []
})"
                               "\n");
  EXPECT_TRUE(exp::ValidateArtifact(artifact).ok());
}

TEST(ArtifactTest, RunHeaderHasRequiredFields) {
  const obs::Json header = exp::RunHeader();
  for (const char* key : {"git_sha", "build_type", "compiler", "host"}) {
    const obs::Json* field = header.Get(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_FALSE(field->AsString().empty()) << key;
  }
  EXPECT_GT(header.GetInt("created_unix", 0), 0);
}

TEST(ArtifactTest, ValidateRejectsBrokenDocuments) {
  obs::Json ok = exp::BuildArtifact("unit", OneRow("a", 1.0), PinnedHeader(),
                                    obs::Json::Array());

  obs::Json wrong_version = ok;
  wrong_version.Set("schema_version", obs::Json::Int(999));
  EXPECT_FALSE(exp::ValidateArtifact(wrong_version).ok());

  auto rows = OneRow("dup", 1.0);
  rows.push_back(rows[0]);
  EXPECT_FALSE(exp::ValidateArtifact(exp::BuildArtifact(
                   "unit", rows, PinnedHeader(), obs::Json::Array()))
                   .ok());

  exp::CaseResult text_metric;
  text_metric.label = "row";
  text_metric.metrics.Set("note", obs::Json::Str("not a number"));
  EXPECT_FALSE(exp::ValidateArtifact(
                   exp::BuildArtifact("unit", {text_metric}, PinnedHeader(),
                                      obs::Json::Array()))
                   .ok());

  EXPECT_FALSE(exp::ValidateArtifact(obs::Json::Array()).ok());
}

TEST(ArtifactTest, WriteRefusesSilentOverwrite) {
  const std::string dir = ::testing::TempDir() + "/exp-artifact";
  ASSERT_TRUE(exp::EnsureDirectory(dir).ok());
  const std::string path = dir + "/" + exp::ArtifactFileName("unit");
  const obs::Json artifact = exp::BuildArtifact(
      "unit", OneRow("a", 1.0), PinnedHeader(), obs::Json::Array());

  ASSERT_TRUE(exp::WriteArtifact(artifact, path, /*overwrite=*/true).ok());
  const Status refused = exp::WriteArtifact(artifact, path);
  EXPECT_EQ(refused.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(exp::WriteArtifact(artifact, path, /*overwrite=*/true).ok());

  Result<obs::Json> read_back = exp::ReadArtifact(path);
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_EQ(read_back.value().GetString("bench", ""), "unit");
}

TEST(ArtifactTest, EnsureDirectoryCreatesNestedPaths) {
  const std::string dir = ::testing::TempDir() + "/exp-nested/a/b/c";
  ASSERT_TRUE(exp::EnsureDirectory(dir).ok());
  // Idempotent on the second call.
  EXPECT_TRUE(exp::EnsureDirectory(dir).ok());
}

// ---------------------------------------------------------------------------
// obs::ProcessStats

TEST(ProcessStatsTest, SampleIsSane) {
  const obs::ProcessStats stats = obs::ProcessStats::Sample();
  EXPECT_GT(stats.peak_rss_bytes, 0);
  EXPECT_GT(stats.current_rss_bytes, 0);
  EXPECT_GE(stats.peak_rss_bytes, stats.current_rss_bytes);
  EXPECT_GE(stats.num_threads, 1);
  EXPECT_GE(stats.CpuSeconds(), 0.0);
}

TEST(ProcessStatsTest, CountersAreMonotone) {
  const obs::ProcessStats before = obs::ProcessStats::Sample();
  // Burn a little CPU and memory so the counters have something to count.
  std::vector<double> sink(1 << 16);
  double acc = 0.0;
  for (int pass = 0; pass < 64; ++pass) {
    for (size_t i = 0; i < sink.size(); ++i) {
      sink[i] = static_cast<double>(i ^ pass);
      acc += sink[i];
    }
  }
  ASSERT_GT(acc, 0.0);
  const obs::ProcessStats after = obs::ProcessStats::Sample();
  EXPECT_GE(after.CpuSeconds(), before.CpuSeconds());
  EXPECT_GE(after.peak_rss_bytes, before.peak_rss_bytes);
}

TEST(ProcessStatsTest, PublishesGaugesIntoRegistry) {
  obs::MetricsRegistry registry;
  const obs::ProcessStats stats = obs::SampleProcessStats(&registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("process_peak_rss_bytes")->value(),
                   static_cast<double>(stats.peak_rss_bytes));
  EXPECT_GE(registry.GetGauge("process_cpu_seconds")->value(), 0.0);
  EXPECT_GE(registry.GetGauge("process_num_threads")->value(), 1.0);
}

// ---------------------------------------------------------------------------
// exp comparator

TEST(CompareTest, ClassifiesMetricDirections) {
  using exp::MetricDirection;
  EXPECT_EQ(exp::ClassifyMetric("qps"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("samples_per_sec"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("write_mbps"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("cache_hit_rate"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("latency_p99_us"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("publish_ms"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("wall_seconds"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("peak_rss_bytes"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(exp::ClassifyMetric("bit_identical"), MetricDirection::kExact);
  EXPECT_EQ(exp::ClassifyMetric("checksum"),
            MetricDirection::kInformational);
  EXPECT_EQ(exp::ClassifyMetric("final_loss"),
            MetricDirection::kInformational);
}

obs::Json MakeArtifact(const std::vector<exp::CaseResult>& rows) {
  return exp::BuildArtifact("unit", rows, PinnedHeader(),
                            obs::Json::Array());
}

exp::CaseResult ServeRow(double qps, double p99_us, int64_t identical) {
  exp::CaseResult row;
  row.label = "serve/music/t2";
  row.scenario = "serve";
  row.metrics.Set("qps", obs::Json::Double(qps));
  row.metrics.Set("latency_p99_us", obs::Json::Double(p99_us));
  row.metrics.Set("bit_identical", obs::Json::Int(identical));
  row.metrics.Set("final_loss", obs::Json::Double(0.5));
  return row;
}

TEST(CompareTest, FlagsRegressionsBeyondTolerance) {
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 200.0, 1)});
  const obs::Json new_art = MakeArtifact({ServeRow(500.0, 200.0, 1)});
  Result<exp::CompareReport> report =
      exp::CompareArtifacts(old_art, new_art);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().ok());
  EXPECT_EQ(report.value().num_regressed, 1);
  const std::string table = report.value().ToTable();
  EXPECT_NE(table.find("qps"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

TEST(CompareTest, ImprovementsAndSmallChangesPass) {
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 200.0, 1)});
  // qps doubled (improved), p99 within tolerance, loss is informational.
  const obs::Json new_art = MakeArtifact({ServeRow(2000.0, 220.0, 1)});
  Result<exp::CompareReport> report =
      exp::CompareArtifacts(old_art, new_art);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok());
  EXPECT_EQ(report.value().num_improved, 1);
  EXPECT_EQ(report.value().num_regressed, 0);
}

TEST(CompareTest, ExactMetricsTolerateNothing) {
  // bit_identical 1 -> 0 is a determinism break, not a perf wobble.
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 200.0, 1)});
  const obs::Json new_art = MakeArtifact({ServeRow(1000.0, 200.0, 0)});
  Result<exp::CompareReport> report =
      exp::CompareArtifacts(old_art, new_art);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().ok());
}

TEST(CompareTest, NoiseFloorSkipsTinyLatencies) {
  // 2us -> 4us is -100% relative but below the 5us floor: timer noise.
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 2.0, 1)});
  const obs::Json new_art = MakeArtifact({ServeRow(1000.0, 4.0, 1)});
  Result<exp::CompareReport> report =
      exp::CompareArtifacts(old_art, new_art);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok());
}

TEST(CompareTest, MissingMetricAndRowFail) {
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 200.0, 1)});

  exp::CaseResult no_qps = ServeRow(1000.0, 200.0, 1);
  no_qps.metrics = obs::Json::Object();
  no_qps.metrics.Set("latency_p99_us", obs::Json::Double(200.0));
  Result<exp::CompareReport> dropped_metric =
      exp::CompareArtifacts(old_art, MakeArtifact({no_qps}));
  ASSERT_TRUE(dropped_metric.ok());
  EXPECT_FALSE(dropped_metric.value().ok());
  EXPECT_GE(dropped_metric.value().num_missing, 1);

  exp::CaseResult other = ServeRow(1000.0, 200.0, 1);
  other.label = "serve/music/t4";
  Result<exp::CompareReport> dropped_row =
      exp::CompareArtifacts(old_art, MakeArtifact({other}));
  ASSERT_TRUE(dropped_row.ok());
  EXPECT_FALSE(dropped_row.value().ok());

  exp::CompareOptions lenient;
  lenient.require_all_rows = false;
  Result<exp::CompareReport> ignored_row =
      exp::CompareArtifacts(old_art, MakeArtifact({other}), lenient);
  ASSERT_TRUE(ignored_row.ok());
  EXPECT_TRUE(ignored_row.value().ok());
}

TEST(CompareTest, CustomToleranceWidensTheGate) {
  const obs::Json old_art = MakeArtifact({ServeRow(1000.0, 200.0, 1)});
  const obs::Json new_art = MakeArtifact({ServeRow(600.0, 200.0, 1)});
  exp::CompareOptions wide;
  wide.tolerance = 0.6;
  Result<exp::CompareReport> report =
      exp::CompareArtifacts(old_art, new_art, wide);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().ok());
}

TEST(CompareTest, RejectsInvalidArtifacts) {
  EXPECT_FALSE(exp::CompareArtifacts(obs::Json::Object(),
                                     MakeArtifact({ServeRow(1.0, 1.0, 1)}))
                   .ok());
}

// ---------------------------------------------------------------------------
// Micro-kernel registry (the one runner surface cheap enough to unit-test)

TEST(RunnerTest, MicroKernelRegistryIsStable) {
  const std::vector<std::string> names = exp::MicroKernelNames();
  EXPECT_GE(names.size(), 6u);
  for (const char* expected :
       {"gemm64", "segment_softmax", "gather_fwd_bwd", "relation_matmul",
        "node_flow_sampling", "segment_attention"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// ---------------------------------------------------------------------------
// The quality scenario

TEST(QualityTest, TwoTrialCaseIsDeterministicAndComplete) {
  Result<exp::ExperimentSpec> spec = exp::ParseSpecString(R"({
    "name": "q",
    "cases": [{"scenario": "quality", "dataset": "music", "scale": 0.25,
               "epochs": 1, "trials": 2, "variants": ["BPRMF", "CG-KGR"]}]
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto run = [&] {
    std::vector<exp::CaseResult> rows;
    const Status status = exp::RunCase(spec.value().cases[0], 17,
                                       exp::RunnerOptions{}, &rows);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return rows;
  };
  const std::vector<exp::CaseResult> first = run();
  const std::vector<exp::CaseResult> second = run();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(first[0].label, "quality/topk/music/BPRMF");
  EXPECT_EQ(first[1].label, "quality/topk/music/CG-KGR");

  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].label, second[i].label);
    EXPECT_EQ(first[i].params.Dump(), second[i].params.Dump());
    EXPECT_EQ(first[i].metrics.members().size(),
              second[i].metrics.members().size());
    for (const auto& [name, value] : first[i].metrics.members()) {
      // Identical apart from the wall clock.
      if (name == "seconds_per_epoch" || name == "seconds_per_epoch_std") {
        continue;
      }
      const obs::Json* again = second[i].metrics.Get(name);
      ASSERT_NE(again, nullptr) << name;
      EXPECT_EQ(value.Dump(), again->Dump()) << first[i].label << " " << name;
    }
    for (const std::string metric :
         {"recall@1", "recall@5", "recall@10", "recall@20", "recall@50",
          "recall@100", "ndcg@1", "ndcg@5", "ndcg@10", "ndcg@20", "ndcg@50",
          "ndcg@100", "seconds_per_epoch", "best_epoch"}) {
      EXPECT_NE(first[i].metrics.Get(metric), nullptr) << metric;
      EXPECT_NE(first[i].metrics.Get(metric + "_std"), nullptr) << metric;
      EXPECT_EQ(first[i].metrics.GetInt(metric + "_n", 0), 2) << metric;
    }
  }
  // Only the CG-KGR row carries Table IV's gain and its significance.
  EXPECT_EQ(first[0].metrics.Get("recall@20_gain"), nullptr);
  EXPECT_NE(first[1].metrics.Get("recall@20_gain"), nullptr);
  EXPECT_NE(first[1].metrics.Get("ndcg@20_gain"), nullptr);
  EXPECT_NE(first[1].metrics.Get("recall@20_p_value"), nullptr);
  EXPECT_EQ(first[1].params.GetString("gain_vs", ""), "BPRMF");
}

}  // namespace
}  // namespace cgkgr
