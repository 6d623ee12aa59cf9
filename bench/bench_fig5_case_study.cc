// Reproduces Figure 5: a case study of the Collaborative Guidance
// Mechanism on the book benchmark. Shows the hop-1 knowledge attention of
// one item (a) without guidance (w/o CG variant), and (b)/(c) with guidance
// for two different users — demonstrating that guidance sharpens and
// personalizes the triplet weights. The paper's other tables and figures
// are cgkgr_bench specs (bench/specs/paper/); this attention dump is the one
// output a spec row cannot carry.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/cgkgr_model.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "exp/artifact.h"
#include "exp/runner.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace {

using namespace cgkgr;

/// Publishes `row` as the schema-v1 artifact BENCH_fig5_case_study.json
/// under --out (skipped when --out is empty), with the registry dump and
/// the process section. Returns 0, or 1 on a write/validation failure.
int EmitArtifact(const FlagParser& flags, const exp::CaseResult& row) {
  const std::string out_dir = flags.GetString("out");
  if (out_dir.empty()) return 0;
  Result<obs::Json> dump =
      obs::Json::Parse(obs::MetricsRegistry::Default().DumpJson());
  if (!dump.ok()) {
    std::fprintf(stderr, "metrics dump: %s\n",
                 dump.status().ToString().c_str());
    return 1;
  }
  obs::Json artifact = exp::BuildArtifact("fig5_case_study", {row},
                                          exp::RunHeader(), dump.value());
  artifact.Set("process", exp::ProcessSectionJson());
  Status st = exp::EnsureDirectory(out_dir);
  const std::string path =
      out_dir + "/" + exp::ArtifactFileName("fig5_case_study");
  if (st.ok()) {
    st = exp::WriteArtifact(artifact, path, flags.GetBool("overwrite"));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "artifact: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("artifact written to %s\n", path.c_str());
  return 0;
}

void PrintInspection(const std::string& title,
                     const core::CgKgrModel::AttentionInspection& insp) {
  std::printf("%s\n", title.c_str());
  // Aggregate duplicate sampled triplets for readability.
  std::map<std::pair<int64_t, int64_t>, float> weights;
  for (size_t i = 0; i < insp.entities.size(); ++i) {
    weights[{insp.entities[i], insp.relations[i]}] += insp.weights[i];
  }
  TablePrinter table({"Entity", "Relation", "Weight"});
  for (const auto& [key, weight] : weights) {
    table.AddRow({"e_" + std::to_string(key.first),
                  "r_" + std::to_string(key.second),
                  StrFormat("%.3f", weight)});
  }
  table.Print();
}

double Spread(const core::CgKgrModel::AttentionInspection& insp) {
  float lo = 1.0f;
  float hi = 0.0f;
  for (float w : insp.weights) {
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  return hi - lo;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgkgr;
  FlagParser flags;
  flags.DefineInt64("epochs", 0, "override max epochs (0 = preset default)");
  flags.DefineInt64("seed", 17, "base random seed");
  flags.DefineDouble("scale", 1.0, "dataset scale factor");
  flags.DefineBool("verbose", false, "log per-epoch progress");
  flags.DefineString("dataset", "book", "preset for the case study");
  flags.DefineInt64("item", 1, "target item id");
  flags.DefineInt64("user_a", 0, "first target user id");
  flags.DefineInt64("user_b", 1, "second target user id");
  flags.DefineString("out", exp::kDefaultArtifactDir,
                     "artifact output directory (empty = skip)");
  flags.DefineBool("overwrite", false,
                   "replace an existing BENCH_*.json artifact");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }

  const data::Preset preset =
      data::GetPreset(flags.GetString("dataset"), flags.GetDouble("scale"));
  const data::Dataset dataset = data::GenerateSyntheticDataset(
      preset.data, static_cast<uint64_t>(flags.GetInt64("seed")));

  models::TrainOptions train;
  train.max_epochs = flags.GetInt64("epochs") > 0 ? flags.GetInt64("epochs")
                                                  : preset.hparams.max_epochs;
  train.patience = preset.hparams.patience;
  train.batch_size = preset.hparams.batch_size;
  train.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  train.early_stop_metric = models::EarlyStopMetric::kRecallAt20;
  train.verbose = flags.GetBool("verbose");

  const int64_t item = flags.GetInt64("item");
  const int64_t user_a = flags.GetInt64("user_a");
  const int64_t user_b = flags.GetInt64("user_b");
  const uint64_t sample_seed = 12345;

  std::printf("== Figure 5: guidance case study on %s, item i_%lld ==\n\n",
              dataset.name.c_str(), (long long)item);

  // (a) Without collaborative guidance: weights are user-independent.
  core::CgKgrConfig no_cg = core::CgKgrConfig::FromPreset(preset.hparams);
  no_cg.use_collaborative_guidance = false;
  core::CgKgrModel baseline(no_cg, "CG-KGR w/o CG");
  CGKGR_CHECK(baseline.Fit(dataset, train).ok());
  const auto insp_a =
      baseline.InspectKnowledgeAttention(user_a, item, sample_seed);
  PrintInspection("(a) without Collaborative Guidance:", insp_a);

  // (b)/(c) Full model: weights are customized per target user.
  core::CgKgrModel full(core::CgKgrConfig::FromPreset(preset.hparams));
  CGKGR_CHECK(full.Fit(dataset, train).ok());
  const auto insp_b =
      full.InspectKnowledgeAttention(user_a, item, sample_seed);
  PrintInspection(
      StrFormat("\n(b) guided by user u_%lld:", (long long)user_a), insp_b);
  const auto insp_c =
      full.InspectKnowledgeAttention(user_b, item, sample_seed);
  PrintInspection(
      StrFormat("\n(c) guided by user u_%lld:", (long long)user_b), insp_c);

  double divergence = 0.0;
  for (size_t i = 0; i < insp_b.weights.size(); ++i) {
    divergence += std::abs(insp_b.weights[i] - insp_c.weights[i]);
  }
  std::printf(
      "\nweight spread w/o guidance: %.3f; with guidance: %.3f / %.3f\n"
      "L1 divergence between the two users' weight vectors: %.3f\n"
      "(guidance personalizes the knowledge extraction, paper Sec. "
      "IV-F-2)\n",
      Spread(insp_a), Spread(insp_b), Spread(insp_c), divergence);

  exp::CaseResult summary;
  summary.label = "fig5/" + dataset.name + "/i" + std::to_string(item);
  summary.scenario = "fig5";
  summary.params.Set("item", obs::Json::Int(item));
  summary.params.Set("user_a", obs::Json::Int(user_a));
  summary.params.Set("user_b", obs::Json::Int(user_b));
  summary.metrics.Set("spread_no_guidance", obs::Json::Double(Spread(insp_a)));
  summary.metrics.Set("spread_user_a", obs::Json::Double(Spread(insp_b)));
  summary.metrics.Set("spread_user_b", obs::Json::Double(Spread(insp_c)));
  summary.metrics.Set("l1_divergence", obs::Json::Double(divergence));
  return EmitArtifact(flags, summary);
}
