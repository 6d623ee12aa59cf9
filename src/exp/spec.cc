#include "exp/spec.h"

#include <algorithm>
#include <set>

#include "ckpt/io.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "data/presets.h"
#include "exp/runner.h"
#include "models/registry.h"

namespace cgkgr {
namespace exp {

namespace {

bool Contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

Status CaseError(size_t index, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("spec case %zu: %s", index, message.c_str()));
}

/// Reads an int64 array field that also accepts a bare integer.
Status ReadIntList(const obs::Json& value, const std::string& key,
                   std::vector<int64_t>* out) {
  out->clear();
  if (value.is_int()) {
    out->push_back(value.AsInt());
    return Status::OK();
  }
  if (!value.is_array()) {
    return Status::InvalidArgument("\"" + key +
                                   "\" must be an integer or integer array");
  }
  for (const obs::Json& item : value.items()) {
    if (!item.is_int()) {
      return Status::InvalidArgument("\"" + key +
                                     "\" entries must be integers");
    }
    out->push_back(item.AsInt());
  }
  if (out->empty()) {
    return Status::InvalidArgument("\"" + key + "\" must not be empty");
  }
  return Status::OK();
}

/// Reads a bool array field that also accepts a bare bool.
Status ReadBoolList(const obs::Json& value, const std::string& key,
                    std::vector<bool>* out) {
  out->clear();
  if (value.is_bool()) {
    out->push_back(value.AsBool());
    return Status::OK();
  }
  if (!value.is_array()) {
    return Status::InvalidArgument("\"" + key +
                                   "\" must be a bool or bool array");
  }
  for (const obs::Json& item : value.items()) {
    if (!item.is_bool()) {
      return Status::InvalidArgument("\"" + key + "\" entries must be bools");
    }
    out->push_back(item.AsBool());
  }
  if (out->empty()) {
    return Status::InvalidArgument("\"" + key + "\" must not be empty");
  }
  return Status::OK();
}

Status ReadStringList(const obs::Json& value, const std::string& key,
                      std::vector<std::string>* out) {
  out->clear();
  if (value.is_string()) {
    out->push_back(value.AsString());
    return Status::OK();
  }
  if (!value.is_array()) {
    return Status::InvalidArgument("\"" + key +
                                   "\" must be a string or string array");
  }
  for (const obs::Json& item : value.items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("\"" + key +
                                     "\" entries must be strings");
    }
    out->push_back(item.AsString());
  }
  return Status::OK();
}

/// Reads a number array field that also accepts a bare number.
Status ReadDoubleList(const obs::Json& value, const std::string& key,
                      std::vector<double>* out) {
  out->clear();
  if (value.is_number()) {
    out->push_back(value.AsDouble());
    return Status::OK();
  }
  if (!value.is_array()) {
    return Status::InvalidArgument("\"" + key +
                                   "\" must be a number or number array");
  }
  for (const obs::Json& item : value.items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("\"" + key +
                                     "\" entries must be numbers");
    }
    out->push_back(item.AsDouble());
  }
  if (out->empty()) {
    return Status::InvalidArgument("\"" + key + "\" must not be empty");
  }
  return Status::OK();
}

/// Reads one quality variant: a registry model name, or an object with
/// "model", an optional "label" (default: the model) and optional CG-KGR
/// "config" overrides, which are validated here.
Status ReadVariant(const obs::Json& value, VariantSpec* out) {
  if (value.is_string()) {
    out->model = value.AsString();
  } else if (value.is_object()) {
    for (const auto& [key, field] : value.members()) {
      if (key == "model" || key == "label") {
        if (!field.is_string()) {
          return Status::InvalidArgument("variant \"" + key +
                                         "\" must be a string");
        }
        (key == "model" ? out->model : out->label) = field.AsString();
      } else if (key == "config") {
        if (!field.is_object()) {
          return Status::InvalidArgument(
              "variant \"config\" must be an object");
        }
        out->config = field;
      } else {
        return Status::InvalidArgument("variant: unknown key \"" + key +
                                       "\"");
      }
    }
  } else {
    return Status::InvalidArgument(
        "\"variants\" entries must be model names or objects");
  }
  if (!Contains(models::AllModelNames(), out->model)) {
    return Status::InvalidArgument(
        "unknown variant model \"" + out->model + "\" (want one of: " +
        Join(models::AllModelNames(), ", ") + ")");
  }
  if (out->label.empty()) out->label = out->model;
  if (out->config.members().empty()) return Status::OK();
  if (out->model != "CG-KGR") {
    return Status::InvalidArgument("variant \"" + out->label +
                                   "\": config overrides need CG-KGR");
  }
  core::CgKgrConfig probe;
  const Status status = ApplyCgKgrOverrides(out->config, &probe);
  if (!status.ok()) {
    return Status::InvalidArgument("variant \"" + out->label +
                                   "\": " + status.message());
  }
  return Status::OK();
}

Status ParseCase(const obs::Json& json, size_t index, CaseSpec* out) {
  if (!json.is_object()) {
    return CaseError(index, "must be a JSON object");
  }
  bool preset_epochs = false;
  for (const auto& [key, value] : json.members()) {
    if (key == "scenario" || key == "model" || key == "dataset" ||
        key == "protocol") {
      if (!value.is_string()) {
        return CaseError(index, "\"" + key + "\" must be a string");
      }
      if (key == "scenario") out->scenario = value.AsString();
      if (key == "model") out->model = value.AsString();
      if (key == "dataset") out->dataset = value.AsString();
      if (key == "protocol") out->protocol = value.AsString();
    } else if (key == "epochs" && value.is_string()) {
      if (value.AsString() != "preset") {
        return CaseError(index,
                         "\"epochs\" must be an integer or \"preset\"");
      }
      out->epochs = 0;
      preset_epochs = true;
    } else if (key == "scale") {
      if (!value.is_number()) {
        return CaseError(index, "\"scale\" must be a number");
      }
      out->scale = value.AsDouble();
    } else if (key == "trials" || key == "epochs" || key == "queries" ||
               key == "batch" || key == "k" || key == "reps" ||
               key == "iters" || key == "queue_cap") {
      if (!value.is_int()) {
        return CaseError(index, "\"" + key + "\" must be an integer");
      }
      const int64_t v = value.AsInt();
      if (key == "trials") out->trials = v;
      if (key == "epochs") out->epochs = v;
      if (key == "queries") out->queries = v;
      if (key == "batch") out->batch = v;
      if (key == "k") out->k = v;
      if (key == "reps") out->reps = v;
      if (key == "iters") out->iters = v;
      if (key == "queue_cap") out->queue_cap = v;
    } else if (key == "threads") {
      CGKGR_RETURN_NOT_OK(ReadIntList(value, key, &out->threads));
    } else if (key == "dims") {
      CGKGR_RETURN_NOT_OK(ReadIntList(value, key, &out->dims));
    } else if (key == "cache") {
      CGKGR_RETURN_NOT_OK(ReadBoolList(value, key, &out->cache));
    } else if (key == "kernels") {
      CGKGR_RETURN_NOT_OK(ReadStringList(value, key, &out->kernels));
    } else if (key == "reloads") {
      CGKGR_RETURN_NOT_OK(ReadStringList(value, key, &out->reloads));
    } else if (key == "datasets") {
      CGKGR_RETURN_NOT_OK(ReadStringList(value, key, &out->datasets));
    } else if (key == "ratios") {
      CGKGR_RETURN_NOT_OK(ReadDoubleList(value, key, &out->ratios));
    } else if (key == "variants") {
      if (!value.is_array()) {
        return CaseError(index, "\"variants\" must be an array");
      }
      out->variants.clear();
      for (const obs::Json& item : value.items()) {
        VariantSpec variant;
        const Status status = ReadVariant(item, &variant);
        if (!status.ok()) return CaseError(index, status.message());
        out->variants.push_back(std::move(variant));
      }
    } else {
      return CaseError(index, "unknown key \"" + key + "\"");
    }
  }

  if (!Contains(ScenarioNames(), out->scenario)) {
    return CaseError(index, "unknown scenario \"" + out->scenario +
                                "\" (want one of: " +
                                Join(ScenarioNames(), ", ") + ")");
  }
  const bool needs_model = out->scenario == "train" ||
                           out->scenario == "serve" ||
                           out->scenario == "serve_frontend";
  const bool needs_dataset = out->scenario != "micro_ops";
  if (needs_model && !Contains(models::AllModelNames(), out->model)) {
    return CaseError(index, "unknown model \"" + out->model +
                                "\" (want one of: " +
                                Join(models::AllModelNames(), ", ") + ")");
  }
  if (needs_dataset && !Contains(data::PresetNames(), out->dataset)) {
    return CaseError(index, "unknown dataset \"" + out->dataset +
                                "\" (want one of: " +
                                Join(data::PresetNames(), ", ") + ")");
  }
  if (!(out->scale > 0.0)) {
    return CaseError(index, "\"scale\" must be > 0");
  }
  if (out->trials < 1) return CaseError(index, "\"trials\" must be >= 1");
  if (preset_epochs && out->scenario != "quality") {
    return CaseError(index,
                     "only the quality scenario takes \"epochs\": \"preset\"");
  }
  if (out->epochs < 1 && !preset_epochs) {
    return CaseError(index, "\"epochs\" must be >= 1");
  }
  if (out->queries < 1) return CaseError(index, "\"queries\" must be >= 1");
  if (out->batch < 1) return CaseError(index, "\"batch\" must be >= 1");
  if (out->k < 1) return CaseError(index, "\"k\" must be >= 1");
  if (out->reps < 1) return CaseError(index, "\"reps\" must be >= 1");
  if (out->iters < 1) return CaseError(index, "\"iters\" must be >= 1");
  if (out->queue_cap < 1) {
    return CaseError(index, "\"queue_cap\" must be >= 1");
  }
  if (out->reloads.empty()) {
    return CaseError(index, "\"reloads\" must not be empty");
  }
  for (const std::string& reload : out->reloads) {
    if (reload != "none" && reload != "full" && reload != "delta") {
      return CaseError(index, "unknown reload mode \"" + reload +
                                  "\" (want none, full, or delta)");
    }
  }
  for (const int64_t t : out->threads) {
    if (t < 1) return CaseError(index, "\"threads\" entries must be >= 1");
  }
  for (const int64_t d : out->dims) {
    if (d < 1) return CaseError(index, "\"dims\" entries must be >= 1");
  }
  if (out->scenario == "micro_ops") {
    for (const std::string& kernel : out->kernels) {
      if (!Contains(MicroKernelNames(), kernel)) {
        return CaseError(index, "unknown kernel \"" + kernel +
                                    "\" (want one of: " +
                                    Join(MicroKernelNames(), ", ") + ")");
      }
    }
  }
  if (out->scenario == "quality") {
    for (const std::string& dataset : out->datasets) {
      if (!Contains(data::PresetNames(), dataset)) {
        return CaseError(index, "unknown dataset \"" + dataset +
                                    "\" (want one of: " +
                                    Join(data::PresetNames(), ", ") + ")");
      }
    }
    if (out->protocol != "topk" && out->protocol != "ctr") {
      return CaseError(index, "unknown protocol \"" + out->protocol +
                                  "\" (want topk or ctr)");
    }
    for (const double ratio : out->ratios) {
      if (!(ratio >= 0.0 && ratio < 1.0)) {
        return CaseError(index, "\"ratios\" entries must be in [0, 1)");
      }
    }
    if (out->variants.empty()) {
      return CaseError(index, "quality needs a non-empty \"variants\" list");
    }
    std::set<std::string> labels;
    for (const VariantSpec& variant : out->variants) {
      if (!labels.insert(variant.label).second) {
        return CaseError(index, "duplicate variant label \"" +
                                    variant.label + "\"");
      }
    }
  }
  return Status::OK();
}

bool ValidSpecName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> ScenarioNames() {
  return {"train", "serve", "serve_frontend", "ckpt", "micro_ops", "quality"};
}

Status ApplyCgKgrOverrides(const obs::Json& overrides,
                           core::CgKgrConfig* config) {
  if (!overrides.is_object()) {
    return Status::InvalidArgument("CG-KGR overrides must be an object");
  }
  for (const auto& [key, value] : overrides.members()) {
    const std::string where = "override \"" + key + "\"";
    if (key == "depth") {
      if (!value.is_int() || value.AsInt() < 0) {
        return Status::InvalidArgument(where + " must be an integer >= 0");
      }
      config->depth = value.AsInt();
    } else if (key == "use_interactive_summarization" ||
               key == "use_knowledge_attention" ||
               key == "use_collaborative_guidance") {
      if (!value.is_bool()) {
        return Status::InvalidArgument(where + " must be a bool");
      }
      if (key == "use_interactive_summarization") {
        config->use_interactive_summarization = value.AsBool();
      }
      if (key == "use_knowledge_attention") {
        config->use_knowledge_attention = value.AsBool();
      }
      if (key == "use_collaborative_guidance") {
        config->use_collaborative_guidance = value.AsBool();
      }
    } else if (key == "encoder" || key == "aggregator" ||
               key == "guidance_mode" || key == "sampling_strategy") {
      if (!value.is_string()) {
        return Status::InvalidArgument(where + " must be a string");
      }
      const std::string& name = value.AsString();
      if (key == "encoder") {
        Result<core::EncoderType> encoder = core::ParseEncoder(name);
        CGKGR_RETURN_NOT_OK(encoder.status());
        config->encoder = encoder.value();
      } else if (key == "aggregator") {
        Result<core::AggregatorType> aggregator = core::ParseAggregator(name);
        CGKGR_RETURN_NOT_OK(aggregator.status());
        config->aggregator = aggregator.value();
      } else if (key == "guidance_mode") {
        if (name == "full") {
          config->guidance_mode = core::GuidanceMode::kFull;
        } else if (name == "NE") {
          config->guidance_mode = core::GuidanceMode::kNodeEmbeddingsOnly;
        } else if (name == "PF") {
          config->guidance_mode = core::GuidanceMode::kPreferenceFilterOnly;
        } else if (name == "AG") {
          config->guidance_mode = core::GuidanceMode::kAttractionGroupOnly;
        } else {
          return Status::InvalidArgument("unknown guidance_mode \"" + name +
                                         "\" (want full, NE, PF, or AG)");
        }
      } else if (name == "uniform" || name == "degree-biased") {
        config->sampling_strategy =
            name == "uniform" ? graph::SamplingStrategy::kUniform
                              : graph::SamplingStrategy::kDegreeBiased;
      } else {
        return Status::InvalidArgument("unknown sampling_strategy \"" +
                                       name +
                                       "\" (want uniform or degree-biased)");
      }
    } else {
      return Status::InvalidArgument("unknown " + where);
    }
  }
  return Status::OK();
}

Result<ExperimentSpec> ParseSpec(const obs::Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("spec must be a JSON object");
  }
  ExperimentSpec spec;
  const obs::Json* cases = nullptr;
  for (const auto& [key, value] : json.members()) {
    if (key == "name") {
      if (!value.is_string()) {
        return Status::InvalidArgument("spec \"name\" must be a string");
      }
      spec.name = value.AsString();
    } else if (key == "seed") {
      if (!value.is_int() || value.AsInt() < 0) {
        return Status::InvalidArgument(
            "spec \"seed\" must be a non-negative integer");
      }
      spec.seed = static_cast<uint64_t>(value.AsInt());
    } else if (key == "cases") {
      if (!value.is_array()) {
        return Status::InvalidArgument("spec \"cases\" must be an array");
      }
      cases = &value;
    } else {
      return Status::InvalidArgument("spec: unknown key \"" + key + "\"");
    }
  }
  if (!ValidSpecName(spec.name)) {
    return Status::InvalidArgument(
        "spec \"name\" is required and restricted to [A-Za-z0-9._-] "
        "(it names the BENCH_<name>.json artifact)");
  }
  if (cases == nullptr || cases->items().empty()) {
    return Status::InvalidArgument("spec needs a non-empty \"cases\" array");
  }
  for (size_t i = 0; i < cases->items().size(); ++i) {
    CaseSpec parsed;
    CGKGR_RETURN_NOT_OK(ParseCase(cases->items()[i], i, &parsed));
    spec.cases.push_back(std::move(parsed));
  }
  return spec;
}

Result<ExperimentSpec> ParseSpecString(std::string_view text) {
  Result<obs::Json> json = obs::Json::Parse(text);
  CGKGR_RETURN_NOT_OK(json.status());
  return ParseSpec(json.value());
}

Result<ExperimentSpec> ParseSpecFile(const std::string& path) {
  Result<std::string> contents = ckpt::ReadFileToString(path);
  if (!contents.ok()) {
    return Status::NotFound("cannot read spec file " + path + ": " +
                            contents.status().ToString());
  }
  Result<ExperimentSpec> spec = ParseSpecString(contents.value());
  if (!spec.ok()) {
    return Status::InvalidArgument(path + ": " + spec.status().ToString());
  }
  return spec;
}

}  // namespace exp
}  // namespace cgkgr
