#ifndef CGKGR_ANALYSIS_TAPE_LINT_H_
#define CGKGR_ANALYSIS_TAPE_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"
#include "nn/parameter.h"

namespace cgkgr {
namespace analysis {

/// \file
/// Structural validation of a recorded autograd tape, run *before* any
/// backward pass. The dynamic tape (autograd/variable.h) has no schema:
/// a shape edited after the forward pass, an embedding table that never
/// made it into the loss, or a moved-out buffer all fail silently — the
/// backward pass either crashes late or, worse, trains with frozen
/// parameters. LintTape walks the tape reachable from the loss and checks
/// every edge against the metadata MakeOpResult recorded at op time.
///
/// Enable during training with TrainOptions::lint_tape or the
/// CGKGR_LINT_TAPE environment variable (models::ParallelTrainer lints each
/// shard's tape before its backward pass); every baseline and CG-KGR train
/// lint-clean under it.

/// Machine-readable category of one tape violation.
enum class TapeViolation {
  /// The loss root is undefined, non-scalar, or does not require grad.
  kNonScalarLoss = 0,
  /// An input's current value shape differs from the shape recorded when
  /// the consuming op ran (post-forward mutation).
  kShapeMismatch,
  /// An input's value storage is empty although the consuming op recorded a
  /// non-empty shape (buffer freed or moved out between forward and
  /// backward).
  kFreedBuffer,
  /// A node's allocated gradient shape differs from its value shape.
  kGradShapeMismatch,
  /// Gradient flow stops at an interior node: inputs were recorded but no
  /// backward function is attached, or a requires-grad input feeds a node
  /// that does not itself require grad.
  kDetachedNode,
  /// An interior node carries a backward function but recorded no inputs —
  /// its backward pass is a silent no-op (gradient sink).
  kOrphanedNode,
  /// A trainable parameter is not reachable from the loss: the optimizer
  /// will keep it silently frozen.
  kUnreachableParameter,
};

/// Stable identifier for a violation category ("shape-mismatch", ...).
const char* TapeViolationName(TapeViolation violation);

/// One lint finding: a violation category anchored at a tape node.
struct TapeLintIssue {
  TapeViolation code;
  /// "MatMul#12"-style label: op name plus DFS discovery index.
  std::string node;
  std::string detail;
};

/// Outcome of one LintTape pass: findings plus tape census counters.
struct TapeLintReport {
  std::vector<TapeLintIssue> issues;
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t parameters = 0;
  int64_t reachable_parameters = 0;
  /// Parameters skipped by the unreachable-parameter rule because they
  /// matched TapeLintOptions::expected_frozen.
  int64_t frozen_parameters = 0;

  bool clean() const { return issues.empty(); }

  /// Renders the census and per-violation rows as aligned tables
  /// (common/table_printer layout).
  std::string ToTable() const;
};

/// Per-call lint knobs.
struct TapeLintOptions {
  /// Name prefixes of parameters that are *intentionally* not reached by
  /// this step's loss — e.g. layers excluded during a staged-training
  /// warm-up epoch (KGAT's BPRMF-style pretrain leaves its bi-interaction
  /// weights untouched on purpose). Matching parameters are exempt from
  /// the unreachable-parameter rule and counted in
  /// TapeLintReport::frozen_parameters instead. All other rules still
  /// apply to them.
  std::vector<std::string> expected_frozen;
};

/// Walks the tape reachable from `loss` and validates it against the
/// trainable `parameters` (entries must be defined; `names`, when
/// non-empty, must be parallel to `parameters` and is used for reporting).
/// Returns OK iff the tape is clean; otherwise an Internal status whose
/// message summarizes the first violation, with the full list in *report.
Status LintTape(const autograd::Variable& loss,
                const std::vector<autograd::Variable>& parameters,
                const std::vector<std::string>& names, TapeLintReport* report,
                const TapeLintOptions& options = {});

/// Convenience overload over a model's ParameterStore (named reports).
Status LintTape(const autograd::Variable& loss,
                const nn::ParameterStore& store, TapeLintReport* report,
                const TapeLintOptions& options = {});

}  // namespace analysis
}  // namespace cgkgr

#endif  // CGKGR_ANALYSIS_TAPE_LINT_H_
