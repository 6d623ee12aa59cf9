#!/usr/bin/env bash
# Repo-invariant gate. Runs from any directory; registered as the
# `repo_lint` ctest so `ctest` fails when an invariant regresses.
#
#   1. cgkgr_analyze — the repo's static analyzer (analysis::SourceLint):
#      determinism, memory/persistence, and cross-TU lock-discipline rule
#      packs over every source under src/, with the checked-in suppression
#      baseline (tools/analyzer_baseline.txt). The binary is located via
#      $CGKGR_ANALYZE_BIN (set by ctest), then build/tools/, then PATH; if
#      none exists it is built from source into build/.
#   2. clang -Wthread-safety syntax-only pass over the annotated TUs.
#      Skipped with a notice when clang++ is not installed (under GCC the
#      CGKGR_* annotation macros compile away, so there is nothing to
#      check locally — CI images with clang get the full analysis).
#   3. Sanitizer runs, opt-in because each configure+build takes minutes:
#        CGKGR_CHECK_TSAN=1  ThreadSanitizer over the concurrency-heavy
#                            tests (thread_pool_test, trainer_test, and
#                            cgkgr_model_test + serve_test, whose CG-KGR
#                            scoring runs forwards on parallel lanes, and
#                            serve_frontend_test, whose dispatcher threads
#                            run Frontend -> Router -> Engine and the
#                            engine's top-k selection).
#        CGKGR_CHECK_ASAN=1  AddressSanitizer over the memory-heavy tests
#                            (tensor_test, autograd_test, ckpt_test), the
#                            model zoo (baselines_test), whose parameters
#                            live in the shared models::RecommenderModel
#                            base, cgkgr_model_test, whose tape-free scoring
#                            forward indexes its scratch buffers by offset,
#                            serve_test, whose snapshot digest and delta
#                            apply index score rows by offset, and
#                            serve_frontend_test, whose dispatchers run the
#                            engine's top-k selection over those rows.
#        CGKGR_CHECK_UBSAN=1 UndefinedBehaviorSanitizer over the numeric
#                            core (tensor_test, autograd_test,
#                            cgkgr_model_test), the model zoo
#                            (baselines_test), the checkpoint byte codec
#                            and its CRC (ckpt_test), and the snapshot
#                            digest fold and row offsets (serve_test).
#   4. Perf-regression gate, opt-in because it runs real training:
#        CGKGR_CHECK_BENCH=1 runs cgkgr_bench on the committed smoke spec
#                            (bench/specs/smoke.json), then diffs the new
#                            artifact against the previous one with
#                            tools/bench_compare. First run passes (no
#                            baseline); after that a >60% drop on a
#                            direction-tracked metric fails the gate.
#
# Exit status: 0 iff every available check passed.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
fail=0

echo "== cgkgr_analyze =="
analyze_bin="${CGKGR_ANALYZE_BIN:-}"
if [ -z "$analyze_bin" ] && [ -x build/tools/cgkgr_analyze ]; then
  analyze_bin=build/tools/cgkgr_analyze
fi
if [ -z "$analyze_bin" ] && command -v cgkgr_analyze >/dev/null 2>&1; then
  analyze_bin="$(command -v cgkgr_analyze)"
fi
if [ -z "$analyze_bin" ]; then
  echo "  (building cgkgr_analyze into build/)"
  cmake -B build -S . > /dev/null && \
    cmake --build build --target cgkgr_analyze -j"$(nproc)" > /dev/null || fail=1
  analyze_bin=build/tools/cgkgr_analyze
fi
if [ "$fail" -eq 0 ]; then
  "$analyze_bin" --root "$root" \
    --baseline "$root/tools/analyzer_baseline.txt" || fail=1
fi

# TUs whose locking is expressed through the capability annotations in
# common/mutex.h. Keep in sync with docs/static_analysis.md. The per-TU
# clang pass and cgkgr_analyze's cross-TU lock graph are complementary:
# clang proves each TU against its own annotations, the analyzer connects
# annotations across TU boundaries (lock order, out-of-line guard access).
ANNOTATED_TUS=(
  src/common/thread_pool.cc
  src/obs/metrics.cc
  src/obs/trace.cc
  src/serve/engine.cc
  src/serve/frontend.cc
  src/serve/router.cc
  src/serve/stats.cc
)

if command -v clang++ >/dev/null 2>&1; then
  echo "== clang -Wthread-safety =="
  for tu in "${ANNOTATED_TUS[@]}"; do
    echo "  $tu"
    clang++ -fsyntax-only -std=c++20 -Isrc \
      -Wthread-safety -Werror=thread-safety-analysis "$tu" || fail=1
  done
else
  echo "== clang -Wthread-safety: SKIPPED (clang++ not installed;" \
       "annotations compile away under GCC) =="
fi

# run_sanitizer <name> <cmake-sanitize-value> <build-dir> <test...>
# Configures an instrumented build tree and runs the named tests in it.
run_sanitizer() {
  local name="$1" sanitize="$2" dir="$3"
  shift 3
  echo "== ${name} ($*) =="
  cmake -B "$dir" -S . -DCGKGR_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null || { fail=1; return; }
  cmake --build "$dir" -j"$(nproc)" --target "$@" > /dev/null || { fail=1; return; }
  local t
  for t in "$@"; do
    echo "  $t"
    "$dir/tests/$t" > /dev/null || fail=1
  done
}

if [ "${CGKGR_CHECK_TSAN:-0}" = "1" ]; then
  run_sanitizer ThreadSanitizer thread build-tsan \
    thread_pool_test trainer_test cgkgr_model_test serve_test \
    serve_frontend_test
else
  echo "== ThreadSanitizer: SKIPPED (set CGKGR_CHECK_TSAN=1 to enable) =="
fi

if [ "${CGKGR_CHECK_ASAN:-0}" = "1" ]; then
  run_sanitizer AddressSanitizer address build-asan \
    tensor_test autograd_test ckpt_test baselines_test cgkgr_model_test \
    serve_test serve_frontend_test
else
  echo "== AddressSanitizer: SKIPPED (set CGKGR_CHECK_ASAN=1 to enable) =="
fi

if [ "${CGKGR_CHECK_UBSAN:-0}" = "1" ]; then
  run_sanitizer UndefinedBehaviorSanitizer undefined build-ubsan \
    tensor_test autograd_test cgkgr_model_test ckpt_test baselines_test \
    serve_test
else
  echo "== UndefinedBehaviorSanitizer: SKIPPED (set CGKGR_CHECK_UBSAN=1 to enable) =="
fi

if [ "${CGKGR_CHECK_BENCH:-0}" = "1" ]; then
  echo "== bench smoke + perf comparator =="
  cmake -B build -S . > /dev/null && \
    cmake --build build -j"$(nproc)" --target cgkgr_bench bench_compare \
      > /dev/null || fail=1
  if [ "$fail" -eq 0 ]; then
    art_dir=bench/artifacts
    art="$art_dir/BENCH_smoke.json"
    prev="$art_dir/BENCH_smoke.prev.json"
    mkdir -p "$art_dir"
    # Rotate the last artifact aside so the run always has a baseline to
    # diff against; the very first run passes trivially.
    [ -f "$art" ] && mv -f "$art" "$prev"
    if build/bench/cgkgr_bench --spec bench/specs/smoke.json \
         --out "$art_dir" > /dev/null; then
      # The smoke spec is tiny, so timings are noisy on a loaded 1-core
      # machine; 0.6 only catches collapses, not jitter.
      build/tools/bench_compare --tolerance=0.6 "$prev" "$art" || fail=1
    else
      echo "  cgkgr_bench failed"
      fail=1
    fi
  fi
else
  echo "== bench smoke + perf comparator: SKIPPED (set CGKGR_CHECK_BENCH=1 to enable) =="
fi

if [ "$fail" -eq 0 ]; then
  echo "check.sh: all checks passed"
else
  echo "check.sh: FAILED"
fi
exit "$fail"
