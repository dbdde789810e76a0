#!/usr/bin/env bash
# Tier-1 verification: configure (warnings-as-errors), build everything, run the full test
# suite. This is what CI runs; run it locally before pushing.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-check}"

# Guard against committed build trees (PR 3 accidentally tracked ~350 artifacts under
# build-review/): no tracked path may live under a build*/ directory.
if git ls-files | grep -qE '^build'; then
  echo "check.sh: FAIL — build artifacts are tracked in git:" >&2
  git ls-files | grep -E '^build' | head >&2
  exit 1
fi

# Config is plain data: no file under src/ reads the environment, so a default-constructed
# ClusterConfig/RuntimeConfig means the same cluster in every CI cell. The matrix reaches the
# tests through tests/testing/config_from_env.h; src/common/env.h is only the parser.
if grep -rnE 'getenv|Env(Int|Flag|PositiveDouble)\b|common/env\.h' src \
    --include='*.cc' --include='*.h' | grep -v '^src/common/env\.h:'; then
  echo "check.sh: FAIL — src/ reads the environment (listed above)" >&2
  exit 1
fi

# One FNV-1a definition (DESIGN.md §16): the prime is spelled only in src/common/fnv.h, so
# every checksum, content fold and golden pin is built from the same constants and state
# comparisons go through Cluster::Fingerprint() instead of a hand-rolled fold.
if grep -rn '1099511628211' src tests bench | grep -v '^src/common/fnv\.h:'; then
  echo "check.sh: FAIL — the FNV prime is spelled outside src/common/fnv.h (listed above)" >&2
  exit 1
fi

# One append round per layer (DESIGN.md §12): the append latency is sampled in exactly two
# places under src/sharedlog/ — LogClient's per-request round and AppendBatcher's dispatcher.
# A third sample means an append round was written out again instead of reused.
append_samples=$(grep -ro 'log_append\.Sample' src/sharedlog | wc -l || true)
if [ "${append_samples}" -ne 2 ]; then
  grep -rn 'log_append\.Sample' src/sharedlog >&2 || true
  echo "check.sh: FAIL — log_append.Sample appears ${append_samples} times under" \
    "src/sharedlog/ (expected 2: the per-request round and the batcher dispatcher)" >&2
  exit 1
fi

# Prints a smoke leg's summary lines to stderr and fails the run with `message` unless they
# contain `want`. A plain echo, not `tee /dev/stderr`: tee reopens fd 2 with O_TRUNC, so a
# log saved with `scripts/check.sh > check.log 2>&1` would lose everything before the leg.
require_lines() {
  local lines="$1" want="$2" message="$3"
  echo "${lines}" >&2
  grep -q -- "${want}" <<<"${lines}" || { echo "check.sh: FAIL — ${message}" >&2; exit 1; }
}

cmake -B "${BUILD_DIR}" -S . -DHM_WERROR=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure

# Smoke-mode bench: the pinned sections run their full shape, so every pinned counter (op
# counts, content checksums, scheduler events, sequencer rounds, cache hits) and every
# equivalence assertion (group commit vs per-request appends, coalesced propagation,
# zero-copy audit) is checked; HM_BENCH_SCALE only shortens the timed passes. Runs from
# inside the build dir so the scaled-down JSON never overwrites the tracked full-scale
# BENCH_hotpath.json at the repo root (DESIGN.md §7.4).
( cd "${BUILD_DIR}" && HM_BENCH_SCALE=0.2 ./bench/bench_hotpath )

# Shard-equivalence smoke: the same seed through a 1-shard and a 4-shard log must commit
# identical per-stream content (FNV checksums printed per protocol/workload pair). Any
# MISMATCH line — or a missing match line — fails the run.
shard_lines=$("${BUILD_DIR}"/tests/sharded_equivalence_test \
  --gtest_filter='ShardedEquivalenceTest.ShardCountsProduceEquivalentExecutions' \
  --gtest_brief=1 | grep '^\[shards\]' || true)
require_lines "${shard_lines}" ' match' "shard-equivalence checksums diverged"

# Pipeline smoke: the same seed through group commit at depth 1 and at depth 2/4/8 must
# commit identical per-stream content (FNV checksums printed per protocol/workload pair at
# depth 4). Any MISMATCH line — or a missing match line — fails the run.
pipeline_lines=$("${BUILD_DIR}"/tests/sharded_equivalence_test \
  --gtest_filter='ShardedEquivalenceTest.PipelineDepthsCommitIdenticalContent' \
  --gtest_brief=1 | grep '^\[pipeline\]' || true)
require_lines "${pipeline_lines}" ' match' "pipeline-depth checksums diverged"

# Faultcheck smoke: re-run the schedule-explorer suites standalone so the explored-schedule
# counts are visible in the log (ctest swallows the stdout of passing tests). Set
# HM_FAULTCHECK_FULL=1 for the exhaustive depth-2 sweep (see EXPERIMENTS.md).
"${BUILD_DIR}"/tests/faultcheck_explorer_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_switch_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_advisor_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_negative_test --gtest_brief=1 | grep -c '^\[faultcheck\]   FAIL' \
  | sed 's/^/[faultcheck] negative-control failing schedules (expected nonzero): /'

# Durability smoke (DESIGN.md §13): the node-grain kill/restart sweeps (storage / sequencer /
# function-node kills at traced positions) must pass the consistency oracle with the
# journaled tier on; the '[faultcheck]' lines surface the explored-schedule counts, and
# 'failures=0' is enforced by the test itself.
"${BUILD_DIR}"/tests/faultcheck_node_failure_test --gtest_brief=1 | grep '^\[faultcheck\]'

# Checkpoint smoke (DESIGN.md §14). Leg 1: cluster-grain recovery must actually come up
# through load-image + replay-suffix — a silent regression to full replay would still pass
# the equivalence assertions, so the 'mode=image+suffix' line is enforced here. Leg 2: the
# checkpoint-round failure sweeps (daemon crashes inside a round, node kills around one)
# must pass the consistency oracle; 'failures=0' is enforced by the test itself.
checkpoint_lines=$("${BUILD_DIR}"/tests/checkpoint_recovery_test \
  --gtest_brief=1 | grep '^\[checkpoint\]' || true)
require_lines "${checkpoint_lines}" 'mode=image+suffix' \
  "checkpointed recovery silently fell back to full replay"
"${BUILD_DIR}"/tests/faultcheck_checkpoint_test --gtest_brief=1 | grep '^\[faultcheck\]'

# Advisor smoke (DESIGN.md §11): the drift byte gate (advisor strictly below both static
# protocols), the hysteresis/dwell counters, and the advisor-off golden content checksum,
# surfaced via their '[advisor]' summary lines. A missing 'win' line — the byte gate — or a
# missing pinned-checksum line fails the run.
advisor_lines=$("${BUILD_DIR}"/tests/online_advisor_test --gtest_brief=1 \
  | grep '^\[advisor\]' || true)
require_lines "${advisor_lines}" ' win' "advisor drift byte gate did not report a win"

echo "check.sh: all tests passed"
