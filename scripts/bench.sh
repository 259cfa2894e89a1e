#!/usr/bin/env bash
# Build the Release tree, run the micro-benchmarks, and emit BENCH_micro.json
# (benchmark name -> ns/op) so successive PRs have a perf trajectory to
# compare against.
#
# Usage: scripts/bench.sh [--compare <baseline.json>] [build-dir] [output-json]
#
# --compare diffs the freshly written output against a baseline
# BENCH_micro.json via scripts/bench_compare.py and fails the run on a
# hot-path regression (the CI bench-smoke job points it at the committed
# baseline).
#
# MICRO_BENCH_ARGS (env) is forwarded to the micro_bench binary — the CI
# bench-smoke job passes a reduced --benchmark_min_time so the sweep finishes
# in seconds while still exercising every benchmark.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

COMPARE_BASELINE=""
BENCH_COMPARE_ARGS="${BENCH_COMPARE_ARGS:-}"
POSITIONAL=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --compare)
      [[ $# -ge 2 ]] || { echo "error: --compare needs a baseline path" >&2; exit 2; }
      COMPARE_BASELINE="$2"
      shift 2
      ;;
    *)
      POSITIONAL+=("$1")
      shift
      ;;
  esac
done
set -- "${POSITIONAL[@]:-}"

BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_JSON="${2:-$REPO_ROOT/BENCH_micro.json}"

if [[ -n "$COMPARE_BASELINE" && ! -f "$COMPARE_BASELINE" ]]; then
  echo "error: --compare baseline not found: $COMPARE_BASELINE" >&2
  exit 2
fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null

# micro_bench is only generated when google-benchmark is installed; a missing
# target/binary must fail the run loudly — a silently partial/stale
# BENCH_micro.json would corrupt the perf trajectory the PRs compare against.
if ! cmake --build "$BUILD_DIR" --target micro_bench -j >/dev/null ||
   [[ ! -x "$BUILD_DIR/micro_bench" ]]; then
  echo "error: $BUILD_DIR/micro_bench could not be built (is google-benchmark" \
       "installed? see 'find_package(benchmark)' in CMakeLists.txt);" \
       "refusing to write a partial $OUT_JSON" >&2
  exit 1
fi

RAW_JSON="$BUILD_DIR/bench_micro_raw.json"
# shellcheck disable=SC2086  # MICRO_BENCH_ARGS is intentionally word-split
"$BUILD_DIR/micro_bench" --benchmark_format=json \
  --benchmark_out="$RAW_JSON" --benchmark_out_format=json \
  ${MICRO_BENCH_ARGS:-} >/dev/null

python3 - "$RAW_JSON" "$OUT_JSON" <<'EOF'
import json
import sys
from statistics import median

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

# Benches whose timed iteration covers a block of operating points record
# per-point time, so their entries compare directly against the one-point
# benches (BM_DcOp* run 4 points per iteration either way;
# BM_IcoEvalTransientBatched fuses a 4-corner block per call).
points_per_iteration = {
    "BM_DcOpScalar": 4,
    "BM_DcOpBatch": 4,
    "BM_IcoEvalTransientBatched": 4,
}

# With --benchmark_repetitions=N every repetition shows up as its own
# "iteration" entry under the same name; record the median so one noisy
# draw on a loaded machine can't skew the committed baseline.
samples = {}
for bench in raw.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    ns = bench["real_time"]
    unit = bench.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    norm = points_per_iteration.get(bench["name"], 1)
    samples.setdefault(bench["name"], []).append(ns * scale / norm)
result = {name: round(median(vals), 1) for name, vals in samples.items()}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(result)} benchmarks)")

# Batched-vs-per-sample pairs: the perf trajectory the batched engine is
# graded on (see docs/BENCHMARKS.md).
pairs = [
    ("surrogate MC scoring", "BM_SurrogateScorePerSample", "BM_SurrogateScoreBatch"),
    ("PVT corner sweep", "BM_PvtCornerSweepSerial", "BM_PvtCornerSweepPooled"),
    ("DC operating point (lane batch)", "BM_DcOpScalar", "BM_DcOpBatch"),
    ("ICO transient (lane batch)", "BM_IcoEvalTransient", "BM_IcoEvalTransientBatched"),
    ("repeated PVT sweep (eval cache)", "BM_PvtRepeatedSweepUncached", "BM_PvtRepeatedSweepCached"),
    ("scheduler 8-job fan-out (shared cache)", "BM_SchedulerThroughputPrivate", "BM_SchedulerThroughputShared"),
    ("scheduler 8-job bakeoff (4 workers)", "BM_SchedulerThroughputShared", "BM_SchedulerThroughputDistributed4"),
]

# A benchmark that silently vanishes (renamed, #ifdef'd out, registration
# dropped) would freeze its BENCH_micro.json entry at the last written value
# and quietly hollow out the speedup pairs above — fail loudly instead.
required = sorted({name for _, slow, fast in pairs for name in (slow, fast)}
                  | {"BM_WireRoundTrip", "BM_ExtraTreesFit",
                     "BM_TreeBoAcquire"})
missing = [name for name in required if name not in result]
if missing:
    sys.exit(f"error: expected benchmark(s) missing from {raw_path}: "
             + ", ".join(missing))

for label, slow, fast in pairs:
    print(f"  {label}: {result[slow] / result[fast]:.2f}x batched/parallel speedup")
EOF

if [[ -n "$COMPARE_BASELINE" ]]; then
  # shellcheck disable=SC2086  # BENCH_COMPARE_ARGS is intentionally word-split
  python3 "$REPO_ROOT/scripts/bench_compare.py" \
    "$COMPARE_BASELINE" "$OUT_JSON" ${BENCH_COMPARE_ARGS}
fi
