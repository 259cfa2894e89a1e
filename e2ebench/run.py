#!/usr/bin/env python3
"""End-to-end sizing benchmark: one command, every metric, checked outputs.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds e2ebench/ (the library plus the
trdse_e2e benchmark program) into .bench_build/, then:

  --trace 0  runs untraced passes of the workload, each in a fresh process,
             until S seconds are used (at least MIN_PASSES), and reports the
             median of each end-to-end metric over the passes;
  --trace 1  runs one traced pass and reports the per-layer metrics; the
             Chrome trace-event file lands in .bench_out/.

Every metric is printed to stderr by name with its unit; the last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
Any failed correctness check prints the failures to stderr and exits 1
without a result. See e2ebench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT = ".bench_out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 170

# Workload names, metric names and units come from BENCHMARK.json.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay in the tree
    log_path = os.path.join(BUILD, "e2ebench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "trdse_e2e",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "trdse_e2e")


def run_pass(exe, mode, workload, seed, trace_file=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--out", OUT, "--bakeoff", os.path.join(HERE, "opamp_bakeoff.scenario")]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} pass timed out")
    if proc.returncode != 0:
        fail(f"{workload} {mode} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(passes, units):
    problems = [c for p in passes for c in p["failed_checks"]]
    problems += [f"metric {n} missing" for p in passes for n in units
                 if n not in p["metrics"]]
    for key in ("rows", "warm_rows"):
        if len({p[key] for p in passes}) != 1:
            problems.append(f"{key} differ across repetitions")
    if problems:
        for c in sorted(set(problems)):
            print(f"e2ebench: check failed: {c}", file=sys.stderr)
        fail("correctness checks failed; no metrics reported")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    if args.trace == 0:
        units, passes = E2E_UNITS, []
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(exe, "pass", args.workload, args.seed))
            last = time.monotonic() - t0
            if (len(passes) >= MIN_PASSES and
                    time.monotonic() - start + last > args.seconds):
                break
    else:
        units = LAYER_UNITS
        trace_file = os.path.join(OUT, f"trace_{args.workload}_{args.seed}.json")
        passes = [run_pass(exe, "traced", args.workload, args.seed, trace_file)]
        print(f"# trace: {trace_file}", file=sys.stderr)
    check(passes, units)

    metrics = {}
    print(f"# {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"median shown (too few passes for a tail percentile with >= 10 "
          f"samples beyond it)", file=sys.stderr)
    for name, unit in units.items():
        values = [p["metrics"][name] for p in passes]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        shown = " ".join(f"{v:.6g}" for v in values)
        print(f"{name:28s} {metrics[name]['value']:14.6g} {unit:6s} [{shown}]",
              file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": sum(int(p["requests"]) for p in passes),
        "failed": sum(int(p["failures"]) for p in passes),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
