#!/usr/bin/env python3
"""Compare two BENCH_micro.json snapshots and gate hot-path regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [options]

Prints a per-benchmark table of ns/op and the current/baseline ratio
(ratio > 1.0 means the benchmark got slower).  Exits non-zero when any
*named hot-path* benchmark regressed by more than --threshold (default
15%).  Non-hot benchmarks are reported but never gate: machine-to-machine
noise on the long tail would make the gate useless, while the named hot
paths are exactly the ones each perf PR is graded on.

Benchmarks present in only one file are listed (new benches appear as
"added", vanished ones as "removed"); a *removed hot-path* benchmark is
an error — silently dropping the benchmark that guards a win is itself a
regression.
"""

import argparse
import json
import sys

# The benches that define the perf trajectory (docs/BENCHMARKS.md).  Keep in
# sync with the speedup pairs in scripts/bench.sh and the CI ratio gates.
DEFAULT_HOT = [
    "BM_DcOpScalar",
    "BM_DcOpBatch",
    "BM_IcoEvalTransient",
    "BM_IcoEvalTransientBatched",
    "BM_PvtCornerSweepPooled",
    "BM_SurrogateScoreBatch",
    "BM_SurrogateEpoch",
    "BM_SurrogateFit",
    "BM_PpoUpdateBatched",
    "BM_ExtraTreesFit",
    "BM_TreeBoAcquire",
]


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if not isinstance(data, dict) or not data:
        sys.exit(f"error: {path} is not a non-empty benchmark map")
    bad = [k for k, v in data.items() if not isinstance(v, (int, float))]
    if bad:
        sys.exit(f"error: {path}: non-numeric entries: {', '.join(sorted(bad))}")
    return data


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline BENCH_micro.json")
    ap.add_argument("current", help="freshly generated BENCH_micro.json")
    ap.add_argument(
        "--threshold", type=float, default=0.15, metavar="FRAC",
        help="max allowed fractional slowdown for hot benchmarks "
             "(default 0.15 = 15%%)")
    ap.add_argument(
        "--hot", action="append", default=None, metavar="NAME",
        help="hot-path benchmark that gates the exit code (repeatable; "
             "default: the built-in hot-path list)")
    args = ap.parse_args(argv)

    base = load(args.baseline)
    cur = load(args.current)
    hot = args.hot if args.hot else DEFAULT_HOT

    names = sorted(set(base) | set(cur))
    width = max(len(n) for n in names)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'current':>14}  "
          f"{'ratio':>7}")
    regressions = []
    for name in names:
        tag = " hot" if name in hot else ""
        if name not in base:
            print(f"{name:<{width}}  {'—':>14}  {cur[name]:>14.1f}    added{tag}")
            continue
        if name not in cur:
            print(f"{name:<{width}}  {base[name]:>14.1f}  {'—':>14}  removed{tag}")
            if name in hot:
                regressions.append(f"{name}: removed from current run")
            continue
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        mark = ""
        if name in hot:
            mark = " hot"
            if ratio > 1.0 + args.threshold:
                mark = " REGRESSED"
                regressions.append(
                    f"{name}: {base[name]:.1f} -> {cur[name]:.1f} ns/op "
                    f"({(ratio - 1.0) * 100.0:+.1f}%)")
        print(f"{name:<{width}}  {base[name]:>14.1f}  {cur[name]:>14.1f}  "
              f"{ratio:>6.2f}x{mark}")

    missing_hot = [n for n in hot if n not in base and n not in cur]
    if missing_hot:
        sys.exit("error: hot benchmark(s) absent from both files: "
                 + ", ".join(missing_hot))

    if regressions:
        print(f"\nFAIL: {len(regressions)} hot-path regression(s) beyond "
              f"{args.threshold * 100:.0f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print(f"\nOK: no hot-path regression beyond {args.threshold * 100:.0f}% "
          f"({len(hot)} gated benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
