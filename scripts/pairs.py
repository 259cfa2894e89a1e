#!/usr/bin/env python3
"""Interleaved parent/change pairs: compare two checkouts run by run.

Usage:
    pairs.py --parent DIR --change DIR --workload W [--pairs N] [--seconds S]
             [--first-seed F]
    pairs.py --parent DIR --change DIR --scenario FILE [--pairs N] [-- ARGS...]

DIR is a checkout of the repository (a `git archive` or `git clone` of each
commit; not a worktree of this one). Pair k runs both sides back to back,
the parent first in odd pairs and the change first in even ones, so drift of
a shared host lands on both sides alike.

--workload W   runs `python3 e2ebench/run.py --workload W --seed F+k-1
               --seconds S` with each checkout as the working directory
               (seeds F..F+N-1, F = --first-seed, default 1: pass a seed
               range not used while writing the change to check a claim on
               held-out seeds; the first run of a checkout builds its
               .bench_build/) and reads the JSON object on the last stdout
               line. Each metric's unit and direction come from the parent's
               BENCHMARK.json.
--scenario F   times `<DIR>/build/trdse run F ARGS...` (F relative to each
               checkout): `wall_s`, and `cpu_s`, the user plus system time
               of the process and its workers. Both sides must print
               byte-identical stdout and exit with the same code, 0 or 4
               (completed with a quarantined job), in every pair. Build
               both trees first.

Prints, per metric, the parent's median and interquartile range, the
change's median and its change, and the change's wins/ties/losses over the
pairs. Each end-to-end metric (one with a bound in BENCHMARK.json) also gets
a verdict, the first of these that holds:

  gain          the change won at least 9/10 of the pairs (ties count for
                neither), and its median beats the parent's by more than
                the parent's interquartile range;
  worse         the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    the parent's interquartile range, as a share of its median,
                exceeds the bound, and not every change run beats every
                parent run: the runs spread too widely to call it unchanged;
  within bound  none of the above.

Exits 1 when a run fails, an e2ebench run reports `correct` false, or the
two sides' `trdse run` stdout or exit code differ. Reads e2ebench/ and
BENCHMARK.json; writes nothing in either checkout beyond what the runs
themselves leave (.bench_build/, .bench_out/).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time


def fail(msg):
    sys.exit(f"pairs: {msg}")


def quartiles(values):
    """(q1, median, q3); the quartiles collapse to the value for one run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_e2e(checkout, workload, seed, seconds):
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    where = f"{checkout} seed {seed}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"e2ebench exited {proc.returncode} in {where}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no JSON result line from e2ebench in {where}")
    if not result.get("correct"):
        fail(f"e2ebench reports correct=false in {where}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_scenario(checkout, scenario, trdse_args):
    exe = os.path.join(checkout, "build", "trdse")
    if not os.access(exe, os.X_OK):
        fail(f"{exe} not found; build the checkout first")
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([exe, "run", scenario] + trdse_args, cwd=checkout,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode not in (0, 4):
        fail(f"trdse run exited {proc.returncode} in {checkout}")
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return {"wall_s": seconds, "cpu_s": cpu}, (proc.returncode, proc.stdout)


def metric_specs(parent):
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {m["name"]: dict(m, end_to_end=False) for m in spec["per_layer"]}
    for m in spec["end_to_end"]:
        specs[m["name"]] = dict(m, end_to_end=True)
    return specs


def verdict(par, chg, wins, lower, bound):
    """The verdict on one end-to-end metric (see the module docstring)."""
    q1, pmed, q3 = quartiles(par)
    gap = statistics.median(chg) - pmed
    if lower:
        gap = -gap  # > 0: the change is better
    if wins >= 0.9 * len(par) and gap > q3 - q1:
        return "gain"
    if pmed and -gap / abs(pmed) > bound:
        return f"worse (bound {bound:g})"
    beats_all = max(chg) < min(par) if lower else min(chg) > max(par)
    if pmed and (q3 - q1) / abs(pmed) > bound and not beats_all:
        return "unresolved"
    return "within bound"


def report(title, runs, specs):
    """runs: one (parent metrics, change metrics) pair per pair index."""
    names = [n for n in runs[0][0] if all(n in p and n in c for p, c in runs)]
    print(f"# {title}: {len(runs)} interleaved pairs")
    print(f"{'metric':<30} {'parent med':>11} {'parent IQR':>11} "
          f"{'change med':>11} {'change':>8}  W/T/L  verdict")
    for name in names:
        spec = specs.get(name, {"unit": "", "better": "lower"})
        lower = spec["better"] == "lower"
        par = [p[name] for p, _ in runs]
        chg = [c[name] for _, c in runs]
        q1, pmed, q3 = quartiles(par)
        cmed = statistics.median(chg)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        rel = (cmed - pmed) / abs(pmed) if pmed else 0.0
        line = (f"{name:<30} {pmed:>11.4g} {q3 - q1:>11.3g} {cmed:>11.4g} "
                f"{100 * rel:>+7.1f}%  {wins}/{ties}/{len(runs) - wins - ties}")
        if spec.get("end_to_end"):
            line += "  " + verdict(par, chg, wins, lower, spec["bound"])
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="e2ebench workload name")
    mode.add_argument("--scenario", help="scenario file for `trdse run`")
    ap.add_argument("--pairs", type=int, default=10, help="pairs (default 10)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="e2ebench --seconds per run (default 20)")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="e2ebench seed of the first pair (default 1)")
    ap.add_argument("trdse_args", nargs=argparse.REMAINDER,
                    help="after --: extra `trdse run` arguments")
    args = ap.parse_args(argv)
    trdse_args = args.trdse_args
    if trdse_args and trdse_args[0] == "--":
        trdse_args = trdse_args[1:]
    if trdse_args and not args.scenario:
        ap.error("extra arguments only apply to --scenario")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.first_seed != 1 and not args.workload:
        ap.error("--first-seed only applies to --workload")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    specs = metric_specs(sides["parent"])

    runs = []
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        got, out = {}, {}
        for side in order:
            if args.workload:
                got[side] = run_e2e(sides[side], args.workload,
                                    args.first_seed + k - 1, args.seconds)
            else:
                got[side], out[side] = run_scenario(
                    sides[side], args.scenario, trdse_args)
        if args.scenario and out["parent"] != out["change"]:
            fail(f"pair {k}: trdse run stdout or exit code differs "
                 f"(parent exit {out['parent'][0]}, "
                 f"change exit {out['change'][0]})")
        runs.append((got["parent"], got["change"]))
        print(f"pair {k}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    last_seed = args.first_seed + args.pairs - 1
    title = (f"e2ebench {args.workload}, --seconds {args.seconds:g}, "
             f"seeds {args.first_seed}..{last_seed}"
             if args.workload else
             " ".join(["trdse run", args.scenario] + trdse_args))
    report(title, runs, specs)


if __name__ == "__main__":
    main()
