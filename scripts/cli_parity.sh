#!/bin/sh
# CLI determinism check: `trdse run` prints the same stdout, apart from the
# `# worker` attribution lines, for every thread and worker count.
#
#   scripts/cli_parity.sh <trdse-binary> <scenario-file> [--journal]
#
# Runs the scenario at (threads, workers) = (1,0), (4,0) and (2,2) and fails
# unless the three filtered outputs are identical. Unlike a committed golden,
# which only one build flavor reproduces, this holds on every build. ctest
# runs it on scenarios/ci_smoke.scenario (label tier1).
#
# With --journal, each configuration also runs under `--journal`, then with
# `--resume` on the finished journal; both must print the unjournaled
# stdout. Every strategy in the scenario must checkpoint.
set -eu
trdse=$1
scenario=$2
journal=${3:-}
if [ -n "$journal" ] && [ "$journal" != "--journal" ]; then
  echo "cli_parity: unknown option $journal" >&2
  exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run_filtered <out> <threads> <workers> [trdse run options...]
run_filtered() {
  out=$1
  threads=$2
  workers=$3
  shift 3
  rc=0
  "$trdse" run "$scenario" --threads "$threads" --workers "$workers" "$@" \
    > "$tmp/raw" || rc=$?
  # 4 = completed with a quarantined job: still a deterministic summary.
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
    echo "cli_parity: trdse run $* exited $rc at threads=$threads" \
         "workers=$workers" >&2
    exit 1
  fi
  grep -v '^# worker' "$tmp/raw" > "$out" || true
}

for cfg in "1 0" "4 0" "2 2"; do
  set -- $cfg
  run_filtered "$tmp/t$1_w$2.out" "$1" "$2"
  if [ -n "$journal" ]; then
    j="$tmp/t$1_w$2.journal"
    run_filtered "$tmp/t$1_w$2.journaled" "$1" "$2" --journal "$j"
    run_filtered "$tmp/t$1_w$2.resumed" "$1" "$2" --journal "$j" --resume
    diff -u "$tmp/t$1_w$2.out" "$tmp/t$1_w$2.journaled"
    diff -u "$tmp/t$1_w$2.out" "$tmp/t$1_w$2.resumed"
  fi
done

if ! grep -q '^# scenario' "$tmp/t1_w0.out"; then
  echo "cli_parity: no summary on stdout" >&2
  exit 1
fi
diff -u "$tmp/t1_w0.out" "$tmp/t4_w0.out"
diff -u "$tmp/t1_w0.out" "$tmp/t2_w2.out"
if [ -n "$journal" ]; then
  echo "cli_parity: identical stdout at (1,0), (4,0), (2,2)," \
       "journaled and resumed"
else
  echo "cli_parity: identical stdout at (1,0), (4,0), (2,2)"
fi
