#!/bin/sh
# CLI determinism check: `trdse run` prints the same stdout, apart from the
# `# worker` attribution lines, for every thread and worker count.
#
#   scripts/cli_parity.sh <trdse-binary> <scenario-file>
#
# Runs the scenario at (threads, workers) = (1,0), (4,0) and (2,2) and fails
# unless the three filtered outputs are identical. Unlike a committed golden,
# which only one build flavor reproduces, this holds on every build. ctest
# runs it on scenarios/ci_smoke.scenario (label tier1).
set -eu
trdse=$1
scenario=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for cfg in "1 0" "4 0" "2 2"; do
  set -- $cfg
  rc=0
  "$trdse" run "$scenario" --threads "$1" --workers "$2" > "$tmp/raw" || rc=$?
  # 4 = completed with a quarantined job: still a deterministic summary.
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
    echo "cli_parity: trdse run exited $rc at threads=$1 workers=$2" >&2
    exit 1
  fi
  grep -v '^# worker' "$tmp/raw" > "$tmp/t$1_w$2.out" || true
done

if ! grep -q '^# scenario' "$tmp/t1_w0.out"; then
  echo "cli_parity: no summary on stdout" >&2
  exit 1
fi
diff -u "$tmp/t1_w0.out" "$tmp/t4_w0.out"
diff -u "$tmp/t1_w0.out" "$tmp/t2_w2.out"
echo "cli_parity: identical stdout at (1,0), (4,0), (2,2)"
