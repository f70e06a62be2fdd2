#!/usr/bin/env bash
# Diff `seprec_cli analyze --explain-plan` output for the testdata
# programs against the committed goldens in tools/testdata/golden/.
#
# Usage: tools/check_plan_goldens.sh <seprec_cli-binary> [--regen]
#
# Compared are the plan lines ("== plan for ..." headers and "  mode=..."
# rule lines) and, from each query's S200 note, the chosen strategy and
# the pass verdicts ("== strategy for ...: <strategy>; passes: ..."), so
# diagnostics wording can evolve without churning the goldens — but any
# change to a chosen join order, cost estimate, planner mode, strategy or
# pass verdict fails the diff. --regen rewrites the goldens from the
# current binary instead (commit the result alongside the change that
# caused it). The CI plan-golden step runs the diff mode.
set -euo pipefail

CLI=${1:?usage: check_plan_goldens.sh <seprec_cli> [--regen]}
REGEN=${2:-}
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DATA="$ROOT/tools/testdata"
GOLDEN="$DATA/golden"
mkdir -p "$GOLDEN"

declare -A EXTRA=(
  [tc]="--data edge=$DATA/edges.tsv"
  [wide]="--data big_a=$DATA/big_a.tsv --data big_b=$DATA/big_b.tsv \
          --data link=$DATA/link.tsv"
)
PROGRAMS=(tc social nonlinear bounded wide selfloop)

status=0
for p in "${PROGRAMS[@]}"; do
  # analyze exits 1 when it reports warnings; the plan dump is still
  # complete, so tolerate it (a crash or usage error still aborts).
  out=$("$CLI" analyze "$DATA/$p.dl" --explain-plan ${EXTRA[$p]:-}) || {
    code=$?
    if [[ $code -ge 2 ]]; then
      echo "check_plan_goldens: analyze $p.dl exited $code" >&2
      exit $code
    fi
  }
  # An S200 note's reason is wording; its strategy and verdicts are not.
  plan=$(printf '%s\n' "$out" | sed -nE -e '/^(== plan|  mode=)/p' -e \
    's/.*: note: strategy for ([^:]*): ([a-z]+) \(.*\); passes: ([^ ]*) \[S200\]$/== strategy for \1: \2; passes: \3/p')
  if [[ "$REGEN" == "--regen" ]]; then
    printf '%s\n' "$plan" > "$GOLDEN/$p.plan"
    echo "regenerated $GOLDEN/$p.plan"
  elif ! diff -u "$GOLDEN/$p.plan" <(printf '%s\n' "$plan"); then
    echo "check_plan_goldens: $p.plan differs (rerun with --regen and" \
         "commit the update if the change is intended)" >&2
    status=1
  fi
done
if [[ $status -eq 0 && "$REGEN" != "--regen" ]]; then
  echo "check_plan_goldens: ${#PROGRAMS[@]} plan dump(s) match"
fi
exit $status
