#!/usr/bin/env python3
"""Compare bench --json results against a committed baseline.

Usage:
  tools/bench_compare.py --baseline bench/baseline.json --current DIR \
      [--tolerance 0.15] [--blowup 3.0] [--update]

DIR holds one <bench>.json per bench binary (written via --json; see
tools/run_benches.sh). Each file looks like:

  {"bench": "tab_lemma41",
   "entries": [{"name": "...", "wall_ns": 1, "tuples_per_s": 2.0,
                "peak_bytes": 3}, ...]}

The baseline is one merged map, entry name -> measurement.

Gate design. Per-entry wall clock on shared runners is far too noisy to
gate directly: sub-100us entries swing 2-3x run to run purely from
scheduler phase, so a per-entry threshold either fires constantly or is
too loose to mean anything. Wall time is therefore gated two ways:

  * the geometric mean of per-entry wall_ns ratios must stay within
    --tolerance of 1.0 — noise averages out across the whole suite
    (observed stability: about +/-3% across back-to-back runs while
    individual entries swing 2-3x), so a sustained slowdown of the
    engine trips this even when every individual entry is inside its
    noise band;
  * each individual entry must stay under --blowup (default 3x) — a
    catastrophic single-entry regression (a bad join order turning a
    probe into a cross product is 5-100x) is caught immediately without
    the cap firing on noise.

peak_bytes is gated exactly, per entry, in both directions, wherever the
baseline records more than 0: it is the governor-accounted byte count,
which is deterministic (the bench suite reads the same on every run and
host), so any difference means the accounting or the work changed. A
drop fails too, because a change that moves accounting on purpose must
re-record the entries it moved (--update) rather than pass silently.
tuples_per_s is informational only (it moves inversely with wall time).
Per-entry wall swings beyond --tolerance are still printed
(SLOWER/FASTER) for the log, but only the geomean, the blowup cap,
peak_bytes, and missing entries fail the gate.

A baseline entry absent from the current run is a regression: a bench
that silently stopped running (renamed, crashed before --json, dropped
from the runner script) must not pass the gate. Retire a bench by
updating the baseline. Entries only in the current run are informational
(NEW); pass --update to rewrite the baseline from the current results
instead of comparing.

Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import math
import pathlib
import sys


def load_current(current_dir):
    merged = {}
    files = sorted(pathlib.Path(current_dir).glob("*.json"))
    if not files:
        print(f"bench_compare: no .json files in {current_dir}",
              file=sys.stderr)
        sys.exit(2)
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        for entry in doc.get("entries", []):
            merged[entry["name"]] = {
                "wall_ns": entry["wall_ns"],
                "tuples_per_s": entry["tuples_per_s"],
                "peak_bytes": entry["peak_bytes"],
            }
    return merged


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True,
                    help="directory of per-bench --json outputs")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="bound on the wall_ns geomean ratio")
    ap.add_argument("--blowup", type=float, default=3.0,
                    help="per-entry wall_ns hard cap (catastrophic "
                         "regression catcher)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current results")
    args = ap.parse_args()

    current = load_current(args.current)

    if args.update:
        with open(args.baseline, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_compare: wrote {len(current)} entries to "
              f"{args.baseline}")
        return 0

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except OSError as e:
        print(f"bench_compare: cannot read baseline: {e}", file=sys.stderr)
        return 2

    failures = []       # (name, reason) pairs that fail the gate
    log_ratios = []     # per-entry ln(current/baseline) wall ratios
    noted = []          # informational per-entry wall swings
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"  MISSING  {name} (in baseline, not in current run)")
            failures.append((name, "missing"))
            continue
        if name not in baseline:
            print(f"  NEW      {name} (not in baseline; run with --update)")
            continue
        base, cur = baseline[name], current[name]

        b, c = base["wall_ns"], cur["wall_ns"]
        if b > 0 and c > 0:
            ratio = c / b
            log_ratios.append(math.log(ratio))
            if ratio > args.blowup:
                failures.append((name, f"wall_ns blowup {ratio:.2f}x"))
                print(f"  BLOWUP   {name} wall_ns: {b} -> {c} "
                      f"({ratio:.2f}x, cap {args.blowup:.1f}x)")
            elif ratio > 1 + args.tolerance:
                noted.append((name, "wall_ns", b, c, ratio))
            elif ratio < 1 - args.tolerance:
                # Report improvements as a speedup (baseline/current):
                # halving the time reads "2.00x faster", not "0.50x".
                speedup = b / c if c else float("inf")
                print(f"  FASTER   {name} wall_ns: {b} -> {c} "
                      f"({speedup:.2f}x faster)")

        b, c = base["peak_bytes"], cur["peak_bytes"]
        if b > 0 and c != b:
            failures.append((name, f"peak_bytes {b} -> {c}"))
            print(f"  CHANGED  {name} peak_bytes: {b} -> {c} "
                  f"({c - b:+d} bytes; gated exactly, re-record with "
                  f"--update if intended)")

    for name, metric, b, c, ratio in noted:
        print(f"  SLOWER   {name} {metric}: {b} -> {c} ({ratio:.2f}x, "
              f"inside blowup cap; gated via geomean)")

    geomean = math.exp(sum(log_ratios) / len(log_ratios)) if log_ratios \
        else 1.0
    if geomean > 1 + args.tolerance:
        failures.append(("<suite>", f"wall_ns geomean {geomean:.3f}x"))

    checked = len(set(baseline) & set(current))
    print(f"bench_compare: {checked} entries checked, wall_ns geomean "
          f"{geomean:.3f}x (tolerance {args.tolerance:.0%}), "
          f"{len(failures)} gate failure(s)")
    for name, reason in failures:
        print(f"  FAIL {name}: {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
