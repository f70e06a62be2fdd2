#!/usr/bin/env python3
"""Validate a --trace JSON-lines file against the trace event schema.

Usage: tools/validate_trace.py trace.jsonl [--require-engine NAME]...

Checks, per line: parses as a JSON object, carries the envelope fields
(v equal to the schema version JsonTraceSink emits, monotonically
increasing seq, non-decreasing numeric t, known ev), and carries exactly
the fields its event kind requires with the right JSON types (the schema
in src/eval/trace.h). Across the file, every engine must have as many
engine_finish events as engine_start events — counts, not nesting, since a
served session interleaves the runs of concurrent requests. With
--require-engine the file must additionally contain an engine_start, an
engine_finish, and at least one round_end for that engine (the CI smoke
query uses this to prove the traced path actually ran).

Exit codes: 0 = valid, 1 = schema violation, 2 = usage/IO error.
"""

import argparse
import json
import sys

# JsonTraceSink::kSchemaVersion.
SCHEMA_VERSION = 5

ENVELOPE = {"v": int, "seq": int, "t": (int, float), "ev": str}

# ev -> {field: required JSON type(s)} beyond the envelope.
EVENT_FIELDS = {
    "engine_start": {"engine": str},
    "engine_finish": {"engine": str, "seconds": (int, float),
                      "iterations": int, "tuples": int, "polls": int,
                      "insert_attempts": int, "insert_new": int},
    "round_start": {"engine": str, "phase": str, "round": int, "delta": int},
    "round_end": {"engine": str, "phase": str, "round": int, "emitted": int,
                  "inserted": int, "delta": int},
    "rule": {"engine": str, "phase": str, "round": int, "rule": str,
             "emitted": int, "inserted": int, "probes": int},
    "merge": {"engine": str, "phase": str, "round": int, "staged": int,
              "inserted": int},
    "governor_trip": {"cause": str, "detail": str},
    "cache": {"phase": str, "cause": str, "detail": str},
    "session": {"cause": str, "detail": str},
    "pass": {"pass": str, "verdict": str, "detail": str},
    "plan": {"engine": str, "phase": str, "rule": str, "mode": str,
             "algo": str, "order": str, "cost": (int, float),
             "est_rows": int},
    "delta": {"phase": str, "detail": str, "delta": int, "inserted": int,
              "emitted": int, "seconds": (int, float)},
    "subscription": {"cause": str, "detail": str, "delta": int},
    "note": {"detail": str},
}


def check_fields(obj, spec, lineno, errors):
    for field, types in spec.items():
        if field not in obj:
            errors.append(f"line {lineno}: missing field '{field}'")
        elif not isinstance(obj[field], types):
            errors.append(f"line {lineno}: field '{field}' has type "
                          f"{type(obj[field]).__name__}")
    allowed = set(ENVELOPE) | set(spec)
    for field in obj:
        if field not in allowed:
            errors.append(f"line {lineno}: unexpected field '{field}'")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--require-engine", action="append", default=[],
                    help="engine name that must appear with start, finish, "
                         "and at least one round_end event")
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            lines = f.readlines()
    except OSError as e:
        print(f"validate_trace: {e}", file=sys.stderr)
        return 2

    errors = []
    seen = {}  # engine -> set of "start"/"finish"/"round"
    runs = {}  # engine -> [engine_start count, engine_finish count]
    prev_seq = -1
    prev_t = -1.0
    for lineno, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            errors.append(f"line {lineno}: empty line")
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not JSON ({e})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        for field, types in ENVELOPE.items():
            if field not in obj:
                errors.append(f"line {lineno}: missing envelope '{field}'")
            elif not isinstance(obj[field], types):
                errors.append(f"line {lineno}: envelope '{field}' has type "
                              f"{type(obj[field]).__name__}")
        if not all(f in obj and isinstance(obj[f], ENVELOPE[f])
                   for f in ENVELOPE):
            continue
        if obj["v"] != SCHEMA_VERSION:
            errors.append(f"line {lineno}: schema version {obj['v']}, "
                          f"expected {SCHEMA_VERSION}")
        if obj["seq"] != prev_seq + 1:
            errors.append(f"line {lineno}: seq {obj['seq']} after {prev_seq}")
        prev_seq = obj["seq"]
        if obj["t"] < prev_t:
            errors.append(f"line {lineno}: t went backwards")
        prev_t = obj["t"]
        ev = obj["ev"]
        if ev not in EVENT_FIELDS:
            errors.append(f"line {lineno}: unknown event '{ev}'")
            continue
        check_fields(obj, EVENT_FIELDS[ev], lineno, errors)
        engine = obj.get("engine")
        if isinstance(engine, str):
            marks = seen.setdefault(engine, set())
            if ev == "engine_start":
                marks.add("start")
                runs.setdefault(engine, [0, 0])[0] += 1
            elif ev == "engine_finish":
                marks.add("finish")
                runs.setdefault(engine, [0, 0])[1] += 1
            elif ev == "round_end":
                marks.add("round")

    if prev_seq < 0:
        errors.append("trace is empty")
    for engine, (starts, finishes) in sorted(runs.items()):
        if starts != finishes:
            errors.append(f"engine '{engine}': {starts} engine_start but "
                          f"{finishes} engine_finish event(s)")
    for engine in args.require_engine:
        missing = {"start", "finish", "round"} - seen.get(engine, set())
        if missing:
            errors.append(f"engine '{engine}': missing "
                          f"{', '.join(sorted(missing))} event(s)")

    for err in errors:
        print(f"validate_trace: {err}", file=sys.stderr)
    if not errors:
        print(f"validate_trace: {len(lines)} event(s) OK, engines: "
              f"{', '.join(sorted(seen)) or '(none)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
