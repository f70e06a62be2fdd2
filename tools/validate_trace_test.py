#!/usr/bin/env python3
"""Unit tests for validate_trace.py (run directly or via ctest).

Each test materialises a trace file in a temp dir and runs
validate_trace.main() with patched argv, asserting on the exit code.
Only the schema version the sink emits (5) is valid; every event kind
must carry exactly its fields with the right types, and every engine must
finish as many runs as it starts.
"""

import importlib.util
import json
import pathlib
import sys
import tempfile
import unittest

_TOOLS_DIR = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "validate_trace", _TOOLS_DIR / "validate_trace.py")
validate_trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(validate_trace)


V = validate_trace.SCHEMA_VERSION


def envelope(seq, ev, v=V, t=None):
    return {"v": v, "seq": seq, "t": float(seq) if t is None else t,
            "ev": ev}


def engine_pair(v=V, engine="seminaive", seq0=0):
    start = dict(envelope(seq0, "engine_start", v=v), engine=engine)
    round_end = dict(envelope(seq0 + 1, "round_end", v=v), engine=engine,
                     phase="stratum0", round=0, emitted=1, inserted=1,
                     delta=0)
    finish = dict(envelope(seq0 + 2, "engine_finish", v=v), engine=engine,
                  seconds=0.5, iterations=1, tuples=1, polls=0,
                  insert_attempts=1, insert_new=1)
    return [start, round_end, finish]


def pass_event(seq, v=V, name="bounded", verdict="rewritten"):
    return dict(envelope(seq, "pass", v=v), **{"pass": name},
                verdict=verdict, detail="t/2: bound 0")


def plan_event(seq, v=V):
    return dict(envelope(seq, "plan", v=v), engine="seminaive",
                phase="compile/base",
                rule="tc(X, Y) :- edge(X, W), tc(W, Y).", mode="cbo",
                algo="hash", order="1,0", cost=12.5, est_rows=3)


def delta_event(seq, v=V):
    return dict(envelope(seq, "delta", v=v), phase="delete", detail="edge",
                delta=2, inserted=1, emitted=0, seconds=0.001)


def subscription_event(seq, v=V, cause="notify"):
    return dict(envelope(seq, "subscription", v=v), cause=cause,
                detail="sub1 tc(a, X)", delta=3)


def one_of_each(v=V):
    """One event of every kind, in a valid seq order."""
    events = [
        dict(envelope(0, "engine_start", v=v), engine="separable"),
        dict(envelope(1, "round_start", v=v), engine="separable",
             phase="phase1", round=0, delta=1),
        dict(envelope(2, "rule", v=v), engine="separable", phase="phase1",
             round=0, rule="tc(X, Y) :- edge(X, Y).", emitted=1,
             inserted=1, probes=2),
        dict(envelope(3, "merge", v=v), engine="separable", phase="phase1",
             round=0, staged=2, inserted=1),
        dict(envelope(4, "round_end", v=v), engine="separable",
             phase="phase1", round=0, emitted=1, inserted=1, delta=0),
        dict(envelope(5, "engine_finish", v=v), engine="separable",
             seconds=0.5, iterations=1, tuples=1, polls=0,
             insert_attempts=1, insert_new=1),
        dict(envelope(6, "governor_trip", v=v), cause="timeout",
             detail="deadline"),
        dict(envelope(7, "cache", v=v), phase="plan", cause="hit",
             detail="key"),
        dict(envelope(8, "session", v=v), cause="open", detail="fd 7"),
        pass_event(9, v=v),
        plan_event(10, v=v),
        delta_event(11, v=v),
        subscription_event(12, v=v),
        dict(envelope(13, "note", v=v), detail="free-form"),
    ]
    assert {e["ev"] for e in events} == set(validate_trace.EVENT_FIELDS)
    return events


class ValidateTraceTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.trace_path = pathlib.Path(self._tmp.name) / "trace.jsonl"

    def tearDown(self):
        self._tmp.cleanup()

    def write_trace(self, events):
        lines = [json.dumps(e) for e in events]
        self.trace_path.write_text("\n".join(lines) + "\n")

    def run_validate(self, *extra):
        argv = ["validate_trace.py", str(self.trace_path)] + list(extra)
        old = sys.argv
        sys.argv = argv
        try:
            return validate_trace.main()
        finally:
            sys.argv = old

    def test_every_event_kind_valid(self):
        self.write_trace(one_of_each())
        self.assertEqual(self.run_validate(), 0)

    def test_other_versions_rejected(self):
        for v in (1, 4, 6):
            with self.subTest(v=v):
                self.write_trace(one_of_each(v=v))
                self.assertEqual(self.run_validate(), 1)

    def test_unknown_event_rejected(self):
        unknown = dict(envelope(0, "no_such_event"), engine="seminaive")
        self.write_trace([unknown] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_plan_event_missing_algo_rejected(self):
        bad = plan_event(0)
        del bad["algo"]
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_plan_event_bad_cost_type_rejected(self):
        bad = dict(plan_event(0), cost="cheap")
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_delta_event_bad_inserted_type_rejected(self):
        bad = dict(delta_event(0), inserted="one")
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_subscription_event_missing_cause_rejected(self):
        bad = subscription_event(0)
        del bad["cause"]
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_pass_event_missing_verdict_rejected(self):
        bad = pass_event(0)
        del bad["verdict"]
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_pass_event_unexpected_field_rejected(self):
        bad = dict(pass_event(0), engine="seminaive")
        self.write_trace([bad] + engine_pair(seq0=1))
        self.assertEqual(self.run_validate(), 1)

    def test_seq_gap_rejected(self):
        events = engine_pair()
        events[2]["seq"] = 7
        self.write_trace(events)
        self.assertEqual(self.run_validate(), 1)

    def test_time_going_backwards_rejected(self):
        events = engine_pair()
        events[2]["t"] = 0.0
        events[1]["t"] = 5.0
        self.write_trace(events)
        self.assertEqual(self.run_validate(), 1)

    def test_require_engine_enforced(self):
        self.write_trace(engine_pair(engine="seminaive"))
        self.assertEqual(self.run_validate("--require-engine", "seminaive"),
                         0)
        self.assertEqual(self.run_validate("--require-engine", "separable"),
                         1)

    def test_orphan_engine_start_rejected(self):
        orphan = dict(envelope(3, "engine_start"), engine="separable")
        self.write_trace(engine_pair() + [orphan])
        self.assertEqual(self.run_validate(), 1)

    def test_interleaved_engines_that_balance_pass(self):
        # Two served requests overlap: each engine's runs balance, though
        # neither nests inside the other.
        a = engine_pair(engine="separable")
        b = engine_pair(engine="nonrecursive", seq0=3)
        events = [a[0], b[0], a[1], b[1], a[2], b[2]]
        for seq, event in enumerate(events):
            event["seq"] = seq
            event["t"] = float(seq)
        self.write_trace(events)
        self.assertEqual(self.run_validate(), 0)

    def test_empty_trace_rejected(self):
        self.trace_path.write_text("")
        self.assertEqual(self.run_validate(), 1)


if __name__ == "__main__":
    unittest.main()
