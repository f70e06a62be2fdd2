#!/usr/bin/env python3
"""Unit tests for bench_compare.py (run directly or via ctest).

Each test materialises a baseline file and a current-results directory in a
temp dir and runs bench_compare.main() with patched argv, asserting on the
exit code. The MISSING case is the regression this suite exists for: a
bench present in the baseline but absent from the current run must fail
the gate, not just print a note.
"""

import importlib.util
import json
import pathlib
import sys
import tempfile
import unittest

_TOOLS_DIR = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", _TOOLS_DIR / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def entry(wall_ns, peak_bytes=100):
    return {"wall_ns": wall_ns, "tuples_per_s": 1.0,
            "peak_bytes": peak_bytes}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.baseline_path = self.root / "baseline.json"
        self.current_dir = self.root / "current"
        self.current_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write_baseline(self, entries):
        self.baseline_path.write_text(json.dumps(entries))

    def write_current(self, bench, entries):
        doc = {"bench": bench,
               "entries": [dict(e, name=name) for name, e in entries.items()]}
        (self.current_dir / f"{bench}.json").write_text(json.dumps(doc))

    def run_compare(self, *extra):
        argv = ["bench_compare.py",
                "--baseline", str(self.baseline_path),
                "--current", str(self.current_dir)] + list(extra)
        old = sys.argv
        sys.argv = argv
        try:
            return bench_compare.main()
        finally:
            sys.argv = old

    def test_within_tolerance_passes(self):
        self.write_baseline({"b/0/seminaive": entry(1000)})
        self.write_current("b", {"b/0/seminaive": entry(1100)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 0)

    def test_wall_regression_fails(self):
        # A single-entry suite: the geomean IS the entry's ratio.
        self.write_baseline({"b/0/seminaive": entry(1000)})
        self.write_current("b", {"b/0/seminaive": entry(2000)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_symmetric_noise_passes(self):
        # One entry 2x slower, one 2x faster, two at parity: scheduler
        # noise, not a regression. The geomean stays ~1 and nothing hits
        # the blowup cap, so the gate passes.
        self.write_baseline({f"b/{i}/seminaive": entry(1000)
                             for i in range(4)})
        self.write_current("b", {"b/0/seminaive": entry(2000),
                                 "b/1/seminaive": entry(500),
                                 "b/2/seminaive": entry(1000),
                                 "b/3/seminaive": entry(1000)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 0)

    def test_broad_drift_fails_via_geomean(self):
        # Every entry 25% slower: inside the blowup cap, but the suite
        # geomean (1.25x) is way outside noise.
        self.write_baseline({f"b/{i}/seminaive": entry(1000)
                             for i in range(4)})
        self.write_current("b", {f"b/{i}/seminaive": entry(1250)
                                 for i in range(4)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_single_entry_blowup_fails(self):
        # One entry 4x slower while the rest are at parity: the geomean
        # stays within tolerance but the blowup cap catches it (a bad
        # join order on one query looks exactly like this).
        self.write_baseline({f"b/{i}/seminaive": entry(1000)
                             for i in range(8)})
        current = {f"b/{i}/seminaive": entry(1000) for i in range(8)}
        current["b/3/seminaive"] = entry(4000)
        self.write_current("b", current)
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_peak_bytes_regression_fails(self):
        self.write_baseline({"b/0/seminaive": entry(1000, peak_bytes=100)})
        self.write_current("b", {"b/0/seminaive": entry(1000, peak_bytes=200)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_peak_bytes_one_byte_more_fails(self):
        # peak_bytes is deterministic, so the gate is exact: a byte more
        # fails even far inside the wall-time tolerance.
        self.write_baseline({"b/0/seminaive": entry(1000, peak_bytes=4096)})
        self.write_current("b", {"b/0/seminaive": entry(1000, peak_bytes=4097)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_peak_bytes_one_byte_less_fails(self):
        # A drop fails too: a change that moves accounting on purpose
        # re-records the entries it moved.
        self.write_baseline({"b/0/seminaive": entry(1000, peak_bytes=4096)})
        self.write_current("b", {"b/0/seminaive": entry(1000, peak_bytes=4095)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 1)

    def test_peak_bytes_equal_passes(self):
        self.write_baseline({"b/0/seminaive": entry(1000, peak_bytes=4096)})
        self.write_current("b", {"b/0/seminaive": entry(1000, peak_bytes=4096)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 0)

    def test_peak_bytes_zero_baseline_is_not_gated(self):
        # Entries that record no accounted bytes (0) gate nothing.
        self.write_baseline({"b/0/seminaive": entry(1000, peak_bytes=0)})
        self.write_current("b", {"b/0/seminaive": entry(1000, peak_bytes=512)})
        self.assertEqual(self.run_compare("--tolerance", "0.15"), 0)

    def test_missing_baseline_entry_fails(self):
        # The bug this PR fixes: a baseline-only entry used to print
        # "MISSING" and exit 0, letting a silently-dropped bench pass CI.
        self.write_baseline({"b/0/seminaive": entry(1000),
                             "b/1/separable": entry(1000)})
        self.write_current("b", {"b/0/seminaive": entry(1000)})
        self.assertEqual(self.run_compare(), 1)

    def test_improvement_prints_speedup_ratio(self):
        # A 2x win must read "2.00x faster", not the inverted "0.50x" the
        # FASTER line used to print.
        import contextlib
        import io
        self.write_baseline({"b/0/seminaive": entry(2000)})
        self.write_current("b", {"b/0/seminaive": entry(1000)})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(self.run_compare("--tolerance", "0.15"), 0)
        text = out.getvalue()
        self.assertIn("FASTER", text)
        self.assertIn("2.00x faster", text)
        self.assertNotIn("0.50x", text)

    def test_new_entry_is_informational(self):
        self.write_baseline({"b/0/seminaive": entry(1000)})
        self.write_current("b", {"b/0/seminaive": entry(1000),
                                 "b/1/separable": entry(999)})
        self.assertEqual(self.run_compare(), 0)

    def test_update_rewrites_baseline(self):
        self.write_baseline({"stale/0/naive": entry(1)})
        self.write_current("b", {"b/0/seminaive": entry(1000)})
        self.assertEqual(self.run_compare("--update"), 0)
        rewritten = json.loads(self.baseline_path.read_text())
        self.assertEqual(sorted(rewritten), ["b/0/seminaive"])
        # A subsequent compare against the fresh baseline passes.
        self.assertEqual(self.run_compare(), 0)


if __name__ == "__main__":
    unittest.main()
