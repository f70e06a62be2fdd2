#!/usr/bin/env python3
"""Serve benchmark entry point.

Builds `seprec_cli` and the load generator from this checkout's sources,
then runs one workload:

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of the in-process traced replay with
--trace 1. Build output goes to .bench_build/ (or $CARGO_TARGET_DIR), run
data to .bench_run/.

    python3 perfbench/run.py --self-test

runs a short hot_reads run with one answer corrupted and exits 0 only if
the benchmark reports it as a failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot_reads", "adhoc_queries", "write_mix")
# The first build of a checkout may take this long; later runs reuse it.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def local_env(out):
    """The environment for every child: temporary files stay in `out`."""
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out):
    """Configures and builds the two binaries; returns their paths."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    env = local_env(out)
    subprocess.run(
        ["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    subprocess.run(
        ["cmake", "--build", out, "--parallel", "4",
         "--target", "seprec_cli", "perfbench_loadgen"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    return (os.path.join(out, "seprec_cli"),
            os.path.join(out, "perfbench_loadgen"))


def run_loadgen(loadgen, cli, args, extra=()):
    cmd = [loadgen, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=local_env(build_dir()))


def self_test(loadgen, cli):
    args = argparse.Namespace(workload="hot_reads", seed=7, seconds=1, trace=0)
    proc = run_loadgen(loadgen, cli, args, ["--corrupt-one"])
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("self-test: no result line")
        return 1
    result = json.loads(lines[-1])
    detected = result["failed"] > 0 and not result["correct"]
    print("self-test: corrupted answer %s (failed=%d of %d)"
          % ("detected" if detected else "NOT detected", result["failed"],
             result["attempted"]))
    return 0 if detected else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        cli, loadgen = build(build_dir())
    except (subprocess.SubprocessError, OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 1
    if args.self_test:
        return self_test(loadgen, cli)
    proc = run_loadgen(loadgen, cli, args)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
