#!/usr/bin/env python3
"""JSON-lines client for `seprec_cli serve` (DESIGN.md section 10).

Connects to the Unix-domain socket, sends one query request per
connection, and renders the streamed reply exactly like `seprec_cli run`
renders its answers — so CI can diff server answers against one-shot CLI
answers byte for byte.

Usage:
  tools/seprec_client.py SOCKET PROGRAM.dl [--query 'q(a, X)']
      [--strategy auto|separable|magic|counting|qsqr|seminaive|naive]
      [--no-cache] [--no-opt] [--stats] [--parallel N]
      [--timeout-ms N] [--max-tuples N] [--max-bytes N]
      [--max-iterations N]
      [--load REL=FILE.tsv]... [--load-mode insert|delete]
      [--checkpoint]
      [--subscribe [--expect-deltas N] [--delta-timeout SECONDS]]

--no-opt sends "optimize": false, which skips the static pass pipeline
for the request. --stats prints the reply's pass summary ("%% passes:
...", when the pipeline ran) and cache counters after the answers.

With --parallel N the same request is fired over N concurrent
connections; the rendered outputs must be bit-identical (exit 1 when any
pair differs — the concurrency smoke check) and the first is printed.

With --load REL=FILE.tsv (repeatable) each file's rows are sent as one
"load" op before anything else; --load-mode delete turns them into
deletions. With --load alone (no --query/--subscribe) the tool exits
after the loads.

With --checkpoint a "checkpoint" op is sent after any --load ops (and
before any query): the server snapshots the database, retires the WAL,
and (in segment mode) re-bases every relation onto the fresh mmap-backed
segment files. Prints "%% checkpoint ..." with the snapshot name. With
--checkpoint alone (no --query/--subscribe) the tool exits after it.

With --subscribe the query is registered as a server-side subscription:
the baseline is printed as "%% subscribed S with N answer(s)" and every
pushed delta as one "+tuple" / "-tuple" line per (newly derived /
retracted) tuple. --expect-deltas N exits 0 after the N-th delta event;
without it the stream runs until the server closes the connection. A
"dropped" push or --delta-timeout expiring exits 1 (the CI streaming
smoke relies on both).

Exit codes mirror the CLI: 0 success, 1 failure (or parallel mismatch,
or a connection that closed before the reply's "done" line), 2 usage,
3 partial result / resource limit.
"""

import argparse
import json
import socket
import sys
import threading


def build_request(args):
    req = {"op": "query", "id": 1, "program": args.program_text}
    if args.query:
        req["query"] = args.query
    if args.strategy:
        req["strategy"] = args.strategy
    if args.no_cache:
        req["cache"] = False
    if args.no_opt:
        req["optimize"] = False
    limits = {}
    for key in ("timeout_ms", "max_tuples", "max_bytes", "max_iterations"):
        val = getattr(args, key)
        if val is not None:
            limits[key] = val
    if limits:
        req["limits"] = limits
    return req


def parse_tsv_rows(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            rows.append(line.split("\t"))
    return rows


def run_loads(sock_path, loads, mode):
    """Sends one load op per REL=FILE spec over a single connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        for i, (relation, path) in enumerate(loads):
            req = {"op": "load", "id": i + 1, "relation": relation,
                   "rows": parse_tsv_rows(path)}
            if mode != "insert":
                req["mode"] = mode
            f.write(json.dumps(req) + "\n")
            f.flush()
            msg = json.loads(f.readline())
            if msg.get("ev") == "error":
                sys.stderr.write("seprec_client: load %s: [%s] %s\n"
                                 % (relation, msg.get("code", "?"),
                                    msg.get("message", "")))
                return 1
            sys.stdout.write("%%%% loaded %s: changed=%d generation=%d\n"
                             % (relation, msg.get("changed", 0),
                                msg.get("generation", 0)))
            sys.stdout.flush()
    return 0


def run_checkpoint(sock_path):
    """Sends one checkpoint op and prints the snapshot it produced."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        f.write(json.dumps({"op": "checkpoint", "id": 1}) + "\n")
        f.flush()
        msg = json.loads(f.readline())
        if msg.get("ev") == "error":
            sys.stderr.write("seprec_client: checkpoint: [%s] %s\n"
                             % (msg.get("code", "?"),
                                msg.get("message", "")))
            return 1
        sys.stdout.write(
            "%%%% checkpoint %s generation=%d wal_bytes_truncated=%d\n"
            % (msg.get("snapshot", "?"), msg.get("generation", 0),
               msg.get("wal_bytes_truncated", 0)))
        sys.stdout.flush()
    return 0


def run_subscribe(sock_path, request, expect_deltas, delta_timeout):
    request = dict(request)
    request["op"] = "subscribe"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.settimeout(delta_timeout)
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        f.write(json.dumps(request) + "\n")
        f.flush()
        try:
            ack = json.loads(f.readline())
        except socket.timeout:
            sys.stderr.write("seprec_client: subscribe ack timed out\n")
            return 1
        if ack.get("ev") == "error":
            sys.stderr.write("seprec_client: [%s] %s\n"
                             % (ack.get("code", "?"),
                                ack.get("message", "")))
            return 1
        sys.stdout.write("%%%% subscribed %d with %d answer(s)\n"
                         % (ack["subscription"], ack["answers"]))
        sys.stdout.flush()
        deltas = 0
        while expect_deltas is None or deltas < expect_deltas:
            try:
                line = f.readline()
            except socket.timeout:
                sys.stderr.write("seprec_client: no delta within %gs\n"
                                 % delta_timeout)
                return 1
            if not line:
                # Server closed: fine without a target, a failure with one.
                return 0 if expect_deltas is None else 1
            msg = json.loads(line)
            ev = msg.get("ev")
            if ev == "delta":
                deltas += 1
                for t in msg.get("tuples", []):
                    sys.stdout.write("+%s\n" % t)
                for t in msg.get("retracted", []):
                    sys.stdout.write("-%s\n" % t)
                sys.stdout.flush()
            elif ev == "dropped":
                sys.stderr.write("seprec_client: subscription dropped: %s\n"
                                 % msg.get("reason", ""))
                return 1
    return 0


def run_request(sock_path, request, want_stats):
    """Returns (rendered_text, exit_code).

    The reply ends with a "done" (or "error") line; a connection that
    closes before it, e.g. because the server died mid-request, is a
    failure (exit code 1), not a short answer.
    """
    out = []
    code = 0
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        f.write(json.dumps(request) + "\n")
        f.flush()
        for line in f:
            if not line.endswith("\n"):
                break  # cut off mid-line: the stream ended early
            msg = json.loads(line)
            ev = msg.get("ev")
            if ev == "begin":
                out.append("?- %s.\n" % msg["query"])
            elif ev == "result":
                out.append("%s\n" % msg["tuple"])
            elif ev == "answer":
                out.append("%% %d answer(s) via %s\n"
                           % (msg["answers"], msg["strategy"]))
                for note in msg.get("notes", []):
                    out.append("%%%% note[%s]: %s\n"
                               % (note["code"], note["message"]))
                if msg.get("partial"):
                    out.append("%%%% partial result (%s)\n"
                               % msg.get("cause", "unknown"))
                    code = 3
                if want_stats:
                    if "passes" in msg:
                        out.append("%%%% passes: %s\n" % msg["passes"])
                    out.append(
                        "%%%% cache: plan=%s closure=%s stored=%s "
                        "detections=%d generation=%d\n"
                        % (msg["plan_cache"], msg["closure_cache"],
                           "yes" if msg["closure_stored"] else "no",
                           msg["detections"], msg["generation"]))
            elif ev == "error":
                sys.stderr.write("seprec_client: [%s] %s\n"
                                 % (msg.get("code", "?"),
                                    msg.get("message", "")))
                bad = msg.get("code") in ("RESOURCE_EXHAUSTED", "CANCELLED")
                return "".join(out), 3 if bad else 1
            elif ev == "done":
                return "".join(out), code
    sys.stderr.write("seprec_client: connection closed before the reply "
                     "was done\n")
    return "".join(out), 1


def main():
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("socket")
    ap.add_argument("program")
    ap.add_argument("--query")
    ap.add_argument("--strategy")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--no-opt", action="store_true",
                    help="send \"optimize\": false (skip the pass "
                         "pipeline)")
    ap.add_argument("--stats", action="store_true")
    ap.add_argument("--parallel", type=int, default=1)
    ap.add_argument("--timeout-ms", type=int, dest="timeout_ms")
    ap.add_argument("--max-tuples", type=int, dest="max_tuples")
    ap.add_argument("--max-bytes", type=int, dest="max_bytes")
    ap.add_argument("--max-iterations", type=int, dest="max_iterations")
    ap.add_argument("--load", action="append", default=[],
                    metavar="REL=FILE.tsv",
                    help="send a load op for FILE's rows before the query")
    ap.add_argument("--load-mode", default="insert",
                    choices=["insert", "delete"])
    ap.add_argument("--checkpoint", action="store_true",
                    help="send a checkpoint op after any loads (needs the "
                         "server to run with --data-dir)")
    ap.add_argument("--subscribe", action="store_true",
                    help="register the query as a subscription and "
                         "stream its delta events")
    ap.add_argument("--expect-deltas", type=int, default=None,
                    help="with --subscribe: exit 0 after N delta events")
    ap.add_argument("--delta-timeout", type=float, default=30.0,
                    help="with --subscribe: max seconds to wait for the "
                         "next event before exiting 1")
    args = ap.parse_args()
    if args.parallel < 1:
        ap.error("--parallel must be >= 1")
    if args.subscribe and args.parallel != 1:
        ap.error("--subscribe does not combine with --parallel")
    loads = []
    for spec in args.load:
        relation, sep, path = spec.partition("=")
        if not sep or not relation or not path:
            ap.error("--load wants REL=FILE.tsv, got '%s'" % spec)
        loads.append((relation, path))

    try:
        with open(args.program, encoding="utf-8") as f:
            args.program_text = f.read()
    except OSError as e:
        sys.stderr.write("seprec_client: cannot open '%s': %s\n"
                         % (args.program, e.strerror))
        return 2

    request = build_request(args)

    if loads:
        try:
            code = run_loads(args.socket, loads, args.load_mode)
        except OSError as e:
            sys.stderr.write("seprec_client: load failed: %s\n" % e)
            return 1
        if code or (not args.query and not args.subscribe
                    and not args.checkpoint):
            return code

    if args.checkpoint:
        try:
            code = run_checkpoint(args.socket)
        except OSError as e:
            sys.stderr.write("seprec_client: checkpoint failed: %s\n" % e)
            return 1
        if code or (not args.query and not args.subscribe):
            return code

    if args.subscribe:
        if not args.query:
            ap.error("--subscribe needs --query")
        try:
            return run_subscribe(args.socket, request, args.expect_deltas,
                                 args.delta_timeout)
        except OSError as e:
            sys.stderr.write("seprec_client: %s\n" % e)
            return 1

    if args.parallel == 1:
        text, code = run_request(args.socket, request, args.stats)
        sys.stdout.write(text)
        return code

    # Concurrency smoke: N identical requests, outputs must agree. Cache
    # counters naturally differ between the racing requests, so the
    # parallel comparison always renders without --stats.
    results = [None] * args.parallel

    def worker(i):
        try:
            results[i] = run_request(args.socket, request, False)
        except OSError as e:
            results[i] = ("", "connect error: %s" % e)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(args.parallel)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    text0, code0 = results[0]
    for i, (text, code) in enumerate(results):
        if isinstance(code, str):
            sys.stderr.write("seprec_client: request %d failed: %s\n"
                             % (i, code))
            return 1
        if text != text0 or code != code0:
            sys.stderr.write(
                "seprec_client: request %d output differs from request 0\n"
                "--- request 0 ---\n%s--- request %d ---\n%s"
                % (i, text0, i, text))
            return 1
    sys.stdout.write(text0)
    return code0


if __name__ == "__main__":
    sys.exit(main())
