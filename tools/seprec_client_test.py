#!/usr/bin/env python3
"""Unit tests for seprec_client.py (run directly or via ctest).

Each test serves one scripted reply from a stub Unix-socket server and
runs seprec_client.main() against it with patched argv, asserting on the
exit code and the rendered output. A reply that ends before its "done"
line (the server died mid-request) must fail, not pass as a short answer.
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import socket
import sys
import tempfile
import threading
import unittest

_TOOLS_DIR = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "seprec_client", _TOOLS_DIR / "seprec_client.py")
seprec_client = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seprec_client)


BEGIN = {"ev": "begin", "id": 1, "query": "t(a, Y)"}
RESULT = {"ev": "result", "id": 1, "tuple": "(a, b)"}
ANSWER = {"ev": "answer", "id": 1, "answers": 1,
          "strategy": "nonrecursive"}
DONE = {"ev": "done", "id": 1}


def lines(*msgs):
    return "".join(json.dumps(m) + "\n" for m in msgs)


class StubServer:
    """Accepts one connection, reads the request line, writes `reply`
    and closes the connection."""

    def __init__(self, path, reply):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(1)
        self.reply = reply.encode("utf-8")
        self.thread = threading.Thread(target=self._serve)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn:
            with conn.makefile("r", encoding="utf-8") as f:
                f.readline()
            conn.sendall(self.reply)

    def close(self):
        self.thread.join(timeout=10)
        self.sock.close()


class ClientTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.sock_path = os.path.join(self.dir.name, "s.sock")
        self.program = os.path.join(self.dir.name, "p.dl")
        with open(self.program, "w", encoding="utf-8") as f:
            f.write("t(X, Y) :- p(X, Y).\n?- t(a, Y).\n")

    def tearDown(self):
        self.dir.cleanup()

    def run_client(self, reply):
        server = StubServer(self.sock_path, reply)
        out, err = io.StringIO(), io.StringIO()
        argv = ["seprec_client.py", self.sock_path, self.program]
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                old_argv, sys.argv = sys.argv, argv
                try:
                    code = seprec_client.main()
                finally:
                    sys.argv = old_argv
        finally:
            server.close()
        return code, out.getvalue(), err.getvalue()

    def test_complete_reply_renders_like_run(self):
        code, out, _ = self.run_client(lines(BEGIN, RESULT, ANSWER, DONE))
        self.assertEqual(code, 0)
        self.assertEqual(out, "?- t(a, Y).\n(a, b)\n"
                              "% 1 answer(s) via nonrecursive\n")

    def test_close_after_begin_fails(self):
        code, _, err = self.run_client(lines(BEGIN))
        self.assertEqual(code, 1)
        self.assertIn("closed before the reply was done", err)

    def test_close_before_done_fails(self):
        code, _, err = self.run_client(lines(BEGIN, RESULT, ANSWER))
        self.assertEqual(code, 1)
        self.assertIn("closed before the reply was done", err)

    def test_close_mid_line_fails(self):
        code, _, err = self.run_client(lines(BEGIN) + '{"ev": "res')
        self.assertEqual(code, 1)
        self.assertIn("closed before the reply was done", err)

    def test_error_reply_fails(self):
        error = {"ev": "error", "id": 1, "code": "INVALID_ARGUMENT",
                 "message": "bad query"}
        code, _, err = self.run_client(lines(error))
        self.assertEqual(code, 1)
        self.assertIn("[INVALID_ARGUMENT] bad query", err)


if __name__ == "__main__":
    unittest.main()
