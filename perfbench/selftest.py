"""The benchmark's own test: its correctness gates must be able to fail.

    python3 perfbench/selftest.py

Run it from the repository root.  Each case copies the benchmark into a
scratch directory under ``perfbench/out/``, breaks one gate in the copy
and runs the copy against the real ``src/``:

* a tampered expected-verdict table must give failed operations and a
  nonzero exit on ``verify-all``;
* a flipped sympy comparison must do the same on ``random-algebra``;
* the untouched copy must pass ``random-algebra``;
* run outside a checkout (no ``src/``), the harness must exit nonzero
  without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


class Copy:
    """A scratch copy of the benchmark, optionally with one line changed."""

    def __init__(self, edit: tuple[str, str, str] | None = None):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-",
                                    dir=os.path.join(HERE, "out"))
        self.bench = os.path.join(self.dir, "perfbench")
        shutil.copytree(HERE, self.bench,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        if edit:
            name, old, new = edit
            path = os.path.join(self.bench, name)
            with open(path) as fh:
                text = fh.read()
            if text.count(old) != 1:
                raise AssertionError(f"{name}: expected one {old!r}")
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))

    def run(self, workload: str, cwd: str = ROOT):
        proc = subprocess.run(
            [sys.executable, os.path.join(self.bench, "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", "0"],
            cwd=cwd, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None

    def close(self):
        shutil.rmtree(self.dir)


class GatesFail(unittest.TestCase):
    def check(self, edit, workload, expect_ok):
        copy = Copy(edit)
        try:
            code, result = copy.run(workload)
        finally:
            copy.close()
        self.assertIsNotNone(result)
        if expect_ok:
            self.assertEqual((code, result["failed"]), (0, 0))
            self.assertTrue(result["correct"])
        else:
            self.assertNotEqual(code, 0)
            self.assertGreater(result["failed"], 0)
            self.assertFalse(result["correct"])

    def test_tampered_verdict_table(self):
        self.check(("verdicts.py", '("suq2/nilpotency", PASS)',
                    '("suq2/nilpotency", DISCREPANCY)'),
                   "verify-all", expect_ok=False)

    def test_flipped_sympy_comparison(self):
        self.check(("oracle.py", "return got == want", "return got != want"),
                   "random-algebra", expect_ok=False)

    def test_untouched_copy_passes(self):
        self.check(None, "random-algebra", expect_ok=True)

    def test_no_checkout_no_result(self):
        copy = Copy()
        try:
            code, result = copy.run("coherent-high-n", cwd=copy.dir)
        finally:
            copy.close()
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
