"""Time the whole ``all`` report at high levels, one fresh interpreter each.

    python tools/high_n.py OUT [N ...]

For each level N (default 256, 512, 1024 and 2048) a new Python process
imports ``grassq`` from this repository's ``src`` and then runs

    emit_report(run_suite("all", (n, n), max_n=n), "json")

It records the seconds that call takes (the import not counted), the
process's peak RSS from ``resource.getrusage`` (the import counted), the
report's sha256 and whether that matches ``tests/golden/digests.json``.
OUT gets one JSON object with a ``high_n`` key holding those levels and
the commit, the Python and numpy versions and ``os.cpu_count()``.  The
commit ends in ``-dirty`` when ``src`` differs from it.  Exit status is
1 if a digest did not match, else 0.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_LEVELS = (256, 512, 1024, 2048)

# the child: import first, then time the report alone
_CHILD = """
import hashlib, json, resource, sys, time
from grassq.suites import emit_report, run_suite
n = int(sys.argv[1])
start = time.perf_counter()
report = emit_report(run_suite("all", (n, n), max_n=n), "json")
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"seconds": round(seconds, 3),
                  "peak_rss_mb": round(rss / (2 ** 20 if sys.platform
                                                  == "darwin" else 2 ** 10), 1),
                  "sha256": hashlib.sha256(report.encode()).hexdigest()}))
"""


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def _commit() -> str | None:
    head = _git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = _git("diff", "--quiet", "HEAD", "--", "src").returncode
    return head.stdout.strip() + ("-dirty" if dirty else "")


def _level(n: int, digests: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _CHILD, str(n)], env=env,
                         capture_output=True, text=True, check=True).stdout
    row = json.loads(out)
    row["matches"] = row["sha256"] == digests.get(str(n))
    return row


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python tools/high_n.py OUT [N ...]", file=sys.stderr)
        return 2
    levels = [int(a) for a in argv[2:]] or list(DEFAULT_LEVELS)
    golden = json.loads((ROOT / "tests" / "golden" / "digests.json")
                        .read_text(encoding="utf-8"))
    result = {"high_n": {
        "report": golden["report"],
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "levels": {str(n): _level(n, golden["sha256"]) for n in levels},
    }}
    Path(argv[1]).write_text(json.dumps(result, indent=2) + "\n",
                             encoding="utf-8")
    rows = result["high_n"]["levels"].values()
    return 0 if all(r["matches"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
