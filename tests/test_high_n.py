"""The high-level timing tool, ``tools/high_n.py``, and the committed
``BENCH_*.json`` runs that CHANGES.md cites."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "high_n.py"

RUN_KEYS = {"report", "commit", "python", "numpy", "cpu_count", "levels"}
LEVEL_KEYS = {"seconds", "peak_rss_mb", "sha256", "matches"}


def _tool():
    spec = importlib.util.spec_from_file_location("high_n", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(run):
    assert set(run) == RUN_KEYS
    assert run["levels"]
    for row in run["levels"].values():
        assert set(row) == LEVEL_KEYS
        assert row["matches"] is True
        assert row["seconds"] >= 0 and row["peak_rss_mb"] > 0


def test_each_level_runs_in_its_own_interpreter_and_matches_its_digest(
        tmp_path):
    out = tmp_path / "bench.json"
    assert _tool().main(["high_n.py", str(out), "2", "3"]) == 0
    run = json.loads(out.read_text(encoding="utf-8"))["high_n"]
    _check(run)
    assert list(run["levels"]) == ["2", "3"]


def test_committed_runs_hold_every_key():
    runs = [json.loads(path.read_text(encoding="utf-8")).get("high_n")
            for path in sorted(ROOT.glob("BENCH_*.json"))]
    assert any(runs), "no BENCH_*.json with a high_n run is committed"
    for run in filter(None, runs):
        _check(run)
