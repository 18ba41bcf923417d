"""Smoke test of the benchmark at a tiny scale: result schema and failure exit.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["scenario", "study", "study_2t", "probe"])
def test_result_schema(workload, trace):
    r = _run(ROOT, workload, trace)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_study_2t_outputs_equal_study():
    for workload in ("study", "study_2t"):
        assert _run(ROOT, workload, 0).returncode == 0
    records = [json.loads((ROOT / ".perfbench_work" / "results" / f"tiny-{w}-seed3-trace0.json").read_text())
               for w in ("study", "study_2t")]
    assert records[0]["digests"] == records[1]["digests"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run(tmp_path, "study", 0)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
