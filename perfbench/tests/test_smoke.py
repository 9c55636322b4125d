"""Smoke test of the benchmark at a tiny size (120 points, 2 nets, 50 new points).

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """{trace: (detail, result line)} for an untraced and a traced run."""
    out = {}
    for trace in (0, 1):
        proc = run_bench(trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return out


def test_result_line_has_every_metric_with_its_unit(runs):
    for trace, (detail, line) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, detail["problems"]
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            metric = line["metrics"][m["name"]]
            assert metric["unit"] == m["unit"]
            assert isinstance(metric["value"], (int, float)), m["name"]
            assert math.isfinite(metric["value"]), m["name"]


def test_every_stage_call_is_counted_and_failures_carry_their_class(runs):
    for trace, (detail, line) in runs.items():
        records = [s for chain in detail["chains"] for s in chain["stages"]]
        if trace:
            records += detail["traced"]["stages"]
        assert line["attempted"] == len(records)
        # fixed work, whatever the machine's speed: untraced, one chain and
        # its 3 extra calls; traced, an untraced and a traced chain
        assert line["attempted"] == (20 if trace else 13)
        chains = detail["chains"] + ([detail["traced"]] if trace else [])
        for chain in chains:
            names = [s["stage"] for s in chain["stages"]]
            assert len(names) >= 10 and set(names[10:]) <= {"organize", "extend"}, names
        failed = [s for s in records if s["exit_code"] != 0]
        assert line["failed"] == len(failed)
        for s in failed:
            assert s["error"] and not s["error"].startswith("exit code"), s
        # a failed validate must not stop report, which does not depend on it
        assert all(s["exit_code"] == 0 for s in records if s["stage"] == "report")


def test_tracing_leaves_identical_artifacts(runs):
    detail, line = runs[1]
    assert detail["problems"] == []
    assert detail["traced"]["spans"] > 0
    assert "ensemble.json" in detail["artifact_sha256"]
    assert detail["artifact_sha256"] == runs[0][0]["artifact_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
