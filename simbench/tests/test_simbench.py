"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest -q simbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
#: Fraction of each workload's transactions: a few per cluster.
SCALE = "0.02"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", SCALE],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def outputs():
    """(workload, trace) → (stdout lines, final JSON object)."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            results[workload, trace] = lines, json.loads(lines[-1])
    return results


def test_every_named_metric_is_printed_with_its_unit(outputs):
    for (workload, trace), (lines, result) in outputs.items():
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert result["correct"] is True, (workload, trace, lines)
        assert result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(metric["name"] for metric in spec)
        for metric in spec:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            pattern = rf"^\s+{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)"
            assert any(re.match(pattern, line) for line in lines), (workload, name)


def test_topology_does_no_work_off_the_wan(outputs):
    metric = "sim.topology.size_calls"
    assert outputs["wan-hotspot", 1][1]["metrics"][metric]["value"] > 0
    for workload in ("policy-churn", "audited-grid"):
        assert outputs[workload, 1][1]["metrics"][metric]["value"] == 0


def test_audited_grid_is_conformance_clean():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    try:
        from workloads import WORKLOADS, run_pass

        result = run_pass(WORKLOADS["audited-grid"], seed=3, scale=float(SCALE))
    finally:
        del sys.path[:2]
    assert result.counts["verify.events_checked"] > 0
    assert result.violations == 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / os.path.basename(BENCH_DIR))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(BENCH_DIR), "run.py"),
         "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
