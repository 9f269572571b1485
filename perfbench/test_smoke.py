"""Smoke test of the benchmark on tiny instances.

    python3 -m pytest perfbench

Kept out of the library's own test run; it takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import load_library, solve  # noqa: E402


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert report["fail_ratio"] == {"value": 0.0, "unit": "failed/attempted"}
        assert report["checks"]["counts_repeat"] and report["checks"]["cold_start"]


def test_gate_counts_wrong_answers_and_errors(tmp_path):
    zsl = load_library(str(ROOT))
    env = workloads.Env(str(ROOT), str(tmp_path), None, False)
    instances = workloads.smoke(zsl, 3, env)
    instances[0].expected = [3, 7]  # D_2(Z3) is 6
    instances.append(workloads.Instance("raises", lambda counts: 1 // 0, 0))
    *_, failures = solve(instances, {})
    assert len(failures) == 2
    assert failures[0].startswith(f"{instances[0].label}: got [3, 6], expected [3, 7]")
    assert failures[1].startswith("raises: ZeroDivisionError")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
