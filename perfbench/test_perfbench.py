"""Tests of the benchmark itself (not of conseq).

    python3 -m pytest perfbench

from the root of a checkout.  The tiny-size pass runs every workload once
with and once without tracing, so it takes a minute or two.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_expected_output_counts_as_failed_op(tmp_path):
    pool = workloads.cli_pool()
    with open(workloads.EXPECTED_CLI, encoding="utf-8") as fh:
        expected = json.load(fh)
    wrong = pool["seq_build"][0]
    code, _ = expected[workloads.cli_key(wrong)]
    expected[workloads.cli_key(wrong)] = [code, "0" * 64]
    wl = workloads.CliPipeline(5, tmp_path / "cli", expected=expected)
    res = worker.run_ops(wl, ops=4)
    assert len(res["latencies"]) == 4
    assert res["failed"] == 1
    assert "stdout digest" in res["errors"][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
