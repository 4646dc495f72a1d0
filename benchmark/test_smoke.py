"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest benchmark/test_smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that injected defects are counted as failures, and that the command
refuses to run without the library's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402  (every workload, gated or not)


def run_cli(run_py: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--shape", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = run_cli(HERE / "run.py", workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == 0:
        assert "error_rate 0.000000 ratio" in proc.stdout


@pytest.mark.parametrize("workload,fault", [
    ("ingest", "corrupt-trace"),
    ("authenticate", "corrupt-trace"),
    ("authenticate", "nan-param"),
    ("train-task", "nan-param"),
    ("train-userid", "nan-param"),
])
def test_injected_defects_count_as_failures(workload, fault, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        result = workloads.run(workload, 1, 0.2, False, shape="tiny", fault=fault, out_dir=tmp_path)
    finally:
        sys.path.remove(str(ROOT / "src"))
    assert 0 < result.failed <= result.attempted


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli(tmp_path / HERE.name / "run.py", WORKLOAD_NAMES[0], 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
