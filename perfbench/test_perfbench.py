"""Self-test of the benchmark at the tiny scale (about two minutes).

Run from the root of a checkout:

    python3 -m pytest perfbench -q

Every workload runs on two seeds, emits every end-to-end and per-layer
metric, and evaluates and passes its correctness check on every pass.
Without the package sources the command must fail without a result.
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

from run import END_TO_END_UNITS, OUT  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import RUNNERS  # noqa: E402


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("seed", [71, 5])
@pytest.mark.parametrize("workload", sorted(RUNNERS))
def test_workload_emits_every_metric_and_passes_its_check(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(LAYER_UNITS)
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(END_TO_END_UNITS) | {"failed_share"}

    record = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
    for p in record["passes"]:
        assert p["ok"] and p["checks"], p
        assert p["env"]["blas_threads"] == 1
    assert record["layers"]["trace.top_level_coverage"] >= 0.95


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench("--workload", "bns_density", "--seed", "3", "--seconds", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bns_hedge", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
