"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

They check the result schema against BENCHMARK.json, that the per-layer
counts repeat exactly across two traced runs, that layer self times add up
to the traced wall time, and that the benchmark refuses to run without the
msp sources.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "krylov.iterations",
    "krylov.matvec_calls",
    "krylov.precond_calls",
    "sparselin.factor_calls",
    "sparselin.bandwidth_max",
    "sparselin.factor_entries",
    "assembly.elements",
    "splines.geometry_calls",
)


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@functools.cache
def smoke(workload: str, trace: int, repeat: int = 0) -> dict:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_schema(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1)["metrics"], smoke(workload, 1, repeat=1)["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(workload):
    m = {k: v["value"] for k, v in smoke(workload, 1)["metrics"].items()}
    own = sum(v for k, v in m.items() if k.startswith("self."))
    assert own == pytest.approx(m["trace.traced_wall_s"], rel=1e-9)
    assert m["trace.overhead_s"] == pytest.approx(m["trace.traced_wall_s"] - m["trace.untraced_wall_s"])


def test_minres_counts_at_the_krylov_boundary():
    m = {k: v["value"] for k, v in smoke("solve_3d", 1)["metrics"].items()}
    # 3D L2 smoke row: 26 36 40 30 20 17; the Euclidean stopping test applies
    # the operator twice per iteration, the preconditioner once plus once at start.
    assert m["krylov.iterations"] == 169
    assert m["krylov.matvec_calls"] == 2 * 169
    assert m["krylov.precond_calls"] == 169 + 6
    assert m["sparselin.factor_dense"] == m["sparselin.factor_calls"] == 18


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "table_2d", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
