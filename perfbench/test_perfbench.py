"""Self-tests of the benchmark at small grid sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import checks
import run
import tracing

sys.path.insert(0, str(run.SRC))

SMALL_N = 512
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    """Scratch directory inside the repository, like the benchmark's own."""
    path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    out, report = run.measure(workload, seed=3, seconds=0, trace=trace,
                              n_steps=SMALL_N)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in out["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in report), name
    json.dumps(out)


def _written_table(work, workload: str):
    steps = run.prepare(workload, seed=5, work=work, n_steps=SMALL_N)
    assert run.run_pass(steps).ok
    return steps


def _perturb(path, column: str, row: int, delta: float):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(float(rows[row][column]) + delta)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_perturbed_gp_row_is_caught(work):
    (step,) = _written_table(work, "joint_run")
    tol = checks.gp_tolerance(SMALL_N)
    _perturb(step.out_dir / "moments.csv", "mean_gp_z_principal_rad", 5,
             3.0 * tol)
    res = checks.check_outputs(step.command, step.scenario, step.refs,
                               step.out_dir)
    assert not res.ok
    assert "row 5: mean_gp_z_principal_rad" in res.problems[0]
    assert res.gp_err_rad > 2.0 * tol


def test_perturbed_lindblad_row_is_caught(work):
    lindblad, _ = _written_table(work, "twolevel")
    _perturb(lindblad.out_dir / "evolution.csv", "population_e_dimensionless",
             100, 1e-7)
    res = checks.check_outputs(lindblad.command, lindblad.scenario,
                               lindblad.refs, lindblad.out_dir)
    assert not res.ok and "population_e" in res.problems[0]


def test_missing_traced_function_is_reported_absent(monkeypatch):
    import gpdist.models

    # The CLI keeps its own binding, so the workload still runs.
    monkeypatch.delattr(gpdist.models, "pd_moments")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert "models.pd_moments" in tracer.absent
    out, report = run.measure("twolevel", seed=3, seconds=0, trace=True,
                              n_steps=SMALL_N)
    assert out["correct"]
    assert out["metrics"]["models.pd_moments.calls"]["value"] == 0.0
    assert any(line.startswith("absent") and "models.pd_moments.self_s" in line
               for line in report)


def test_tracer_restores_every_binding():
    import gpdist.cli
    import gpdist.hilbert

    before = (gpdist.cli.build_AB, gpdist.hilbert.Schedule.__call__)
    with tracing.Tracer().installed():
        assert gpdist.cli.build_AB is not before[0]
    assert (gpdist.cli.build_AB, gpdist.hilbert.Schedule.__call__) == before


def test_refuses_to_run_without_sources(work):
    shutil.copytree(run.ROOT / "perfbench", work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twolevel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
