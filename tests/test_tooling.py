"""What the tooling around the package relies on: a cold ``import
gpdist.cli`` and a ``compare`` run without scipy, and the traced names of
the benchmark harness."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import gpdist
from gpdist.cli import SCHEMA_VERSION

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def run_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter on this package."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(gpdist.__file__).parents[1])})
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg dominates a cold start; only matexp's non-normal branch
    # needs it, and imports it there.  numpy.polynomial would add about 5 ms;
    # phase builds its Gauss-Legendre nodes without it
    assert run_python(
        "import sys, gpdist.cli; "
        "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules)"
    ) == "False False"


def test_compare_run_leaves_scipy_unloaded(tmp_path):
    # the perturbative side of custom_joint is closed forms and quadrature
    # in the H_0 eigenbasis: no CLI path reaches matexp's scipy branch
    scenario = tmp_path / "joint.yaml"
    scenario.write_text(f"""\
schema: {SCHEMA_VERSION}
model: custom_joint
params:
  omega: 1.0
  theta: 1.0
  reservoir_energies: [0.0, 2.0]
  reservoir_probs: [0.7, 0.3]
  couplings:
    - {{g: 0.1, r: [[0, 1], [1, 0]], s: [[0, 1], [1, 0]]}}
grid: {{n_steps: 16}}
outputs: [moments]
""")
    args = ["compare", str(scenario), "--out", str(tmp_path / "out")]
    assert run_python(
        "import sys, gpdist.cli; "
        f"code = gpdist.cli.main({args!r}); "
        "print(code, 'scipy' in sys.modules)").splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "comparison.csv").is_file()


def test_traced_names_resolve():
    # a traced name the package lacks reads as zero calls in the benchmark
    spec = importlib.util.spec_from_file_location("_gpdist_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.TRACED:
        fn = tracing.lookup(name)
        assert callable(fn), name
        assert fn.__module__.startswith("gpdist."), name
