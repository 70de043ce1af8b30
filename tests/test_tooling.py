"""What the tooling around the package relies on: a cold ``import
gpdist.cli`` without scipy, and the traced names of the benchmark harness."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import gpdist

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg dominates a cold start; only matexp's non-normal branch
    # needs it, and imports it there.  numpy.polynomial would add about 5 ms;
    # phase builds its Gauss-Legendre nodes without it
    code = ("import sys, gpdist.cli; "
            "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(gpdist.__file__).parents[1])})
    assert out.stdout.strip() == "False False"


def test_traced_names_resolve():
    # a traced name the package lacks reads as zero calls in the benchmark
    spec = importlib.util.spec_from_file_location("_gpdist_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.TRACED:
        fn = tracing.lookup(name)
        assert callable(fn), name
        assert fn.__module__.startswith("gpdist."), name
