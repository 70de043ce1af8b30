"""What the tooling around the package relies on: a package that binds
only its version, so a module import loads only that module's dependencies;
no scipy in the package, so a cold ``import gpdist.cli`` and a ``compare``
run leave it unloaded; the traced names of the benchmark harness, an
acceptance gate on the route the CLI ships, ``Schedule`` kept inside
``hilbert`` and errors that are raised, not returned."""

import ast
import builtins
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpdist
import gpdist.cli
import gpdist.distribution
import gpdist.errors
import gpdist.hilbert
from gpdist.cli import SCHEMA_VERSION

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# names of the sampled route, deleted or not run by any CLI path
SAMPLED = {"Trajectory", "z_functional", "gauge_transform",
           "time_ordered_propagator", "conditional_trajectories",
           "partial_inner", "block_first_moment", "se_no_jump_trajectory",
           "Schedule"}


def run_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter on this package."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(gpdist.__file__).parents[1])})
    return out.stdout.strip()


def test_package_binds_only_its_version():
    # every name has one import path, its module: the package re-exports
    # nothing and imports nothing
    tree = ast.parse(Path(gpdist.__file__).read_text())
    bound = set()
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), node.lineno
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}


def test_a_module_import_loads_only_its_dependencies():
    lower = ("channels", "distribution", "weakcoupling", "models", "cli")
    assert run_python(
        "import sys, gpdist.phase; "
        f"print([m for m in {lower!r} if 'gpdist.' + m in sys.modules])"
    ) == "[]"
    modules = sorted(info.name for info in pkgutil.iter_modules(
        gpdist.__path__))
    assert len(modules) == 8
    assert run_python(
        "import sys, gpdist.cli; "
        f"print([m for m in {modules!r} if 'gpdist.' + m not in sys.modules])"
    ) == "[]"


def test_no_module_imports_scipy():
    # scipy.linalg dominates a cold start, and numpy alone does every job
    # the package has: propagators come from eigh, quadrature nodes from
    # phase's own Newton iteration
    for path in Path(gpdist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), (
                f"{path.name}:{node.lineno}")


def test_cli_import_leaves_scipy_unloaded():
    # no dependency may pull scipy in either.  numpy.polynomial would add
    # about 5 ms; phase builds its Gauss-Legendre nodes without it
    assert run_python(
        "import sys, gpdist.cli; "
        "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules)"
    ) == "False False"


def test_compare_run_leaves_scipy_unloaded(tmp_path):
    # the perturbative side of custom_joint is closed forms and quadrature
    # in the H_0 eigenbasis, with no matrix exponential
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


def load_tracing():
    spec = importlib.util.spec_from_file_location("_gpdist_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# Traced names of the sampled route and the per-state block moment, which
# the package no longer has; the benchmark reports them as absent until its
# own change drops them.
RETIRED = {"hilbert.time_ordered_propagator", "hilbert.matexp",
           "channels.conditional_trajectories", "channels.lindblad_rhs",
           "phase.z_functional", "weakcoupling.delta_z",
           "hilbert.partial_inner", "distribution.block_first_moment"}


def test_traced_names_resolve():
    # a traced name the package lacks reads as zero calls in the benchmark
    tracing = load_tracing()
    for name in RETIRED:
        assert name in tracing.TRACED and tracing.lookup(name) is None, name
    for name in set(tracing.TRACED) - RETIRED:
        fn = tracing.lookup(name)
        assert callable(fn), name
        assert fn.__module__.startswith("gpdist."), name


def joint_scenario(tmp_path, parameter: str = "theta") -> Path:
    """A three-point custom_joint sweep with joint dimension 8."""
    values = {"theta": [0.5, 1.0, 1.5], "omega": [0.8, 1.0, 1.2]}[parameter]
    scenario = tmp_path / "joint.yaml"
    scenario.write_text(f"""\
schema: {SCHEMA_VERSION}
model: custom_joint
params:
  reservoir_energies: [0.0, 1.0, 1.0, 2.5]
  reservoir_probs: [0.4, 0.3, 0.2, 0.1]
  couplings:
    - g: 0.1
      r: [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
      s: [[0, 1], [1, 0]]
sweep: {{parameter: {parameter}, values: {values}}}
outputs: [moments, decomposition_check]
""")
    return scenario


def test_custom_joint_point_work_is_batched(tmp_path, monkeypatch):
    # per point, one family_z call scores every conditional path; the
    # matrices are parsed once per scenario, not once per sweep point
    scenario = joint_scenario(tmp_path)
    matrices, families = [], []
    parse, score = gpdist.cli._matrix, gpdist.distribution.family_z

    def counted(obj, where, dim):
        matrices.append(where)
        return parse(obj, where, dim)

    def scored(path):
        families.append(path)
        return score(path)

    monkeypatch.setattr(gpdist.cli, "_matrix", counted)
    monkeypatch.setattr(gpdist.distribution, "family_z", scored)
    assert gpdist.cli.main(["run", str(scenario),
                            "--out", str(tmp_path / "out")]) == 0
    assert len(families) == 3
    assert matrices == ["params.couplings[0].r", "params.couplings[0].s"]


@pytest.mark.parametrize("command, parameter, per_scenario", [
    ("compare", "theta", (1, 1, 1)), ("compare", "omega", (3, 3, 4)),
    ("run", "theta", (0, 1, 1))])
def test_theta_independent_work_is_done_once_per_omega(
        tmp_path, monkeypatch, command, parameter, per_scenario):
    # build_AB, the joint eigendecomposition and the joint model see only
    # omega: a theta sweep does each once, an omega sweep once per point
    # (and one model more, for the base point load_scenario checks), and run
    # never builds B
    joint_eighs, models = [], []
    eigh = gpdist.hilbert.eigh_hermitian
    weak_coupling_model = gpdist.cli.WeakCouplingModel

    def counted(h):
        if len(h) == 8:  # the joint dimension, 2 x 4
            joint_eighs.append(h)
        return eigh(h)

    def built(**kwargs):
        models.append(weak_coupling_model(**kwargs))
        return models[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("gpdist") and getattr(
                module, "eigh_hermitian", None) is eigh:
            monkeypatch.setattr(module, "eigh_hermitian", counted)
    monkeypatch.setattr(gpdist.cli, "WeakCouplingModel", built)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert gpdist.cli.main([command, str(joint_scenario(
            tmp_path, parameter)), "--out", str(tmp_path / "out")]) == 0
    calls = tracer.take_pass()
    assert (calls.get("weakcoupling.build_AB.calls", 0),
            len(joint_eighs), len(models)) == per_scenario


def test_acceptance_gate_scores_the_shipped_route():
    # the gate must not drift back to the sampled route
    imported = set()
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    assert imported & SAMPLED == set()


def test_only_hilbert_names_schedule():
    # models hold H_S as a matrix; Schedule is kept only for the benchmark's
    # evaluation counter
    for path in Path(gpdist.__file__).parent.glob("*.py"):
        if path.name == "hilbert.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.rsplit(".", 1)[-1])
        assert "Schedule" not in names, path.name


def test_no_function_returns_an_exception():
    # an error is raised where it is found, not handed back as a value that
    # every caller must test for
    errors = {name for name, obj in [*vars(builtins).items(),
                                     *vars(gpdist.errors).items()]
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    for path in Path(gpdist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Return) and isinstance(node.value,
                                                           ast.Call):
                func = node.value.func
                name = getattr(func, "id", getattr(func, "attr", None))
                assert name not in errors, f"{path.name}:{node.lineno}"
