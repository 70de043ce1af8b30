"""Scenario runner: load a YAML scenario into typed points, run each point
through its model, and write the tables as CSV (or JSON) for plotting.

Config schema (version 1)::

    schema: 1
    model: spontaneous_emission | phase_damping | custom_joint | custom_lindblad
    params: {...}             # per-model parameters, defaults below
    grid: {n_steps: 4096}     # optional; an integer >= 1
    sweep: {parameter: theta, values: [0.1, 0.2]}  # optional; sorted values
    outputs: [moments]        # a list of moments, atoms, decomposition_check

Parameters and defaults (``-`` marks a required one)::

    spontaneous_emission  omega 1.0, gamma0 0.0, n_thermal 0.0, theta pi/2
    phase_damping         omega 1.0, alpha 0.0, theta pi/2
    custom_joint          omega 1.0, theta pi/2, reservoir_energies -,
                          reservoir_probs -, couplings - (list of {g: 1.0, r, s})
    custom_lindblad       omega 1.0, theta pi/2, jump_ops - (list of 2x2)

Numbers are finite, omega > 0, theta in [0, pi], the other scalars >= 0.
``run`` writes ``moments.csv``; ``atoms`` adds ``atoms.csv`` and
``decomposition_check`` (custom_joint only) adds redecomposition shifts.
``custom_lindblad`` writes ``evolution.csv``, takes no sweep and needs
``outputs: []``.  ``compare`` writes ``comparison.csv``.

Config errors are found before any numerics run and name their field:
``schema``, ``model``, ``params`` or ``params.<name>`` (down to
``params.couplings[0].r``), ``grid`` or ``grid.n_steps``, ``sweep``,
``sweep.parameter``, ``sweep.values[i]``, ``outputs`` or ``outputs[i]``, or
the unknown field.  Angles are in radians.  Exit codes: 0 success, 2 config
error, 3 numerical failure (naming the failing sweep point).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .channels import (LindbladModel, ReservoirSpec, SystemEnsemble,
                       integrate_lindblad, spectral_conditional_trajectories)
from .distribution import build_distribution, moments as dist_moments, redecompose
from .errors import ConfigError, GpdistError, InvalidOperand, InvalidState
from .hilbert import TimeGrid, partial_inner
from .models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    closed_system_gp,
    hs_schedule,
    pd_first_order_references,
    pd_moments,
    pd_trajectories,
    psi_initial,
    se_distributions,
    se_mean_gp_zero_temperature,
    se_perturbative_gp,
)
from .phase import angle_to_positive_branch
from .weakcoupling import WeakCouplingModel, build_AB, delta_z, perturbative_moments

SCHEMA_VERSION = 1
OUTPUT_KINDS = ("moments", "atoms", "decomposition_check")
DECOMPOSITION_SEEDS = 10
REQUIRED = object()
TOP_LEVEL = {"schema": REQUIRED, "model": REQUIRED, "params": {}, "grid": {},
             "sweep": None, "outputs": ["moments"]}

# Scalar parameters: domain, its wording, and the run-table column.
SCALARS = {
    "omega": (lambda x: x > 0.0, "> 0", "omega_rad_per_time"),
    "gamma0": (lambda x: x >= 0.0, ">= 0", "gamma0_rad_per_time"),
    "n_thermal": (lambda x: x >= 0.0, ">= 0", "n_thermal_dimensionless"),
    "alpha": (lambda x: x >= 0.0, ">= 0", "alpha_rad_per_time"),
    "theta": (lambda x: 0.0 <= x <= math.pi, "in [0, pi]", "theta_rad"),
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _fields(obj, where: str, spec: dict) -> dict:
    """``obj`` as a mapping over the keys of ``spec``: unknown and missing
    required keys are errors, absent optional keys take their defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'top level'}: expected a mapping, "
                          f"got {obj!r}")
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in spec:
            raise ConfigError(f"{prefix}{key}: unknown field, expected one "
                              f"of {tuple(spec)}")
    out = {**spec, **obj}
    for key, value in out.items():
        if value is REQUIRED:
            raise ConfigError(f"{prefix}{key}: required field is missing")
    return out


def _number(value, where: str) -> float:
    """A finite float; numeric strings count, as YAML 1.1 reads 1e-3 as text."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


def _scalar(name: str, value, where: str) -> float:
    x = _number(value, where)
    in_domain, wording, _ = SCALARS[name]
    if not in_domain(x):
        raise ConfigError(f"{where}: {name} must be {wording}, got {x!r}")
    return x


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _numbers(value, where: str, length: int | None = None) -> list[float]:
    xs = [_number(v, f"{where}[{i}]") for i, v in enumerate(_list(value, where))]
    if not xs or len(xs) != (length or len(xs)):
        raise ConfigError(f"{where}: expected {length or 'a non-empty list of'}"
                          f" numbers, got {len(xs)}")
    return xs


def _matrix(obj, where: str, dim: int) -> np.ndarray:
    """dim x dim nested list; entries are numbers or [re, im] pairs."""
    if not (isinstance(obj, list) and len(obj) == dim and all(
            isinstance(row, list) and len(row) == dim for row in obj)):
        raise ConfigError(f"{where}: expected a {dim}x{dim} matrix, "
                          f"got {obj!r}")

    def entry(cell, at):
        if isinstance(cell, list):
            return complex(*_numbers(cell, at, 2))
        return complex(_number(cell, at))

    return np.array([[entry(c, f"{where}[{i}][{j}]") for j, c in enumerate(row)]
                     for i, row in enumerate(obj)])


@dataclass(frozen=True)
class CustomPoint:
    """A point of a model given by its operators rather than closed forms."""

    omega: float
    theta: float
    model: WeakCouplingModel | LindbladModel


def _joint_point(omega, theta, reservoir_energies, reservoir_probs,
                 couplings) -> CustomPoint:
    energies = np.array(_numbers(reservoir_energies,
                                 "params.reservoir_energies"))
    dim_r = len(energies)
    probs = _numbers(reservoir_probs, "params.reservoir_probs", dim_r)
    terms = []
    for i, c in enumerate(_list(couplings, "params.couplings")):
        at = f"params.couplings[{i}]"
        c = _fields(c, at, {"g": 1.0, "r": REQUIRED, "s": REQUIRED})
        g, r = _number(c["g"], f"{at}.g"), _matrix(c["r"], f"{at}.r", dim_r)
        with np.errstate(over="ignore"):  # a non-finite g*r fails H_I's check
            terms.append((g * r, _matrix(c["s"], f"{at}.s", 2)))
    try:
        res = ReservoirSpec(probs=probs, states=np.eye(dim_r, dtype=complex),
                            energies=energies)
        return CustomPoint(omega, theta, WeakCouplingModel(
            hs=hs_schedule(omega), hr=np.diag(energies).astype(complex),
            couplings=terms, res=res, psi_s=psi_initial(theta)))
    except InvalidState as exc:
        raise ConfigError(f"params.reservoir_probs: {exc}") from exc
    except InvalidOperand as exc:   # a non-Hermitian or non-finite coupling
        raise ConfigError(f"params.couplings: {exc}") from exc


def _lindblad_point(omega, theta, jump_ops) -> CustomPoint:
    jumps = [_matrix(j, f"params.jump_ops[{i}]", 2)
             for i, j in enumerate(_list(jump_ops, "params.jump_ops"))]
    return CustomPoint(omega, theta,
                       LindbladModel(hs=hs_schedule(omega), jump_ops=jumps))


def _joint_distribution(p: CustomPoint, grid: TimeGrid):
    """Joint H = H_S x 1 + 1 x H_R + H_I; H_S is constant for every CLI model."""
    m = p.model
    h = (np.kron(m.hs.matrix, np.eye(m.dim_r))
         + np.kron(np.eye(m.dim_s), m.hr) + m.h_interaction())
    trajs, u_fin = spectral_conditional_trajectories(
        h, m.res, SystemEnsemble.pure(m.psi_s), grid)
    return build_distribution(trajs, kind="z"), u_fin


def _se_references(p: TwoLevelAtomParams) -> dict:
    refs = {"perturbative_gp_rad": se_perturbative_gp(p)}
    if p.n_thermal == 0.0:
        refs["zero_temperature_gp_rad"] = se_mean_gp_zero_temperature(p)
    return refs


def _pd_references(p: PhaseDampingParams) -> dict:
    ref_z, ref_h, ref_w = pd_first_order_references(p)
    return {"ref_spread_w_dimensionless": ref_w,
            "ref_mean_gp_z_principal_rad": float(np.angle(ref_z)),
            "ref_mean_gp_h_principal_rad": float(np.angle(ref_h))}


def _se_compare(p: TwoLevelAtomParams, grid: TimeGrid) -> dict:
    rep = dist_moments(se_distributions(p)[0], n_max=1)
    pert = se_perturbative_gp(p)
    rate = p.gamma0 / p.omega
    exact_z = angle_to_positive_branch(float(np.angle(rep.z_moments[0])))
    exact_h = angle_to_positive_branch(float(np.angle(rep.mean_gp_h)))
    expected = 100.0 * rate**2
    return {
        "gamma0_over_omega_dimensionless": rate,
        "n_thermal_dimensionless": p.n_thermal,
        "theta_rad": p.theta,
        "exact_mean_gp_z_unwrapped_rad": exact_z,
        "exact_mean_gp_h_unwrapped_rad": exact_h,
        "perturbative_gp_unwrapped_rad": pert,
        "abs_diff_z_rad": abs(exact_z - pert),
        "abs_diff_h_rad": abs(exact_h - pert),
        "expected_order_rad": expected,
        "order_violation": bool(abs(exact_z - pert) > expected),
    }


def _pd_compare(p: PhaseDampingParams, grid: TimeGrid) -> dict:
    rep = pd_moments(p, n_steps=grid.n_steps)
    expected = 100.0 * (p.alpha / p.omega)**2
    dz = abs(rep.mean_gp_z - rep.ref_mean_gp_z)
    return {
        "alpha_over_omega_dimensionless": p.alpha / p.omega,
        "theta_rad": p.theta,
        "exact_mean_gp_z_principal_rad": float(np.angle(rep.mean_gp_z)),
        "exact_mean_gp_h_principal_rad": float(np.angle(rep.mean_gp_h)),
        "abs_diff_z_firstorder_dimensionless": dz,
        "abs_diff_h_firstorder_dimensionless": abs(rep.mean_gp_h
                                                   - rep.ref_mean_gp_h),
        "measure_difference_dimensionless": abs(rep.mean_gp_z
                                                - rep.mean_gp_h),
        "exact_spread_w_dimensionless": rep.spread_w,
        "ref_spread_w_dimensionless": rep.ref_spread_w,
        "expected_order_dimensionless": expected,
        "order_violation": bool(dz > expected),
    }


def _joint_compare(p: CustomPoint, grid: TimeGrid) -> dict:
    """Exact conditional-trajectory moments against delta_z."""
    rep = dist_moments(_joint_distribution(p, grid)[0], n_max=1)
    dz = delta_z(build_AB(p.model, grid), p.model)
    pert = perturbative_moments(dz, closed_system_gp(p.theta), n=1)
    exact_z = rep.z_moments[0] / abs(rep.z_moments[0])
    return {
        "theta_rad": p.theta,
        "exact_mean_gp_z_principal_rad": float(np.angle(exact_z)),
        "exact_mean_gp_h_principal_rad": float(np.angle(rep.mean_gp_h)),
        "perturbative_gp_principal_rad": float(np.angle(pert)),
        "abs_diff_z_dimensionless": abs(exact_z - pert / abs(pert)),
        "abs_diff_h_dimensionless": abs(rep.mean_gp_h - pert),
        "im_delta_z_dimensionless": float(np.imag(dz)),
    }


@dataclass(frozen=True)
class Model:
    """A model's parameters (REQUIRED: no default), typed ``point``, output
    kinds, ``distribution(p, grid)`` -> (P_Z at one period, final joint
    propagator or None), extra run columns ``references(p)`` and
    ``compare(p, grid)`` row.  Without a distribution it only integrates
    the master equation."""

    defaults: dict
    point: Callable
    outputs: tuple = ()
    distribution: Callable | None = None
    references: Callable = lambda p: {}
    compare: Callable | None = None


MODELS = {
    "spontaneous_emission": Model(
        defaults={"omega": 1.0, "gamma0": 0.0, "n_thermal": 0.0,
                  "theta": np.pi / 2.0},
        point=TwoLevelAtomParams, outputs=("moments", "atoms"),
        distribution=lambda p, grid: (se_distributions(p)[0], None),
        references=_se_references, compare=_se_compare),
    "phase_damping": Model(
        defaults={"omega": 1.0, "alpha": 0.0, "theta": np.pi / 2.0},
        point=PhaseDampingParams, outputs=("moments", "atoms"),
        distribution=lambda p, grid: (
            build_distribution(pd_trajectories(p, grid), kind="z"), None),
        references=_pd_references, compare=_pd_compare),
    "custom_joint": Model(
        defaults={"omega": 1.0, "theta": np.pi / 2.0,
                  "reservoir_energies": REQUIRED, "reservoir_probs": REQUIRED,
                  "couplings": REQUIRED},
        point=_joint_point, outputs=OUTPUT_KINDS,
        distribution=_joint_distribution, compare=_joint_compare),
    "custom_lindblad": Model(
        defaults={"omega": 1.0, "theta": np.pi / 2.0, "jump_ops": REQUIRED},
        point=_lindblad_point),
}


@dataclass(frozen=True)
class Scenario:
    model: str
    points: tuple          # typed points, one per sweep value
    n_steps: int
    sweep_parameter: str | None
    outputs: tuple


def load_scenario(path: str) -> Scenario:
    """Parse and check a scenario file into typed points; every problem is
    a ConfigError naming its field."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    raw = _fields(raw, "", TOP_LEVEL)
    if type(raw["schema"]) is not int or raw["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"schema: must be {SCHEMA_VERSION}, "
                          f"got {raw['schema']!r}")
    name = raw["model"]
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"model: must be one of {tuple(MODELS)}, got {name!r}")
    model = MODELS[name]
    n_steps = _fields(raw["grid"], "grid", {"n_steps": 4096})["n_steps"]
    if type(n_steps) is not int or n_steps < 1:
        raise ConfigError(f"grid.n_steps: expected a positive integer, "
                          f"got {n_steps!r}")
    outputs = tuple(_list(raw["outputs"], "outputs"))
    for i, kind in enumerate(outputs):
        if kind not in OUTPUT_KINDS:
            raise ConfigError(f"outputs[{i}]: unknown output kind {kind!r}, "
                              f"expected one of {OUTPUT_KINDS}")
        if kind not in model.outputs:
            allowed = model.outputs or "only evolution.csv (set outputs: [])"
            raise ConfigError(f"outputs[{i}]: {name} cannot write {kind!r}; "
                              f"it writes {allowed}")

    params = _fields(raw["params"], "params", model.defaults)
    for key in params:
        if key in SCALARS:
            params[key] = _scalar(key, params[key], f"params.{key}")
    parameter, overrides = None, [{}]
    if raw["sweep"] is not None:
        if model.distribution is None:
            raise ConfigError(f"sweep: {name} integrates a single point and "
                              "takes no sweep")
        sweep = _fields(raw["sweep"], "sweep",
                        {"parameter": REQUIRED, "values": REQUIRED})
        parameter = sweep["parameter"]
        numeric = tuple(k for k in model.defaults if k in SCALARS)
        if not isinstance(parameter, str) or parameter not in numeric:
            raise ConfigError(f"sweep.parameter: must be one of {numeric}, "
                              f"got {parameter!r}")
        values = _numbers(sweep["values"], "sweep.values")
        if values != sorted(values):
            raise ConfigError("sweep.values: must be sorted")
        overrides = [{parameter: _scalar(parameter, v, f"sweep.values[{i}]")}
                     for i, v in enumerate(values)]
    return Scenario(model=name, n_steps=n_steps, sweep_parameter=parameter,
                    points=tuple(model.point(**{**params, **o})
                                 for o in overrides),
                    outputs=outputs)


def _each_point(scn: Scenario, work) -> list:
    """``work`` on every point in order; a numerical failure names its point.

    The library also raises ValueError and ArithmeticError on computed data
    (say, weights that overflow), so those count as numerical failures."""
    results = []
    for p in scn.points:
        try:
            results.append(work(p))
        except (GpdistError, ValueError, ArithmeticError) as exc:
            key = scn.sweep_parameter
            where = (f"sweep point {key} = {getattr(p, key)!r}" if key
                     else "the single configured point")
            raise GpdistError(f"{where}: {type(exc).__name__}: {exc}") from exc
    return results


def _finite(row: dict) -> dict:
    """The row, unless a cell is NaN or infinite."""
    for key, value in row.items():
        if not np.isfinite(value):
            raise InvalidOperand(f"{key} is {value}")
    return row


def _grid(p, n_steps: int) -> TimeGrid:
    return TimeGrid(0.0, 2.0 * np.pi / p.omega, n_steps)


def _decomposition_check(model: WeakCouplingModel, u_fin: np.ndarray,
                         seed: int) -> dict:
    """Redecompose degenerate blocks with seeded random unitaries and report
    the worst shift of each first moment (common-D(E) convention)."""
    rng = np.random.default_rng(seed)
    res, psi = model.res, model.psi_s

    def first_moments(spec):
        # v_r = <psi|<r|U|r>|psi>; the blocks partition the states, so the
        # block moments sum to Z = sum p_r v_r, and H = sum p_r v_r / |v_r|
        v = np.array([np.vdot(psi, partial_inner(r, u_fin, r, model.dim_s,
                                                 model.dim_r) @ psi)
                      for r in spec.states])
        return spec.probs @ v, spec.probs @ (v / abs(v))

    z0, h0 = first_moments(res)
    worst_z, worst_h = 0.0, 0.0
    blocks = [(bi, len(blk)) for bi, blk in enumerate(res.blocks())
              if len(blk) > 1]
    for _ in range(DECOMPOSITION_SEEDS if blocks else 0):
        unitaries = {}
        for bi, k in blocks:
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            unitaries[bi] = np.linalg.qr(g)[0]
        z1, h1 = first_moments(redecompose(res, unitaries))
        worst_z = max(worst_z, abs(z1 - z0))
        worst_h = max(worst_h, abs(h1 - h0))
    return {"decomposition_shift_mean_z_dimensionless": worst_z,
            "decomposition_shift_mean_h_dimensionless": worst_h}


def _run_row(model: Model, p, scn: Scenario, seed: int):
    """Param columns, shared GP columns, closed-system GP, model references;
    and the point's atoms."""
    dist, u_fin = model.distribution(p, _grid(p, scn.n_steps))
    rep = dist_moments(dist, n_max=1)
    row = {SCALARS[k][2]: getattr(p, k) for k in model.defaults if k in SCALARS}
    for measure, first in (("z", rep.z_moments[0]), ("h", rep.mean_gp_h)):
        principal = float(np.angle(first))
        row[f"mean_gp_{measure}_principal_rad"] = principal
        row[f"mean_gp_{measure}_unwrapped_rad"] = angle_to_positive_branch(
            principal)
    row["spread_w_dimensionless"] = rep.spread_w
    row["closed_system_gp_rad"] = closed_system_gp(p.theta)
    row.update(model.references(p))
    if "decomposition_check" in scn.outputs:
        row.update(_decomposition_check(p.model, u_fin, seed))
    atoms = [{"weight_probability": float(w), "z_re_dimensionless": v.real,
              "z_im_dimensionless": v.imag, "phase_rad": float(np.angle(v))}
             for w, v in zip(dist.weights, dist.values)]
    return _finite(row), atoms


def _evolution_rows(p: CustomPoint, n_steps: int) -> list[dict]:
    psi = psi_initial(p.theta)
    grid = _grid(p, n_steps)
    rhos = integrate_lindblad(p.model, np.outer(psi, psi.conj()), grid)
    stride = max(1, n_steps // 256)
    return [_finite({
        "time_inverse_omega": t,
        "trace_dimensionless": float(np.trace(rho).real),
        "purity_dimensionless": float(np.trace(rho @ rho).real),
        "population_g_dimensionless": float(rho[0, 0].real),
        "population_e_dimensionless": float(rho[1, 1].real),
        "coherence_abs_dimensionless": float(abs(rho[0, 1])),
    }) for t, rho in zip(grid.times[::stride], rhos[::stride])]


def _write_rows(rows: list[dict], path: Path, fmt: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(rows, fh, indent=2, default=float)
        return
    if not rows:
        return
    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(path.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(k, "")) for k in header])


def run_scenario(scn: Scenario, out_dir: Path, fmt: str,
                 seed: int) -> list[dict]:
    model = MODELS[scn.model]
    if model.distribution is None:
        (rows,) = _each_point(scn, lambda p: _evolution_rows(p, scn.n_steps))
        _write_rows(rows, out_dir / "evolution", fmt)
        return rows
    results = _each_point(scn, lambda p: _run_row(model, p, scn, seed))
    rows = [row for row, _ in results]
    _write_rows(rows, out_dir / "moments", fmt)
    if "atoms" in scn.outputs:
        key = scn.sweep_parameter
        _write_rows([({key: getattr(p, key)} if key else {}) | a
                     for p, (_, atoms) in zip(scn.points, results)
                     for a in atoms], out_dir / "atoms", fmt)
    return rows


def compare_scenario(scn: Scenario, out_dir: Path, fmt: str) -> list[dict]:
    """Exact-vs-perturbative comparison table with expected error orders."""
    model = MODELS[scn.model]
    if model.compare is None:
        raise ConfigError(f"model: {scn.model} has no perturbative path")
    rows = _each_point(
        scn, lambda p: _finite(model.compare(p, _grid(p, scn.n_steps))))
    _write_rows(rows, out_dir / "comparison", fmt)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpdist",
        description="Geometric-phase distributions for open quantum systems",
    )
    parser.add_argument("--version", action="version",
                        version=f"gpdist {__version__} (config schema "
                                f"{SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="YAML scenario file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    try:
        scn = load_scenario(args.config)
        if args.command == "run":
            rows = run_scenario(scn, out_dir, args.format, args.seed)
        else:
            rows = compare_scenario(scn, out_dir, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GpdistError as exc:
        print(f"numerical failure at {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: wrote {len(rows)} rows to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
