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

Numbers are finite, omega > 0 with 2*pi/omega finite, theta in [0, pi],
the other scalars >= 0.  ``run`` writes ``moments.csv``; ``atoms`` adds
``atoms.csv``, ``decomposition_check`` (custom_joint only) redecomposition
shifts.  ``custom_lindblad`` writes ``evolution.csv``, which
``run_scenario`` returns as an array, takes no sweep and needs
``outputs: []``.  ``compare`` writes ``comparison.csv``.  ``grid.n_steps``
sets the time grid of ``custom_lindblad`` only: the GP columns of
``custom_joint``, ``phase_damping`` and ``spontaneous_emission`` come from
closed forms in t, and no grid enters them.  For ``custom_joint`` and
``phase_damping``, ``gp_error_estimate_rad`` is the largest quadrature
error estimate over a point's atoms.

Config errors are found before any numerics run and name their field:
``schema``, ``model``, ``params`` or ``params.<name>`` (down to
``params.couplings[0].r``), ``grid`` or ``grid.n_steps``, ``sweep``,
``sweep.parameter``, ``sweep.values[i]``, ``outputs`` or ``outputs[i]``, or
the unknown field; a key repeated in one mapping and nesting deeper than
``YAML_MAX_DEPTH`` are YAML parse errors naming their line.  Angles are in
radians.  Exit codes: 0 success, 2 config error or unusable ``--out``
(found before any point runs), 3 numerical failure (naming the failing
point); each warning a point raises is one stderr line that names the
point, ``warning: <point>: <message>``.  A ``custom_joint`` point memoises
the work psi_S does not enter (its model and spectrum; for ``compare`` also
B's reservoir averages) on exactly its inputs, omega and the final time.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .channels import (LindbladModel, ReservoirSpec, SystemEnsemble,
                       integrate_lindblad, spectral_conditional_trajectories)
from .distribution import build_distribution, decomposition_check, moments
from .errors import ConfigError, GpdistError, InvalidOperand, InvalidState
from .hilbert import eigh_hermitian
from .models import (PhaseDampingParams, TwoLevelAtomParams, closed_system_gp,
                     h_system, pd_distribution, pd_first_order_references,
                     psi_initial, se_distribution, se_mean_gp_zero_temperature,
                     se_perturbative_gp)
from .phase import QUADRATURE_TOL, angle_to_positive_branch
from .weakcoupling import (WeakCouplingModel, build_AB, delta_z_from_b,
                           perturbative_moments)

SCHEMA_VERSION = 1
OUTPUT_KINDS = ("moments", "atoms", "decomposition_check")
REQUIRED = object()
# a scenario value quoted in a config error, bounded in depth and length so
# that a deeply nested list cannot recurse while the message is formatted
_quote = reprlib.Repr().repr
# libyaml composes nodes recursively on the C stack and segfaults near 25,000
# nested collections; a scenario nests about 7 deep
YAML_MAX_DEPTH = 5000


class _ScenarioLoader(yaml.CSafeLoader if yaml.__with_libyaml__
                      else yaml.SafeLoader):
    """libyaml's parser with the pure-Python loader's YAML 1.1 resolver, so
    1e-3 still arrives as text; it parses a large coupling matrix ten times
    faster.  A key that its own mapping already holds is an error, where
    PyYAML would keep the last value; ``<<`` merge keys stay legal."""

    def construct_mapping(self, node, deep=False):
        keys = set()
        for key_node, _ in node.value:
            if (isinstance(key_node, yaml.ScalarNode)
                    and key_node.tag != "tag:yaml.org,2002:merge"):
                key = self.construct_object(key_node)
                if key in keys:
                    raise yaml.YAMLError(
                        f"line {key_node.start_mark.line + 1}: repeated "
                        f"key {_quote(key)}")
                keys.add(key)
        return super().construct_mapping(node, deep)


YAML_LOADER = _ScenarioLoader
TOP_LEVEL = {"schema": REQUIRED, "model": REQUIRED, "params": {}, "grid": {},
             "sweep": None, "outputs": ["moments"]}

# Scalar parameters: domain, its wording, and the run-table column.
SCALARS = {
    "omega": (lambda x: x > 0.0 and math.isfinite(2.0 * math.pi / x),
              "> 0 with 2*pi/omega finite", "omega_rad_per_time"),
    "gamma0": (lambda x: x >= 0.0, ">= 0", "gamma0_rad_per_time"),
    "n_thermal": (lambda x: x >= 0.0, ">= 0", "n_thermal_dimensionless"),
    "alpha": (lambda x: x >= 0.0, ">= 0", "alpha_rad_per_time"),
    "theta": (lambda x: 0.0 <= x <= math.pi, "in [0, pi]", "theta_rad"),
}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):  # first: nearly every cell
        return "%.17g" % x  # format(float(x), ".17g"), in less time
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    x = "" if x is None else str(x)  # QUOTE_MINIMAL: quoted if it holds ,"\r\n
    if any(c in x for c in ',"\r\n'):
        return '"' + x.replace('"', '""') + '"'
    return x


def _fields(obj, where: str, spec: dict) -> dict:
    """``obj`` as a mapping over the keys of ``spec``: unknown and missing
    required keys are errors, absent optional keys take their defaults."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'top level'}: expected a mapping, "
                          f"got {_quote(obj)}")
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
        raise ConfigError(f"{where}: expected a finite number, "
                          f"got {_quote(value)}")
    return x


def _scalar(name: str, value, where: str) -> float:
    x = _number(value, where)
    in_domain, wording, _ = SCALARS[name]
    if not in_domain(x):
        raise ConfigError(f"{where}: {name} must be {wording}, "
                          f"got {_quote(x)}")
    return x


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {_quote(value)}")
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
                          f"got {_quote(obj)}")

    def entry(cell, at):
        if isinstance(cell, list):
            return complex(*_numbers(cell, at, 2))
        return complex(_number(cell, at))

    return np.array([[entry(c, f"{where}[{i}][{j}]") for j, c in enumerate(row)]
                     for i, row in enumerate(obj)])


@dataclass(frozen=True)
class CustomPoint:
    """A point of a model given by its operators rather than closed forms:
    ``build(omega)``, its model from operators parsed once, and for
    ``custom_joint`` ``spectrum(omega)`` of the joint H and ``build_AB``'s
    ``averages(omega, t)``, each memoised on its last arguments."""

    omega: float
    theta: float
    build: Callable = field(repr=False, compare=False)
    spectrum: Callable | None = field(default=None, repr=False, compare=False)
    averages: Callable | None = field(default=None, repr=False, compare=False)

    @property
    def model(self) -> WeakCouplingModel | LindbladModel:
        return self.build(self.omega)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


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
        build = lru_cache(1)(lambda w: WeakCouplingModel(
            hs=h_system(w), couplings=terms, res=res))
        build(omega)  # a bad operator is a config error, found at load
    except InvalidState as exc:
        raise ConfigError(f"params.reservoir_probs: {exc}") from exc
    except InvalidOperand as exc:   # a non-Hermitian or non-finite coupling
        raise ConfigError(f"params.couplings: {exc}") from exc
    return CustomPoint(omega, theta, build, spectrum=lru_cache(1)(
        lambda w: eigh_hermitian(build(w).h0() + build(w).h_interaction())),
        averages=lru_cache(1)(lambda w, t: build_AB(build(w), t)))


def _lindblad_point(omega, theta, jump_ops) -> CustomPoint:
    jumps = [_matrix(j, f"params.jump_ops[{i}]", 2)
             for i, j in enumerate(_list(jump_ops, "params.jump_ops"))]
    return CustomPoint(omega, theta, lambda w: LindbladModel(
        hs=h_system(w), jump_ops=jumps))


def _joint_distribution(p: CustomPoint):
    """P_Z of the constant joint H = H_0 + H_I over one period."""
    return build_distribution(*spectral_conditional_trajectories(
        p.spectrum(p.omega), p.model.res,
        SystemEnsemble.pure(psi_initial(p.theta)), p.period))


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


def _se_compare(p: TwoLevelAtomParams, exact) -> dict:
    rep = exact()[1]
    pert, rate = se_perturbative_gp(p), p.gamma0 / p.omega
    exact_z = angle_to_positive_branch(rep.mean_gp_z)
    exact_h = angle_to_positive_branch(float(np.angle(rep.mean_gp_h)))
    expected = 100.0 * rate**2
    return {
        "gamma0_over_omega_dimensionless": rate,
        "n_thermal_dimensionless": p.n_thermal,
        "theta_rad": p.theta,
        "exact_mean_gp_z_positive_branch_rad": exact_z,
        "exact_mean_gp_h_positive_branch_rad": exact_h,
        "perturbative_gp_positive_branch_rad": pert,
        "abs_diff_z_rad": abs(exact_z - pert),
        "abs_diff_h_rad": abs(exact_h - pert),
        "expected_order_rad": expected,
        "order_violation": bool(abs(exact_z - pert)
                                > expected + QUADRATURE_TOL * max(1.0, exact_z)),
    }


def _pd_compare(p: PhaseDampingParams, exact) -> dict:
    dist, rep = exact()
    ref_z, ref_h, ref_w = pd_first_order_references(p)
    exact_z = rep.first_z / abs(rep.first_z)
    dz, expected = abs(exact_z - ref_z), 100.0 * (p.alpha / p.omega)**2
    return {
        "alpha_over_omega_dimensionless": p.alpha / p.omega,
        "theta_rad": p.theta,
        "exact_mean_gp_z_principal_rad": rep.mean_gp_z,
        "exact_mean_gp_h_principal_rad": float(np.angle(rep.mean_gp_h)),
        "gp_error_estimate_rad": dist.error_estimate,
        "abs_diff_z_firstorder_dimensionless": dz,
        "abs_diff_h_firstorder_dimensionless": abs(rep.mean_gp_h - ref_h),
        "measure_difference_dimensionless": abs(exact_z - rep.mean_gp_h),
        "exact_spread_w_dimensionless": rep.spread_w,
        "ref_spread_w_dimensionless": ref_w,
        "expected_order_dimensionless": expected,
        "order_violation": bool(
            dz > expected + QUADRATURE_TOL * max(1.0, abs(rep.mean_gp_z))),
    }


def _joint_compare(p: CustomPoint, exact) -> dict:
    """Exact conditional-trajectory moments against <DeltaZ>; B before the
    spectrum, so build_AB's (16, d, d) work array never peaks beside it."""
    dz = delta_z_from_b(*p.averages(p.omega, p.period), p.model.hs,
                        psi_initial(p.theta))
    dist, rep = exact()
    pert = perturbative_moments(dz, closed_system_gp(p.theta))
    exact_z = rep.first_z / abs(rep.first_z)
    return {
        "theta_rad": p.theta,
        "exact_mean_gp_z_principal_rad": rep.mean_gp_z,
        "exact_mean_gp_h_principal_rad": float(np.angle(rep.mean_gp_h)),
        "gp_error_estimate_rad": dist.error_estimate,
        "perturbative_gp_principal_rad": float(np.angle(pert)),
        "abs_diff_z_dimensionless": abs(exact_z - pert / abs(pert)),
        "abs_diff_h_dimensionless": abs(rep.mean_gp_h - pert),
        "im_delta_z_dimensionless": float(np.imag(dz)),
    }


@dataclass(frozen=True)
class Model:
    """A model's parameters (REQUIRED: no default), typed ``point``, output
    kinds, ``distribution(p)`` -> P_Z at one period, extra run columns
    ``references(p)`` and the ``compare(p, exact)`` row, ``exact()`` being
    run's evaluation of the point, (P_Z, its moments).  Without a
    distribution it only integrates the master equation."""

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
        distribution=se_distribution,
        references=_se_references, compare=_se_compare),
    "phase_damping": Model(
        defaults={"omega": 1.0, "alpha": 0.0, "theta": np.pi / 2.0},
        point=PhaseDampingParams, outputs=("moments", "atoms"),
        distribution=pd_distribution,
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


def _nesting_bound(text: str) -> int:
    """A bound on how deep the collections of ``text`` nest: the count of
    ``[{:?`` plus the longest run of `` -?:`` and BOMs that starts a line.
    Of the collections open at one point, each flow collection and mapping
    owns a ``[{:?`` (its bracket, or its first key or value indicator).
    The m block sequences among them nest, so their ``-`` entries stand at
    increasing columns, the innermost at m - 1 or beyond; libyaml reads a
    ``-`` as an entry only at a line's start (after any BOM) or after a
    ``-``, ``?`` or explicit ``:``, with spaces between, so its line opens
    with a run of m or more.  ``splitlines`` breaks wherever libyaml does."""
    return (sum(map(text.count, "[{:?"))
            + max((len(line) - len(line.lstrip("\ufeff -?:"))
                   for line in text.splitlines()), default=0))


def _check_depth(stream: io.StringIO) -> None:
    """Raise a YAMLError where collections nest deeper than YAML_MAX_DEPTH.

    Every collection opens with one of ``[{-:?``, so their count bounds the
    depth; a text over it takes the line scan of ``_nesting_bound``, and
    one over both an event pass through the parser, which keeps no recursion.
    """
    text = stream.getvalue()
    if (sum(map(text.count, "[{-:?")) <= YAML_MAX_DEPTH
            or _nesting_bound(text) <= YAML_MAX_DEPTH):
        return
    depth = 0
    for event in yaml.parse(stream, Loader=YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > YAML_MAX_DEPTH:
                raise yaml.YAMLError(
                    f"line {event.start_mark.line + 1}: collections nest "
                    f"deeper than {YAML_MAX_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    stream.seek(0)


def load_scenario(path: str) -> Scenario:
    """Parse and check a scenario file into typed points; every problem is
    a ConfigError naming its field."""
    try:
        with open(path) as fh:
            stream = io.StringIO(fh.read())
        stream.name = path  # named in YAML errors
        _check_depth(stream)
        raw = yaml.load(stream, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    raw = _fields(raw, "", TOP_LEVEL)
    if type(raw["schema"]) is not int or raw["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"schema: must be {SCHEMA_VERSION}, "
                          f"got {_quote(raw['schema'])}")
    name = raw["model"]
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"model: must be one of {tuple(MODELS)}, "
                          f"got {_quote(name)}")
    model = MODELS[name]
    n_steps = _fields(raw["grid"], "grid", {"n_steps": 4096})["n_steps"]
    if type(n_steps) is not int or n_steps < 1:
        raise ConfigError(f"grid.n_steps: expected a positive integer, "
                          f"got {_quote(n_steps)}")
    outputs = tuple(_list(raw["outputs"], "outputs"))
    for i, kind in enumerate(outputs):
        if kind not in OUTPUT_KINDS:
            raise ConfigError(f"outputs[{i}]: unknown output kind "
                              f"{_quote(kind)}, "
                              f"expected one of {OUTPUT_KINDS}")
        if kind not in model.outputs:
            allowed = model.outputs or "only evolution.csv (set outputs: [])"
            raise ConfigError(f"outputs[{i}]: {name} cannot write "
                              f"{_quote(kind)}; it writes {allowed}")

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
                              f"got {_quote(parameter)}")
        values = _numbers(sweep["values"], "sweep.values")
        if values != sorted(values):
            raise ConfigError("sweep.values: must be sorted")
        overrides = [{parameter: _scalar(parameter, v, f"sweep.values[{i}]")}
                     for i, v in enumerate(values)]
    points = [model.point(**params | overrides[0])]  # operators checked once
    points += [replace(points[0], **o) for o in overrides[1:]]
    return Scenario(model=name, n_steps=n_steps, sweep_parameter=parameter,
                    points=tuple(points), outputs=outputs)


def _each_point(scn: Scenario, work) -> list:
    """``work(p)`` on every point in order; a numerical failure names its
    point, and so does each warning the point raises, printed on stderr as
    one line ``warning: <point>: <message>`` whatever the warning filters
    (``-W error`` and ``-W ignore`` included).

    ValueError, ArithmeticError and MemoryError raised on computed data
    (overflowing weights, an array too large to allocate) count as well."""
    results = []
    key = scn.sweep_parameter
    for p in scn.points:
        where = (f"sweep point {key} = {getattr(p, key)!r}" if key
                 else "the single configured point")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                results.append(work(p))
            except (GpdistError, ValueError, ArithmeticError,
                    MemoryError) as exc:
                raise GpdistError(
                    f"{where}: {type(exc).__name__}: {exc}") from exc
            finally:
                for w in caught:
                    print(f"warning: {where}: {w.message}", file=sys.stderr)
    return results


def _finite(row: dict) -> dict:
    """The row, unless a cell is NaN or infinite."""
    for key, value in row.items():
        if not np.isfinite(value):
            raise InvalidOperand(f"{key} is {value}")
    return row


def _exact(model: Model, p):
    dist = model.distribution(p)
    return dist, moments(dist)


def _run_row(model: Model, p, scn: Scenario, seed: int):
    """Param columns, shared GP columns, closed-system GP, model references;
    and the point's atoms."""
    dist, rep = _exact(model, p)
    row = {SCALARS[k][2]: getattr(p, k) for k in model.defaults if k in SCALARS}
    for measure, first in (("z", rep.first_z), ("h", rep.mean_gp_h)):
        principal = float(np.angle(first))
        row[f"mean_gp_{measure}_principal_rad"] = principal
        row[f"mean_gp_{measure}_positive_branch_rad"] = (
            angle_to_positive_branch(principal))
    row["spread_w_dimensionless"] = rep.spread_w
    if dist.error_estimate is not None:
        row["gp_error_estimate_rad"] = dist.error_estimate
    row["closed_system_gp_rad"] = closed_system_gp(p.theta)
    row.update(model.references(p))
    if "decomposition_check" in scn.outputs:  # with U(T) from the spectrum
        lam, v = p.spectrum(p.omega)
        z_shift, h_shift = decomposition_check(
            p.model.res, psi_initial(p.theta),
            (v * np.exp(-1j * (p.period * lam))) @ v.conj().T, seed)
        row["decomposition_shift_mean_z_dimensionless"] = z_shift
        row["decomposition_shift_mean_h_dimensionless"] = h_shift
    atoms = [{"weight_probability": float(w), "z_re_dimensionless": v.real,
              "z_im_dimensionless": v.imag, "phase_rad": float(np.angle(v))}
             for w, v in zip(dist.weights, dist.values)]
    return _finite(row), atoms


def _evolution_rows(p: CustomPoint, n_steps: int) -> tuple[tuple, np.ndarray]:
    """evolution.csv's column names and its (k, 6) table of kept nodes."""
    psi = psi_initial(p.theta)
    # every (n_steps // 256)-th node and the last, t = T, which it can miss
    times, rhos = integrate_lindblad(p.model, np.outer(psi, psi.conj()),
                                     p.period, n_steps, max(1, n_steps // 256))
    columns = {
        "time_inverse_omega": times,
        "trace_dimensionless": np.trace(rhos, axis1=1, axis2=2).real,
        "purity_dimensionless": np.trace(rhos @ rhos, axis1=1, axis2=2).real,
        "population_g_dimensionless": rhos[:, 0, 0].real,
        "population_e_dimensionless": rhos[:, 1, 1].real,
        "coherence_abs_dimensionless": np.hypot(rhos[:, 0, 1].real,
                                                rhos[:, 0, 1].imag),
    }
    names, table = tuple(columns), np.stack(list(columns.values()), axis=1)
    for i, j in np.argwhere(~np.isfinite(table))[:1]:  # first in row order
        raise InvalidOperand(f"{names[j]} is {table[i, j]}")
    return names, table


def _write_rows(rows, path: Path, fmt: str, header=None):
    """Write a table one row at a time: dicts aligned on the union of their
    keys or, under ``header``, cell sequences (None for a missing cell)."""
    if header is None:
        header = list(dict.fromkeys(key for row in rows for key in row))
        rows = ([row.get(k) for k in header] for row in rows)

    def line(cells):  # csv's excel dialect, which quotes a lone empty cell
        return (",".join(map(_fmt, cells)) or '""') + "\r\n"

    with open(path.with_suffix(f".{fmt}"), "w", newline="") as fh:
        if fmt == "csv":
            fh.write(line(header))
            fh.writelines(map(line, rows))
            return
        # each row laid out as json.dump(indent=2) lays out [row], from keys
        # and cells the C encoder writes (no indent: no cyclic garbage)
        encode, sep = json.JSONEncoder(default=float).encode, "["
        for cells in rows:
            items = ",".join(f"\n    {encode(k)}: {encode(v)}"
                             for k, v in zip(header, cells) if v is not None)
            fh.write(sep + (f"\n  {{{items}\n  }}" if items else "\n  {}"))
            sep = ","
        fh.write("[]" if sep == "[" else "\n]")


def run_scenario(scn: Scenario, out_dir: Path, fmt: str,
                 seed: int) -> list[dict] | np.ndarray:
    model = MODELS[scn.model]
    out_dir.mkdir(parents=True, exist_ok=True)  # before any numerics
    if model.distribution is None:
        names, table = _each_point(
            scn, lambda p: _evolution_rows(p, scn.n_steps))[0]
        _write_rows(map(np.ndarray.tolist, table), out_dir / "evolution",
                    fmt, names)
        return table
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
    out_dir.mkdir(parents=True, exist_ok=True)  # before any numerics
    rows = _each_point(scn, lambda p: _finite(
        model.compare(p, lambda: _exact(model, p))))
    _write_rows(rows, out_dir / "comparison", fmt)
    return rows


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on the first call rather than at import."""
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seed < 0:  # numpy seeds only non-negative integers
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")

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
    except OSError as exc:  # --out is not a directory that can be written
        print(f"output error: {out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {len(rows)} rows to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
