"""Independent references for the CLI's outputs, and the checker that
compares the written tables against them.

Nothing here imports gpdist: each reference is rebuilt from the scenario
dict with numpy and scipy alone.

* GP references come from adaptive quadrature (``scipy.integrate.quad``) of
  the continuous dynamic-phase integral ``int Im<psi|psi'>/<psi|psi> dt``.
  For ``custom_joint`` the joint Hamiltonian is constant, so its
  eigendecomposition gives ``<r|U(t)|r>psi_S`` and its derivative exactly at
  every t.  For ``phase_damping`` the diagonal Kraus amplitudes are closed
  forms.  The CLI's grid error is second order, so it is checked against a
  tolerance that scales as ``(4096 / n_steps)**2``.
* ``custom_lindblad`` with one jump operator sqrt(gamma)|g><e| is checked
  against rho_ee(t) = cos^2(theta/2) e^{-2 gamma t} and
  |rho_ge(t)| = |rho_ge(0)| e^{-gamma t} (no-1/2 convention).
* ``decomposition_check`` shifts must stay below 1e-9: the first Z-moment
  does not depend on how a degenerate reservoir block is decomposed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

GP_TOL_AT_4096 = 1e-4          # rad; today's grid error is below 1e-5
LINDBLAD_TOL = 1e-9
DECOMPOSITION_TOL = 1e-9
QUAD_OPTS = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 400}
SWEEP_COLUMNS = {"theta": "theta_rad", "omega": "omega_rad_per_time"}


def gp_tolerance(n_steps: int) -> float:
    return GP_TOL_AT_4096 * (4096.0 / n_steps) ** 2


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(c[0], c[1]) if isinstance(c, list) else complex(c)
                      for c in row] for row in rows])


def _psi_s(theta: float) -> np.ndarray:
    """cos(theta/2)|e> + sin(theta/2)|g>, ordered (g, e)."""
    return np.array([math.sin(theta / 2.0), math.cos(theta / 2.0)], dtype=complex)


def _dynamic_phase(psi, dpsi, t_end: float) -> float:
    def integrand(t):
        x = psi(t)
        return float(np.vdot(x, dpsi(t)).imag / np.vdot(x, x).real)
    return quad(integrand, 0.0, t_end, **QUAD_OPTS)[0]


def _z_value(psi, dpsi, t_end: float) -> complex:
    phi = _dynamic_phase(psi, dpsi, t_end)
    return complex(np.exp(-1j * phi) * np.vdot(psi(0.0), psi(t_end)))


def _mean_gps(weights, zs) -> tuple[float, float]:
    """(mean GP of P_Z, mean GP of P_H) from weighted Z atoms."""
    zs = np.asarray(zs)
    first_z = np.sum(weights * zs)
    first_h = np.sum(weights * zs / np.abs(zs))
    return float(np.angle(first_z)), float(np.angle(first_h))


def joint_reference(params: dict) -> tuple[float, float]:
    """Mean GPs of a ``custom_joint`` point after one period 2 pi / omega.

    Joint H = H_S (x) 1 + 1 (x) H_R - sum_mu g S_mu (x) R_mu with
    H_S = (omega/2)(|g><g| - |e><e|) and the system as the slow index.
    """
    omega, theta = float(params["omega"]), float(params["theta"])
    energies = np.asarray(params["reservoir_energies"], dtype=float)
    probs = np.asarray(params["reservoir_probs"], dtype=float)
    dim_r = len(energies)
    h = np.kron(np.diag([0.5 * omega, -0.5 * omega]), np.eye(dim_r))
    h = h + np.kron(np.eye(2), np.diag(energies))
    for c in params["couplings"]:
        h = h - np.kron(_matrix(c["s"]), float(c.get("g", 1.0)) * _matrix(c["r"]))
    lam, v = np.linalg.eigh(h)
    psi_s = _psi_s(theta)
    t_end = 2.0 * math.pi / omega
    zs = []
    for j in range(dim_r):
        x0 = np.kron(psi_s, np.eye(dim_r)[j])
        # <r_j|U(t)|psi_S r_j> = m @ exp(-i lam t), one row per system index
        m = v[j::dim_r, :] * (v.conj().T @ x0)[None, :]
        zs.append(_z_value(
            lambda t, m=m: m @ np.exp(-1j * lam * t),
            lambda t, m=m: m @ (-1j * lam * np.exp(-1j * lam * t)),
            t_end))
    return _mean_gps(probs, zs)


def phase_damping_reference(params: dict) -> tuple[float, float]:
    """Mean GPs of the two equally weighted phase-damping branches.

    K_0 psi = (s e^{-i w t/2 - a t}/r, c r e^{i w t/2}) and K_1 swaps the
    damped factor, with r(t) = (1 + sqrt(1 - e^{-2 a t}))^{1/2}.  Only the
    component phases +-w t/2 enter Im<psi|psi'>.
    """
    w, a, theta = float(params["omega"]), float(params["alpha"]), float(params["theta"])
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)

    def r(t):
        return math.sqrt(1.0 + math.sqrt(-math.expm1(-2.0 * a * t)))

    def branch(damp_g: bool):
        def amps(t):
            d, rr = math.exp(-a * t) / r(t), r(t)
            return (s * d, c * rr) if damp_g else (s * rr, c * d)

        def psi(t):
            g, e = amps(t)
            return np.array([g * np.exp(-0.5j * w * t), e * np.exp(0.5j * w * t)])

        def dpsi_phase_part(t):
            # Im<psi|psi'> only sees d/dt of the phases: -+ i w/2 per component
            g, e = amps(t)
            return np.array([-0.5j * w * g * np.exp(-0.5j * w * t),
                             0.5j * w * e * np.exp(0.5j * w * t)])
        return psi, dpsi_phase_part

    t_end = 2.0 * math.pi / w
    zs = [_z_value(*branch(True), t_end), _z_value(*branch(False), t_end)]
    return _mean_gps(np.array([0.5, 0.5]), zs)


def sweep_points(scenario: dict) -> list[dict]:
    params = scenario["params"]
    sweep = scenario.get("sweep")
    if sweep is None:
        return [dict(params)]
    return [{**params, sweep["parameter"]: v} for v in sweep["values"]]


def gp_references(scenario: dict) -> list[tuple[float, float]]:
    """Reference (Z, H) mean GPs per sweep point; empty for models whose
    GP the CLI does not write."""
    ref = {"custom_joint": joint_reference,
           "phase_damping": phase_damping_reference}.get(scenario["model"])
    return [ref(p) for p in sweep_points(scenario)] if ref else []


@dataclass
class CheckResult:
    """Outcome of checking one command's tables."""

    gp_err_rad: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: _number(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _check_lindblad(scenario: dict, rows, out: CheckResult):
    params = scenario["params"]
    theta = float(params["theta"])
    gamma = abs(_matrix(params["jump_ops"][0])[0, 1]) ** 2
    coh0 = math.sin(theta / 2.0) * math.cos(theta / 2.0)
    if len(rows) < 2:
        out.problems.append(f"{len(rows)} rows")
    for row in rows:
        t = row["time_inverse_omega"]
        errs = {
            "trace": abs(row["trace_dimensionless"] - 1.0),
            "population_e": abs(row["population_e_dimensionless"]
                                - math.cos(theta / 2.0) ** 2
                                * math.exp(-2.0 * gamma * t)),
            "coherence": abs(row["coherence_abs_dimensionless"]
                             - coh0 * math.exp(-gamma * t)),
        }
        for name, err in errs.items():
            if not err <= LINDBLAD_TOL:
                out.problems.append(
                    f"{name} off by {err:.3e} at t={t:.6g}")
                return


def _check_gp_rows(command: str, scenario: dict, refs, rows, out: CheckResult):
    points = sweep_points(scenario)
    if len(rows) != len(points):
        out.problems.append(f"{len(rows)} rows for {len(points)} points")
        return
    prefix = "exact_" if command == "compare" else ""
    tol = gp_tolerance(int(scenario["grid"]["n_steps"]))
    swept = scenario.get("sweep", {}).get("parameter")
    for i, (row, point, (ref_z, ref_h)) in enumerate(zip(rows, points, refs)):
        if swept and row[SWEEP_COLUMNS[swept]] != float(point[swept]):
            out.problems.append(f"row {i}: {swept} is not the sweep value "
                                f"{point[swept]!r}")
            continue
        for col, ref in ((f"{prefix}mean_gp_z_principal_rad", ref_z),
                         (f"{prefix}mean_gp_h_principal_rad", ref_h)):
            err = _angle_diff(row[col], ref)
            if not err <= tol:
                out.problems.append(f"row {i}: {col} off by {err:.3e} rad "
                                    f"(tolerance {tol:.1e})")
            if math.isfinite(err):
                out.gp_err_rad = max(out.gp_err_rad, err)
        if "decomposition_check" in scenario.get("outputs", ()):
            shift = row["decomposition_shift_mean_z_dimensionless"]
            if not shift < DECOMPOSITION_TOL:
                out.problems.append(f"row {i}: decomposition shift {shift!r}")


def check_outputs(command: str, scenario: dict, refs, out_dir: Path) -> CheckResult:
    """Compare the tables one CLI command wrote against the references."""
    out = CheckResult()
    lindblad = scenario["model"] == "custom_lindblad"
    if lindblad:
        path = out_dir / "evolution.csv"
    else:
        path = out_dir / ("comparison.csv" if command == "compare" else "moments.csv")
    if not path.exists():
        out.problems.append(f"{path.name} was not written")
        return out
    try:
        rows = read_csv(path)
        if lindblad:
            _check_lindblad(scenario, rows, out)
        else:
            _check_gp_rows(command, scenario, refs, rows, out)
    except (KeyError, TypeError) as exc:
        out.problems.append(f"missing or non-numeric column {exc}")
    out.problems = [f"{path.name}: {p}" for p in out.problems]
    return out
