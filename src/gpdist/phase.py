"""Geometric-phase functional for non-unitary, non-cyclic pure-state paths.

The total phase of the overlap <psi(0)|psi(t)> mixes geometric and dynamic
contributions; multiplying by the dynamic-phase factor

    D[psi] = exp(-i * integral Im<psi|dpsi/dt> / <psi|psi>)

removes the dynamic part, leaving Z[psi] = D[psi] <psi(0)|psi(t)> whose
argument is the geometric phase beta.  Z = 0 means the phase is undefined
and is reported as an error, never as NaN.

Quadrature: trapezoid in time with centered finite differences for the state
derivative (second-order one-sided stencils at the endpoints), second order
overall to match the propagator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateTrajectory, InvalidOperand, UndefinedGP
from .hilbert import TimeGrid

NORM_FLOOR = 1e-12
Z_RELATIVE_EPS = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled pure-state path; norms may decay below 1 but not to 0."""

    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, dim), complex

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "states", states)
        if states.ndim != 2 or states.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"need {self.grid.n_steps + 1} sampled states, got {states.shape}"
            )
        norms2 = np.einsum("ki,ki->k", states.conj(), states).real
        if not np.all(np.isfinite(norms2)):
            raise InvalidOperand("trajectory has non-finite states")
        if np.any(norms2 <= NORM_FLOOR**2):
            raise DegenerateTrajectory("trajectory norm fell below threshold")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("ki,ki->k", self.states.conj(), self.states).real)


@dataclass(frozen=True)
class PhaseResult:
    z: complex           # Z[psi]
    beta: float          # arg Z, principal value in (-pi, pi]
    dynamic_phase: float # integral Im<psi|psi_dot>/<psi|psi>, radians
    overlap: complex     # <psi(0)|psi(t)>


def dynamic_phase(traj: Trajectory) -> float:
    """Accumulated dynamic phase integral along the trajectory.

    For an eigenstate of energy E this equals -E*t; the dynamic-phase factor
    is ``exp(-1j * dynamic_phase(traj))``.
    """
    psi = traj.states
    dt = traj.grid.dt
    psi_dot = np.gradient(psi, dt, axis=0,
                          edge_order=min(2, traj.grid.n_steps))
    num = np.einsum("ki,ki->k", psi.conj(), psi_dot).imag
    den = np.einsum("ki,ki->k", psi.conj(), psi).real
    return float(np.trapezoid(num / den, dx=dt))


def z_functional(traj: Trajectory) -> PhaseResult:
    """Dynamic-phase-removed overlap Z[psi] and geometric phase beta = arg Z.

    Raises UndefinedGP when |Z| < Z_RELATIVE_EPS * ||psi(0)|| * ||psi(t)||.
    """
    phi = dynamic_phase(traj)
    overlap = complex(np.vdot(traj.states[0], traj.states[-1]))
    z = np.exp(-1j * phi) * overlap
    norms = traj.norms()
    if abs(z) < Z_RELATIVE_EPS * norms[0] * norms[-1]:
        raise UndefinedGP(f"|Z| = {abs(z):.3e} below tolerance; GP undefined")
    return PhaseResult(z=z, beta=float(np.angle(z)), dynamic_phase=phi,
                       overlap=overlap)


def gauge_transform(traj: Trajectory, alpha) -> Trajectory:
    """Multiply each sampled state by exp(i alpha(t_k)).

    ``alpha`` is either a callable of time or an array of per-node angles.
    Z is gauge invariant up to quadrature error; this helper exists to
    exercise that property.
    """
    if callable(alpha):
        a = np.array([alpha(t) for t in traj.grid.times], dtype=float)
    else:
        a = np.asarray(alpha, dtype=float)
        if a.shape != (traj.grid.n_steps + 1,):
            raise ValueError("alpha must supply one angle per grid node")
    return Trajectory(grid=traj.grid, states=np.exp(1j * a)[:, None] * traj.states)


def unwrap_sweep(angles: Sequence[float], start: float | None = None) -> np.ndarray:
    """Continuity-preserving unwrap of a sweep of principal-value angles.

    Each angle is shifted by the multiple of 2*pi that brings it closest to
    its predecessor (or to ``start`` for the first point).
    """
    angles = np.asarray(angles, dtype=float)
    out = np.empty_like(angles)
    prev = angles[0] if start is None else start
    for k, a in enumerate(angles):
        out[k] = a + 2.0 * np.pi * np.round((prev - a) / (2.0 * np.pi))
        prev = out[k]
    return out


def principal_angle(a: float) -> float:
    """Map an angle to the principal branch (-pi, pi]."""
    a = float(np.angle(np.exp(1j * a)))
    return a if a != -np.pi else np.pi


def angle_to_positive_branch(a: float) -> float:
    """Map an angle to [0, 2*pi), the branch of the ``*_positive_branch_rad``
    columns."""
    return float(np.mod(a, 2.0 * np.pi))
