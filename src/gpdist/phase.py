"""Geometric-phase functional for non-unitary, non-cyclic pure-state paths.

The total phase of the overlap <psi(0)|psi(t)> mixes geometric and dynamic
contributions; multiplying by the dynamic-phase factor

    D[psi] = exp(-i * integral Im<psi|dpsi/dt> / <psi|psi>)

removes the dynamic part, leaving Z[psi] = D[psi] <psi(0)|psi(t)> whose
argument is the geometric phase beta.  A |Z| below ``Z_RELATIVE_EPS`` times
the end norms means the phase is undefined: an error for one trajectory, an
atom of exactly 0 in a family, never NaN.

Two kinds of path are scored.  A sampled ``Trajectory`` uses the trapezoid
rule in time with centered finite differences for the state derivative
(second-order one-sided stencils at the endpoints), second order overall to
match the propagator.  A ``ClosedFormPath`` is a family of paths whose
psi(t) and dpsi/dt are exact at any time, every member from one call, so
each member's integral is taken by Gauss-Legendre quadrature: its node count
doubles from ``QUADRATURE_START_NODES`` until two successive values agree to
``QUADRATURE_TOL``, and that difference is reported as the estimated error
of its beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (DegenerateTrajectory, InvalidOperand,
                     QuadratureNotConverged, UndefinedGP)
from .hilbert import TimeGrid

NORM_FLOOR = 1e-12
Z_RELATIVE_EPS = 1e-9
# |phi_n - phi_2n| relative to max(1, |phi_2n|) that ends the node doubling
QUADRATURE_TOL = 1e-12
QUADRATURE_START_NODES = 16
QUADRATURE_MAX_NODES = 4096


def _check_norms(norms2: np.ndarray):
    """Squared norms of a path's states: finite and above the floor."""
    if not np.all(np.isfinite(norms2)):
        raise InvalidOperand("trajectory has non-finite states")
    if np.any(norms2 <= NORM_FLOOR**2):
        raise DegenerateTrajectory("trajectory norm fell below threshold")


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
        _check_norms(np.einsum("ki,ki->k", states.conj(), states).real)

    def norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("ki,ki->k", self.states.conj(), self.states).real)


@dataclass(frozen=True)
class ClosedFormPath:
    """Family of pure-state paths on [0, t_end] given by a vectorised closed
    form.

    ``states(t)`` maps an array of k times to ``(psi, dpsi)``, two
    (m, k, dim) arrays over the m members, so that members share their
    exponentials and psi shares them with dpsi.  ``dpsi`` may differ from
    d psi/dt by any vector delta with Im<psi|delta> = 0, such as the
    derivative of a real amplitude that multiplies each component.
    ``sqrt_singular_start`` marks an integrand that behaves like sqrt(t) at
    t = 0; the quadrature then runs in u with t = t_end u^2, where it is
    smooth.
    """

    states: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    t_end: float
    sqrt_singular_start: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError("t_end must be finite and > 0")


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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on P_n, vectorised over the nodes, from the asymptotic
    guesses cos(pi (k - 1/4) / (n + 1/2))."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def _gauss_legendre_phase(path: ClosedFormPath, n: int) -> np.ndarray:
    """n-node Gauss-Legendre values of the members' dynamic-phase integrals,
    with the state checks of ``Trajectory`` at every node."""
    x, w = _gauss_legendre(n)
    u = 0.5 * (x + 1.0)
    if path.sqrt_singular_start:
        t, dt = path.t_end * u * u, path.t_end * u * w  # dt = 2 T u du
    else:
        t, dt = path.t_end * u, 0.5 * path.t_end * w
    psi, dpsi = path.states(t)
    norms2 = np.einsum("mki,mki->mk", psi.conj(), psi).real
    _check_norms(norms2)
    if not np.all(np.isfinite(dpsi)):
        raise InvalidOperand("trajectory has a non-finite derivative")
    num = np.einsum("mki,mki->mk", psi.conj(), dpsi).imag
    # one dot per member: a batched (m, k) @ (k,) product sums in another
    # order and moves the atoms by rounding
    return np.array([dt @ row for row in num / norms2])


def converged_gauss_legendre(
    rule: Callable[[int], np.ndarray], quantity: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Values of an n-node Gauss-Legendre ``rule(n)`` for each member of a
    family, and their error estimates max |value_n - value_2n|.

    ``rule`` returns an array whose leading axis runs over the members.  n
    doubles from ``QUADRATURE_START_NODES`` until every member's estimate
    has fallen below ``QUADRATURE_TOL`` relative to max(1, max |value|);
    each member keeps the value and estimate of the first n at which its
    own did, as it would alone.

    Raises QuadratureNotConverged, naming ``quantity``, past
    ``QUADRATURE_MAX_NODES`` nodes.
    """
    n = QUADRATURE_START_NODES
    coarse = rule(n)
    value, error = None, np.empty(len(coarse))
    open_ = np.ones(len(coarse), dtype=bool)
    while 2 * n <= QUADRATURE_MAX_NODES:
        n *= 2
        fine = rule(n)
        change = abs(fine - coarse).reshape(len(fine), -1).max(axis=1)
        scale = np.maximum(1.0, abs(fine).reshape(len(fine), -1).max(axis=1))
        done = open_ & (change <= QUADRATURE_TOL * scale)
        if value is None:  # no copy: an open member's row is set when it closes
            value = fine
        else:
            value[done] = fine[done]
        error[done] = change[done]
        open_ &= ~done
        if not open_.any():
            return value, error
        coarse = fine
    raise QuadratureNotConverged(
        f"{quantity} changed by {change[open_].max():.3e} between {n // 2} "
        f"and {n} Gauss-Legendre nodes")


def _scored(phis: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Z of each member from its dynamic phase and end states (m, 2, d),
    exactly 0 where |Z| < Z_RELATIVE_EPS * ||psi(0)|| * ||psi(t)||.  D times
    the overlap is taken in real parts, which round as numpy's complex
    scalar product does and its complex array product does not."""
    norms2 = np.einsum("mki,mki->mk", ends.conj(), ends).real
    _check_norms(norms2)
    o = np.array([np.vdot(a, b) for a, b in ends])
    d = np.exp(-1j * phis)
    z = (d.real * o.real - d.imag * o.imag).astype(complex)
    z.imag = d.real * o.imag + d.imag * o.real
    z[abs(z) < Z_RELATIVE_EPS * np.sqrt(norms2[:, 0] * norms2[:, 1])] = 0.0
    return z


def z_functional(traj: Trajectory) -> PhaseResult:
    """Dynamic-phase-removed overlap Z[psi] and geometric phase beta = arg Z
    of a sampled trajectory.

    Raises UndefinedGP when |Z| < Z_RELATIVE_EPS * ||psi(0)|| * ||psi(t)||.
    """
    phi, ends = dynamic_phase(traj), traj.states[[0, -1]]
    z = complex(_scored(np.array([phi]), ends[None])[0])
    if z == 0.0:
        raise UndefinedGP("|Z| below tolerance; GP undefined")
    return PhaseResult(z=z, beta=float(np.angle(z)), dynamic_phase=phi,
                       overlap=complex(np.vdot(*ends)))


def family_z(path: ClosedFormPath) -> tuple[np.ndarray, ...]:
    """Z, the dynamic phase and its quadrature error estimate of every
    member of a closed-form family, as three (m,) arrays from one call; Z
    is 0 for a member on which ``z_functional`` would raise UndefinedGP."""
    phis, errors = converged_gauss_legendre(
        lambda n: _gauss_legendre_phase(path, n), "dynamic phase (rad)")
    ends = path.states(np.array([0.0, path.t_end]))[0]
    return _scored(phis, ends), phis, errors


def angle_to_positive_branch(a: float) -> float:
    """Map an angle to [0, 2*pi), the branch of the ``*_positive_branch_rad``
    columns."""
    return float(np.mod(a, 2.0 * np.pi))
