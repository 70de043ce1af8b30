"""Dense complex linear algebra on small Hilbert spaces.

Matrix exponentials, time-ordered propagation of time-dependent Hamiltonians
on a uniform grid, and partial inner products on bipartite spaces.

Constant and time-dependent generators take different paths.  A constant
Hermitian ``H`` (``Schedule.constant``) is diagonalized once,
``H = V diag(lambda) V^dag``, and every node follows from the phases
``e^{-i lambda_n (t_k - t_0)}`` (``eigenphases``); the propagator is
``U(t_k) = V e^{-i lambda (t_k - t_0)} V^dag`` with no per-step rounding.  A
time-dependent schedule keeps the midpoint product of step exponentials,
which is second order in ``dt``.

Tensor-product index convention: the SYSTEM index is the slow (outer) index,
i.e. a joint operator is ``np.kron(op_system, op_reservoir)`` and a joint
state index decomposes as ``i = s * dim_r + r``.  All partial traces and
partial inner products in this package rely on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DimensionError, InvalidOperand

HERMITICITY_TOL = 1e-12

# Pauli matrices in the (|g>, |e>) ordering used throughout:
# sigma_z = |e><e| - |g><g| = diag(-1, +1).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise InvalidOperand("matrix has non-finite entries")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """``m = m^dag`` to ``HERMITICITY_TOL`` relative to ``max(1, ||m||)``;
    False for non-finite entries.  Entries beyond 1 are tested on
    ``m / max|m_ij|``, the same test, so that the norms cannot overflow."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        return False
    big = np.abs(m).max(initial=0.0)
    if big > 1.0:
        m = m / big
    scale = max(1.0, np.linalg.norm(m))
    return bool(np.linalg.norm(m - m.conj().T) <= HERMITICITY_TOL * scale)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with ``n_steps`` intervals (``n_steps + 1`` nodes)."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)
                and self.t_end > self.t_start):
            raise ValueError("t_start and t_end must be finite, t_end > t_start")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    @property
    def midpoints(self) -> np.ndarray:
        t = self.times
        return 0.5 * (t[:-1] + t[1:])


@dataclass
class Schedule:
    """Time-dependent Hermitian operator ``H(t)``.

    Wraps an evaluator ``t -> matrix``.  A schedule made by ``constant``
    also keeps its ``matrix``, which selects the spectral path of
    ``time_ordered_propagator``.
    """

    evaluator: Callable[[float], np.ndarray]
    dim: int
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __call__(self, t: float) -> np.ndarray:
        m = _as_square(self.evaluator(t))
        if m.shape[0] != self.dim:
            raise DimensionError(
                f"schedule evaluator returned dim {m.shape[0]}, declared {self.dim}"
            )
        return m

    @classmethod
    def constant(cls, m) -> "Schedule":
        m = _as_square(m)
        return cls(evaluator=lambda t, _m=m: _m, dim=m.shape[0], matrix=m)

    def sample(self, grid: TimeGrid, at: str = "nodes") -> np.ndarray:
        """Sampled values on grid nodes or interval midpoints."""
        ts = grid.times if at == "nodes" else grid.midpoints
        return np.array([self(t) for t in ts])

    def check_hermitian(self, grid: TimeGrid):
        for h in self.sample(grid):
            if not is_hermitian(h):
                raise InvalidOperand("schedule is not Hermitian on the grid")


def matexp(m) -> np.ndarray:
    """Matrix exponential.

    Hermitian inputs go through an eigendecomposition, anti-Hermitian inputs
    through the eigendecomposition of ``i*M`` (which keeps the result unitary
    to machine precision); everything else falls back to scaling-and-squaring.
    """
    m = _as_square(m)
    if is_hermitian(m):
        w, v = np.linalg.eigh(m)
        return (v * np.exp(w)) @ v.conj().T
    if is_hermitian(1j * m):
        # m = -i*h with h = i*m Hermitian
        w, v = np.linalg.eigh(1j * m)
        return (v * np.exp(-1j * w)) @ v.conj().T
    return scipy.linalg.expm(m)


def eigenphases(h, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors ``V`` of a constant Hermitian ``h`` and the phases
    ``e^{-i lambda_n (t_k - t_0)}`` of its eigenvalues on the grid, shape
    (n_steps + 1, dim), so that ``U(t_k) = V diag(phases[k]) V^dag``.
    """
    h = _as_square(h)
    if not is_hermitian(h):
        raise InvalidOperand("spectral propagation needs a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return v, np.exp(-1j * np.outer(grid.times - grid.t_start, w))


def time_ordered_propagator(h: Schedule, grid: TimeGrid) -> np.ndarray:
    """Propagators ``U(t_k)`` for all grid nodes, ``U(t_0) = 1``.

    A constant Hermitian schedule is propagated exactly from one
    eigendecomposition.  Otherwise this uses the midpoint-rule product of
    step exponentials ``exp(-i H(t_{k+1/2}) dt)``, which is second order in
    ``dt`` and exactly unitary for Hermitian schedules.
    """
    if h.matrix is not None and is_hermitian(h.matrix):
        v, phases = eigenphases(h.matrix, grid)
        return (v * phases[:, None, :]) @ v.conj().T
    h_mid = h.sample(grid, at="midpoints")
    dt = grid.dt
    us = np.empty((grid.n_steps + 1, h.dim, h.dim), dtype=complex)
    us[0] = np.eye(h.dim)
    for k in range(grid.n_steps):
        us[k + 1] = matexp(-1j * h_mid[k] * dt) @ us[k]
    return us


def partial_inner(bra_r, u, ket_r, dim_s: int, dim_r: int) -> np.ndarray:
    """System-space operator ``<b_R| U |r>`` for a joint operator ``U``.

    ``bra_r`` enters conjugated; ``U`` acts on the joint space with the system
    as the slow index.
    """
    u = _as_square(u)
    bra_r = np.asarray(bra_r, dtype=complex)
    ket_r = np.asarray(ket_r, dtype=complex)
    if u.shape[0] != dim_s * dim_r:
        raise DimensionError(
            f"joint dim {u.shape[0]} != dim_s*dim_r = {dim_s * dim_r}"
        )
    if bra_r.shape != (dim_r,) or ket_r.shape != (dim_r,):
        raise DimensionError("reservoir vectors must have length dim_r")
    u4 = u.reshape(dim_s, dim_r, dim_s, dim_r)
    return np.einsum("i,aibj,j->ab", bra_r.conj(), u4, ket_r)


def partial_trace_reservoir(rho_joint, dim_s: int, dim_r: int) -> np.ndarray:
    """Trace a joint density matrix over the reservoir factor."""
    rho_joint = _as_square(rho_joint)
    if rho_joint.shape[0] != dim_s * dim_r:
        raise DimensionError("joint dimension mismatch")
    r4 = rho_joint.reshape(dim_s, dim_r, dim_s, dim_r)
    return np.einsum("aibi->ab", r4)
