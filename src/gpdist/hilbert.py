"""Dense complex linear algebra on small Hilbert spaces.

Hermiticity checks, the eigendecomposition of a constant Hermitian
operator (``eigh_hermitian``), from which every propagator in this package
is formed as ``U(t) = V e^{-i lambda t} V^dag``, and the uniform time grid of
the Lindblad integrator.

Tensor-product index convention: the SYSTEM index is the slow (outer) index,
i.e. a joint operator is ``np.kron(op_system, op_reservoir)`` and a joint
state index decomposes as ``i = s * dim_r + r``.  Every reshape of a joint
operator or state in this package (``channels``, ``weakcoupling``,
``distribution``) relies on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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


@dataclass
class Schedule:
    """Time-dependent operator ``t -> matrix`` of a declared dimension.

    No package code makes or evaluates one: every Hamiltonian is a constant
    matrix.  The class remains only because the benchmark's tracer counts
    ``Schedule.__call__`` as the per-layer metric ``hilbert.Schedule.evals``;
    the benchmark change that retires that counter retires this class.
    """

    evaluator: Callable[[float], np.ndarray]
    dim: int

    def __call__(self, t: float) -> np.ndarray:
        m = _as_square(self.evaluator(t))
        if m.shape[0] != self.dim:
            raise DimensionError(
                f"schedule evaluator returned dim {m.shape[0]}, declared {self.dim}"
            )
        return m


def eigh_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``lambda`` and eigenvectors ``V`` of a constant Hermitian
    ``h = V diag(lambda) V^dag``."""
    h = _as_square(h)
    if not is_hermitian(h):
        raise InvalidOperand("spectral propagation needs a Hermitian matrix")
    return np.linalg.eigh(h)
