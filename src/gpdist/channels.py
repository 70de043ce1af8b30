"""Open-system dynamics: Lindblad integration, Kraus channels, and the
conditional trajectories of a joint system-reservoir evolution, as one
closed-form family straight from the eigenvectors of the constant joint
Hamiltonian (``spectral_conditional_trajectories``).

The Lindblad normalization follows the convention in which the dissipator
reads ``-(L^dag L rho + rho L^dag L - 2 L rho L^dag)`` with NO factor 1/2;
all rates in this package are interpreted in that convention.

H_S is constant, so the master equation is ``vec(rho)' = L vec(rho)`` with
one d^2 x d^2 superoperator ``liouvillian``, and one classical RK4 step is
the fixed matrix ``M = sum_{j<=4} (L dt)^j / j!``; ``integrate_lindblad``
stacks its powers M^1..M^B into one (B d^2, d^2) matrix and fills a chunk
of B nodes with one product on the chunk's start state, then symmetrizes
and checks the nodes after the loop.  The exact propagator ``expm(L dt)``
is deliberately not used: it would change the numbers, and an exact step
can never lose trace, so an unstable grid would no longer be reported as
``IntegrationDiverged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    IntegrationDiverged,
    InvalidChannel,
    InvalidOperand,
    InvalidState,
)
from .hilbert import TimeGrid, _as_square
from .phase import ClosedFormPath

ENERGY_DEGENERACY_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-6
RK4_GROWTH_TOL = 1e-6  # bound on rho(M)^n - 1 for the RK4 step map M
_LINDBLAD_CHUNK = 64  # RK4 steps per batched product
_CHECK_BLOCK = 256  # nodes per symmetrize-and-check pass: 16 KiB at d = 2


@dataclass(frozen=True)
class ReservoirSpec:
    """Mixture ``rho_R(0) = sum_r p_r |r><r|`` of reservoir eigenstates.

    ``energies`` drive the degeneracy-block structure; ``orthonormal=False``
    marks alternative in-block decompositions whose pure states need not be
    mutually orthogonal (the probabilities and block densities still are
    well defined).
    """

    probs: np.ndarray
    states: np.ndarray  # (n_states, dim_r)
    energies: np.ndarray
    orthonormal: bool = True

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        energies = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "energies", energies)
        if states.ndim != 2 or len(probs) != len(states):
            raise DimensionError("need one state vector per probability")
        if len(energies) != len(probs):
            raise DimensionError("need one energy per state")
        if not np.all(np.isfinite(energies)):
            raise InvalidState("reservoir energies must be finite")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise InvalidState("probabilities must be nonnegative and sum to 1")
        if self.orthonormal:
            gram = states.conj() @ states.T
            if np.linalg.norm(gram - np.eye(len(states))) > 1e-10:
                raise InvalidState("reservoir states are not orthonormal")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def blocks(self) -> list[list[int]]:
        """Partition of state indices into degenerate-energy blocks."""
        blocks: list[list[int]] = []
        for i, e in enumerate(self.energies):
            for blk in blocks:
                e0 = self.energies[blk[0]]
                if abs(e - e0) < ENERGY_DEGENERACY_TOL * max(1.0, abs(e0)):
                    blk.append(i)
                    break
            else:
                blocks.append([i])
        return blocks


@dataclass(frozen=True)
class SystemEnsemble:
    """Initial system mixture ``rho_S(0) = sum_s q_s |psi_s><psi_s|``."""

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        if states.ndim != 2 or len(probs) != len(states):
            raise DimensionError("need one state vector per probability")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise InvalidState("probabilities must be nonnegative and sum to 1")
        if not np.all(abs(np.linalg.norm(states, axis=1) - 1.0) <= 1e-10):
            raise InvalidState("system states must have unit norm")

    @classmethod
    def pure(cls, psi) -> "SystemEnsemble":
        psi = np.asarray(psi, dtype=complex)
        return cls(probs=np.array([1.0]), states=psi[None, :])


@dataclass
class KrausChannel:
    """Weighted Kraus map ``rho -> sum_i p_i K_i(t) rho K_i(t)^dag``.

    ``operators(t)`` is the (m, d, d) stack of the K_i(t) for the m weights
    p_i; the validity condition is ``sum_i p_i K_i^dag K_i = 1``.
    """

    weights: np.ndarray
    operators: Callable[[float], np.ndarray]

    def completeness_defect(self, t: float) -> float:
        return _completeness_defect(self.weights, self.operators(t))


def _completeness_defect(weights: np.ndarray, ks: np.ndarray) -> float:
    """``|| sum_i p_i K_i^dag K_i - 1 ||`` of an operator stack ``ks``."""
    if ks.shape != (len(weights),) + ks.shape[-1:] * 2:
        raise DimensionError(f"{len(weights)} weights, operator stack {ks.shape}")
    acc = np.einsum("i,iab,iac->bc", weights, ks.conj(), ks)
    return float(np.linalg.norm(acc - np.eye(ks.shape[-1])))


@dataclass
class LindbladModel:
    """Master-equation data: the H_S matrix and the jump operators."""

    hs: np.ndarray
    jump_ops: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.hs = _as_square(self.hs)
        self.jump_ops = [np.asarray(l, dtype=complex) for l in self.jump_ops]
        dim = len(self.hs)
        for i, l in enumerate(self.jump_ops):
            if l.shape != (dim, dim):
                raise DimensionError(
                    f"jump operator {i} has shape {l.shape}, need {(dim, dim)}")
            if not np.all(np.isfinite(l)):
                raise InvalidOperand(f"jump operator {i} has non-finite entries")


def liouvillian(model: LindbladModel) -> np.ndarray:
    """Superoperator of the master equation.

    Acts on the row-major ``vec(rho) = rho.reshape(-1)``, for which
    ``vec(A rho B) = kron(A, B^T) vec(rho)``.  With ``K = sum L^dag L`` the
    equation reads ``(-i H_S - K) rho + rho (i H_S - K) + 2 sum L rho L^dag``.
    """
    h = model.hs
    d = len(h)
    eye = np.eye(d)
    ldl = sum((l.conj().T @ l for l in model.jump_ops), np.zeros_like(h))

    def kron(a, b):  # np.kron, without its per-call overhead
        return a[:, None, :, None] * b[None, :, None, :]

    out = kron(-1j * h - ldl, eye) + kron(eye, (1j * h - ldl).T)
    for l in model.jump_ops:
        out += 2.0 * kron(l, l.conj())
    return out.reshape(d * d, d * d)


def _rk4_map(l: np.ndarray, dt: float) -> np.ndarray:
    """Classical RK4 step of ``v' = L v`` as one matrix."""
    eye = np.eye(len(l))
    k1 = l
    k2 = l @ (eye + 0.5 * dt * k1)
    k3 = l @ (eye + 0.5 * dt * k2)
    k4 = l @ (eye + dt * k3)
    return eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_lindblad(model: LindbladModel, rho0, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 on the grid, applied as one linear step map.

    The step map M is built once, and its powers M^1..M^B are stacked into
    one ``(B d^2, d^2)`` matrix, so that each chunk of up to
    ``_LINDBLAD_CHUNK`` nodes is one matrix-vector product on the chunk's
    start state; only that start is symmetrized inside the loop, in a
    copy.  After the loop every node is symmetrized to Hermitian, once,
    ``_CHECK_BLOCK`` nodes at a time, and a trace drift beyond
    ``TRACE_DRIFT_TOL`` (or a non-finite trace, as after overflow) raises
    ``IntegrationDiverged`` naming the first drifting node.  No node
    enters the computation of an earlier one, so the error is the one a
    grid ending at that node raises.  ``grid.times`` is built only then.

    An RK4 instability in the coherences never moves the trace, so a grid
    that passes the trace check still raises ``IntegrationDiverged`` when
    the spectral radius rho(M) of the step map amplifies over the n steps,
    rho(M)^n - 1 > ``RK4_GROWTH_TOL``, whatever ``rho0``; the power is taken
    as ``n log rho(M)``, which cannot overflow.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    tr0 = np.trace(rho0).real
    n = grid.n_steps
    out = np.empty((n + 1, *rho0.shape), dtype=complex)
    out[0] = rho0
    flat = out.reshape(n + 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        step = _rk4_map(liouvillian(model), grid.dt)
        powers = np.empty((min(_LINDBLAD_CHUNK, n), *step.shape),
                          dtype=complex)
        powers[0] = step
        for j in range(1, len(powers)):
            powers[j] = step @ powers[j - 1]
        start = flat[0]
        for k in range(0, n, len(powers)):
            b = min(len(powers), n - k)
            np.matmul(powers[:b].reshape(-1, len(step)), start,
                      out=flat[k + 1:k + 1 + b].reshape(-1))
            last = out[k + b]  # the next start, symmetrized in a copy
            start = ((last + last.conj().T) * 0.5).reshape(-1)
        del powers  # before the check's temporaries
        for k in range(1, n + 1, _CHECK_BLOCK):
            block = out[k:k + _CHECK_BLOCK]
            block += block.conj().swapaxes(1, 2)
            block *= 0.5
            drift = np.abs(np.trace(block, axis1=1, axis2=2).real - tr0)
            ok = drift <= TRACE_DRIFT_TOL  # a NaN drift fails too
            if not ok.all():
                j = int(np.argmax(~ok))
                raise IntegrationDiverged(f"trace drifted by {drift[j]:.3e} "
                                          f"at t={grid.times[k + j]:.6g}")
        # a non-finite step map makes every node NaN, which fails above
        radius = np.abs(np.linalg.eigvals(step)).max()
        growth = n * np.log(radius)
        if growth > np.log1p(RK4_GROWTH_TOL):
            raise IntegrationDiverged(
                f"RK4 step map has spectral radius {radius:.6g}: {n} steps "
                f"of dt={grid.dt:.6g} amplify by exp({growth:.3e})")
    return out


def apply_kraus(channel: KrausChannel, rho0, t: float) -> np.ndarray:
    """Evolved density matrix ``sum_i p_i K_i(t) rho0 K_i(t)^dag``."""
    ks = channel.operators(t)
    defect = _completeness_defect(channel.weights, ks)
    if not defect <= COMPLETENESS_TOL:  # a NaN defect fails too
        raise InvalidChannel(f"completeness defect {defect:.3e} at t={t:.6g}")
    return np.einsum("i,iab,bc,idc->ad", channel.weights, ks,
                     np.asarray(rho0, dtype=complex), ks.conj())


def spectral_conditional_trajectories(
    spectrum: tuple[np.ndarray, np.ndarray],
    res: ReservoirSpec,
    sys: SystemEnsemble,
    t_end: float,
) -> tuple[tuple[np.ndarray, ClosedFormPath], np.ndarray]:
    """Weighted conditional trajectories ``<r|U(t)|r> |psi_s>`` of a constant
    joint Hamiltonian ``h = V diag(lambda) V^dag``, given as its
    ``spectrum = (lambda, V)`` from ``eigh_hermitian(h)``, as one
    closed-form family on [0, t_end] with the members' weights
    ``p_r q_s``, and the final propagator ``U(t_end)``.

    Only the diagonal-in-r Kraus element is kept: in the adapted basis
    (b_R = 0) every other element starts at the zero vector and carries no
    phase information.  Each conditional state is

        psi_r(t)_a = sum_n <a, r|V>_n e^{-i lambda_n t} (V^dag (psi_s x r))_n,

    and its derivative multiplies each term by -i lambda_n: the exponentials
    evaluated once per set of times for every member and for psi and its
    derivative, and O(d) work per member and time.  Members run over
    (r, psi_s) with psi_s fastest, and only over p_r > 0 and q_s > 0: a
    member of zero weight adds nothing to the distribution, and its path
    may vanish.  The spectrum does not depend on the system states, so one
    eigendecomposition serves every ensemble of a given h.
    """
    lam, v = spectrum
    dim_s, dim_r = sys.states.shape[1], res.dim
    if len(v) != dim_s * dim_r:
        raise DimensionError("joint Hamiltonian dimension != dim_s * dim_r")
    v3 = v.reshape(dim_s, dim_r, len(v))
    rates = -1j * lam
    r_probs, r_states = res.probs[res.probs > 0], res.states[res.probs > 0]
    s_probs, s_states = sys.probs[sys.probs > 0], sys.states[sys.probs > 0]
    left_t = np.repeat(np.einsum("ri,ain->ran", r_states.conj(), v3),
                       len(s_states), axis=0).transpose(0, 2, 1)
    coeffs = np.einsum("ain,sa,ri->rsn", v3.conj(), s_states,
                       r_states).reshape(-1, len(v))
    # e * (rates * coeffs), not (e * coeffs) * rates, which rounds apart
    rate_coeffs = rates * coeffs

    def states(t):
        e = np.exp(np.outer(t, rates))
        return ((e * coeffs[:, None]) @ left_t,
                (e * rate_coeffs[:, None]) @ left_t)

    weights = np.outer(r_probs, s_probs).ravel()
    return ((weights, ClosedFormPath(states=states, t_end=t_end)),
            (v * np.exp(-1j * (t_end * lam))) @ v.conj().T)

