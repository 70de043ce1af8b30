"""Open-system dynamics: Lindblad integration, Kraus channels, conditional
trajectories from a joint unitary (or straight from the eigenvectors of a
constant joint Hamiltonian), and the reservoir-adapted basis.

The Lindblad normalization follows the convention in which the dissipator
reads ``-(L^dag L rho + rho L^dag L - 2 L rho L^dag)`` with NO factor 1/2;
all rates in this package are interpreted in that convention.

The master equation is linear, ``vec(rho)' = L(t) vec(rho)`` with the
d^2 x d^2 superoperator ``liouvillian``, so one classical RK4 step is a fixed
matrix built from L at t, t + dt/2 and t + dt.  For a constant generator that
matrix is ``M = sum_{j<=4} (L dt)^j / j!`` and ``integrate_lindblad`` applies
its powers M^1..M^B to a chunk's start state in one batched product.  The
exact propagator ``expm(L dt)`` is deliberately not used: it would change
the numbers, and an exact step can never lose trace, so an unstable grid
would no longer be reported as ``IntegrationDiverged``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    IntegrationDiverged,
    InvalidChannel,
    InvalidOperand,
    InvalidState,
)
from .hilbert import Schedule, TimeGrid, eigenphases, is_hermitian
from .phase import Trajectory

ENERGY_DEGENERACY_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-6
_LINDBLAD_CHUNK = 64  # RK4 steps per batched product on a constant generator


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

    def density_matrix(self) -> np.ndarray:
        return np.einsum("r,ri,rj->ij", self.probs, self.states,
                         self.states.conj())

    def block_density(self, block: Sequence[int]) -> np.ndarray:
        idx = list(block)
        return np.einsum("r,ri,rj->ij", self.probs[idx], self.states[idx],
                         self.states[idx].conj())


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
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise InvalidState("probabilities must be nonnegative and sum to 1")

    @classmethod
    def pure(cls, psi) -> "SystemEnsemble":
        psi = np.asarray(psi, dtype=complex)
        return cls(probs=np.array([1.0]), states=psi[None, :])


@dataclass
class KrausChannel:
    """Weighted Kraus map ``rho -> sum_i p_i K_i(t) rho K_i(t)^dag``.

    Weights are kept separate from the operators; the authoritative validity
    condition is the completeness relation ``sum_i p_i K_i^dag K_i = 1``.
    """

    elements: list[tuple[float, Callable[[float], np.ndarray]]]
    dim: int

    def operators(self, t: float) -> list[tuple[float, np.ndarray]]:
        return [(p, np.asarray(k(t), dtype=complex)) for p, k in self.elements]

    def completeness_defect(self, t: float) -> float:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for p, k in self.operators(t):
            acc += p * k.conj().T @ k
        return float(np.linalg.norm(acc - np.eye(self.dim)))


@dataclass
class LindbladModel:
    """Master-equation data: H_S(t), Hermitian shift, and jump operators."""

    hs: Schedule
    jump_ops: list[np.ndarray] = field(default_factory=list)
    delta_h: np.ndarray | None = None

    def __post_init__(self):
        self.jump_ops = [np.asarray(l, dtype=complex) for l in self.jump_ops]
        dim = self.hs.dim
        for i, l in enumerate(self.jump_ops):
            if l.shape != (dim, dim):
                raise DimensionError(
                    f"jump operator {i} has shape {l.shape}, need {(dim, dim)}")
            if not np.all(np.isfinite(l)):
                raise InvalidOperand(f"jump operator {i} has non-finite entries")
        if self.delta_h is None:
            self.delta_h = np.zeros((dim, dim), dtype=complex)
        else:
            self.delta_h = np.asarray(self.delta_h, dtype=complex)
            if not is_hermitian(self.delta_h):
                raise InvalidOperand("delta_h must be Hermitian")


def liouvillian(model: LindbladModel, h) -> np.ndarray:
    """Superoperator of the master equation with system Hamiltonian ``h``.

    Acts on the row-major ``vec(rho) = rho.reshape(-1)``, for which
    ``vec(A rho B) = kron(A, B^T) vec(rho)``.  With ``K = sum L^dag L`` the
    equation reads ``(-i h - K) rho + rho (i h - K) + 2 sum L rho L^dag``.
    """
    h = np.asarray(h, dtype=complex) + model.delta_h
    d = len(h)
    eye = np.eye(d)
    ldl = sum((l.conj().T @ l for l in model.jump_ops), np.zeros_like(h))

    def kron(a, b):  # np.kron, without its per-call overhead
        return a[:, None, :, None] * b[None, :, None, :]

    out = kron(-1j * h - ldl, eye) + kron(eye, (1j * h - ldl).T)
    for l in model.jump_ops:
        out += 2.0 * kron(l, l.conj())
    return out.reshape(d * d, d * d)


def lindblad_rhs(rho, model: LindbladModel, t: float) -> np.ndarray:
    """Right-hand side of the master equation (no-1/2 convention)."""
    rho = np.asarray(rho, dtype=complex)
    return (liouvillian(model, model.hs(t)) @ rho.reshape(-1)).reshape(rho.shape)


def _rk4_map(l0: np.ndarray, l_mid: np.ndarray, l1: np.ndarray,
             dt: float) -> np.ndarray:
    """Classical RK4 step of ``v' = L(t) v`` as one matrix, from L at the
    step's start, midpoint and end."""
    eye = np.eye(len(l0))
    k1 = l0
    k2 = l_mid @ (eye + 0.5 * dt * k1)
    k3 = l_mid @ (eye + 0.5 * dt * k2)
    k4 = l1 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_lindblad(model: LindbladModel, rho0, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 on the grid, applied as one linear step map.

    A constant schedule (``hs.matrix`` set) builds the step map M once and
    fills chunks of up to ``_LINDBLAD_CHUNK`` nodes from the chunk's start
    state with the precomputed powers M^1..M^B; a time-dependent schedule
    builds M per step and advances one node at a time.  Each node is
    symmetrized to Hermitian, and a trace drift beyond ``TRACE_DRIFT_TOL``
    (or a non-finite trace, as after overflow) raises ``IntegrationDiverged``
    naming the first drifting node.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    tr0 = np.trace(rho0).real
    dt, times, n = grid.dt, grid.times, grid.n_steps
    out = np.empty((n + 1, *rho0.shape), dtype=complex)
    out[0] = rho0
    h = model.hs.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if h is not None:
            l = liouvillian(model, h)
            powers = np.empty((min(_LINDBLAD_CHUNK, n), *l.shape), dtype=complex)
            powers[0] = _rk4_map(l, l, l, dt)
            for j in range(1, len(powers)):
                powers[j] = powers[0] @ powers[j - 1]
        k = 0
        while k < n:
            if h is None:
                t = times[k]
                powers = _rk4_map(*(liouvillian(model, model.hs(s))
                                    for s in (t, t + 0.5 * dt, t + dt)), dt)[None]
            b = min(len(powers), n - k)
            chunk = out[k + 1:k + 1 + b]
            chunk[:] = (powers[:b] @ out[k].reshape(-1)).reshape(chunk.shape)
            chunk += chunk.conj().swapaxes(1, 2)
            chunk *= 0.5
            drift = np.abs(np.trace(chunk, axis1=1, axis2=2).real - tr0)
            bad = ~(drift <= TRACE_DRIFT_TOL)
            if bad.any():
                j = int(np.argmax(bad))
                raise IntegrationDiverged(
                    f"trace drifted by {drift[j]:.3e} at t={times[k + 1 + j]:.6g}")
            k += b
    return out


def apply_kraus(channel: KrausChannel, rho0, t: float) -> np.ndarray:
    """Evolved density matrix ``sum_i p_i K_i(t) rho0 K_i(t)^dag``."""
    defect = channel.completeness_defect(t)
    if not defect <= COMPLETENESS_TOL:  # a NaN defect fails too
        raise InvalidChannel(f"completeness defect {defect:.3e} at t={t:.6g}")
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros_like(rho0)
    for p, k in channel.operators(t):
        out += p * k @ rho0 @ k.conj().T
    return out


def adapted_basis(r, dim: int) -> np.ndarray:
    """Orthonormal reservoir basis whose 0th element is ``r`` itself.

    Completed by Gram-Schmidt over the standard basis with the vector of
    largest overlap with ``r`` removed (for stability of the completion).
    """
    r = np.asarray(r, dtype=complex)
    nrm = np.linalg.norm(r)
    if nrm < 1e-12:
        raise InvalidState("cannot adapt a basis to the zero vector")
    basis = [r / nrm]
    pivot = int(np.argmax(np.abs(r)))
    for j in [i for i in range(dim) if i != pivot]:
        v = np.zeros(dim, dtype=complex)
        v[j] = 1.0
        for b in basis:
            v -= np.vdot(b, v) * b
        n = np.linalg.norm(v)
        if n < 1e-12:
            raise InvalidState("Gram-Schmidt completion broke down")
        basis.append(v / n)
    return np.array(basis)


def _joint_blocks(us: np.ndarray, dim_s: int, dim_r: int) -> np.ndarray:
    """A stack of joint operators as (n, s, r, s', r') blocks."""
    if us.ndim != 3 or us.shape[1:] != (dim_s * dim_r,) * 2:
        raise DimensionError("joint propagator dimension != dim_s * dim_r")
    if not np.all(np.isfinite(us)):
        raise InvalidOperand("joint propagator has non-finite entries")
    return us.reshape(len(us), dim_s, dim_r, dim_s, dim_r)


def conditional_trajectories(
    us: np.ndarray,
    res: ReservoirSpec,
    sys: SystemEnsemble,
    grid: TimeGrid,
) -> list[tuple[float, Trajectory]]:
    """Weighted conditional trajectories ``<r|U_SR(t_k)|r> |psi_s>``.

    Only the diagonal-in-r (b_R = 0 in the adapted basis) Kraus element is
    kept: in the adapted basis all other elements start at the zero vector
    and carry no phase information.  Use ``conditional_kraus_elements`` to
    recover the discarded elements for resummation checks.
    """
    u5 = _joint_blocks(us, sys.states.shape[1], res.dim)
    out = []
    for p_r, r in zip(res.probs, res.states):
        kraus_seq = np.einsum("i,kaibj,j->kab", r.conj(), u5, r)
        for q_s, psi in zip(sys.probs, sys.states):
            states = np.einsum("kab,b->ka", kraus_seq, psi)
            out.append((p_r * q_s, Trajectory(grid=grid, states=states)))
    return out


def spectral_conditional_trajectories(
    h: np.ndarray,
    res: ReservoirSpec,
    sys: SystemEnsemble,
    grid: TimeGrid,
) -> tuple[list[tuple[float, Trajectory]], np.ndarray]:
    """``conditional_trajectories`` of a constant joint Hamiltonian ``h``,
    and the final propagator ``U(t_N)``, without the (n, d, d) stack of U.

    With ``h = V diag(lambda) V^dag`` each conditional state is

        psi_r(t_k)_a = sum_n <a, r|V>_n e^{-i lambda_n (t_k - t_0)}
                       (V^dag (psi_s x r))_n,

    one eigendecomposition per call and O(n * d) work per trajectory.
    """
    dim_s, dim_r = sys.states.shape[1], res.dim
    v, phases = eigenphases(h, grid)
    if len(v) != dim_s * dim_r:
        raise DimensionError("joint Hamiltonian dimension != dim_s * dim_r")
    v3 = v.reshape(dim_s, dim_r, len(v))
    out = []
    for p_r, r in zip(res.probs, res.states):
        left = np.einsum("i,ain->an", r.conj(), v3)
        for q_s, psi in zip(sys.probs, sys.states):
            coeffs = np.einsum("ain,a,i->n", v3.conj(), psi, r)
            states = (phases * coeffs) @ left.T
            out.append((p_r * q_s, Trajectory(grid=grid, states=states)))
    return out, (v * phases[-1]) @ v.conj().T


def conditional_kraus_elements(
    us: np.ndarray, res: ReservoirSpec, dim_s: int
) -> list[tuple[float, list[np.ndarray]]]:
    """All adapted-basis Kraus sequences ``<b_j(r)|U(t_k)|r>`` per r.

    Returns one entry per reservoir state: ``(p_r, [seq_b0, seq_b1, ...])``
    where each ``seq`` has shape (n_nodes, dim_s, dim_s) and b0 is the kept
    diagonal element.
    """
    u5 = _joint_blocks(us, dim_s, res.dim)
    out = []
    for p_r, r in zip(res.probs, res.states):
        basis = adapted_basis(r, res.dim)
        seqs = np.einsum("bi,kaicj,j->bkac", basis.conj(), u5, r)
        out.append((p_r, list(seqs)))
    return out


def reduced_density_from_elements(
    elements: list[tuple[float, list[np.ndarray]]],
    sys: SystemEnsemble,
    node: int,
) -> np.ndarray:
    """Resum the full conditional Kraus set into rho_S at a grid node."""
    dim_s = sys.states.shape[1]
    rho0 = np.einsum("s,si,sj->ij", sys.probs, sys.states, sys.states.conj())
    out = np.zeros((dim_s, dim_s), dtype=complex)
    for p_r, seqs in elements:
        for seq in seqs:
            k = seq[node]
            out += p_r * k @ rho0 @ k.conj().T
    return out
