"""Open-system dynamics: Lindblad integration, Kraus channels, conditional
trajectories from a joint unitary (or straight from the eigenvectors of a
constant joint Hamiltonian), and the reservoir-adapted basis.

The Lindblad normalization follows the convention in which the dissipator
reads ``-(L^dag L rho + rho L^dag L - 2 L rho L^dag)`` with NO factor 1/2;
all rates in this package are interpreted in that convention.
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
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise InvalidState("probabilities must be nonnegative and sum to 1")
        if self.orthonormal:
            gram = states.conj() @ states.T
            if np.linalg.norm(gram - np.eye(len(states))) > 1e-10:
                raise InvalidState("reservoir states are not orthonormal")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def blocks(self, tol: float = ENERGY_DEGENERACY_TOL) -> list[list[int]]:
        """Partition of state indices into degenerate-energy blocks."""
        blocks: list[list[int]] = []
        for i, e in enumerate(self.energies):
            for blk in blocks:
                e0 = self.energies[blk[0]]
                if abs(e - e0) < tol * max(1.0, abs(e0)):
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
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
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
        if self.delta_h is None:
            self.delta_h = np.zeros((self.hs.dim, self.hs.dim), dtype=complex)
        else:
            self.delta_h = np.asarray(self.delta_h, dtype=complex)
            if not is_hermitian(self.delta_h):
                raise InvalidOperand("delta_h must be Hermitian")


def lindblad_rhs(rho, model: LindbladModel, t: float) -> np.ndarray:
    """Right-hand side of the master equation (no-1/2 convention)."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hs(t) + model.delta_h
    out = -1j * (h @ rho - rho @ h)
    for l in model.jump_ops:
        ldl = l.conj().T @ l
        out -= ldl @ rho + rho @ ldl - 2.0 * l @ rho @ l.conj().T
    return out


def integrate_lindblad(model: LindbladModel, rho0, grid: TimeGrid) -> np.ndarray:
    """Classical RK4 on the grid; Hermiticity is enforced by symmetrization
    after each step and trace drift beyond 1e-6 aborts the run."""
    rho = np.asarray(rho0, dtype=complex).copy()
    tr0 = np.trace(rho).real
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, *rho.shape), dtype=complex)
    out[0] = rho
    for k, t in enumerate(grid.times[:-1]):
        k1 = lindblad_rhs(rho, model, t)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, model, t + 0.5 * dt)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, model, t + 0.5 * dt)
        k4 = lindblad_rhs(rho + dt * k3, model, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        if abs(np.trace(rho).real - tr0) > TRACE_DRIFT_TOL:
            raise IntegrationDiverged(
                f"trace drifted by {abs(np.trace(rho).real - tr0):.3e} at t={t:.6g}"
            )
        out[k + 1] = rho
    return out


def apply_kraus(channel: KrausChannel, rho0, t: float) -> np.ndarray:
    """Evolved density matrix ``sum_i p_i K_i(t) rho0 K_i(t)^dag``."""
    defect = channel.completeness_defect(t)
    if defect > COMPLETENESS_TOL:
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
