"""Second-order perturbation theory for a weakly coupled reservoir.

In the interaction picture the joint propagator factorizes as
``U_SR = U_S U_R Utilde`` with ``Utilde = 1 + A + B + ...`` where

    A(t) = -i * integral_0^t H_I~(t') dt'
    B(t) = -  integral_0^t dt' integral_0^t' dt'' H_I~(t') H_I~(t'')

and ``H_I~ = U_R^dag U_S^dag H_I U_S U_R``.  Under the coupling condition
``<r|R_mu|r> = 0`` for every populated reservoir eigenstate, the first-order
terms drop out of the phase functional and the correction to Z is governed by
the operator B alone, through the functional ``delta_z`` below.  The
perturbative moments of both phase distributions then coincide:

    <e^{ins}>_H = <z^n>_Z / |<z>_Z|^n = e^{in beta0} (1 + i n Im<DeltaZ>).

On the grid, ``U_S`` is exact for a constant H_S (one eigendecomposition)
and the midpoint product for a time-dependent one; ``U_R = e^{-i H_R t}``
comes from one eigendecomposition ``H_R = Q diag(E) Q^dag``.  In the H_R
eigenbasis ``<i|H_I~(t)|j> = e^{i(E_i - E_j) t} U_S^dag <i|H_I|j> U_S`` is
one broadcast over the grid, and ``delta_z`` builds each block ``<r|B|r>``
from the rows ``<r|H_I~|.>`` in O(n * d * d_S) memory.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ReservoirSpec
from .errors import (
    DimensionError,
    InconsistentModel,
    InvalidOperand,
    RCondViolated,
    UndefinedGP,
)
from .hilbert import (Schedule, TimeGrid, eigenphases, is_hermitian,
                      time_ordered_propagator)

RCOND_TOL = 1e-10
IM_DZ_WARN = 0.1


@dataclass
class WeakCouplingModel:
    """System schedule, static reservoir, and coupling ``H_I = -sum R_mu S_mu``.

    ``couplings`` is a list of ``(r_op, s_op)`` pairs acting on the reservoir
    and system factors; the joint coupling is ``-sum kron(s_op, r_op)``
    (system slow index).
    """

    hs: Schedule
    hr: np.ndarray
    couplings: list[tuple[np.ndarray, np.ndarray]]
    res: ReservoirSpec
    psi_s: np.ndarray

    def __post_init__(self):
        self.hr = np.asarray(self.hr, dtype=complex)
        self.psi_s = np.asarray(self.psi_s, dtype=complex)
        self.couplings = [
            (np.asarray(r, dtype=complex), np.asarray(s, dtype=complex))
            for r, s in self.couplings
        ]
        if self.hr.shape[0] != self.res.dim:
            raise DimensionError("H_R dimension != reservoir dimension")
        if not is_hermitian(self.hr):
            raise InvalidOperand("H_R is not Hermitian")
        if not is_hermitian(self.h_interaction()):
            raise InvalidOperand("H_I is not Hermitian")

    @property
    def dim_s(self) -> int:
        return self.hs.dim

    @property
    def dim_r(self) -> int:
        return self.hr.shape[0]

    def h_interaction(self) -> np.ndarray:
        out = np.zeros((self.dim_s * self.dim_r,) * 2, dtype=complex)
        for r_op, s_op in self.couplings:
            out -= np.kron(s_op, r_op)
        return out

    def rcond_defect(self) -> float:
        """Largest |<r|R_mu|r>| over populated states and coupling terms."""
        worst = 0.0
        for p, r in zip(self.res.probs, self.res.states):
            if p == 0.0:
                continue
            for r_op, _ in self.couplings:
                worst = max(worst, abs(np.vdot(r, r_op @ r)))
        return worst

    def require_rcond(self, tol: float = RCOND_TOL):
        defect = self.rcond_defect()
        if defect > tol:
            raise RCondViolated(
                f"<r|R|r> reaches {defect:.3e}; the perturbative GP formula "
                "is spurious for this coupling"
            )


@dataclass
class PerturbationOperators:
    """The interaction picture on the grid in the H_R eigenbasis, factored
    so that ``delta_z`` needs only the rows ``<r|H_I~|.>``.  The joint A
    and B are formed on first read, as (n+1, d, d) arrays in the original
    reservoir basis.
    """

    grid: TimeGrid
    us: np.ndarray         # (n+1, ds, ds) system propagator
    dhs_tilde: np.ndarray  # (n+1, ds, ds) traceless-in-psi_S part of H_S~
    res_basis: np.ndarray  # (dr, dr) eigenvectors Q of H_R, as columns
    res_phases: np.ndarray  # (n+1, dr) e^{-i E_j t_k}
    g_blocks: np.ndarray   # (dr, dr, ds, ds) <i|H_I|j> in the H_R eigenbasis

    def h_tilde_rows(self, r) -> np.ndarray:
        """``<r|H_I~(t_k)|.>`` as (n+1, ds, dr * ds) samples.  The joint
        column index runs over the reservoir eigenbasis, reservoir index
        slow: it only ever contracts against the adjoint rows."""
        f = self.res_phases.conj() * (self.res_basis.conj().T @ r).conj()
        n, dim_r = f.shape
        dim_s = self.us.shape[1]
        m = (f @ self.g_blocks.reshape(dim_r, -1)).reshape(n, -1, dim_s)
        m = (m @ self.us).reshape(n, dim_r, dim_s, dim_s).transpose(0, 2, 1, 3)
        m = self.us.conj().transpose(0, 2, 1) @ m.reshape(n, dim_s, -1)
        m = m.reshape(n, dim_s, dim_r, dim_s) * self.res_phases[:, None, :, None]
        return m.reshape(n, dim_s, -1)

    def h_tilde(self) -> np.ndarray:
        """(n+1, d, d) interaction-picture H_I in the original basis."""
        dim_r, _, dim_s, _ = self.g_blocks.shape
        u_dag = self.us.conj().transpose(0, 2, 1)[:, None, None]
        m = u_dag @ self.g_blocks @ self.us[:, None, None]
        m *= (self.res_phases.conj()[:, :, None]
              * self.res_phases[:, None, :])[..., None, None]
        m = m.transpose(0, 3, 1, 4, 2).reshape(len(m), dim_s * dim_r, -1)
        q = np.kron(np.eye(dim_s), self.res_basis)
        return q @ m @ q.conj().T

    @functools.cached_property
    def a(self) -> np.ndarray:
        """(n+1, d, d) joint A, anti-Hermitian."""
        return -1j * _cumtrapz(self.h_tilde(), self.grid.dt)

    @functools.cached_property
    def b(self) -> np.ndarray:
        """(n+1, d, d) joint B."""
        h_tilde = self.h_tilde()
        inner = _cumtrapz(h_tilde, self.grid.dt)   # integral up to t'
        return -_cumtrapz(h_tilde @ inner, self.grid.dt)


def _cumtrapz(samples: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along the leading axis (matrix-valued)."""
    out = np.zeros_like(samples)
    out[1:] = np.cumsum(0.5 * dt * (samples[:-1] + samples[1:]), axis=0)
    return out


def build_AB(model: WeakCouplingModel, grid: TimeGrid) -> PerturbationOperators:
    """Interaction picture of ``model`` on ``grid``; A by trapezoidal
    accumulation and B by the nested (inner cumulative, outer re-integrated)
    trapezoid, both second order in dt."""
    dim_s, dim_r = model.dim_s, model.dim_r
    us = time_ordered_propagator(model.hs, grid)
    q, res_phases = eigenphases(model.hr, grid)
    qq = np.kron(np.eye(dim_s), q)
    g = (qq.conj().T @ model.h_interaction() @ qq).reshape(
        dim_s, dim_r, dim_s, dim_r).transpose(1, 3, 0, 2)

    psi = model.psi_s
    hs = model.hs.matrix if model.hs.matrix is not None \
        else model.hs.sample(grid)
    hst = us.conj().transpose(0, 2, 1) @ hs @ us
    shift = np.einsum("a,kab,b->k", psi.conj(), hst, psi)
    dhs = hst - shift[:, None, None] * np.eye(dim_s)
    return PerturbationOperators(grid=grid, us=us, dhs_tilde=dhs, res_basis=q,
                                 res_phases=res_phases, g_blocks=g)


def reservoir_blocks_of_b(
    ops: PerturbationOperators, res: ReservoirSpec, dim_s: int
) -> list[tuple[float, np.ndarray]]:
    """Diagonal reservoir blocks ``<r|B(t)|r>`` as system-operator samples.

    ``<r|H~(t') H~(t'')|r>`` sums ``<r|H~(t')|.>`` against ``<.|H~(t'')|r>``,
    the adjoint of the same rows, so each block is the nested trapezoid of
    B on (n+1, ds, d) rows, never on the joint (n+1, d, d) arrays.
    """
    if ops.us.shape[1] != dim_s or len(ops.res_basis) != res.dim:
        raise DimensionError("reservoir blocks: dimension mismatch")
    dt = ops.grid.dt
    out = []
    for p_r, r in zip(res.probs, res.states):
        rows = ops.h_tilde_rows(r)
        inner = _cumtrapz(rows, dt).conj().transpose(0, 2, 1)
        out.append((float(p_r), -_cumtrapz(rows @ inner, dt)))
    return out


def delta_z_from_blocks(
    b_blocks: list[tuple[float, np.ndarray]],
    us: np.ndarray,
    dhs_tilde: np.ndarray,
    psi_s: np.ndarray,
    grid: TimeGrid,
    eps_z: float = 1e-9,
) -> complex:
    """Reservoir-averaged phase correction <DeltaZ> from the blocks of B.

    Per populated reservoir state the correction functional is

        U_S B / <U_S>_S - (B - B^dag)/2
        + i * integral_0^t dt' (B^dag(t') dHs~(t') + dHs~(t') B(t'))

    with B inside the integral evaluated at the running time; everything is
    then taken in the system expectation over psi_S and weighted by p_r.
    """
    psi = np.asarray(psi_s, dtype=complex)
    u_fin = us[-1]
    u_avg = complex(np.vdot(psi, u_fin @ psi))
    if abs(u_avg) < eps_z:
        raise UndefinedGP("<U_S>_S vanishes; perturbative GP undefined")
    acc = 0.0 + 0.0j
    for p_r, blk in b_blocks:
        b_fin = blk[-1]
        term1 = np.vdot(psi, u_fin @ b_fin @ psi) / u_avg
        term2 = -0.5 * np.vdot(psi, (b_fin - b_fin.conj().T) @ psi)
        integrand = np.einsum(
            "i,kij,j->k",
            psi.conj(),
            np.conj(np.transpose(blk, (0, 2, 1))) @ dhs_tilde
            + dhs_tilde @ blk,
            psi,
        )
        term3 = 1j * np.trapezoid(integrand, dx=grid.dt)
        acc += p_r * (term1 + term2 + term3)
    return complex(acc)


def delta_z(
    ops: PerturbationOperators,
    model: WeakCouplingModel,
    grid: TimeGrid,
    eps_z: float = 1e-9,
) -> complex:
    """<DeltaZ> over rho_SR(0); requires the coupling condition to hold."""
    model.require_rcond()
    blocks = reservoir_blocks_of_b(ops, model.res, model.dim_s)
    return delta_z_from_blocks(blocks, ops.us, ops.dhs_tilde, model.psi_s, grid,
                               eps_z=eps_z)


def lindblad_identification(
    b_avg: np.ndarray,
    us: np.ndarray,
    grid: TimeGrid,
    node: int | None = None,
    psd_tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``U_S <dB/dt>_R U_S^dag = -i dH - sum L^dag L`` at a grid node.

    ``b_avg`` holds the reservoir average <B(t)>_R as system-operator samples.
    Returns ``(delta_h, sum_ldag_l)``; a dissipative part that fails to be
    positive semidefinite (beyond ``psd_tol``) raises InconsistentModel.
    """
    if node is None:
        node = b_avg.shape[0] // 2
    b_dot = np.gradient(b_avg, grid.dt, axis=0, edge_order=2)
    m = us[node] @ b_dot[node] @ us[node].conj().T
    sum_ldag_l = -0.5 * (m + m.conj().T)
    delta_h = 0.5j * (m - m.conj().T)
    if np.linalg.eigvalsh(sum_ldag_l).min() < -psd_tol:
        raise InconsistentModel(
            "dissipative part of the identification is not positive"
        )
    return delta_h, sum_ldag_l


def perturbative_moments(dz: complex, beta0: float, n: int = 1) -> complex:
    """Moment prediction ``e^{in beta0} (1 + i n Im<DeltaZ>)``.

    Shared by both distribution measures at second order; warns outside the
    perturbative regime.
    """
    im = float(np.imag(dz))
    if abs(im) > IM_DZ_WARN:
        warnings.warn(
            f"Im<DeltaZ> = {im:.3g} exceeds the perturbative guard "
            f"({IM_DZ_WARN}); the expansion may be unreliable",
            stacklevel=2,
        )
    return complex(np.exp(1j * n * beta0) * (1.0 + 1j * n * im))
