"""Second-order perturbation theory for a weakly coupled reservoir.

In the interaction picture the joint propagator factorizes as
``U_SR = U_S U_R Utilde`` with ``Utilde = 1 + A + B + ...`` where

    A(t) = -i * integral_0^t H_I~(t') dt'
    B(t) = -  integral_0^t dt' integral_0^t' dt'' H_I~(t') H_I~(t'')

and ``H_I~ = U_0^dag H_I U_0`` with ``U_0 = e^{-i H_0 t}``,
``H_0 = H_S x 1 + 1 x H_R``.  Under the coupling condition
``<r|R_mu|r> = 0`` for every populated reservoir eigenstate, the first-order
terms drop out of the phase functional and the correction to Z is governed by
the operator B alone, through the functional ``delta_z`` below.  The
perturbative moments of both phase distributions then coincide:

    <e^{ins}>_H = <z^n>_Z / |<z>_Z|^n = e^{in beta0} (1 + i n Im<DeltaZ>).

H_S is constant, so H_0 is diagonal in ``kron(V_S, V_R)``, the product of
the eigenbases of H_S and H_R, and there ``H_I~_mn(t) = e^{i(E_m - E_n) t}
g_mn`` with ``g`` the coupling in that basis: one broadcast over the grid.
The correction functional is real-linear in B and the reservoir weights are
real, so it is applied once, to the average ``<B>_R = sum_r p_r <r|B|r>``.
Each block ``<r|B|r>`` comes from the rows ``<r|H_I~|.>`` in O(n * d * d_S)
memory.
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
from .hilbert import Schedule, TimeGrid, eigenphases, is_hermitian

RCOND_TOL = 1e-10
IM_DZ_WARN = 0.1
US_AVG_EPS = 1e-9  # |<U_S>_S| below this leaves the perturbative GP undefined
PSD_TOL = 1e-9     # most negative eigenvalue allowed in sum L^dag L


@dataclass
class WeakCouplingModel:
    """Constant system Hamiltonian, static reservoir, and coupling
    ``H_I = -sum R_mu S_mu``.

    ``hs`` must be a ``Schedule.constant``.  ``couplings`` is a list of
    ``(r_op, s_op)`` pairs acting on the reservoir and system factors; the
    joint coupling is ``-sum kron(s_op, r_op)`` (system slow index).
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
        if self.hs.matrix is None or not is_hermitian(self.hs.matrix):
            raise InvalidOperand("H_S must be a constant Hermitian schedule")
        if self.hr.shape[0] != self.res.dim:
            raise DimensionError("H_R dimension != reservoir dimension")
        if not is_hermitian(self.hr):
            raise InvalidOperand("H_R is not Hermitian")
        h_int = self.h_interaction()
        if not np.all(np.isfinite(h_int)):
            raise InvalidOperand("H_I has non-finite entries")
        if not is_hermitian(h_int):
            raise InvalidOperand("H_I is not Hermitian")

    @property
    def dim_s(self) -> int:
        return self.hs.dim

    @property
    def dim_r(self) -> int:
        return self.hr.shape[0]

    def h_interaction(self) -> np.ndarray:
        out = np.zeros((self.dim_s * self.dim_r,) * 2, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # checked finite
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

    def require_rcond(self):
        defect = self.rcond_defect()
        if defect > RCOND_TOL:
            raise RCondViolated(
                f"<r|R|r> reaches {defect:.3e}; the perturbative GP formula "
                "is spurious for this coupling"
            )


@dataclass
class PerturbationOperators:
    """The interaction picture on the grid in the H_0 eigenbasis, factored
    so that ``delta_z`` needs only the rows ``<r|H_I~|.>``.  The joint A
    and B are formed on first read, as (n+1, d, d) arrays in the original
    basis.
    """

    grid: TimeGrid
    u_fin: np.ndarray   # (ds, ds) system propagator at the last node
    basis: np.ndarray   # (d, d) eigenvectors kron(V_S, V_R) of H_0, as columns
    phases: np.ndarray  # (n+1, d) e^{-i E_m t_k}
    g: np.ndarray       # (d, d) H_I in the H_0 eigenbasis

    def h_tilde_rows(self, r) -> np.ndarray:
        """``<r|H_I~(t_k)|.>`` as (n+1, ds, d) samples, the system index in
        the original basis.  The joint column index runs over the H_0
        eigenbasis: it only ever contracts against the adjoint rows."""
        w = np.conj(r) @ self.basis.reshape(len(self.u_fin), -1, len(self.g))
        return ((w * self.phases.conj()[:, None, :]) @ self.g
                * self.phases[:, None, :])

    def h_tilde(self) -> np.ndarray:
        """(n+1, d, d) interaction-picture H_I in the original basis."""
        m = self.phases.conj()[:, :, None] * self.g * self.phases[:, None, :]
        return self.basis @ m @ self.basis.conj().T

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
    v_s, phases_s = eigenphases(model.hs.matrix, grid)
    v_r, phases_r = eigenphases(model.hr, grid)
    basis = np.kron(v_s, v_r)
    return PerturbationOperators(
        grid=grid, u_fin=(v_s * phases_s[-1]) @ v_s.conj().T, basis=basis,
        phases=(phases_s[:, :, None] * phases_r[:, None, :]).reshape(
            len(phases_s), -1),
        g=basis.conj().T @ model.h_interaction() @ basis)


def reservoir_average_b(ops: PerturbationOperators,
                        res: ReservoirSpec) -> np.ndarray:
    """Reservoir average ``<B(t)>_R = sum_r p_r <r|B(t)|r>`` as (n+1, ds, ds)
    system-operator samples.

    ``<r|H~(t') H~(t'')|r>`` sums ``<r|H~(t')|.>`` against ``<.|H~(t'')|r>``,
    the adjoint of the same rows, so each block is the nested trapezoid of
    B on (n+1, ds, d) rows, never on the joint (n+1, d, d) arrays.
    """
    dim_s = len(ops.u_fin)
    if len(ops.basis) != dim_s * res.dim:
        raise DimensionError("reservoir average: dimension mismatch")
    dt = ops.grid.dt
    out = np.zeros((len(ops.phases), dim_s, dim_s), dtype=complex)
    for p_r, r in zip(res.probs, res.states):
        rows = ops.h_tilde_rows(r)
        inner = _cumtrapz(rows, dt).conj().transpose(0, 2, 1)
        out -= p_r * _cumtrapz(rows @ inner, dt)
    return out


def delta_z_from_b(b_avg: np.ndarray, u_fin: np.ndarray, hs: np.ndarray,
                   psi_s: np.ndarray, dt: float) -> complex:
    """Reservoir-averaged phase correction <DeltaZ> from ``<B>_R``.

    With ``dHs = H_S - <psi_S|H_S|psi_S>`` (U_S commutes with a constant
    H_S) the correction functional is

        U_S B / <U_S>_S - (B - B^dag)/2
        + i * integral_0^t dt' (B^dag(t') dHs + dHs B(t'))

    with B inside the integral evaluated at the running time, everything
    taken in the system expectation over psi_S.  It is real-linear in B, so
    its value on ``<B>_R`` is the reservoir average of the corrections.
    """
    psi = np.asarray(psi_s, dtype=complex)
    u_avg = complex(np.vdot(psi, u_fin @ psi))
    if abs(u_avg) < US_AVG_EPS:
        raise UndefinedGP("<U_S>_S vanishes; perturbative GP undefined")
    b_fin = b_avg[-1]
    dhs_psi = hs @ psi - np.vdot(psi, hs @ psi) * psi
    # <psi|B^dag dHs + dHs B|psi> = 2 Re <dHs psi|B psi> for Hermitian H_S
    integrand = 2.0 * np.real((b_avg @ psi) @ dhs_psi.conj())
    return complex(np.vdot(psi, u_fin @ b_fin @ psi) / u_avg
                   - 0.5 * np.vdot(psi, (b_fin - b_fin.conj().T) @ psi)
                   + 1j * np.trapezoid(integrand, dx=dt))


def delta_z(ops: PerturbationOperators, model: WeakCouplingModel) -> complex:
    """<DeltaZ> over rho_SR(0); requires the coupling condition to hold."""
    model.require_rcond()
    return delta_z_from_b(reservoir_average_b(ops, model.res), ops.u_fin,
                          model.hs.matrix, model.psi_s, ops.grid.dt)


def lindblad_identification(
    b_avg: np.ndarray, us: np.ndarray, grid: TimeGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``U_S <dB/dt>_R U_S^dag = -i dH - sum L^dag L`` mid-grid.

    ``b_avg`` holds the reservoir average <B(t)>_R as system-operator samples.
    Returns ``(delta_h, sum_ldag_l)``; a dissipative part that fails to be
    positive semidefinite (beyond ``PSD_TOL``) raises InconsistentModel.
    """
    node = b_avg.shape[0] // 2
    b_dot = np.gradient(b_avg, grid.dt, axis=0, edge_order=2)
    m = us[node] @ b_dot[node] @ us[node].conj().T
    sum_ldag_l = -0.5 * (m + m.conj().T)
    delta_h = 0.5j * (m - m.conj().T)
    if np.linalg.eigvalsh(sum_ldag_l).min() < -PSD_TOL:
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
