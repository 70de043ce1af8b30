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

H_0 and H_I are constant, so A(t), B(t) and integral_0^t B are iterated
integrals of exponentials, and Van Loan's block-triangular exponential
(C. F. Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)) gives them all
from one ``expm``.  With ``X = -i H_0`` and ``Y = -i H_I``,

    expm(t [[X, 1, 0, 0],     [[U_0, .,   .,       U_0 int_0^t B],
            [0, X, Y, 0],  =   [0,   U_0, U_0 A,   U_0 B        ],
            [0, 0, X, Y],      [0,   0,   U_0,     .            ],
            [0, 0, 0, X]])     [0,   0,   0,       U_0          ]]

so no time grid enters this layer.  The correction functional is
real-linear in B and the reservoir weights are real, so it is applied once,
to the averages ``<B>_R`` and ``<int B>_R`` over ``sum_r p_r <r|.|r>``.
"""

from __future__ import annotations

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
from .hilbert import Schedule, is_hermitian, matexp, partial_inner

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

    def h0(self) -> np.ndarray:
        """H_S x 1 + 1 x H_R, built per call: a model keeps no d x d array."""
        return (np.kron(self.hs.matrix, np.eye(self.dim_r))
                + np.kron(np.eye(self.dim_s), self.hr))

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
    """The second-order operators at one time t, on the joint space."""

    u_fin: np.ndarray  # (ds, ds) system propagator U_S(t)
    a: np.ndarray      # (d, d) A(t), anti-Hermitian
    b: np.ndarray      # (d, d) B(t)
    b_int: np.ndarray  # (d, d) integral_0^t B(t') dt'


def build_AB(model: WeakCouplingModel, t: float) -> PerturbationOperators:
    """A, B and their time integral at ``t``, from one block exponential."""
    d = model.dim_s * model.dim_r
    x = -1j * model.h0()
    m = np.zeros((4, d, 4, d), dtype=complex)
    for k in range(4):
        m[k, :, k] = x
    m[0, :, 1] = np.eye(d)
    m[1, :, 2] = m[2, :, 3] = -1j * model.h_interaction()
    e = matexp(t * m.reshape(4 * d, 4 * d)).reshape(4, d, 4, d)
    u0_dag = e[0, :, 0].conj().T
    return PerturbationOperators(
        u_fin=matexp(-1j * t * model.hs.matrix), a=u0_dag @ e[1, :, 2],
        b=u0_dag @ e[1, :, 3], b_int=u0_dag @ e[0, :, 3])


def delta_z_from_b(b_fin: np.ndarray, b_int: np.ndarray, u_fin: np.ndarray,
                   hs: np.ndarray, psi_s: np.ndarray) -> complex:
    """Reservoir-averaged phase correction <DeltaZ> from ``<B(t)>_R`` and
    ``<integral_0^t B>_R``.

    With ``dHs = H_S - <psi_S|H_S|psi_S>`` (U_S commutes with a constant
    H_S) the correction functional is

        U_S B / <U_S>_S - (B - B^dag)/2
        + i * integral_0^t dt' (B^dag(t') dHs + dHs B(t'))

    with B inside the integral evaluated at the running time, everything
    taken in the system expectation over psi_S.  It is real-linear in B, so
    the integral is the same expression on ``b_int`` and its value on
    ``<B>_R`` is the reservoir average of the corrections.
    """
    psi = np.asarray(psi_s, dtype=complex)
    u_avg = complex(np.vdot(psi, u_fin @ psi))
    if abs(u_avg) < US_AVG_EPS:
        raise UndefinedGP("<U_S>_S vanishes; perturbative GP undefined")
    dhs_psi = hs @ psi - np.vdot(psi, hs @ psi) * psi
    # <psi|B^dag dHs + dHs B|psi> = 2 Re <dHs psi|B psi> for Hermitian H_S
    return complex(np.vdot(psi, u_fin @ b_fin @ psi) / u_avg
                   - 0.5 * np.vdot(psi, (b_fin - b_fin.conj().T) @ psi)
                   + 2j * np.real(np.vdot(dhs_psi, b_int @ psi)))


def delta_z(ops: PerturbationOperators, model: WeakCouplingModel) -> complex:
    """<DeltaZ> over rho_SR(0); requires the coupling condition to hold."""
    model.require_rcond()
    b_fin, b_int = (
        sum(p * partial_inner(r, op, r, model.dim_s, model.dim_r)
            for p, r in zip(model.res.probs, model.res.states))
        for op in (ops.b, ops.b_int))
    return delta_z_from_b(b_fin, b_int, ops.u_fin, model.hs.matrix,
                          model.psi_s)


def lindblad_identification(
    b_dot: np.ndarray, u_s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``U_S d<B>_R/dt U_S^dag = -i dH - sum L^dag L`` at one time.

    Returns ``(delta_h, sum_ldag_l)``; a dissipative part that fails to be
    positive semidefinite (beyond ``PSD_TOL``) raises InconsistentModel.
    """
    m = u_s @ b_dot @ u_s.conj().T
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
