"""Second-order perturbation theory for a weakly coupled reservoir.

In the interaction picture the joint propagator factorizes as
``U_SR = U_S U_R Utilde`` with ``Utilde = 1 + A + B + ...`` where

    A(t) = -i * integral_0^t H_I~(t') dt'
    B(t) = -  integral_0^t dt' integral_0^t' dt'' H_I~(t') H_I~(t'')

and ``H_I~ = U_0^dag H_I U_0`` with ``U_0 = e^{-i H_0 t}``,
``H_0 = H_S x 1 + 1 x H_R``.  Under the coupling condition
``<r|R_mu|r> = 0`` for every populated reservoir eigenstate, the first-order
terms drop out of the phase functional and the correction to Z is governed by
the operator B alone, through the functional ``delta_z_from_b`` below.  The
perturbative first moments of both phase distributions then coincide:

    <e^{is}>_H = <z>_Z / |<z>_Z| = e^{i beta0} (1 + i Im<DeltaZ>).

H_S, H_R and H_I are constant matrices, so H_I~ is explicit in the
eigenbasis of H_0 = W diag(E) W^dag, where W = kron(V_S, V_R) holds the
eigenvectors of H_S and H_R and E_m = lambda_S + lambda_R.  With
g = W^dag H_I W and omega_mn = E_m - E_n,

    H_I~(s)_mn = e^{i omega_mn s} g_mn,
    A~(s) = integral_0^s H_I~ = g o phi(omega, s),
    phi(omega, s) = e^{i omega s / 2} 2 sin(omega s / 2) / omega   (= s at 0)

in closed form, free of cancellation as omega -> 0 for degenerate and
near-degenerate pairs (A(t) = -i A~(t) is never formed: only B enters the
correction).  Cauchy's formula for repeated
integration turns B and its time integral into single integrals of one
integrand,

    B(t) = -integral_0^t H_I~(s) A~(s) ds,
    integral_0^t B = -integral_0^t (t - s) H_I~(s) A~(s) ds,

a trigonometric polynomial times s, which Gauss-Legendre quadrature
integrates to ``QUADRATURE_TOL`` from a few dozen nodes
(``phase.converged_gauss_legendre``).  No time grid and no matrix
exponential enter this layer.  The correction functional is real-linear in
B and the reservoir weights are real, so it is applied once, to the
averages ``tr_R[(1 x rho_R) B]`` and ``tr_R[(1 x rho_R) integral B]``
(``reservoir_averages``), which psi_S does not enter: a sweep over psi_S
at fixed H_S, H_R, H_I and t computes them once and applies
``delta_z_from_b`` per state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ReservoirSpec
from .errors import (
    DimensionError,
    InvalidOperand,
    RCondViolated,
    UndefinedGP,
)
from .hilbert import _as_square, eigh_hermitian, is_hermitian
from .phase import (QUADRATURE_START_NODES, _gauss_legendre,
                    converged_gauss_legendre)

RCOND_TOL = 1e-10
IM_DZ_WARN = 0.1
US_AVG_EPS = 1e-9  # |<U_S>_S| below this leaves the perturbative GP undefined


@dataclass
class WeakCouplingModel:
    """Constant system Hamiltonian, static reservoir, and coupling
    ``H_I = -sum R_mu S_mu``; no initial system state, which the functions
    that need it take as an argument.

    ``hs`` is the Hermitian H_S matrix.  ``couplings`` is a list of
    ``(r_op, s_op)`` pairs acting on the reservoir and system factors; the
    joint coupling is ``-sum kron(s_op, r_op)`` (system slow index).
    """

    hs: np.ndarray
    hr: np.ndarray
    couplings: list[tuple[np.ndarray, np.ndarray]]
    res: ReservoirSpec

    def __post_init__(self):
        self.hs = _as_square(self.hs)
        self.hr = _as_square(self.hr)
        self.couplings = [
            (np.asarray(r, dtype=complex), np.asarray(s, dtype=complex))
            for r, s in self.couplings
        ]
        if not is_hermitian(self.hs):
            raise InvalidOperand("H_S is not Hermitian")
        if self.hr.shape[0] != self.res.dim:
            raise DimensionError("H_R dimension != reservoir dimension")
        if not is_hermitian(self.hr):
            raise InvalidOperand("H_R is not Hermitian")
        for i, (r_op, s_op) in enumerate(self.couplings):
            for name, op, dim in (("R", r_op, self.dim_r),
                                  ("S", s_op, self.dim_s)):
                if op.shape != (dim, dim):
                    raise DimensionError(
                        f"coupling {i}: {name} has shape {op.shape}, "
                        f"expected {(dim, dim)}")
        h_int = self.h_interaction()
        if not np.all(np.isfinite(h_int)):
            raise InvalidOperand("H_I has non-finite entries")
        if not is_hermitian(h_int):
            raise InvalidOperand("H_I is not Hermitian")

    @property
    def dim_s(self) -> int:
        return len(self.hs)

    @property
    def dim_r(self) -> int:
        return self.hr.shape[0]

    def h0(self) -> np.ndarray:
        """H_S x 1 + 1 x H_R, built per call: a model keeps no d x d array."""
        return (np.kron(self.hs, np.eye(self.dim_r))
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
    b: np.ndarray      # (d, d) B(t)
    b_int: np.ndarray  # (d, d) integral_0^t B(t') dt'


def _rotations(energies: np.ndarray, s: np.ndarray):
    """e^{i omega s / 2} and the real 2 sin(omega s / 2) / omega, which is s
    where omega is 0 or too small to invert, as (k, d, d) arrays for k
    times s."""
    half = np.exp(0.5j * np.outer(s, energies))
    omega = energies[:, None] - energies[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        inv = 2.0 / omega
    flat = ~np.isfinite(inv)
    inv[flat] = 0.0
    phi = np.multiply.outer(s, 0.5 * omega)
    np.sin(phi, out=phi)
    phi *= inv
    phi[:, flat] = s[:, None]
    return half[:, :, None] @ half.conj()[:, None, :], phi


def _b_and_integral(g: np.ndarray, energies: np.ndarray, t: float,
                    n: int) -> np.ndarray:
    """n-node Gauss-Legendre values of B(t) and integral_0^t B in the H_0
    eigenbasis, stacked; the nodes go in blocks of
    ``QUADRATURE_START_NODES`` so the (k, d, d) temporaries stay small."""
    x, w = _gauss_legendre(n)
    s = 0.5 * t * (x + 1.0)
    # B = -integral of the integrand; integral B weights it by (t - s)
    weights = -0.5 * t * np.stack([w, w * (t - s)])
    out = np.zeros((2, g.size), dtype=complex)
    for k in range(0, n, QUADRATURE_START_NODES):
        blk = slice(k, k + QUADRATURE_START_NODES)
        rot, phi = _rotations(energies, s[blk])
        a_tilde = g * rot
        rot *= a_tilde     # H_I~(s) = g o rot^2
        a_tilde *= phi     # A~(s) = g o rot o phi
        out += weights[:, blk] @ (rot @ a_tilde).reshape(len(phi), -1)
    return out.reshape((2,) + g.shape)


def build_AB(model: WeakCouplingModel, t: float) -> PerturbationOperators:
    """U_S, B and the time integral of B at ``t``, by Gauss-Legendre
    quadrature in the H_0 eigenbasis.

    Raises QuadratureNotConverged when the quadrature does not settle by
    ``QUADRATURE_MAX_NODES`` nodes.
    """
    lam_s, v_s = eigh_hermitian(model.hs)
    lam_r, v_r = eigh_hermitian(model.hr)
    w = np.kron(v_s, v_r)
    energies = (lam_s[:, None] + lam_r[None, :]).ravel()
    g = w.conj().T @ model.h_interaction() @ w
    values, _ = converged_gauss_legendre(  # a family of one member
        lambda n: _b_and_integral(g, energies, t, n)[None],
        "B and its time integral")
    b, b_int = values[0]
    return PerturbationOperators(
        u_fin=(v_s * np.exp(-1j * t * lam_s)) @ v_s.conj().T,
        b=w @ b @ w.conj().T, b_int=w @ b_int @ w.conj().T)


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


def reservoir_averages(ops: PerturbationOperators, model: WeakCouplingModel
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reservoir averages tr_R[(1 x rho_R) B] of B and of its integral,
    and U_S: the arguments of ``delta_z_from_b`` that do not depend on
    psi_S.  Requires the coupling condition to hold."""
    model.require_rcond()
    res, ds, dr = model.res, model.dim_s, model.dim_r
    rho_r = (res.states.T * res.probs) @ res.states.conj()
    b_fin, b_int = (np.einsum("aibj,ji->ab", op.reshape(ds, dr, ds, dr), rho_r)
                    for op in (ops.b, ops.b_int))
    return b_fin, b_int, ops.u_fin


def perturbative_moments(dz: complex, beta0: float) -> complex:
    """First-moment prediction ``e^{i beta0} (1 + i Im<DeltaZ>)``.

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
    return complex(np.exp(1j * beta0) * (1.0 + 1j * im))
