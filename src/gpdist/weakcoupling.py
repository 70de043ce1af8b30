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

H_S, H_R and H_I are constant matrices, and H_R = sum_r E_r |r><r| is given
by the reservoir's states and energies, so H_I~ is explicit in the
eigenbasis of H_0 = W diag(E) W^dag, where W = kron(V_S, R) holds the
eigenvectors of H_S and the reservoir states |r> (the columns of R) and
E_m = lambda_S + E_r.  With g = W^dag H_I W and omega_mn = E_m - E_n,

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
averages ``tr_R[(1 x rho_R) B]`` and ``tr_R[(1 x rho_R) integral B]``.
``build_AB`` forms only the reservoir-diagonal entries of H_I~ A~, weighted
by the p_r of rho_R, so the quadrature converges on these d_S x d_S
averages.  psi_S does not enter them: a sweep over psi_S at fixed H_S,
H_R, H_I and t computes them once and applies ``delta_z_from_b`` per state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ReservoirSpec
from .errors import (
    DimensionError,
    InvalidOperand,
    InvalidState,
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
    ``res`` states the reservoir once: its states must be an orthonormal
    basis, and H_R (``hr``) is sum_r E_r |r><r| of them and their energies,
    so rho_R is stationary by construction.
    """

    hs: np.ndarray
    couplings: list[tuple[np.ndarray, np.ndarray]]
    res: ReservoirSpec

    def __post_init__(self):
        self.hs = _as_square(self.hs)
        self.couplings = [
            (np.asarray(r, dtype=complex), np.asarray(s, dtype=complex))
            for r, s in self.couplings
        ]
        if not is_hermitian(self.hs):
            raise InvalidOperand("H_S is not Hermitian")
        if not self.res.orthonormal or len(self.res.states) != self.res.dim:
            raise InvalidState("reservoir states are not an orthonormal "
                               "basis, so they cannot define H_R")
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
        return self.res.dim

    @property
    def hr(self) -> np.ndarray:
        """H_R = sum_r E_r |r><r| of the reservoir's states and energies."""
        return (self.res.states.T * self.res.energies) @ self.res.states.conj()

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
        r = self.res.states[self.res.probs > 0]
        return max((np.abs(np.einsum("ri,ij,rj->r", r.conj(), r_op, r)).max()
                    for r_op, _ in self.couplings), default=0.0)

    def require_rcond(self):
        defect = self.rcond_defect()
        if defect > RCOND_TOL:
            raise RCondViolated(
                f"<r|R|r> reaches {defect:.3e}; the perturbative GP formula "
                "is spurious for this coupling"
            )


def _b_and_integral(g: np.ndarray, energies: np.ndarray,
                    probs: np.ndarray, t: float, n: int) -> np.ndarray:
    """n-node Gauss-Legendre values of the reservoir averages of B(t) and
    of integral_0^t B, stacked, in the eigenbasis of H_S; ``probs`` are the
    weights p_r of the reservoir states, the basis of g's reservoir factor.
    With h_m = e^{i E_m s / 2} and phi the real 2 sin(omega s / 2) / omega
    (s where omega is 0 or too small to invert), (H_I~ A~)_mn = h_m^2
    conj(h_n) sum_c g_mc conj(h_c) g_cn phi_cn.  Blocks of k nodes build
    g_cn phi_cn conj(h_c) in place in one reused (k, d, d) array and sum
    only the reservoir-diagonal entries m = (a, r), n = (b, r) of g @ it."""
    x, w = _gauss_legendre(n)
    s = 0.5 * t * (x + 1.0)
    # B = -integral of the integrand; integral B weights it by (t - s)
    weights = -0.5 * t * np.stack([w, w * (t - s)])
    ds, dr = len(g) // len(probs), len(probs)
    omega = energies[:, None] - energies[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        inv = 2.0 / omega
    flat = ~np.isfinite(inv)
    inv[flat] = 0.0
    out = np.zeros((2, ds, ds), dtype=complex)
    work = np.empty((QUADRATURE_START_NODES,) + g.shape, dtype=complex)
    for k in range(0, n, QUADRATURE_START_NODES):
        blk = slice(k, k + QUADRATURE_START_NODES)
        h = np.exp(0.5j * np.outer(s[blk], energies))
        m = work[:len(h)]
        phi = m.real
        np.sin(np.multiply.outer(s[blk], 0.5 * omega, out=phi), out=phi)
        phi *= inv
        phi[:, flat] = s[blk, None]
        m.imag = 0.0
        m *= g
        m *= h.conj()[:, :, None]
        y = np.einsum("ajc,kcbj->kabj", g.reshape(ds, dr, -1),
                      m.reshape(len(h), -1, ds, dr))
        y *= (h * h).reshape(-1, ds, 1, dr) * h.conj().reshape(-1, 1, ds, dr)
        out += np.einsum("ik,kabj,j->iab", weights[:, blk], y, probs)
    return out


def build_AB(model: WeakCouplingModel, t: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reservoir averages tr_R[(1 x rho_R) B] of B(t) and of
    integral_0^t B, and U_S(t): the arguments of ``delta_z_from_b`` that
    psi_S does not enter, by Gauss-Legendre quadrature in the H_0
    eigenbasis.

    Raises RCondViolated, before any quadrature, when the coupling
    condition fails, and QuadratureNotConverged when the averages do not
    settle by ``QUADRATURE_MAX_NODES`` nodes.
    """
    model.require_rcond()
    res = model.res
    lam_s, v_s = eigh_hermitian(model.hs)
    w = np.kron(v_s, res.states.T)
    energies = (lam_s[:, None] + res.energies[None, :]).ravel()
    g = w.conj().T @ model.h_interaction() @ w
    values, _ = converged_gauss_legendre(  # a family of one member
        lambda n: _b_and_integral(g, energies, res.probs, t, n)[None],
        "B and its time integral")
    b, b_int = v_s @ values[0] @ v_s.conj().T
    return b, b_int, (v_s * np.exp(-1j * t * lam_s)) @ v_s.conj().T


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
