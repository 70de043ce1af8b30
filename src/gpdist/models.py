"""Closed-form two-level-atom models: thermal spontaneous emission and phase
damping.

Basis ordering is (|g>, |e>) with sigma_z = |e><e| - |g><g| = diag(-1, +1)
and H_S = -(omega/2) sigma_z, so the printed Kraus matrices and the
e^{+/- i omega t / 2} phases come out verbatim.  All closed forms are quoted
at one period t = 2*pi/omega unless a time is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, LindbladModel, ReservoirSpec
from .distribution import (MomentReport, PhaseDistribution,
                           build_distribution, moments)
from .hilbert import SIGMA_Z
from .phase import ClosedFormPath
from .weakcoupling import WeakCouplingModel


def h_system(omega: float) -> np.ndarray:
    return -0.5 * omega * SIGMA_Z


def psi_initial(theta: float) -> np.ndarray:
    """cos(theta/2)|e> + sin(theta/2)|g> in the (g, e) ordering."""
    return np.array([np.sin(theta / 2.0), np.cos(theta / 2.0)], dtype=complex)


def closed_system_gp(theta: float) -> float:
    """Closed-system GP after one precession period, unwrapped: 2 pi sin^2(theta/2)."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    return 2.0 * np.pi * np.sin(theta / 2.0) ** 2


@dataclass(frozen=True)
class TwoLevelAtomParams:
    """Thermal two-level atom: splitting, emission rate, occupation, tilt."""

    omega: float
    gamma0: float
    n_thermal: float = 0.0
    theta: float = np.pi / 2.0

    def __post_init__(self):
        if not (np.all(np.isfinite([self.omega, self.gamma0, self.n_thermal]))
                and self.omega > 0 and self.gamma0 >= 0 and self.n_thermal >= 0):
            raise ValueError("need finite omega > 0, gamma0 >= 0, n >= 0")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def gamma_n(self) -> float:
        return (2.0 * self.n_thermal + 1.0) * self.gamma0

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class PhaseDampingParams:
    omega: float
    alpha: float
    theta: float = np.pi / 2.0

    def __post_init__(self):
        if not (np.all(np.isfinite([self.omega, self.alpha]))
                and self.omega > 0 and self.alpha >= 0):
            raise ValueError("need finite omega > 0, alpha >= 0")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def r_factor(self, t):
        """(1 + sqrt(1 - e^{-2 alpha t}))^{1/2}, in [1, sqrt(2)]; t may be an
        array."""
        return np.sqrt(1.0 + np.sqrt(1.0 - np.exp(-2.0 * self.alpha * t)))


# ---------------------------------------------------------------------------
# Spontaneous emission
# ---------------------------------------------------------------------------

def se_weights(p: TwoLevelAtomParams) -> np.ndarray:
    n = p.n_thermal
    return np.array([(n + 1), (n + 1), n, n]) / (2.0 * n + 1.0)


def _diagonals(*pairs) -> np.ndarray:
    """Stack (g, e) diagonal entries, scalars or arrays over t, into shape
    (len(pairs), *shape(t), 2)."""
    return np.stack([np.stack(pair, axis=-1) for pair in pairs])


def _se_no_jump_diagonals(p: TwoLevelAtomParams, t) -> np.ndarray:
    """Diagonals of the no-jump operators K0 and K2 at time(s) ``t``."""
    w, gn = p.omega, p.gamma_n
    return _diagonals((np.exp(-0.5j * w * t), np.exp(0.5j * w * t - gn * t)),
                      (np.exp(-0.5j * w * t - gn * t), np.exp(0.5j * w * t)))


def se_kraus_channel(p: TwoLevelAtomParams) -> KrausChannel:
    """The four thermal spontaneous-emission Kraus operators.

    K0/K2 are the no-jump branches (decay on |e> resp. |g>), K1/K3 the
    photon-emission and -absorption jumps; completeness holds analytically.
    """
    def operators(t):
        ks = np.zeros((4, 2, 2), dtype=complex)
        ks[::2] = _se_no_jump_diagonals(p, t)[..., None] * np.eye(2)
        amp = np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * p.gamma_n * t)))
        ks[1, 0, 1] = ks[3, 1, 0] = amp  # |g><e| and |e><g|
        return ks

    return KrausChannel(weights=se_weights(p), operators=operators)


def se_lindblad_model(p: TwoLevelAtomParams) -> LindbladModel:
    """Jump operators sqrt(gamma0(n+1))|g><e| and sqrt(gamma0 n)|e><g|."""
    l1 = np.sqrt(p.gamma0 * (p.n_thermal + 1.0)) * np.array(
        [[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    l2 = np.sqrt(p.gamma0 * p.n_thermal) * np.array(
        [[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return LindbladModel(hs=h_system(p.omega), jump_ops=[l1, l2])


def _no_jump_factors(theta: float, x: float):
    """Overflow-free pieces of the (minus, plus) no-jump atoms.

    With (a, b) = (s2, c2) for minus and (c2, s2) for plus, s2 =
    sin^2(theta/2) and c2 = cos^2(theta/2), returns e^{-x} <e^{-/+ x sz}>_S
    = a + b e^{-2x}, and v and the flag m with log <e^{-/+ 2x sz}>_S =
    2x + v - 4x m: v = log(a e^{4x} + b) (m set) where a <= b, else
    v = log1p(-b (1 - e^{-4x})), using a + b = 1.  Where a <= b, v is
    log1p(a (e^{4x} - 1)) while that is finite, which keeps full relative
    precision at weak emission, and the logaddexp form past that.  Each v is
    finite for every x >= 0, and at theta = 0 and pi it is the small term,
    so the near-zero phase there keeps its exact sign.
    """
    a = np.array([np.sin(theta / 2.0), np.cos(theta / 2.0)]) ** 2
    b = a[::-1]
    # log 0 = -inf is exact; expm1(4x) overflows, and 0 * inf gives NaN,
    # only where the logaddexp form takes over
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        grow = np.log1p(a * np.expm1(4.0 * x))
        grow = np.where(np.isfinite(grow), grow,
                        np.logaddexp(np.log(a) + 4.0 * x, np.log(b)))
        v = np.where(a <= b, grow, np.log1p(b * np.expm1(-4.0 * x)))
    return a + b * np.exp(-2.0 * x), v, a <= b


def se_exact_z_values(p: TwoLevelAtomParams) -> tuple[complex, complex]:
    """Closed-form atom values (f_minus, f_plus) at t = 2 pi / omega.

    f_minus comes from the no-jump branch K0 (weight p0), f_plus from K2
    (weight p2):

        f_-/+ = -e^{-pi gn/w} <e^{-/+ pi gn sz / w}>_S
                 <e^{-/+ 2 pi gn sz / w}>_S ^ {+/- i w / (2 gn)}

    The power has a real positive base, so the principal real logarithm
    applies and no branch ambiguity arises.  In the form of
    ``_no_jump_factors`` the 2x term of each logarithm gives e^{+/- i pi} =
    -1, which cancels the leading minus, and its 4x m term a whole turn.
    """
    if p.gamma0 == 0.0:
        z = -np.exp(-1j * np.pi * np.cos(p.theta))
        return z, z
    amp, v, _ = _no_jump_factors(p.theta, np.pi * p.gamma_n / p.omega)
    f_minus, f_plus = amp * np.exp(
        np.array([1j, -1j]) * (p.omega / (2.0 * p.gamma_n)) * v)
    return complex(f_minus), complex(f_plus)


def se_distribution(p: TwoLevelAtomParams) -> PhaseDistribution:
    """P_Z at one period; the jump branches K1, K3 start at the zero
    vector and are excluded, and the kept weights p0 + p2 already sum to 1."""
    f_minus, f_plus = se_exact_z_values(p)
    p0, _, p2, _ = se_weights(p)
    if p2 == 0.0:
        weights, values = np.array([1.0]), np.array([f_minus])
    else:
        weights = np.array([p0, p2])
        values = np.array([f_minus, f_plus])
    return PhaseDistribution(weights=weights, values=values)


def se_mean_gp_zero_temperature(p: TwoLevelAtomParams) -> float:
    """pi + (w / 2 gamma0) ln <e^{-2 pi gamma0 sigma_z / w}>_S, unwrapped;
    with ``_no_jump_factors`` that is 2 pi (1 - m) + (w / 2 gamma0) v."""
    if p.gamma0 == 0.0:
        return closed_system_gp(p.theta)
    _, v, m = _no_jump_factors(p.theta, np.pi * p.gamma0 / p.omega)
    return float(2.0 * np.pi * (1 - m[0])
                 + (p.omega / (2.0 * p.gamma0)) * v[0])


def se_perturbative_gp(p: TwoLevelAtomParams) -> float:
    """First-order weak-coupling GP: beta0 + pi^2 (gamma0/omega) sin^2 theta."""
    return closed_system_gp(p.theta) + (np.pi**2 * p.gamma0 / p.omega
                                        * np.sin(p.theta) ** 2)


def se_weak_coupling_model(
    p: TwoLevelAtomParams, dim_bath: int = 4, g: float = 0.1,
) -> WeakCouplingModel:
    """Microscopic energy-transferring coupling used for the rcond check.

    One resonant bath oscillator (frequency omega) truncated to ``dim_bath``
    levels, vacuum state, coupling R = a + a^dag (off-diagonal, so
    <r|R|r> = 0 for every Fock state) against S = |g><e| + |e><g|.
    """
    a_op = np.diag(np.sqrt(np.arange(1, dim_bath)), k=1).astype(complex)
    r_op = a_op + a_op.conj().T
    s_op = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    probs = np.zeros(dim_bath)
    probs[0] = 1.0
    res = ReservoirSpec(probs=probs, states=np.eye(dim_bath, dtype=complex),
                        energies=p.omega * np.arange(dim_bath))
    return WeakCouplingModel(
        hs=h_system(p.omega), hr=np.diag(p.omega * np.arange(dim_bath)),
        couplings=[(g * r_op, s_op)], res=res)


# ---------------------------------------------------------------------------
# Phase damping
# ---------------------------------------------------------------------------

def _pd_diagonals(p: PhaseDampingParams, t) -> np.ndarray:
    """Diagonals of the phase-damping operators K0 and K1 at time(s) ``t``."""
    w, al = p.omega, p.alpha
    r = p.r_factor(t)
    return _diagonals(
        (np.exp(-0.5j * w * t - al * t) / r, r * np.exp(0.5j * w * t)),
        (r * np.exp(-0.5j * w * t), np.exp(0.5j * w * t - al * t) / r))


def pd_kraus_channel(p: PhaseDampingParams) -> KrausChannel:
    """Two-element phase-damping channel with weights 1/2, 1/2.

    Both operators reduce to phase-free unitaries at t = 0, so both branches
    contribute GP atoms.
    """
    return KrausChannel(
        weights=np.array([0.5, 0.5]),
        operators=lambda t: _pd_diagonals(p, t)[..., None] * np.eye(2))


def pd_lindblad_model(p: PhaseDampingParams) -> LindbladModel:
    """Master-equation twin of the phase-damping channel.

    In the no-1/2 Lindblad convention a jump operator c*sigma_z decoheres at
    rate 4c^2, while the channel above decoheres at exp(-alpha t); the
    consistent jump operator is therefore (sqrt(alpha)/2) sigma_z.
    """
    l1 = 0.5 * np.sqrt(p.alpha) * SIGMA_Z
    return LindbladModel(hs=h_system(p.omega), jump_ops=[l1])


def pd_trajectories(
    p: PhaseDampingParams,
) -> tuple[np.ndarray, ClosedFormPath]:
    """The two equally weighted conditional paths K_i(t)|psi_S> over one
    period, as one family with its weights.  Im<psi|psi'> sees only the
    component phases -+ omega t / 2, so the derivative leaves out that of
    the real amplitudes, whose r(t) goes like sqrt(t) at t = 0."""
    psi0 = psi_initial(p.theta)
    rates = np.array([-0.5j, 0.5j]) * p.omega
    weights = pd_kraus_channel(p).weights

    def states(t):
        psi = _pd_diagonals(p, t) * psi0
        return psi, rates * psi

    return weights, ClosedFormPath(states=states, t_end=p.period,
                                   sqrt_singular_start=True)


def pd_distribution(p: PhaseDampingParams) -> PhaseDistribution:
    """P_Z at one period: one atom per Kraus branch, from one family."""
    return build_distribution(*pd_trajectories(p))


def pd_first_order_references(p: PhaseDampingParams) -> tuple[complex, complex, float]:
    """First-order forms of (<z>_Z / |<z>_Z|, <e^{is}>_H, W) at one period."""
    b0 = closed_system_gp(p.theta)
    x = p.alpha / p.omega
    s2 = np.sin(p.theta) ** 2
    c = np.cos(p.theta)
    ref_z = np.exp(1j * b0) * (1.0 + (2j * np.pi**2 * x / 3.0) * c * s2)
    ref_h = np.exp(1j * b0) * (
        1.0 + 2.0 * np.pi**2 * x * s2 * (1j * c - (4.0 / 9.0) * s2))
    ref_w = 16.0 * np.pi**2 * s2**2 * x / 9.0
    return complex(ref_z), complex(ref_h), float(ref_w)


def pd_moments(p: PhaseDampingParams) -> MomentReport:
    """Exact two-atom first moments at one period; the first-order forms
    they are checked against are ``pd_first_order_references``."""
    return moments(pd_distribution(p))


def pd_weak_coupling_model(p: PhaseDampingParams) -> WeakCouplingModel:
    """Thermal oscillator-bath dephasing coupling R = g a^dag a, S = sigma_z.

    In thermal equilibrium <r|R|r> = g n_r != 0 for excited Fock states, so
    the coupling condition fails and the perturbative GP formula must refuse
    to run (RCondViolated).
    """
    dim_bath, g, n_thermal, bath_omega = 4, 0.1, 0.5, 3.0
    ns = np.arange(dim_bath)
    boltz = np.exp(-ns * np.log(1.0 + 1.0 / n_thermal))
    probs = boltz / boltz.sum()
    res = ReservoirSpec(probs=probs, states=np.eye(dim_bath, dtype=complex),
                        energies=bath_omega * ns)
    r_op = g * np.diag(ns).astype(complex)
    return WeakCouplingModel(
        hs=h_system(p.omega), hr=np.diag(bath_omega * ns).astype(complex),
        couplings=[(r_op, SIGMA_Z)], res=res)
