"""Geometric-phase functional: dynamic-phase removal, Z, gauge behavior,
all on closed-form families scored by ``family_z``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdist.channels import (LindbladModel, ReservoirSpec, SystemEnsemble,
                             integrate_lindblad,
                             spectral_conditional_trajectories)
from gpdist.distribution import PhaseDistribution, build_distribution, moments
from gpdist.errors import (DegenerateTrajectory, DimensionError,
                           InvalidOperand, InvalidState,
                           QuadratureNotConverged, UndefinedGP)
from gpdist.hilbert import SIGMA_X, SIGMA_Z, eigh_hermitian
from gpdist.models import (PhaseDampingParams, TwoLevelAtomParams,
                           pd_trajectories)
from gpdist.phase import (
    QUADRATURE_TOL,
    ClosedFormPath,
    angle_to_positive_branch,
    family_z,
)

OMEGA = 1.0


def precession_path(*thetas, t_end=2.0 * np.pi):
    """Closed two-level precession under H = -(w/2) sz from
    (sin(theta/2), cos(theta/2)), for each theta, as one closed-form family
    with the exact derivative."""
    amps = np.array([[np.sin(th / 2.0), np.cos(th / 2.0)] for th in thetas])
    rates = np.array([-0.5j, 0.5j]) * OMEGA

    def states(t):
        psi = amps[:, None, :] * np.exp(np.outer(t, rates))
        return psi, rates * psi

    return ClosedFormPath(states=states, t_end=t_end)


def constant_path(psi, t_end):
    """The constant path psi on [0, t_end], a family of one."""
    psi = np.asarray(psi, dtype=complex)
    return ClosedFormPath(
        states=lambda t: (np.broadcast_to(psi, (1, len(t), len(psi))),
                          np.zeros((1, len(t), len(psi)), dtype=complex)),
        t_end=t_end)


NAN = float("nan")


# Each check must reject a non-finite value, which passes both x < 0 and
# x > tol; the phase of a NaN path would otherwise come out as nan+nanj.
@pytest.mark.parametrize("build, error", [
    (lambda: ReservoirSpec(probs=[NAN], states=[[1.0]], energies=[0.0]),
     InvalidState),
    (lambda: ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2),
                           energies=[0.0, NAN]),
     InvalidState),
    (lambda: SystemEnsemble(probs=[NAN], states=[[1.0, 0.0]]), InvalidState),
    (lambda: SystemEnsemble(probs=[1.0], states=[[NAN, 0.0]]), InvalidState),
    (lambda: PhaseDistribution(weights=[NAN], values=[1.0]),
     ValueError),
    (lambda: PhaseDistribution(weights=[1.0], values=[NAN]),
     ValueError),
    (lambda: PhaseDistribution(weights=[0.5, 0.5],
                               values=[1.0, complex(0.0, float("inf"))]),
     ValueError),
    (lambda: integrate_lindblad(LindbladModel(hs=SIGMA_Z), np.eye(2) / 2,
                                NAN, 4), ValueError),
    (lambda: ClosedFormPath(states=lambda t: (t, t), t_end=NAN), ValueError),
    (lambda: PhaseDistribution(weights=[1.0], values=[1.0],
                               error_estimate=NAN), ValueError),
    (lambda: TwoLevelAtomParams(omega=NAN, gamma0=0.0), ValueError),
    (lambda: TwoLevelAtomParams(omega=1.0, gamma0=float("inf")), ValueError),
    (lambda: PhaseDampingParams(omega=float("inf"), alpha=0.0), ValueError),
    (lambda: PhaseDampingParams(omega=1.0, alpha=NAN), ValueError),
], ids=["reservoir", "reservoir_energy", "ensemble",
        "ensemble_state", "distribution", "atom_value", "atom_value_inf",
        "grid", "closed_form_path", "error_estimate", "atom_omega",
        "atom_gamma0", "damping_omega", "damping_alpha"])
def test_non_finite_input_rejected(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("probs, states, error", [
    ([1.0], [[2.0, 0.0]], InvalidState),
    ([0.5, 0.5], [[1.0, 0.0], [0.6, 0.6]], InvalidState),
    ([1.0], [1.0, 0.0], DimensionError),
    ([0.5, 0.5], [[1.0, 0.0]], DimensionError),
], ids=["norm_2", "short_row", "1d_states", "length_mismatch"])
def test_malformed_ensemble_rejected(probs, states, error):
    with pytest.raises(error):
        SystemEnsemble(probs=probs, states=states)


class TestDynamicPhase:
    def test_eigenstate_minus_et(self):
        e = 0.7
        def states(t):
            psi = np.exp(-1j * e * t)[None, :, None] * [1.0, 0.0]
            return psi, -1j * e * psi

        path = ClosedFormPath(states=states, t_end=2.0 * np.pi)
        _, (phi,), _ = family_z(path)
        assert abs(phi - (-e * 2.0 * np.pi)) < 1e-13

    def test_parallel_transport_zero(self):
        # real rotating frame vector: Im<psi|psi_dot> = 0 identically
        path = ClosedFormPath(
            states=lambda t: (np.stack([np.cos(t), np.sin(t)], axis=-1)[None],
                              np.stack([-np.sin(t), np.cos(t)], axis=-1)[None]),
            t_end=np.pi)
        _, (phi,), _ = family_z(path)
        assert abs(phi) < 1e-12

    def test_precession_value(self):
        # one-period dynamic phase is +pi cos(theta) in this basis convention
        theta = np.pi / 3
        _, (phi,), _ = family_z(precession_path(theta))
        assert abs(phi - np.pi * np.cos(theta)) < 1e-13


def rabi_path(t_end):
    """psi = e^{-i sx t / 2} |g> = (cos(t/2), -i sin(t/2)), orthogonal to
    its start at t = pi."""
    def states(t):
        psi = np.stack([np.cos(0.5 * t), -1j * np.sin(0.5 * t)], axis=-1)
        return psi[None], -0.5j * (psi @ SIGMA_X)[None]

    return ClosedFormPath(states=states, t_end=t_end)


class TestZFunctional:
    def test_constant_trajectory(self):
        psi = np.array([0.6, 0.8j])
        (z,), (phi,), _ = family_z(constant_path(psi, 1.0))
        assert abs(z - np.vdot(psi, psi)) < 1e-12
        assert abs(np.angle(z)) < 1e-12 and phi == 0.0

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 2,
                                       3 * np.pi / 4])
    def test_closed_precession_beta(self, theta):
        (z,), _, _ = family_z(precession_path(theta))
        beta = angle_to_positive_branch(np.angle(z))
        assert abs(beta - 2.0 * np.pi * np.sin(theta / 2.0) ** 2) < 1e-13

    def test_beta_is_arg_z(self):
        # beta = arg<psi(0)|psi(t)> - phi, and |Z| = |<psi(0)|psi(t)>|
        path = precession_path(np.pi / 5)
        (z,), (phi,), _ = family_z(path)
        psi0, psi_t = path.states(np.array([0.0, path.t_end]))[0][0]
        overlap = np.vdot(psi0, psi_t)
        assert abs(np.exp(1j * (np.angle(overlap) - phi))
                   - z / abs(z)) < 1e-12
        assert abs(z) == pytest.approx(abs(overlap), rel=1e-15)

    def test_orthogonal_final_state_undefined(self):
        (z,), _, _ = family_z(rabi_path(np.pi))
        assert z == 0.0
        (z,), _, _ = family_z(rabi_path(0.9 * np.pi))
        assert z != 0.0

    def test_numeric_propagation_matches_analytic(self):
        # the spectral route of H = -(w/2) sz with a one-state reservoir
        # against the analytic precession
        theta = np.pi / 4
        res = ReservoirSpec(probs=[1.0], states=[[1.0]], energies=[0.0])
        sys = SystemEnsemble.pure(
            [np.sin(theta / 2.0), np.cos(theta / 2.0)])
        _, family = spectral_conditional_trajectories(
            eigh_hermitian(-0.5 * OMEGA * SIGMA_Z), res, sys, 2.0 * np.pi)
        (z,), _, _ = family_z(family)
        (ref,), _, _ = family_z(precession_path(theta))
        assert abs(z - ref) < 1e-12


def fourth_root_path(sqrt_singular_start, energies=(1.3,)):
    """psi = (1, t^{1/4} e^{-iEt}) for each E: Im<psi|psi'>/<psi|psi> =
    -E sqrt(t) / (1 + sqrt(t)), whose integral over [0, T] is
    -E (T - 2 sqrt(T) + 2 ln(1 + sqrt(T)))."""
    e = np.array(energies)

    def states(t):
        em = e[:, None]
        psi = np.stack([np.ones_like(em * t), t**0.25 * np.exp(-1j * em * t)],
                       axis=-1)
        return psi, psi * np.stack([0.0 * em, -1j * em], axis=-1)

    path = ClosedFormPath(states=states, t_end=2.0 * np.pi,
                          sqrt_singular_start=sqrt_singular_start)
    root = np.sqrt(path.t_end)
    return path, -e * (path.t_end - 2.0 * root + 2.0 * np.log1p(root))


def member(family, i):
    """Member ``i`` of a closed-form family as a family of its own."""
    return ClosedFormPath(
        states=lambda t: tuple(a[i:i + 1] for a in family.states(t)),
        t_end=family.t_end, sqrt_singular_start=family.sqrt_singular_start)


def spectral_family():
    """Conditional paths of a non-diagonal joint H whose reservoir has an
    exactly degenerate pair (d_R = 4), from two system states."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (np.kron(-0.5 * SIGMA_Z, np.eye(4))
         + np.kron(np.eye(2), np.diag([0.0, 0.7, 0.7, 1.9]))
         + 0.2 * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), w + w.conj().T))
    res = ReservoirSpec(probs=[0.4, 0.3, 0.2, 0.1],
                        states=np.eye(4, dtype=complex),
                        energies=[0.0, 0.7, 0.7, 1.9])
    sys = SystemEnsemble(probs=[0.6, 0.4],
                         states=[[0.6, 0.8], [0.8, -0.6j]])
    _, family = spectral_conditional_trajectories(eigh_hermitian(h), res, sys,
                                                  2.0 * np.pi)
    return family


class TestClosedFormPath:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 2, 3 * np.pi / 4])
    def test_precession_to_rounding(self, theta):
        (z,), (phi,), (error,) = family_z(precession_path(theta))
        assert phi == pytest.approx(np.pi * np.cos(theta), abs=1e-14)
        beta = angle_to_positive_branch(np.angle(z))
        assert beta == pytest.approx(2.0 * np.pi * np.sin(theta / 2.0) ** 2,
                                     abs=1e-13)
        assert error <= QUADRATURE_TOL

    def test_precession_family_to_rounding(self):
        thetas = [np.pi / 6, np.pi / 2, 3 * np.pi / 4]
        z, phis, errors = family_z(precession_path(*thetas))
        for theta, zi, phi, error in zip(thetas, z, phis, errors):
            assert phi == pytest.approx(np.pi * np.cos(theta), abs=1e-14)
            beta = angle_to_positive_branch(np.angle(zi))
            assert beta == pytest.approx(
                2.0 * np.pi * np.sin(theta / 2.0) ** 2, abs=1e-13)
            assert error <= QUADRATURE_TOL

    def test_sqrt_start_in_u(self):
        path, exact = fourth_root_path(True)
        _, (phi,), (error,) = family_z(path)
        assert phi == pytest.approx(exact[0], abs=1e-13)
        assert error <= QUADRATURE_TOL * abs(exact[0])

    def test_node_cap_raises(self):
        # in t, the sqrt(t) integrand converges only algebraically and is
        # still moving by 2e-10 rad at the cap
        for energies in [(1.3,), (1.3, 0.2)]:
            with pytest.raises(QuadratureNotConverged, match="4096"):
                family_z(fourth_root_path(False, energies)[0])

    @pytest.mark.parametrize("psi, dpsi, error", [
        (lambda t: np.where(t[:, None] > 0.5, NAN, 1.0) * [1.0, 0.0],
         lambda t: 0.0 * t[:, None] * [1.0, 0.0], InvalidOperand),
        (lambda t: np.ones((len(t), 2)),
         lambda t: np.where(t[:, None] > 0.5, NAN, 0.0) * [1.0, 1.0],
         InvalidOperand),
        (lambda t: np.exp(-1000.0 * t)[:, None] * [1.0, 0.0],
         lambda t: -1000.0 * np.exp(-1000.0 * t)[:, None] * [1.0, 0.0],
         DegenerateTrajectory),
    ], ids=["state", "derivative", "norm"])
    def test_every_node_is_checked(self, psi, dpsi, error):
        with pytest.raises(error):
            family_z(ClosedFormPath(
                states=lambda t: (psi(t)[None], dpsi(t)[None]), t_end=1.0))

    def test_orthogonal_final_state_undefined(self):
        (z,), _, _ = family_z(precession_path(np.pi / 2, t_end=np.pi))
        assert z == 0.0

    def test_undefined_member_is_its_own_atom(self):
        # at t = pi the theta = pi/2 end is orthogonal to its start and the
        # theta = pi/3 one is not
        family = precession_path(np.pi / 2, np.pi / 3, t_end=np.pi)
        dist = build_distribution(np.array([0.25, 0.75]), family)
        (z,), _, (error,) = family_z(member(family, 1))
        assert dist.values[0] == 0.0
        assert dist.values[1] == z
        # a legal Z atom, but P_H needs its phase
        with pytest.raises(UndefinedGP):
            moments(dist)
        # the estimate is read off the defined atoms only, if there are any
        assert dist.error_estimate == error
        alone = build_distribution(np.array([1.0]), member(family, 0))
        assert alone.values[0] == 0.0 and alone.error_estimate is None


def assert_members_scored_alone(family):
    """Every member of a family scores as it would alone, and its Z is
    numpy's complex scalar product D * <psi(0)|psi(t)>, to the bit.
    Returns the members' dynamic phases."""
    together = family_z(family)
    ends = family.states(np.array([0.0, family.t_end]))[0]
    for i, (psi0, psi_t) in enumerate(ends):
        alone = family_z(member(family, i))
        assert [a.tobytes() for a in alone] == [
            a[i:i + 1].tobytes() for a in together]
        z, phi = together[0][i], together[1][i]
        scalar = np.exp(-1j * phi) * complex(np.vdot(psi0, psi_t))
        assert np.complex128(scalar).tobytes() == z.tobytes()
    return together[1]


class TestFamily:
    def test_spectral_members_score_alone(self):
        assert len(assert_members_scored_alone(spectral_family())) == 8

    def test_phase_damping_members_score_alone(self):
        weights, family = pd_trajectories(
            PhaseDampingParams(omega=1.0, alpha=0.05, theta=1.1))
        assert len(assert_members_scored_alone(family)) == len(weights) == 2

    def test_members_stop_on_their_own_schedule(self):
        # psi = (1, r e^{-it}) with r = 1 + sin(W t) / 2: the integrand
        # -r^2 / (1 + r^2) needs more nodes as W grows, and for whole W its
        # integral over one period does not depend on W
        w = np.array([[1.0], [5.0]])

        def wobble(t):
            r = 1.0 + 0.5 * np.sin(w * t)
            psi = np.stack([np.ones_like(r), r * np.exp(-1j * t)], axis=-1)
            return psi, psi * [0.0, -1j]

        family = ClosedFormPath(states=wobble, t_end=2.0 * np.pi)
        slow, fast = assert_members_scored_alone(family)
        assert slow == pytest.approx(fast, abs=1e-12)

        def last_nodes(i):
            sizes = []

            def states(t):
                sizes.append(len(t))
                return member(family, i).states(t)

            family_z(ClosedFormPath(states=states, t_end=family.t_end))
            return max(sizes)

        assert last_nodes(0) < last_nodes(1)


def gauged(path, alpha, dalpha):
    """``path`` with each state multiplied by e^{i alpha(t)}, so that dpsi
    becomes e^{i alpha} (dpsi + i alpha'(t) psi); ``alpha`` and its
    derivative ``dalpha`` map k times to (k,) or, per member, (m, k)."""
    def states(t):
        psi, dpsi = path.states(t)
        g = np.exp(1j * alpha(t))[..., None]
        return g * psi, g * (dpsi + 1j * dalpha(t)[..., None] * psi)

    return ClosedFormPath(states=states, t_end=path.t_end)


def scaled(path, scale):
    """``path`` with every state multiplied by ``scale``."""
    return ClosedFormPath(
        states=lambda t: tuple(scale * a for a in path.states(t)),
        t_end=path.t_end)


class TestGauge:
    def test_zero_gauge_identity(self):
        path = precession_path(np.pi / 4)
        zero = gauged(path, lambda t: 0.0 * t, lambda t: 0.0 * t)
        assert [a.tobytes() for a in family_z(zero)] == [
            a.tobytes() for a in family_z(path)]

    def test_linear_gauge_invariance(self):
        path = precession_path(np.pi / 4)
        (z0,), _, _ = family_z(path)
        (z1,), _, _ = family_z(gauged(path, lambda t: 0.37 * t,
                                      lambda t: 0.37 + 0.0 * t))
        assert abs(z1 - z0) < 1e-13

    def test_random_smooth_gauges(self):
        path = precession_path(np.pi / 3)
        (z0,), _, _ = family_z(path)
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.normal(scale=0.3, size=3)
            u = 1.0 / (2.0 * np.pi)
            (z1,), _, _ = family_z(gauged(
                path,
                lambda t, c=c: c[0] + c[1] * (u * t) + c[2] * (u * t) ** 2,
                lambda t, c=c: u * (c[1] + 2.0 * c[2] * (u * t))))
            assert abs(z1 - z0) < 1e-13

    def test_array_gauge_and_validation(self):
        # one gauge rate per member: every member keeps its Z and scores as
        # it would alone
        thetas = [np.pi / 6, np.pi / 2, 3 * np.pi / 4]
        rates = np.array([0.37, -1.1, 2.0])[:, None]
        path = precession_path(*thetas)
        family = gauged(path, lambda t: rates * t,
                        lambda t: rates + 0.0 * t)
        assert np.abs(family_z(family)[0] - family_z(path)[0]).max() < 1e-13
        assert_members_scored_alone(family)


class TestInvariances:
    def test_norm_scaling(self):
        path = precession_path(np.pi / 4)
        (z,), _, _ = family_z(path)
        (z2,), _, _ = family_z(scaled(path, 3.5))
        assert np.angle(z2) == pytest.approx(np.angle(z), abs=1e-12)
        assert abs(z2) == pytest.approx(3.5**2 * abs(z), rel=1e-12)

    def test_reparametrization(self):
        # same projective path traversed with the clock f(t) = T (t/T)^2,
        # which keeps f(0) = 0 and f(T) = T
        theta = np.pi / 4
        path = precession_path(theta)
        t_end = path.t_end

        def states(t):
            psi, dpsi = path.states(t_end * (t / t_end) ** 2)
            return psi, dpsi * (2.0 * t / t_end)[:, None]

        (z_warp,), _, _ = family_z(ClosedFormPath(states=states, t_end=t_end))
        (z_ref,), _, _ = family_z(path)
        assert abs(np.angle(z_warp) - np.angle(z_ref)) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0),
           theta=st.floats(min_value=0.2, max_value=3.0))
    def test_norm_scaling_property(self, scale, theta):
        path = precession_path(theta)
        (z,), _, _ = family_z(path)
        (z2,), _, _ = family_z(scaled(path, scale))
        assert np.angle(z2) == pytest.approx(np.angle(z), abs=1e-10)


class TestAngles:
    def test_positive_branch(self):
        assert angle_to_positive_branch(-0.5) == pytest.approx(
            2.0 * np.pi - 0.5)
        assert angle_to_positive_branch(1.0) == pytest.approx(1.0)
