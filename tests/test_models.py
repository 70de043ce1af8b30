"""Closed-form two-level-atom models and their cross-checks."""

import warnings

import numpy as np
import pytest

from gpdist.channels import apply_kraus, integrate_lindblad
from gpdist.distribution import moments
from gpdist.errors import RCondViolated
from gpdist.hilbert import TimeGrid
from gpdist.models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    _se_no_jump_diagonals,
    closed_system_gp,
    pd_distribution,
    pd_first_order_references,
    pd_kraus_channel,
    pd_lindblad_model,
    pd_moments,
    pd_trajectories,
    pd_weak_coupling_model,
    psi_initial,
    se_distribution,
    se_exact_z_values,
    se_kraus_channel,
    se_lindblad_model,
    se_mean_gp_zero_temperature,
    se_perturbative_gp,
    se_weak_coupling_model,
    se_weights,
)
from gpdist.phase import ClosedFormPath, angle_to_positive_branch, family_z

# Exact two-atom phase-damping moments at one period, frozen from an
# independent 1D quadrature oracle (scipy.integrate.quad over the analytic
# branch integrands) and confirmed by 65536-step grid refinement.
PD_EXACT_ORACLE = {
    (0.25, 1e-3): (0.6038714194315193 + 0.7970817453647788j,
                   0.5959863024333474 + 0.7943749482073706j,
                   0.01396099468277523),
    (0.50, 1e-3): (-1.0 + 0.0j,
                   -0.9726679009809903 + 0.0j,
                   0.05698988693438456),
    (0.25, 1e-2): (0.5896505703247299 + 0.8076584704661498j,
                   0.510031113591014 + 0.776942924151501j,
                   0.15771285571420068),
}


def se_no_jump_path(p):
    """K0(t)|psi_S> as a closed-form path: each no-jump diagonal entry is
    e^{rate t}, so the derivative is rates * psi."""
    psi0 = psi_initial(p.theta)
    rates = np.array([-0.5j * p.omega, 0.5j * p.omega - p.gamma_n])

    def states(t):
        psi = _se_no_jump_diagonals(p, t)[0] * psi0
        return psi[None], (rates * psi)[None]

    return ClosedFormPath(states=states, t_end=p.period)


class TestClosedSystemGp:
    def test_poles(self):
        assert closed_system_gp(0.0) == 0.0
        assert closed_system_gp(np.pi) == pytest.approx(2.0 * np.pi)

    def test_equator_and_numeric_cross_check(self):
        assert closed_system_gp(np.pi / 2) == pytest.approx(np.pi)
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.0, theta=np.pi / 2)
        (z,), _, _ = family_z(se_no_jump_path(p))
        beta = angle_to_positive_branch(np.angle(z))
        assert abs(beta - np.pi) < 1e-6

    def test_range_validation(self):
        with pytest.raises(ValueError):
            closed_system_gp(4.0)


class TestParams:
    def test_gamma_n(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.2, n_thermal=2.0)
        assert p.gamma_n == pytest.approx(1.0)
        assert p.period == pytest.approx(2.0 * np.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelAtomParams(omega=-1.0, gamma0=0.1)
        with pytest.raises(ValueError):
            TwoLevelAtomParams(omega=1.0, gamma0=0.1, theta=4.0)
        with pytest.raises(ValueError):
            PhaseDampingParams(omega=1.0, alpha=-0.1)

    def test_r_factor_range(self):
        p = PhaseDampingParams(omega=1.0, alpha=0.5)
        assert p.r_factor(0.0) == pytest.approx(1.0)
        assert p.r_factor(1e9) == pytest.approx(np.sqrt(2.0))


class TestSeKrausChannel:
    def test_weights_zero_temperature(self):
        w = se_weights(TwoLevelAtomParams(omega=1.0, gamma0=0.1))
        assert np.allclose(w, [1.0, 1.0, 0.0, 0.0])

    def test_initial_operators(self):
        ch = se_kraus_channel(TwoLevelAtomParams(omega=1.0, gamma0=0.1,
                                                 n_thermal=0.7))
        ops = ch.operators(0.0)
        assert np.allclose(ops[0], np.eye(2))
        assert np.allclose(ops[2], np.eye(2))
        assert np.linalg.norm(ops[1]) < 1e-15
        assert np.linalg.norm(ops[3]) < 1e-15

    def test_completeness_random_times(self):
        ch = se_kraus_channel(TwoLevelAtomParams(omega=1.0, gamma0=0.08,
                                                 n_thermal=1.3))
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, 2.0 * np.pi, size=20):
            assert ch.completeness_defect(t) < 1e-12

    def test_channel_vs_integrator(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.05, n_thermal=0.5,
                               theta=np.pi / 3)
        psi = psi_initial(p.theta)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid(0.0, 1.0 / p.gamma0, 2048)  # gamma0 * t up to 1
        rhos = integrate_lindblad(se_lindblad_model(p), rho0, grid)
        ch = se_kraus_channel(p)
        for k in (512, 1024, 2048):
            got = apply_kraus(ch, rho0, grid.times[k])
            assert np.linalg.norm(got - rhos[k]) < 1e-6


class TestSeExactValues:
    def test_closed_system_limit(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.0, theta=np.pi / 3)
        f_minus, f_plus = se_exact_z_values(p)
        ref = -np.exp(-1j * np.pi * np.cos(p.theta))
        assert f_minus == pytest.approx(ref)
        assert f_plus == pytest.approx(ref)

    def test_pole_reduces_to_closed_phase(self):
        # theta = 0 is a sigma_z eigenstate: no decoherence of the phase
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.07, theta=0.0)
        f_minus, _ = se_exact_z_values(p)
        assert abs(np.angle(f_minus) - 0.0) < 1e-10

    def test_zero_temperature_closed_form(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.05, theta=np.pi / 4)
        f_minus, _ = se_exact_z_values(p)
        got = angle_to_positive_branch(np.angle(f_minus))
        assert abs(got - se_mean_gp_zero_temperature(p)) < 1e-10

    @pytest.mark.parametrize("rate", [1e-3, 0.1, 1.0, 6.0, 200.0])
    def test_cancelled_forms_match_unreduced_formula(self, rate):
        # the unreduced forms overflow once gamma_n / omega passes about 113;
        # mpmath at 50 digits evaluates them as written
        mp = pytest.importorskip("mpmath")
        for n_thermal in (0.0, 0.5, 2.0, 10.0):
            for theta in (0.0, 0.3, 1.0, np.pi / 2, 2.5, np.pi):
                p = TwoLevelAtomParams(omega=1.0, gamma0=rate,
                                       n_thermal=n_thermal, theta=theta)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    f_minus, f_plus = se_exact_z_values(p)
                    mean = se_mean_gp_zero_temperature(p)
                ref_minus, ref_plus, ref_mean = _unreduced_references(mp, p)
                assert abs(f_minus - ref_minus) <= 1e-12
                assert abs(f_plus - ref_plus) <= 1e-12
                assert abs(mean - ref_mean) <= 1e-12

    @pytest.mark.parametrize("rate", [1e-4, 1e-6, 1e-8])
    def test_weak_emission_keeps_full_precision(self, rate):
        # log(a e^{4x} + b) at small x is log1p(a expm1(4x)); the logaddexp
        # form cancels two O(a) logarithms and loses eps / x
        mp = pytest.importorskip("mpmath")
        for n_thermal in (0.0, 0.5, 2.0, 10.0):
            for theta in (0.0, 0.3, 1.0, np.pi / 2, 2.5, np.pi):
                p = TwoLevelAtomParams(omega=1.0, gamma0=rate,
                                       n_thermal=n_thermal, theta=theta)
                ref_minus, ref_plus, ref_mean = _unreduced_references(mp, p)
                f_minus, f_plus = se_exact_z_values(p)
                assert abs(f_minus - ref_minus) <= 1e-14
                assert abs(f_plus - ref_plus) <= 1e-14
                assert abs(se_mean_gp_zero_temperature(p) - ref_mean) <= 1e-14

    def test_no_jump_trajectory_matches(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.05, theta=np.pi / 4)
        (z,), _, _ = family_z(se_no_jump_path(p))
        beta = angle_to_positive_branch(np.angle(z))
        assert abs(beta - se_mean_gp_zero_temperature(p)) < 1e-6

    def test_weak_coupling_agreement(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=1e-3, theta=np.pi / 3)
        pz = se_distribution(p)
        rep = moments(pz)
        exact = angle_to_positive_branch(rep.mean_gp_z)
        assert abs(exact - se_perturbative_gp(p)) < 100.0 * (1e-3) ** 2


def _unreduced_references(mp, p):
    """(f_minus, f_plus, zero-temperature mean GP) from the unreduced
    formulas, evaluated by mpmath at 50 digits."""
    with mp.workdps(50):
        s2 = mp.sin(mp.mpf(p.theta) / 2) ** 2
        c2 = mp.cos(mp.mpf(p.theta) / 2) ** 2

        def sz(a):  # <e^{a sigma_z}>_S
            return s2 * mp.exp(-a) + c2 * mp.exp(a)

        gn = mp.mpf(p.gamma_n)
        x, k = mp.pi * gn, 1 / (2 * gn)
        ref_minus = -mp.exp(-x) * sz(-x) * mp.exp(1j * k * mp.log(sz(-2 * x)))
        ref_plus = -mp.exp(-x) * sz(x) * mp.exp(-1j * k * mp.log(sz(2 * x)))
        x0 = mp.pi * mp.mpf(p.gamma0)
        ref_mean = mp.pi + mp.log(sz(-2 * x0)) / (2 * mp.mpf(p.gamma0))
        return complex(ref_minus), complex(ref_plus), float(ref_mean)


class TestSeDistributions:
    def test_zero_temperature_single_atom(self):
        pz = se_distribution(TwoLevelAtomParams(omega=1.0, gamma0=0.1))
        assert len(pz.values) == 1
        assert pz.weights[0] == pytest.approx(1.0)

    def test_thermal_two_atoms(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.1, n_thermal=2.0)
        pz = se_distribution(p)
        assert len(pz.values) == 2
        assert pz.weights.sum() == pytest.approx(1.0)
        assert np.allclose(pz.weights, [3.0 / 5.0, 2.0 / 5.0])

    @pytest.mark.parametrize("n_thermal", [1.0, 5.0])
    def test_temperature_independence_first_order(self, n_thermal):
        rate = 1e-3
        gps = []
        for n in (0.0, n_thermal):
            p = TwoLevelAtomParams(omega=1.0, gamma0=rate, n_thermal=n,
                                   theta=np.pi / 2)
            pz = se_distribution(p)
            gps.append(angle_to_positive_branch(moments(pz).mean_gp_z))
        assert abs(gps[1] - gps[0]) <= 100.0 * rate**2


class TestPdKrausChannel:
    def test_initial_unitary(self):
        ch = pd_kraus_channel(PhaseDampingParams(omega=1.0, alpha=0.3))
        for k in ch.operators(0.0):
            assert np.allclose(np.abs(np.diag(k)), 1.0)

    def test_zero_damping_closed_system(self):
        ch = pd_kraus_channel(PhaseDampingParams(omega=1.0, alpha=0.0))
        for k in ch.operators(1.7):
            assert np.allclose(np.abs(np.diag(k)), 1.0)
        assert ch.completeness_defect(1.7) < 1e-12

    def test_completeness_random_times(self):
        ch = pd_kraus_channel(PhaseDampingParams(omega=1.0, alpha=0.2))
        rng = np.random.default_rng(8)
        for t in rng.uniform(0.0, 2.0 * np.pi, size=20):
            assert ch.completeness_defect(t) < 1e-12

    def test_channel_vs_integrator(self):
        p = PhaseDampingParams(omega=1.0, alpha=0.05, theta=np.pi / 3)
        psi = psi_initial(p.theta)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid(0.0, p.period, 2048)
        rhos = integrate_lindblad(pd_lindblad_model(p), rho0, grid)
        ch = pd_kraus_channel(p)
        for k in (512, 1024, 2048):
            assert np.linalg.norm(apply_kraus(ch, rho0, grid.times[k])
                                  - rhos[k]) < 1e-6


class TestPdMoments:
    def test_pole_trivial(self):
        p = PhaseDampingParams(omega=1.0, alpha=0.01, theta=0.0)
        m = pd_moments(p)
        assert m.first_z / abs(m.first_z) == pytest.approx(1.0, abs=1e-5)
        assert m.mean_gp_h == pytest.approx(1.0, abs=1e-5)
        assert m.spread_w < 1e-10
        assert pd_first_order_references(p)[2] == 0.0

    def test_reference_formulas_at_equator(self):
        # printed first-order forms: z-correction vanishes at cos(theta) = 0,
        # the h-correction is the real -8 pi^2 alpha / (9 w) term
        al = 0.01
        ref_z, ref_h, ref_w = pd_first_order_references(
            PhaseDampingParams(omega=1.0, alpha=al, theta=np.pi / 2))
        b0 = np.exp(1j * np.pi)
        assert ref_z == pytest.approx(b0)
        assert ref_h == pytest.approx(b0 * (1.0 - 8.0 * np.pi**2 * al / 9.0))
        assert ref_w == pytest.approx(16.0 * np.pi**2 * al / 9.0)

    @pytest.mark.parametrize("key", sorted(PD_EXACT_ORACLE))
    def test_exact_values_frozen_oracle(self, key):
        frac, al = key
        p = PhaseDampingParams(omega=1.0, alpha=al, theta=frac * np.pi)
        m = pd_moments(p)
        z_ref, h_ref, w_ref = PD_EXACT_ORACLE[key]
        assert abs(m.first_z / abs(m.first_z) - z_ref) < 5e-6
        assert abs(m.mean_gp_h - h_ref) < 5e-6
        assert m.spread_w == pytest.approx(w_ref, abs=5e-6)

    def test_exact_z_phase_matches_reference(self):
        # e^{i<beta>}: the printed phase correction is accurate to O(alpha)
        p = PhaseDampingParams(omega=1.0, alpha=1e-3, theta=np.pi / 4)
        m = pd_moments(p)
        corr_exact = np.angle(m.first_z / abs(m.first_z) / np.exp(
            1j * closed_system_gp(p.theta)))
        corr_ref = (np.angle(pd_first_order_references(p)[0])
                    - closed_system_gp(p.theta))
        assert corr_exact == pytest.approx(corr_ref, rel=0.05)

    def test_exact_spread_exceeds_first_order_reference(self):
        # the exact two-atom spread carries an extra factor ~pi over the
        # first-order reference; pin the true ratio so regressions surface
        p = PhaseDampingParams(omega=1.0, alpha=1e-4, theta=np.pi / 2)
        m = pd_moments(p)
        ref_w = pd_first_order_references(p)[2]
        assert m.spread_w / ref_w == pytest.approx(np.pi, rel=0.02)

    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2])
    def test_spread_matches_branch_phase_difference(self, theta):
        # both branches share <psi(0)|psi(T)> = -(s^2 e^{-aT}/r_T + c^2 r_T),
        # and with eps(t) = sqrt(1 - e^{-2at}) their phases differ by
        # D = -w sin^2(theta) int_0^T eps / (1 - eps^2 cos^2 theta) dt,
        # so W = tan^2(D / 2); quad runs in u with t = T u^2
        from scipy.integrate import quad

        p = PhaseDampingParams(omega=1.0, alpha=1e-2, theta=theta)
        big_t, c2 = p.period, np.cos(theta) ** 2

        def integrand(u):
            eps = np.sqrt(-np.expm1(-2.0 * p.alpha * big_t * u * u))
            return 2.0 * big_t * u * eps / (1.0 - eps * eps * c2)

        d = -p.omega * np.sin(theta) ** 2 * quad(
            integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
        assert pd_moments(p).spread_w == pytest.approx(
            np.tan(d / 2.0) ** 2, rel=1e-12, abs=1e-14)
        assert pd_distribution(p).error_estimate <= 1e-13

    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2])
    def test_spread_ratio_tends_to_pi_linearly(self, theta):
        # expanding D above in x = alpha / omega gives
        # W / W_ref = pi + x [(6/5)(4 cos^2 - 1) pi^2 + (32/27) sin^4 pi^4]
        # + O(x^2), about 40.7 at theta = pi/4: criterion 5's spread ratio
        # is pi in the limit, and its remainder is linear
        c2, s4 = np.cos(theta) ** 2, np.sin(theta) ** 4
        slope = (1.2 * (4.0 * c2 - 1.0) * np.pi**2
                 + 32.0 / 27.0 * s4 * np.pi**4)
        for x in (1e-4, 1e-5):
            p = PhaseDampingParams(omega=1.0, alpha=x, theta=theta)
            ratio = pd_moments(p).spread_w / pd_first_order_references(p)[2]
            measured = (ratio - np.pi) / x
            assert measured == pytest.approx(slope, abs=50.0 * slope * x)

    def test_two_trajectories(self):
        p = PhaseDampingParams(omega=1.0, alpha=0.02, theta=np.pi / 3)
        weights, path = pd_trajectories(p)
        assert len(weights) == 2
        assert sum(weights) == pytest.approx(1.0)
        t = np.linspace(0.1, p.period - 0.1, 7)
        h = 1e-5
        assert path.t_end == p.period and path.sqrt_singular_start
        for start in path.states(np.array([0.0]))[0]:
            assert np.allclose(start[0], psi_initial(p.theta))
        # dpsi keeps every part of psi' that Im<psi|psi'> sees
        psi, dpsi = path.states(t)
        fd = (path.states(t + h)[0] - path.states(t - h)[0]) / (2.0 * h)
        exact = np.einsum("mki,mki->mk", psi.conj(), dpsi).imag
        assert np.allclose(
            exact, np.einsum("mki,mki->mk", psi.conj(), fd).imag, atol=1e-9)


class TestMicroscopicCouplings:
    def test_dephasing_coupling_violates_condition(self):
        model = pd_weak_coupling_model(PhaseDampingParams(omega=1.0,
                                                          alpha=0.01))
        assert model.rcond_defect() > 1e-3
        with pytest.raises(RCondViolated):
            model.require_rcond()

    def test_energy_exchange_coupling_passes(self):
        model = se_weak_coupling_model(TwoLevelAtomParams(omega=1.0,
                                                          gamma0=1e-3))
        model.require_rcond()  # must not raise
        assert model.rcond_defect() < 1e-14


def assert_bit_identical(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestGridBroadcastBuilders:
    """The builders that evaluate closed forms on the whole time array give
    the same bits as the per-node operator formulas."""

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.3])
    def test_pd_trajectories_match_per_node_kraus(self, alpha):
        p = PhaseDampingParams(omega=1.01, alpha=alpha, theta=1.1)
        grid = TimeGrid(0.0, p.period, 1024)
        psi = psi_initial(p.theta)
        weights, path = pd_trajectories(p)
        channel = pd_kraus_channel(p)
        assert_bit_identical(weights, channel.weights)
        assert_bit_identical(path.states(grid.times)[0], np.array(
            [channel.operators(t) @ psi for t in grid.times]).swapaxes(0, 1))

    @pytest.mark.parametrize("gamma0, n_thermal", [(0.0, 0.0), (0.05, 0.0),
                                                   (0.1, 0.7)])
    def test_se_no_jump_trajectory_matches_per_node_k0(self, gamma0, n_thermal):
        p = TwoLevelAtomParams(omega=0.97, gamma0=gamma0, n_thermal=n_thermal,
                               theta=1.1)
        grid = TimeGrid(0.0, p.period, 1024)
        channel = se_kraus_channel(p)
        psi = psi_initial(p.theta)
        assert_bit_identical(se_no_jump_path(p).states(grid.times)[0][0],
                             np.array([channel.operators(t)[0] @ psi
                                       for t in grid.times]))
