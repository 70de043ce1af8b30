"""Open-system dynamics: Lindblad integration, Kraus maps and conditional
trajectories."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from gpdist.channels import (
    TRACE_DRIFT_TOL,
    KrausChannel,
    LindbladModel,
    ReservoirSpec,
    SystemEnsemble,
    apply_kraus,
    integrate_lindblad,
    _expm,
    _node_times,
    liouvillian,
    spectral_conditional_trajectories,
)
from gpdist.errors import (
    DimensionError,
    IntegrationDiverged,
    InvalidChannel,
    InvalidOperand,
    InvalidState,
)
from gpdist.hilbert import SIGMA_X, SIGMA_Z, eigh_hermitian
from gpdist.models import (
    TwoLevelAtomParams,
    h_system,
    pd_lindblad_model,
    PhaseDampingParams,
    psi_initial,
    se_lindblad_model,
)

RNG = np.random.default_rng(7)


def random_unitary(dim, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_complex(dim, rng=RNG):
    return (rng.normal(size=(dim, dim))
            + 1j * rng.normal(size=(dim, dim))) / (2.0 * dim)


def textbook_rhs(rho, model):
    """The master equation as a commutator plus one dissipator per jump
    operator, in the package's no-1/2 convention:
    -i[H, rho] - sum (L^dag L rho + rho L^dag L - 2 L rho L^dag)."""
    h = model.hs
    out = -1j * (h @ rho - rho @ h)
    for l in model.jump_ops:
        ldl = l.conj().T @ l
        out -= ldl @ rho + rho @ ldl - 2.0 * l @ rho @ l.conj().T
    return out


def liouvillian_rhs(rho, model):
    """The generator ``integrate_lindblad`` exponentiates: ``liouvillian``
    applied to the row-major vec(rho)."""
    rho = np.asarray(rho, dtype=complex)
    return (liouvillian(model) @ rho.reshape(-1)).reshape(rho.shape)


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def exact_stack(model, rho0, times):
    """``e^{L t} rho0`` at each of ``times``, by scipy's ``expm``."""
    maps = scipy.linalg.expm(liouvillian(model) * times[:, None, None])
    return (maps @ rho0.reshape(-1)).reshape(-1, *rho0.shape)


def overflow_oracle(n):
    """A jump operator that overflows the generator, and the message of the
    first node whose trace drifts when scipy's ``expm(L dt)`` steps the
    state node by node over n steps of [0, 2 pi]."""
    huge = LindbladModel(hs=h_system(1.0), jump_ops=[1e155 * SIGMA_MINUS])
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with np.errstate(all="ignore"):
        step = scipy.linalg.expm(liouvillian(huge) * (2.0 * np.pi / n))
        rhos = [rho0.reshape(-1)]
        for _ in range(n):
            rhos.append(step @ rhos[-1])
        drift = np.abs(np.array(rhos)[:, [0, 3]].sum(axis=1).real - 1.0)
    j = 1 + int(np.argmax(~(drift[1:] <= TRACE_DRIFT_TOL)))
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)[j]
    return huge, rho0, f"trace drifted by {drift[j]:.3e} at t={t:.6g}"


class TestReservoirSpec:
    def test_valid_and_blocks(self):
        res = ReservoirSpec(probs=[0.5, 0.3, 0.2],
                            states=np.eye(3, dtype=complex),
                            energies=[0.0, 1.0, 1.0])
        assert res.dim == 3
        assert res.blocks() == [[0], [1, 2]]
        assert np.allclose(np.einsum("r,ri,rj->ij", res.probs, res.states,
                                     res.states.conj()),
                           np.diag([0.5, 0.3, 0.2]))

    def test_bad_probabilities(self):
        with pytest.raises(InvalidState):
            ReservoirSpec(probs=[0.5, 0.6], states=np.eye(2, dtype=complex),
                          energies=[0.0, 1.0])

    def test_non_orthonormal_rejected(self):
        states = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidState):
            ReservoirSpec(probs=[0.5, 0.5], states=states, energies=[0.0, 0.0])
        # the explicit flag admits alternative in-block decompositions
        spec = ReservoirSpec(probs=[0.5, 0.5], states=states,
                             energies=[0.0, 0.0], orthonormal=False)
        assert spec.dim == 2

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ReservoirSpec(probs=[1.0], states=np.eye(2, dtype=complex),
                          energies=[0.0, 1.0])


class TestLindbladRhs:
    def test_stationary_zero(self):
        model = LindbladModel(hs=SIGMA_Z)
        rho = np.diag([0.3, 0.7]).astype(complex)  # commutes with sz
        assert np.linalg.norm(liouvillian_rhs(rho, model)) < 1e-14

    def test_hermitian_jump_on_maximally_mixed(self):
        model = LindbladModel(hs=np.zeros((2, 2)), jump_ops=[0.7 * SIGMA_Z])
        rho = 0.5 * np.eye(2, dtype=complex)
        assert np.linalg.norm(liouvillian_rhs(rho, model)) < 1e-14

    def test_two_level_atom_populations(self):
        # hand 2x2 oracle: from |e><e|, pop_e rate -2 g0 (n+1), pop_g gains it
        g0, n = 0.25, 0.5
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=g0,
                                                     n_thermal=n))
        rho = np.diag([0.0, 1.0]).astype(complex)
        rhs = liouvillian_rhs(rho, model)
        assert rhs[1, 1].real == pytest.approx(-2.0 * g0 * (n + 1.0))
        assert rhs[0, 0].real == pytest.approx(2.0 * g0 * (n + 1.0))
        assert abs(np.trace(rhs)) < 1e-14
        assert np.linalg.norm(rhs - rhs.conj().T) < 1e-14


class TestLindbladModel:
    def test_jump_operator_wrong_shape(self):
        with pytest.raises(DimensionError):
            LindbladModel(hs=h_system(1.0), jump_ops=[np.eye(3)])

    def test_jump_operator_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(InvalidOperand):
            LindbladModel(hs=h_system(1.0), jump_ops=[bad])

    def test_hs_not_square_or_non_finite_rejected(self):
        # the generator is built once, from the H_S matrix
        with pytest.raises(DimensionError):
            LindbladModel(hs=np.ones((2, 3)), jump_ops=[0.1 * SIGMA_Z])
        with pytest.raises(InvalidOperand):
            LindbladModel(hs=np.array([[0.0, np.nan], [np.nan, 0.0]]),
                          jump_ops=[0.1 * SIGMA_Z])

    def test_hs_not_hermitian_rejected(self):
        # integrated, this H_S ends a period at purity 1.24 with trace 1
        with pytest.raises(InvalidOperand, match="H_S is not Hermitian"):
            LindbladModel(hs=[[0.5, 0.3], [0.0, -0.5]])


class TestLiouvillian:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_rhs_and_commutator_form(self, dim):
        rng = np.random.default_rng(11 + dim)
        h = random_complex(dim, rng)
        dh = random_complex(dim, rng)
        h = h + h.conj().T + dh + dh.conj().T
        jumps = [random_complex(dim, rng) for _ in range(2)]
        model = LindbladModel(hs=h, jump_ops=jumps)
        rho = random_complex(dim, rng)
        lhs = liouvillian(model) @ rho.reshape(-1)
        # the master equation written out as commutator plus dissipators
        ref = textbook_rhs(rho, model)
        assert np.max(np.abs(lhs - ref.reshape(-1))) < 1e-14


class TestIntegrateLindblad:
    def test_closed_system_matches_propagator(self):
        h = -0.5 * SIGMA_Z
        model = LindbladModel(hs=h)
        psi = psi_initial(np.pi / 3)
        rho0 = np.outer(psi, psi.conj())
        _, rhos = integrate_lindblad(model, rho0, 2.0 * np.pi, 2048)
        u = scipy.linalg.expm(-1j * h * (2.0 * np.pi))
        ref = u @ rho0 @ u.conj().T
        assert np.linalg.norm(rhos[-1] - ref) < 1e-8

    def test_spontaneous_emission_decay(self):
        # scalar ODE oracle in this convention: rho_ee(t) = e^{-2 g0 t}
        g0 = 0.3
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=g0))
        _, rhos = integrate_lindblad(
            model, np.diag([0.0, 1.0]).astype(complex), 2.0, 1024)
        assert rhos[-1][1, 1].real == pytest.approx(np.exp(-2.0 * g0 * 2.0),
                                                    abs=1e-9)

    def test_phase_damping_coherence_decay(self):
        # scalar ODE oracle: rho_ge decays as e^{-alpha t}
        al = 0.4
        model = pd_lindblad_model(PhaseDampingParams(omega=1.0, alpha=al))
        psi = psi_initial(np.pi / 2)
        _, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()), 2.0,
                                     1024)
        assert abs(rhos[-1][0, 1]) == pytest.approx(
            0.5 * np.exp(-al * 2.0), abs=1e-9)

    def test_trace_preservation(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.2,
                                                     n_thermal=1.0))
        psi = psi_initial(np.pi / 3)
        _, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                     2.0 * np.pi, 512)
        traces = np.array([np.trace(r).real for r in rhos])
        assert np.max(np.abs(traces - 1.0)) < 1e-9

    def test_divergence_detected(self):
        # rate^2 overflows the generator: every node is NaN, and the check
        # names the first kept one, node n alone where the stride passes n
        huge = LindbladModel(hs=h_system(1.0), jump_ops=[1e155 * SIGMA_MINUS])
        for every in (1, 3, 16, 5000):
            with pytest.raises(IntegrationDiverged) as exc:
                integrate_lindblad(huge, np.diag([0.0, 1.0]).astype(complex),
                                   2.0 * np.pi, 16, every)
            t = 2.0 * np.pi * min(every, 16) / 16
            assert str(exc.value) == f"trace drifted by nan at t={t:.6g}"

    def test_overflow_is_divergence_without_warnings(self):
        # the generator overflows to inf/nan; the trace check must catch a
        # NaN trace instead of returning NaN rows
        huge = LindbladModel(hs=h_system(1.0), jump_ops=[1e155 * SIGMA_MINUS])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDiverged):
                integrate_lindblad(huge, np.diag([0.0, 1.0]).astype(complex),
                                   2.0 * np.pi, 4096)

    @pytest.mark.parametrize("n", [16, 100, 1000, 4096])
    def test_overflow_error_matches_stepwise_oracle(self, n):
        huge, rho0, message = overflow_oracle(n)
        with pytest.raises(IntegrationDiverged) as exc:
            integrate_lindblad(huge, rho0, 2.0 * np.pi, n)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rate", [30.0, 1e80])
    def test_stiff_decay_is_the_closed_form(self, rate):
        # grids on which a fixed-step method diverges:
        # rho_ee = e^{-2 rate^2 t}
        model = LindbladModel(hs=h_system(1.0), jump_ops=[rate * SIGMA_MINUS])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, rhos = integrate_lindblad(
                model, np.diag([0.0, 1.0]).astype(complex), 2.0 * np.pi, 16)
        pop_e = np.exp(-2.0 * rate**2 * times)
        expected = np.zeros_like(rhos)
        expected[:, 0, 0], expected[:, 1, 1] = 1.0 - pop_e, pop_e
        assert np.max(np.abs(rhos - expected)) < 1e-15

    @pytest.mark.parametrize("c", [2.7, 3.0, 5.0])
    def test_strong_dephasing_is_the_closed_form(self, c):
        # dephasing c sigma_z on 64 steps of 2 pi / 64, outside classical
        # RK4's stability region for c > 2.6: |rho_01| = e^{-4 c^2 t} / 2
        model = LindbladModel(hs=h_system(1.0), jump_ops=[c * SIGMA_Z])
        psi = psi_initial(np.pi / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                             2.0 * np.pi, 64)
        np.testing.assert_allclose(np.abs(rhos[:, 0, 1]),
                                   0.5 * np.exp(-4.0 * c**2 * times),
                                   rtol=1e-12, atol=0.0)
        assert np.max(np.abs(rhos[:, [0, 1], [0, 1]] - 0.5)) < 1e-15

    def test_stable_dephasing_stays_a_density_matrix(self):
        model = LindbladModel(hs=h_system(1.0), jump_ops=[2.6 * SIGMA_Z])
        psi = psi_initial(np.pi / 2)
        _, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                     2.0 * np.pi, 64)
        assert np.all(np.linalg.eigvalsh(rhos) >= -1e-12)
        assert np.all(np.abs(rhos[:, 0, 1]) <= 0.5)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 255, 256, 257, 1000, 16384])
    def test_kept_nodes_are_the_full_stacks(self, n):
        # chunks of 64 kept nodes: n and every fall on, just before and
        # just after their edges, and node n comes alone where every does
        # not divide n.  Each kept node is e^{L t_k} rho0 of the full grid
        psi = psi_initial(0.9)
        rho0 = np.outer(psi, psi.conj())
        times = np.linspace(0.0, 2.0 * np.pi, n + 1)
        for model in (
                LindbladModel(hs=h_system(1.0), jump_ops=[
                    0.6 * random_complex(2, np.random.default_rng(5))]),
                se_lindblad_model(TwoLevelAtomParams(
                    omega=1.0, gamma0=0.05, n_thermal=0.4))):
            full = exact_stack(model, rho0, times)
            for every in (1, 3, 64, 256, max(1, n // 256)):
                kept = np.append(np.arange(0, n, every), n)
                got_times, got = integrate_lindblad(model, rho0, 2.0 * np.pi,
                                                    n, every)
                assert np.array_equal(got_times, times[kept])
                assert np.max(np.abs(got - full[kept])) < 1e-14

    def test_stride_must_be_positive(self):
        model = LindbladModel(hs=h_system(1.0))
        with pytest.raises(ValueError, match="every must be >= 1"):
            integrate_lindblad(model, np.eye(2) / 2, 1.0, 4, 0)

    def test_grid_validation(self):
        model = LindbladModel(hs=h_system(1.0))
        for t_end, n_steps in ((0.0, 4), (-1.0, 4), (np.inf, 4), (np.nan, 4),
                               (1.0, 0)):
            with pytest.raises(ValueError, match="need a finite t_end > 0 "
                                                 "and n_steps >= 1"):
                integrate_lindblad(model, np.eye(2) / 2, t_end, n_steps)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 16384])
    def test_every_node_is_exactly_hermitian(self, n):
        # complex jump operators: unsymmetrized, no node here is Hermitian
        # to the last bit
        model = LindbladModel(hs=h_system(1.0), jump_ops=[
            0.6 * random_complex(2, np.random.default_rng(3))])
        psi = psi_initial(1.1)
        _, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                     n / 64, n)
        assert len(rhos) == n + 1
        assert np.all(rhos == rhos.conj().swapaxes(1, 2))

    def test_peak_memory_is_the_returned_stack(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.05))
        psi = psi_initial(1.1)
        rho0 = np.outer(psi, psi.conj())
        integrate_lindblad(model, rho0, 2.0 * np.pi, 16384)  # first-call
        tracemalloc.start()
        try:
            times, out = integrate_lindblad(model, rho0, 2.0 * np.pi, 16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + times.nbytes + 64 * 1024

    @pytest.mark.parametrize("n", [16384, 2**18])
    def test_strided_peak_is_the_kept_nodes(self, n):
        # 257 nodes are kept at both sizes: memory does not grow with n
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.05))
        psi = psi_initial(1.1)
        rho0 = np.outer(psi, psi.conj())
        integrate_lindblad(model, rho0, 2.0 * np.pi, n, n // 256)
        tracemalloc.start()
        try:
            times, out = integrate_lindblad(model, rho0, 2.0 * np.pi, n,
                                            n // 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(times) == len(out) == 257
        assert peak <= out.nbytes + times.nbytes + 64 * 1024

    def test_exact_on_every_grid(self):
        # jump operator sqrt(gamma)|g><e|:
        # rho_ee(t) = cos^2(theta/2) e^{-2 gamma t}, whatever the step
        gamma, theta = 0.3, 1.1
        model = LindbladModel(hs=h_system(1.0), jump_ops=[
            np.sqrt(gamma) * SIGMA_MINUS])
        psi = psi_initial(theta)
        for n in (1, 16, 32, 64, 128, 256):
            times, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                             2.0 * np.pi, n)
            exact = np.cos(theta / 2.0) ** 2 * np.exp(-2.0 * gamma * times)
            assert np.abs(rhos[:, 1, 1].real - exact).max() < 1e-15


class TestExpm:
    @staticmethod
    def generators():
        rng = np.random.default_rng(9)
        jumps = [0.6 * random_complex(2, rng) for _ in range(2)]
        return {
            "se_thermal": liouvillian(se_lindblad_model(TwoLevelAtomParams(
                omega=1.0, gamma0=0.05, n_thermal=0.4))),
            "pd": liouvillian(pd_lindblad_model(PhaseDampingParams(
                omega=1.0, alpha=0.4))),
            "random_jumps": liouvillian(LindbladModel(hs=h_system(1.0),
                                                      jump_ops=jumps)),
        }

    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
                                      1e3])
    @pytest.mark.parametrize("name", ["se_thermal", "pd", "random_jumps"])
    def test_matches_scipy(self, name, norm):
        l = self.generators()[name]
        a = l * (norm / np.abs(l).sum(axis=0).max())
        # the squarings carry rounding that grows with ||a||, in scipy's
        # result too: at ||a|| = 1e3 it is 1.3e-14 off the exact
        # exponential of the thermal SE generator (50-digit mpmath)
        tol = 1e-14 * max(1.0, norm / 100.0)
        assert np.max(np.abs(_expm(a) - scipy.linalg.expm(a))) < tol

    def test_zero_is_the_identity(self):
        assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex)),
                              np.eye(4))


class TestNodeTimes:
    def test_spacing(self):
        assert np.array_equal(_node_times(1.0, 4, np.arange(5)),
                              [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t_end", [
        2.0 * np.pi, 17.0, 5, 2e-300, 5e-324])  # the last step underflows
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 1000, 16384, 2**20])
    def test_node_times_are_linspace_bits(self, t_end, n):
        times = np.linspace(0.0, t_end, n + 1)
        nodes = np.unique(np.r_[0:min(n, 300), n - 1:n + 1,
                                np.arange(0, n, max(1, n // 256))])
        assert np.array_equal(_node_times(t_end, n, nodes), times[nodes])
        assert _node_times(t_end, n, n) == t_end


class TestApplyKraus:
    def test_single_unitary_element(self):
        u = random_unitary(2)
        channel = KrausChannel(weights=[1.0], operators=lambda t: u[None])
        rho0 = np.diag([0.2, 0.8]).astype(complex)
        assert np.linalg.norm(apply_kraus(channel, rho0, 1.0)
                              - u @ rho0 @ u.conj().T) < 1e-12

    def test_incomplete_channel_rejected(self):
        channel = KrausChannel(weights=[0.5],
                               operators=lambda t: np.eye(2)[None])
        with pytest.raises(InvalidChannel):
            apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 1.0)

    def test_nan_element_rejected(self):
        # a NaN defect passes "defect > tol"; the channel must still fail
        nan = np.full((2, 2), np.nan)
        channel = KrausChannel(weights=[1.0], operators=lambda t: nan[None])
        with pytest.raises(InvalidChannel):
            apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 1.0)

    def test_weights_and_stack_must_match(self):
        # einsum would broadcast a one-operator stack over both weights
        channel = KrausChannel(weights=[0.5, 0.5],
                               operators=lambda t: np.eye(2)[None])
        with pytest.raises(DimensionError):
            apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 1.0)
        with pytest.raises(DimensionError):
            KrausChannel(weights=[1.0],
                         operators=lambda t: np.eye(2)).completeness_defect(0.0)

    def test_completeness_defect(self):
        channel = KrausChannel(weights=[1.0],
                               operators=lambda t: np.eye(2)[None])
        assert channel.completeness_defect(0.7) < 1e-15

    def test_operators_evaluated_once(self):
        # the completeness check and the product share one stack
        times = []

        def operators(t):
            times.append(t)
            return np.eye(2)[None]

        channel = KrausChannel(weights=[1.0], operators=operators)
        apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 0.3)
        assert times == [0.3]


def _joint_setup(g, theta=np.pi / 3, omega=1.0, bath_omega=2.0):
    """Reservoir, system state, the spectrum of the constant joint
    Hamiltonian and one period, for an XX coupling of strength g."""
    res = ReservoirSpec(probs=[0.7, 0.3], states=np.eye(2, dtype=complex),
                        energies=[0.0, bath_omega])
    h = (np.kron(-0.5 * omega * SIGMA_Z, np.eye(2))
         + np.kron(np.eye(2), np.diag([0.0, bath_omega]))
         - g * np.kron(SIGMA_X, SIGMA_X))
    sys = SystemEnsemble.pure(psi_initial(theta))
    return res, sys, eigh_hermitian(h), 2.0 * np.pi / omega


class TestConditionalTrajectories:
    def test_uncoupled_limit(self):
        res, sys, spectrum, t_end = _joint_setup(0.0)
        weights, family = spectral_conditional_trajectories(
            spectrum, res, sys, t_end)
        times = np.linspace(0.0, t_end, 257)
        psi, _ = family.states(times)
        assert len(psi) == 2
        # every trajectory is e^{-i E_r t} U_S(t)|psi_s>; strip the reservoir
        # phase and the branches coincide
        phase = np.exp(1j * 2.0 * times)[:, None]
        assert np.allclose(psi[0], phase * psi[1], atol=1e-12)
        assert np.allclose(weights, [0.7, 0.3])

    def test_initial_states(self):
        res, sys, spectrum, t_end = _joint_setup(0.2)
        _, family = spectral_conditional_trajectories(
            spectrum, res, sys, t_end)
        for psi0 in family.states(np.array([0.0]))[0][:, 0]:
            assert np.allclose(psi0, sys.states[0], atol=1e-12)

    def test_dimension_mismatch(self):
        res, sys, _, t_end = _joint_setup(0.1)
        with pytest.raises(DimensionError):
            spectral_conditional_trajectories(eigh_hermitian(SIGMA_Z), res,
                                              sys, t_end)

    def test_perturbative_cross_oracle(self):
        # small energy-exchange coupling: exact conditional GP matches the
        # second-order formula within O(g^2) of the leading O(g^2) correction
        from gpdist.distribution import build_distribution, moments
        from gpdist.weakcoupling import (WeakCouplingModel, build_AB,
                                         delta_z_from_b)

        g = 0.05
        res, sys, spectrum, t_end = _joint_setup(g)
        weights, family = spectral_conditional_trajectories(
            spectrum, res, sys, t_end)
        rep = moments(build_distribution(weights, family))
        model = WeakCouplingModel(
            hs=h_system(1.0), couplings=[(g * SIGMA_X, SIGMA_X)], res=res)
        dz = delta_z_from_b(*build_AB(model, t_end), model.hs,
                            psi_initial(np.pi / 3))
        beta0 = 2.0 * np.pi * np.sin(np.pi / 6.0) ** 2
        exact_corr = rep.mean_gp_z - beta0
        assert exact_corr == pytest.approx(np.imag(dz), abs=20.0 * g**4)

    @pytest.mark.parametrize("probs, sys_probs, kept", [
        ([1.0, 0.0], [1.0, 0.0], [0]), ([0.7, 0.3], [0.0, 1.0], [1, 3])],
        ids=["reservoir", "system"])
    def test_zero_weight_members_are_left_out(self, probs, sys_probs, kept):
        # a state of probability zero adds no member; the others are the
        # members of a fully populated ensemble over the same states
        _, _, spectrum, t_end = _joint_setup(0.25, bath_omega=1.0)
        states = [psi_initial(0.0), psi_initial(1.1)]

        def family(p, q):
            res = ReservoirSpec(probs=p, states=np.eye(2, dtype=complex),
                                energies=[0.0, 1.0])
            return spectral_conditional_trajectories(
                spectrum, res, SystemEnsemble(probs=q, states=states),
                t_end)

        weights, fam = family(probs, sys_probs)
        _, full = family([0.6, 0.4], [0.5, 0.5])
        times = np.array([0.0, 1.0, 0.5 * t_end, t_end])
        assert list(weights) == [p * q for p in probs for q in sys_probs
                                 if p * q > 0]
        for got, ref in zip(fam.states(times), full.states(times)):
            assert len(got) == len(kept)
            assert np.abs(got - ref[kept]).max() <= 1e-15

    def test_spectral_route_matches_propagator_stack(self):
        # one eigendecomposition of the constant joint H against
        # scipy's expm(-i h t) at every grid time
        rng = np.random.default_rng(11)
        dim_r = 3
        hr = np.diag([0.0, 0.7, 1.9]).astype(complex)
        w = rng.normal(size=(dim_r, dim_r)) + 1j * rng.normal(size=(dim_r, dim_r))
        h = (np.kron(-0.5 * SIGMA_Z, np.eye(dim_r)) + np.kron(np.eye(2), hr)
             - 0.2 * np.kron(SIGMA_X, w + w.conj().T))
        res = ReservoirSpec(probs=[0.5, 0.3, 0.2],
                            states=random_unitary(dim_r, rng),
                            energies=[0.0, 0.7, 1.9], orthonormal=True)
        sys = SystemEnsemble(probs=[0.8, 0.2],
                             states=[psi_initial(1.1), psi_initial(0.4)])
        times = np.linspace(0.0, 2.0 * np.pi, 4097)
        us = scipy.linalg.expm(-1j * h[None] * times[:, None, None])
        weights, family = spectral_conditional_trajectories(
            eigh_hermitian(h), res, sys, times[-1])
        assert list(weights) == [p * q for p in res.probs for q in sys.probs]
        psi, dpsi = family.states(times)
        # psi is <r|U(t)|psi_s r> and dpsi is <r|(-i h) U(t)|psi_s r>, with
        # psi_s fastest
        pairs = [(r, s) for r in res.states for s in sys.states]
        for got, got_d, (r, s) in zip(psi, dpsi, pairs):
            x = us @ np.kron(s, r)
            ref = x.reshape(-1, 2, dim_r) @ r.conj()
            ref_d = (-1j * x @ h.T).reshape(-1, 2, dim_r) @ r.conj()
            assert np.abs(got - ref).max() <= 1e-10
            assert np.abs(got_d - ref_d).max() <= 1e-10


class TestPositivity:
    def test_evolved_density_positive(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.1,
                                                     n_thermal=0.5))
        psi = psi_initial(np.pi / 3)
        _, rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                     2.0 * np.pi, 1024)
        for rho in rhos[::64]:
            assert np.linalg.eigvalsh(rho).min() > -1e-9
