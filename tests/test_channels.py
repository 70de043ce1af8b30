"""Open-system dynamics: Lindblad integration, Kraus maps, conditional
trajectories, and the reservoir-adapted basis."""

import warnings

import numpy as np
import pytest

from gpdist.channels import (
    KrausChannel,
    LindbladModel,
    ReservoirSpec,
    SystemEnsemble,
    adapted_basis,
    apply_kraus,
    conditional_kraus_elements,
    conditional_trajectories,
    integrate_lindblad,
    lindblad_rhs,
    liouvillian,
    reduced_density_from_elements,
    spectral_conditional_trajectories,
)
from gpdist.errors import (
    DimensionError,
    IntegrationDiverged,
    InvalidChannel,
    InvalidOperand,
    InvalidState,
)
from gpdist.hilbert import (
    SIGMA_X,
    SIGMA_Z,
    Schedule,
    TimeGrid,
    partial_trace_reservoir,
    time_ordered_propagator,
)
from gpdist.models import (
    TwoLevelAtomParams,
    hs_schedule,
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


def rk4_oracle(model, rho0, grid):
    """Step-by-step classical RK4 over ``lindblad_rhs``, symmetrized after
    every step."""
    rho, dt = np.asarray(rho0, dtype=complex), grid.dt
    out = [rho]
    for t in grid.times[:-1]:
        k1 = lindblad_rhs(rho, model, t)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, model, t + 0.5 * dt)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, model, t + 0.5 * dt)
        k4 = lindblad_rhs(rho + dt * k3, model, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        out.append(rho)
    return np.array(out)


class TestReservoirSpec:
    def test_valid_and_blocks(self):
        res = ReservoirSpec(probs=[0.5, 0.3, 0.2],
                            states=np.eye(3, dtype=complex),
                            energies=[0.0, 1.0, 1.0])
        assert res.dim == 3
        assert res.blocks() == [[0], [1, 2]]
        assert np.allclose(res.density_matrix(), np.diag([0.5, 0.3, 0.2]))
        assert np.allclose(res.block_density([1, 2]), np.diag([0.0, 0.3, 0.2]))

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
        model = LindbladModel(hs=Schedule.constant(SIGMA_Z))
        rho = np.diag([0.3, 0.7]).astype(complex)  # commutes with sz
        assert np.linalg.norm(lindblad_rhs(rho, model, 0.0)) < 1e-14

    def test_hermitian_jump_on_maximally_mixed(self):
        model = LindbladModel(hs=Schedule.constant(np.zeros((2, 2))),
                              jump_ops=[0.7 * SIGMA_Z])
        rho = 0.5 * np.eye(2, dtype=complex)
        assert np.linalg.norm(lindblad_rhs(rho, model, 0.0)) < 1e-14

    def test_two_level_atom_populations(self):
        # hand 2x2 oracle: from |e><e|, pop_e rate -2 g0 (n+1), pop_g gains it
        g0, n = 0.25, 0.5
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=g0,
                                                     n_thermal=n))
        rho = np.diag([0.0, 1.0]).astype(complex)
        rhs = lindblad_rhs(rho, model, 0.0)
        assert rhs[1, 1].real == pytest.approx(-2.0 * g0 * (n + 1.0))
        assert rhs[0, 0].real == pytest.approx(2.0 * g0 * (n + 1.0))
        assert abs(np.trace(rhs)) < 1e-14
        assert np.linalg.norm(rhs - rhs.conj().T) < 1e-14


class TestLindbladModel:
    def test_jump_operator_wrong_shape(self):
        with pytest.raises(DimensionError):
            LindbladModel(hs=hs_schedule(1.0), jump_ops=[np.eye(3)])

    def test_jump_operator_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(InvalidOperand):
            LindbladModel(hs=hs_schedule(1.0), jump_ops=[bad])


class TestLiouvillian:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_rhs_and_commutator_form(self, dim):
        rng = np.random.default_rng(11 + dim)
        h = random_complex(dim, rng)
        h = h + h.conj().T
        dh = random_complex(dim, rng)
        jumps = [random_complex(dim, rng) for _ in range(2)]
        model = LindbladModel(hs=Schedule.constant(h), jump_ops=jumps,
                              delta_h=dh + dh.conj().T)
        rho = random_complex(dim, rng)
        lhs = liouvillian(model, h) @ rho.reshape(-1)
        assert np.max(np.abs(lhs - lindblad_rhs(rho, model, 0.3).reshape(-1))
                      ) < 1e-14
        # the master equation written out as commutator plus dissipators
        hh = h + model.delta_h
        ref = -1j * (hh @ rho - rho @ hh)
        for l in jumps:
            ldl = l.conj().T @ l
            ref -= ldl @ rho + rho @ ldl - 2.0 * l @ rho @ l.conj().T
        assert np.max(np.abs(lhs - ref.reshape(-1))) < 1e-14


class TestIntegrateLindblad:
    def test_closed_system_matches_propagator(self):
        h = Schedule.constant(-0.5 * SIGMA_Z)
        model = LindbladModel(hs=h)
        psi = psi_initial(np.pi / 3)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid(0.0, 2.0 * np.pi, 2048)
        rhos = integrate_lindblad(model, rho0, grid)
        us = time_ordered_propagator(h, grid)
        ref = us[-1] @ rho0 @ us[-1].conj().T
        assert np.linalg.norm(rhos[-1] - ref) < 1e-8

    def test_spontaneous_emission_decay(self):
        # scalar ODE oracle in this convention: rho_ee(t) = e^{-2 g0 t}
        g0 = 0.3
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=g0))
        grid = TimeGrid(0.0, 2.0, 1024)
        rhos = integrate_lindblad(model, np.diag([0.0, 1.0]).astype(complex),
                                  grid)
        assert rhos[-1][1, 1].real == pytest.approx(np.exp(-2.0 * g0 * 2.0),
                                                    abs=1e-9)

    def test_phase_damping_coherence_decay(self):
        # scalar ODE oracle: rho_ge decays as e^{-alpha t}
        al = 0.4
        model = pd_lindblad_model(PhaseDampingParams(omega=1.0, alpha=al))
        psi = psi_initial(np.pi / 2)
        grid = TimeGrid(0.0, 2.0, 1024)
        rhos = integrate_lindblad(model, np.outer(psi, psi.conj()), grid)
        assert abs(rhos[-1][0, 1]) == pytest.approx(
            0.5 * np.exp(-al * 2.0), abs=1e-9)

    def test_trace_preservation(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.2,
                                                     n_thermal=1.0))
        psi = psi_initial(np.pi / 3)
        rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                  TimeGrid(0.0, 2.0 * np.pi, 512))
        traces = np.array([np.trace(r).real for r in rhos])
        assert np.max(np.abs(traces - 1.0)) < 1e-9

    def test_divergence_detected(self):
        # stiff rate: ||L||^2 dt >> 1 destabilizes RK4 until trace drifts
        stiff = LindbladModel(
            hs=hs_schedule(1.0),
            jump_ops=[30.0 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)],
        )
        with pytest.raises(IntegrationDiverged):
            integrate_lindblad(stiff, np.diag([0.0, 1.0]).astype(complex),
                               TimeGrid(0.0, 2.0 * np.pi, 16))

    def test_overflow_is_divergence_without_warnings(self):
        # the step map overflows to inf/nan; the trace check must catch a
        # NaN trace instead of returning NaN rows
        huge = LindbladModel(
            hs=hs_schedule(1.0),
            jump_ops=[1e80 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDiverged):
                integrate_lindblad(huge, np.diag([0.0, 1.0]).astype(complex),
                                   TimeGrid(0.0, 2.0 * np.pi, 4096))

    def test_thermal_se_matches_stepwise_rk4(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.05,
                                                     n_thermal=0.4))
        psi = psi_initial(1.1)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid(0.0, 2.0 * np.pi, 4096)
        rhos = integrate_lindblad(model, rho0, grid)
        assert np.max(np.abs(rhos - rk4_oracle(model, rho0, grid))) < 1e-12

    def test_time_dependent_schedule_matches_stepwise_rk4(self):
        hs = Schedule(evaluator=lambda t: (-0.5 * (1.0 + 0.3 * np.sin(t))
                                           * SIGMA_Z + 0.2 * SIGMA_X), dim=2)
        model = LindbladModel(
            hs=hs, jump_ops=[0.2 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                             0.1 * SIGMA_Z])
        psi = psi_initial(0.7)
        rho0 = np.outer(psi, psi.conj())
        grid = TimeGrid(0.0, 2.0 * np.pi, 512)
        rhos = integrate_lindblad(model, rho0, grid)
        assert np.max(np.abs(rhos - rk4_oracle(model, rho0, grid))) < 1e-12


class TestApplyKraus:
    def test_single_unitary_element(self):
        u = random_unitary(2)
        channel = KrausChannel(elements=[(1.0, lambda t: u)], dim=2)
        rho0 = np.diag([0.2, 0.8]).astype(complex)
        assert np.linalg.norm(apply_kraus(channel, rho0, 1.0)
                              - u @ rho0 @ u.conj().T) < 1e-12

    def test_incomplete_channel_rejected(self):
        channel = KrausChannel(elements=[(0.5, lambda t: np.eye(2))], dim=2)
        with pytest.raises(InvalidChannel):
            apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 1.0)

    def test_nan_element_rejected(self):
        # a NaN defect passes "defect > tol"; the channel must still fail
        nan = np.full((2, 2), np.nan)
        channel = KrausChannel(elements=[(1.0, lambda t: nan)], dim=2)
        with pytest.raises(InvalidChannel):
            apply_kraus(channel, 0.5 * np.eye(2, dtype=complex), 1.0)

    def test_completeness_defect(self):
        channel = KrausChannel(elements=[(1.0, lambda t: np.eye(2))], dim=2)
        assert channel.completeness_defect(0.7) < 1e-15


class TestAdaptedBasis:
    def test_standard_vector(self):
        e0 = np.zeros(3)
        e0[0] = 1.0
        basis = adapted_basis(e0, 3)
        assert np.allclose(np.abs(basis), np.eye(3))

    def test_superposition(self):
        r = np.array([1.0, 1.0]) / np.sqrt(2.0)
        basis = adapted_basis(r, 2)
        assert np.allclose(basis[0], r)
        assert abs(np.vdot(basis[1], r)) < 1e-12

    def test_random_gram_identity(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=5) + 1j * rng.normal(size=5)
        r /= np.linalg.norm(r)
        basis = adapted_basis(r, 5)
        gram = basis.conj() @ basis.T
        assert np.linalg.norm(gram - np.eye(5)) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidState):
            adapted_basis(np.zeros(3), 3)


def _joint_setup(g, n_steps=1024, theta=np.pi / 3, omega=1.0, bath_omega=2.0):
    res = ReservoirSpec(probs=[0.7, 0.3], states=np.eye(2, dtype=complex),
                        energies=[0.0, bath_omega])
    hr = np.diag([0.0, bath_omega]).astype(complex)
    h_i = -g * np.kron(SIGMA_X, SIGMA_X)
    sched = Schedule(
        evaluator=lambda t: (np.kron(-0.5 * omega * SIGMA_Z, np.eye(2))
                             + np.kron(np.eye(2), hr) + h_i),
        dim=4,
    )
    grid = TimeGrid(0.0, 2.0 * np.pi / omega, n_steps)
    us = time_ordered_propagator(sched, grid)
    sys = SystemEnsemble.pure(psi_initial(theta))
    return res, sys, us, grid


class TestConditionalTrajectories:
    def test_uncoupled_limit(self):
        res, sys, us, grid = _joint_setup(0.0, n_steps=256)
        trajs = conditional_trajectories(us, res, sys, grid)
        assert len(trajs) == 2
        # every trajectory is e^{-i E_r t} U_S(t)|psi_s>; strip the reservoir
        # phase and the branches coincide
        phase = np.exp(1j * 2.0 * grid.times)[:, None]
        assert np.allclose(trajs[0][1].states, phase * trajs[1][1].states,
                           atol=1e-12)
        assert np.allclose([w for w, _ in trajs], [0.7, 0.3])

    def test_initial_states(self):
        res, sys, us, grid = _joint_setup(0.2, n_steps=128)
        for _, traj in conditional_trajectories(us, res, sys, grid):
            assert np.allclose(traj.states[0], sys.states[0], atol=1e-12)

    def test_dimension_mismatch(self):
        res, sys, us, grid = _joint_setup(0.1, n_steps=8)
        with pytest.raises(DimensionError):
            conditional_trajectories(us[:, :2, :2], res, sys, grid)

    def test_perturbative_cross_oracle(self):
        # small energy-exchange coupling: exact conditional GP matches the
        # second-order formula within O(g^2) of the leading O(g^2) correction
        from gpdist.distribution import build_distribution, moments
        from gpdist.weakcoupling import WeakCouplingModel, build_AB, delta_z

        g = 0.05
        res, sys, us, grid = _joint_setup(g, n_steps=2048)
        dist = build_distribution(
            conditional_trajectories(us, res, sys, grid), kind="z")
        rep = moments(dist, n_max=1)
        model = WeakCouplingModel(
            hs=hs_schedule(1.0), hr=np.diag([0.0, 2.0]).astype(complex),
            couplings=[(g * SIGMA_X, SIGMA_X)], res=res,
            psi_s=psi_initial(np.pi / 3))
        ops = build_AB(model, grid)
        dz = delta_z(ops, model)
        beta0 = 2.0 * np.pi * np.sin(np.pi / 6.0) ** 2
        exact_corr = rep.mean_gp_z - beta0
        assert exact_corr == pytest.approx(np.imag(dz), abs=20.0 * g**4)


    def test_spectral_route_matches_propagator_stack(self):
        # one eigendecomposition of the constant joint H against the
        # midpoint product of an evaluator schedule, which is exact for a
        # constant H up to the rounding of its 4096 steps
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
        grid = TimeGrid(0.0, 2.0 * np.pi, 4096)
        us = time_ordered_propagator(Schedule(evaluator=lambda t: h, dim=6),
                                     grid)
        ref = conditional_trajectories(us, res, sys, grid)
        got, u_fin = spectral_conditional_trajectories(h, res, sys, grid)
        assert [w for w, _ in got] == [w for w, _ in ref]
        worst = max(np.abs(a.states - b.states).max()
                    for (_, a), (_, b) in zip(got, ref))
        assert worst <= 1e-10
        assert np.linalg.norm(u_fin - us[-1]) <= 1e-10


class TestResummation:
    def test_reduced_dynamics_consistency(self):
        # all adapted-basis Kraus elements resum to Tr_R(U rho U^dag)
        res, sys, us, grid = _joint_setup(0.4, n_steps=256)
        elements = conditional_kraus_elements(us, res, sys.states.shape[1])
        rho_s0 = np.outer(sys.states[0], sys.states[0].conj())
        node = grid.n_steps  # final time
        got = reduced_density_from_elements(elements, sys, node)
        rho_joint0 = sum(
            p * np.kron(rho_s0, np.outer(r, r.conj()))
            for p, r in zip(res.probs, res.states))
        u = us[node]
        ref = partial_trace_reservoir(u @ rho_joint0 @ u.conj().T, 2, 2)
        assert np.linalg.norm(got - ref) < 1e-10

    def test_discarded_elements_start_at_zero(self):
        res, sys, us, grid = _joint_setup(0.3, n_steps=64)
        for _, seqs in conditional_kraus_elements(us, res, 2):
            for seq in seqs[1:]:
                assert np.linalg.norm(seq[0]) < 1e-12


class TestPositivity:
    def test_evolved_density_positive(self):
        model = se_lindblad_model(TwoLevelAtomParams(omega=1.0, gamma0=0.1,
                                                     n_thermal=0.5))
        psi = psi_initial(np.pi / 3)
        rhos = integrate_lindblad(model, np.outer(psi, psi.conj()),
                                  TimeGrid(0.0, 2.0 * np.pi, 1024))
        for rho in rhos[::64]:
            assert np.linalg.eigvalsh(rho).min() > -1e-9
