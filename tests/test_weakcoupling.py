"""Second-order perturbation theory: A, B, the Lindblad identification, the
phase-correction functional, and the coupling-condition guard."""

import numpy as np
import pytest

from gpdist.channels import ReservoirSpec
from gpdist.errors import (
    InconsistentModel,
    InvalidOperand,
    RCondViolated,
    UndefinedGP,
)
from gpdist.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, Schedule, TimeGrid
from gpdist.models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    hs_schedule,
    pd_weak_coupling_model,
    psi_initial,
    se_effective_b_blocks,
    se_weak_coupling_model,
)
from gpdist.weakcoupling import (
    WeakCouplingModel,
    build_AB,
    delta_z,
    delta_z_from_b,
    lindblad_identification,
    perturbative_moments,
    reservoir_average_b,
)

PROJ_G = np.diag([1.0, 0.0]).astype(complex)
PROJ_E = np.diag([0.0, 1.0]).astype(complex)


def vacuum_qubit_res(energy=2.0):
    return ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                         energies=[0.0, energy])


def zero_hamiltonian_model(r_op, s_op, probs=(1.0, 0.0)):
    res = ReservoirSpec(probs=list(probs), states=np.eye(2, dtype=complex),
                        energies=[0.0, 0.0])
    return WeakCouplingModel(
        hs=Schedule.constant(np.zeros((2, 2))),
        hr=np.zeros((2, 2), dtype=complex),
        couplings=[(r_op, s_op)], res=res,
        psi_s=np.array([1.0, 0.0], dtype=complex))


class TestModelValidation:
    def test_dimension_mismatch(self):
        from gpdist.errors import DimensionError

        res = vacuum_qubit_res()
        with pytest.raises(DimensionError):
            WeakCouplingModel(hs=hs_schedule(1.0),
                              hr=np.zeros((3, 3), dtype=complex),
                              couplings=[], res=res,
                              psi_s=psi_initial(0.5))

    def test_non_hermitian_interaction(self):
        with pytest.raises(InvalidOperand):
            zero_hamiltonian_model(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   SIGMA_X)

    def test_rcond_defect(self):
        # off-diagonal reservoir coupling on a diagonal mixture: defect 0
        model = zero_hamiltonian_model(SIGMA_X, SIGMA_X)
        assert model.rcond_defect() < 1e-14
        diag = zero_hamiltonian_model(SIGMA_Z, SIGMA_Z)
        assert diag.rcond_defect() == pytest.approx(1.0)
        with pytest.raises(RCondViolated):
            diag.require_rcond()

    def test_unpopulated_states_ignored(self):
        # <r|R|r> != 0 only on a zero-probability state is acceptable
        model = zero_hamiltonian_model(np.diag([0.0, 3.0]).astype(complex),
                                       SIGMA_Z, probs=(1.0, 0.0))
        assert model.rcond_defect() < 1e-14


class TestBuildAB:
    def test_zero_interaction(self):
        model = zero_hamiltonian_model(0.0 * SIGMA_X, SIGMA_X)
        ops = build_AB(model, TimeGrid(0.0, 1.0, 64))
        assert np.linalg.norm(ops.a) < 1e-14
        assert np.linalg.norm(ops.b) < 1e-14

    def test_constant_integrand(self):
        # zero Hamiltonians: H~ = h constant, A = -i h t, B = -h^2 t^2 / 2
        g = 0.3
        model = zero_hamiltonian_model(g * SIGMA_X, SIGMA_X)
        grid = TimeGrid(0.0, 2.0, 256)
        ops = build_AB(model, grid)
        h = -g * np.kron(SIGMA_X, SIGMA_X)
        assert np.linalg.norm(ops.a[-1] - (-1j * h * 2.0)) < 1e-12
        # inner cumulative integral is linear, outer integrand is linear in
        # t, so both trapezoids are exact for a constant coupling
        assert np.linalg.norm(ops.b[-1] - (-0.5 * h @ h * 4.0)) < 1e-10
        assert np.linalg.norm(ops.a[0]) < 1e-15
        assert np.linalg.norm(ops.b[0]) < 1e-15

    def test_a_anti_hermitian(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.0, theta=np.pi / 3)
        model = se_weak_coupling_model(p, dim_bath=3, g=0.2)
        ops = build_AB(model, TimeGrid(0.0, 2.0 * np.pi, 128))
        for a in ops.a[::16]:
            assert np.linalg.norm(a + a.conj().T) < 1e-12

    def test_analytic_interaction_picture_integral(self):
        # S = sz commutes with H_S, R = sx rotates under H_R = (Om/2) sz:
        # A(t) has the closed form of the integrated rotating coupling
        om_r = 1.3
        g = 0.4
        res = vacuum_qubit_res()
        model = WeakCouplingModel(
            hs=hs_schedule(1.0), hr=0.5 * om_r * SIGMA_Z,
            couplings=[(g * SIGMA_X, SIGMA_Z)], res=res,
            psi_s=psi_initial(np.pi / 3))
        grid = TimeGrid(0.0, 2.0 * np.pi, 65536)
        ops = build_AB(model, grid)
        t = grid.t_end
        # U_R^dag sx U_R = cos(Om t) sx - sin(Om t) sy for H_R = (Om/2) sz
        int_sx = np.sin(om_r * t) / om_r
        int_sy = (np.cos(om_r * t) - 1.0) / om_r
        a_ref = -1j * (-g) * np.kron(SIGMA_Z,
                                     int_sx * SIGMA_X - int_sy * SIGMA_Y)
        assert np.linalg.norm(ops.a[-1] - a_ref) < 1e-8

    def test_h_tilde_matches_expm_interaction_picture(self):
        # U_0^dag H_I U_0 with U_0 = expm(-i H_0 t), H_0 = H_S x 1 + 1 x H_R,
        # for a non-diagonal H_S and an H_R with a degenerate pair
        import scipy.linalg

        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        energies = [0.4, 1.1, 1.1]
        hr = q @ np.diag(energies) @ q.conj().T
        res = ReservoirSpec(probs=[0.5, 0.3, 0.2], states=q.T,
                            energies=energies)
        w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = WeakCouplingModel(
            hs=Schedule.constant(0.6 * SIGMA_X + 0.3 * SIGMA_Z), hr=hr,
            couplings=[(0.2 * (w + w.conj().T), SIGMA_X),
                       (0.1 * hr, SIGMA_Y)],
            res=res, psi_s=psi_initial(0.7))
        grid = TimeGrid(0.0, 2.0, 16)
        h_tilde = build_AB(model, grid).h_tilde()
        h0 = np.kron(model.hs.matrix, np.eye(3)) + np.kron(np.eye(2), hr)
        for k in (0, 5, 11, 16):
            u0 = scipy.linalg.expm(-1j * h0 * grid.times[k])
            ref = u0.conj().T @ model.h_interaction() @ u0
            assert np.linalg.norm(h_tilde[k] - ref) <= 1e-12

    def test_b_refinement_convergence(self):
        om_r = 2.0
        res = vacuum_qubit_res()
        model = WeakCouplingModel(
            hs=hs_schedule(1.0), hr=0.5 * om_r * SIGMA_Z,
            couplings=[(0.4 * SIGMA_X, SIGMA_Z)], res=res,
            psi_s=psi_initial(np.pi / 3))
        ref = build_AB(model, TimeGrid(0.0, 2.0 * np.pi, 16384)).b[-1]
        errs = [np.linalg.norm(build_AB(model,
                                        TimeGrid(0.0, 2.0 * np.pi, n)).b[-1]
                               - ref)
                for n in (512, 1024)]
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestLindbladIdentification:
    def test_zero_coupling(self):
        grid = TimeGrid(0.0, 1.0, 64)
        b_avg = np.zeros((65, 2, 2), dtype=complex)
        us = np.tile(np.eye(2, dtype=complex), (65, 1, 1))
        dh, ldl = lindblad_identification(b_avg, us, grid)
        assert np.linalg.norm(dh) < 1e-14
        assert np.linalg.norm(ldl) < 1e-14

    @pytest.mark.parametrize("n_thermal", [0.0, 1.5])
    def test_two_level_atom_structure(self, n_thermal):
        # <B>_R = -gamma0 (|e><e| + n) t identifies Sum L^dag L =
        # gamma0(n+1)|e><e| + gamma0 n |g><g| and Delta H = 0
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.25, n_thermal=n_thermal)
        grid = TimeGrid(0.0, 2.0 * np.pi, 256)
        b_avg = se_effective_b_blocks(p, grid)
        us = np.array([np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
                       for t in grid.times])
        dh, ldl = lindblad_identification(b_avg, us, grid)
        ref = (p.gamma0 * (n_thermal + 1.0) * PROJ_E
               + p.gamma0 * n_thermal * PROJ_G)
        assert np.linalg.norm(ldl - ref) < 1e-10
        assert np.linalg.norm(dh) < 1e-10

    def test_negative_dissipator_rejected(self):
        grid = TimeGrid(0.0, 1.0, 64)
        b_avg = np.array([0.3 * t * PROJ_E for t in grid.times])
        us = np.tile(np.eye(2, dtype=complex), (65, 1, 1))
        with pytest.raises(InconsistentModel):
            lindblad_identification(b_avg, us, grid)


class TestDeltaZ:
    def test_zero_interaction(self):
        model = zero_hamiltonian_model(0.0 * SIGMA_X, SIGMA_X)
        grid = TimeGrid(0.0, 1.0, 128)
        ops = build_AB(model, grid)
        assert abs(delta_z(ops, model)) < 1e-13

    @pytest.mark.parametrize("n_thermal", [0.0, 1.0, 5.0])
    def test_spontaneous_emission_phase_correction(self, n_thermal):
        # effective <r|B|r> blocks reproduce Im<DeltaZ> = pi^2 (g0/w) sin^2
        p = TwoLevelAtomParams(omega=1.0, gamma0=1e-3, n_thermal=n_thermal,
                               theta=np.pi / 3)
        grid = TimeGrid(0.0, p.period, 4096)
        blk = se_effective_b_blocks(p, grid)
        t = grid.t_end
        u_fin = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        psi = psi_initial(p.theta)
        hs = -0.5 * SIGMA_Z
        dz = delta_z_from_b(blk, u_fin, hs, psi, grid.dt)
        ref = np.pi**2 * p.gamma0 * np.sin(p.theta) ** 2
        assert np.imag(dz) == pytest.approx(ref, abs=1e-8)

    def test_temperature_independence_exact_arithmetic(self):
        vals = []
        for n in (0.0, 1.0, 5.0):
            p = TwoLevelAtomParams(omega=1.0, gamma0=1e-3, n_thermal=n,
                                   theta=np.pi / 3)
            grid = TimeGrid(0.0, p.period, 1024)
            blk = se_effective_b_blocks(p, grid)
            t = grid.t_end
            u_fin = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
            psi = psi_initial(p.theta)
            hs = -0.5 * SIGMA_Z
            vals.append(np.imag(delta_z_from_b(blk, u_fin, hs, psi,
                                               grid.dt)))
        assert abs(vals[1] - vals[0]) < 1e-12
        assert abs(vals[2] - vals[0]) < 1e-12

    def test_rcond_guard(self):
        pd = pd_weak_coupling_model(PhaseDampingParams(omega=1.0, alpha=0.01))
        grid = TimeGrid(0.0, 2.0 * np.pi, 64)
        ops = build_AB(pd, grid)
        with pytest.raises(RCondViolated):
            delta_z(ops, pd)
        se = se_weak_coupling_model(TwoLevelAtomParams(omega=1.0, gamma0=0.0),
                                    dim_bath=3, g=0.1)
        ops = build_AB(se, grid)
        delta_z(ops, se)  # must not raise

    def test_vanishing_system_expectation(self):
        model = zero_hamiltonian_model(0.1 * SIGMA_X, SIGMA_X)
        grid = TimeGrid(0.0, 1.0, 32)
        ops = build_AB(model, grid)
        # replace the system propagator so <psi|U_S|psi> = 0
        b_avg = reservoir_average_b(ops, model.res)
        with pytest.raises(UndefinedGP):
            delta_z_from_b(b_avg, SIGMA_X, model.hs.matrix, model.psi_s,
                           grid.dt)

    def test_depends_only_on_b(self):
        # the correction never references A: mutating A leaves it unchanged
        se = se_weak_coupling_model(TwoLevelAtomParams(omega=1.0, gamma0=0.0,
                                                       theta=1.0),
                                    dim_bath=3, g=0.2)
        grid = TimeGrid(0.0, 2.0 * np.pi, 256)
        ops = build_AB(se, grid)
        before = delta_z(ops, se)
        ops.a[:] = 0.0
        assert delta_z(ops, se) == before

    def test_reservoir_redecomposition_invariance(self):
        # Tr(rho_R B) is basis independent inside degenerate blocks
        from gpdist.distribution import redecompose

        res = ReservoirSpec(probs=[0.6, 0.4], states=np.eye(2, dtype=complex),
                            energies=[1.0, 1.0])
        model = WeakCouplingModel(
            hs=hs_schedule(1.0), hr=np.eye(2, dtype=complex),
            couplings=[(0.2 * SIGMA_X, SIGMA_X)], res=res,
            psi_s=psi_initial(np.pi / 3))
        grid = TimeGrid(0.0, 2.0 * np.pi, 512)
        ops = build_AB(model, grid)
        base = delta_z(ops, model)
        rng = np.random.default_rng(6)
        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt_res = redecompose(res, {0: v})
        alt = delta_z_from_b(reservoir_average_b(ops, alt_res), ops.u_fin,
                             model.hs.matrix, model.psi_s, grid.dt)
        assert abs(alt - base) < 1e-9


def _full_b_blocks(ops, res):
    """Blocks <r|B|r> of the full joint B, the reference route."""
    dim_s = len(ops.u_fin)
    b5 = ops.b.reshape(len(ops.b), dim_s, res.dim, dim_s, res.dim)
    return [np.einsum("i,kaibj,j->kab", r.conj(), b5, r) for r in res.states]


def _full_b_delta_z(ops, res, model):
    """delta_z from the reservoir average of the full joint B."""
    b_avg = sum(p * blk for p, blk in zip(res.probs, _full_b_blocks(ops, res)))
    return delta_z_from_b(b_avg, ops.u_fin, model.hs.matrix, model.psi_s,
                          ops.grid.dt)


class TestBlockRoute:
    def test_degenerate_redecomposed_reservoir(self):
        # non-diagonal H_R with a degenerate pair, states redecomposed
        # inside that pair: the row route sees neither basis
        from gpdist.distribution import redecompose

        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        energies = [0.0, 0.8, 0.8, 1.7]
        hr = q @ np.diag(energies) @ q.conj().T
        res = ReservoirSpec(probs=[0.4, 0.3, 0.2, 0.1], states=q.T,
                            energies=energies)
        w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        r_op = q @ (0.5 * (w + w.conj().T) * (1 - np.eye(4))) @ q.conj().T
        model = WeakCouplingModel(hs=hs_schedule(1.0), hr=hr,
                                  couplings=[(0.2 * r_op, SIGMA_X)], res=res,
                                  psi_s=psi_initial(1.1))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt = redecompose(res, {1: v})
        grid = TimeGrid(0.0, 2.0 * np.pi, 512)
        ops = build_AB(model, grid)
        for spec in (res, alt):
            got = delta_z_from_b(reservoir_average_b(ops, spec), ops.u_fin,
                                 model.hs.matrix, model.psi_s, grid.dt)
            ref = _full_b_delta_z(ops, spec, model)
            assert abs(got - ref) <= 1e-14

    def test_correction_of_average_is_average_of_corrections(self):
        # the functional is real-linear in B and the weights are real
        res = ReservoirSpec(probs=[0.7, 0.3], states=np.eye(2, dtype=complex),
                            energies=[0.0, 2.0])
        model = WeakCouplingModel(hs=hs_schedule(1.0), hr=np.diag([0.0, 2.0]),
                                  couplings=[(0.2 * SIGMA_X, SIGMA_X)],
                                  res=res, psi_s=psi_initial(np.pi / 3))
        grid = TimeGrid(0.0, 2.0 * np.pi, 512)
        ops = build_AB(model, grid)
        per_state = sum(
            p * delta_z_from_b(blk, ops.u_fin, model.hs.matrix, model.psi_s,
                               grid.dt)
            for p, blk in zip(res.probs, _full_b_blocks(ops, res)))
        assert abs(delta_z(ops, model) - per_state) <= 1e-14

    def test_time_dependent_system_hamiltonian(self):
        # rejected: the interaction picture is built from a constant H_S
        hs = Schedule(evaluator=lambda t: -0.5 * SIGMA_Z
                      + 0.3 * np.sin(t) * SIGMA_X, dim=2)
        res = ReservoirSpec(probs=[0.7, 0.3], states=np.eye(2, dtype=complex),
                            energies=[0.0, 2.0])
        with pytest.raises(InvalidOperand):
            WeakCouplingModel(hs=hs, hr=np.diag([0.0, 2.0]),
                              couplings=[(0.2 * SIGMA_X, SIGMA_X)],
                              res=res, psi_s=psi_initial(np.pi / 3))


class TestPerturbativeMoments:
    def test_zero_correction(self):
        beta0 = 1.2
        for n in (1, 2, 3):
            assert perturbative_moments(0.0, beta0, n) == pytest.approx(
                np.exp(1j * n * beta0))

    def test_first_order_phase(self):
        dz = 0.02j
        beta0 = np.pi / 2.0
        got = perturbative_moments(dz, beta0, n=1)
        assert np.angle(got) == pytest.approx(beta0 + 0.02, abs=1e-5)

    def test_sharpness_at_second_order(self):
        # |moment| = 1 + O(corr^2): the distribution is sharp at this order
        got = perturbative_moments(0.01j, 0.5, n=1)
        assert abs(abs(got) - 1.0) < 1e-4

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            perturbative_moments(0.5j, 0.0, n=1)
