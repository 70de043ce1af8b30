"""Second-order perturbation theory: B, the Lindblad structure of B, the
phase-correction functional, and the coupling-condition guard."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from gpdist.channels import ReservoirSpec
from gpdist.errors import (
    DimensionError,
    InvalidOperand,
    QuadratureNotConverged,
    RCondViolated,
    UndefinedGP,
)
from gpdist.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, TimeGrid
from gpdist.models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    h_system,
    pd_weak_coupling_model,
    psi_initial,
    se_lindblad_model,
    se_weak_coupling_model,
)
from gpdist.weakcoupling import (
    WeakCouplingModel,
    build_AB,
    delta_z_from_b,
    perturbative_moments,
    reservoir_averages,
)

PROJ_G = np.diag([1.0, 0.0]).astype(complex)
PROJ_E = np.diag([0.0, 1.0]).astype(complex)


def se_effective_b_blocks(p, grid):
    """Reservoir-averaged <B(t)>_R = -gamma0 (|e><e| + n) t of spontaneous
    emission on the grid; the n-dependence is proportional to the identity,
    which is why thermal fluctuations cancel in the mean GP."""
    b0 = -p.gamma0 * (PROJ_E + p.n_thermal * np.eye(2))
    return grid.times[:, None, None] * b0


def vacuum_qubit_res(energy=2.0):
    return ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                         energies=[0.0, energy])


def zero_hamiltonian_model(r_op, s_op, probs=(1.0, 0.0)):
    res = ReservoirSpec(probs=list(probs), states=np.eye(2, dtype=complex),
                        energies=[0.0, 0.0])
    return WeakCouplingModel(
        hs=np.zeros((2, 2)),
        hr=np.zeros((2, 2), dtype=complex),
        couplings=[(r_op, s_op)], res=res)


class TestModelValidation:
    def test_dimension_mismatch(self):
        res = vacuum_qubit_res()
        with pytest.raises(DimensionError):
            WeakCouplingModel(hs=h_system(1.0),
                              hr=np.zeros((3, 3), dtype=complex),
                              couplings=[], res=res)

    def test_non_square_reservoir_hamiltonian(self):
        with pytest.raises(DimensionError, match="square"):
            WeakCouplingModel(hs=h_system(1.0),
                              hr=np.zeros((2, 3), dtype=complex),
                              couplings=[], res=vacuum_qubit_res())

    @pytest.mark.parametrize("term, r_dim, s_dim", [("R", 3, 2), ("S", 2, 3)])
    def test_coupling_of_wrong_size(self, term, r_dim, s_dim):
        # named by its term, not left to numpy's broadcasting error
        with pytest.raises(DimensionError, match=f"coupling 1: {term} has"):
            WeakCouplingModel(hs=h_system(1.0), hr=np.diag([0.0, 2.0]),
                              couplings=[(SIGMA_X, SIGMA_X),
                                         (np.eye(r_dim), np.eye(s_dim))],
                              res=vacuum_qubit_res())

    def test_non_hermitian_system_hamiltonian(self):
        # the interaction picture is built from a Hermitian H_S
        with pytest.raises(InvalidOperand):
            WeakCouplingModel(hs=-0.5 * SIGMA_Z + 0.3j * SIGMA_X,
                              hr=np.diag([0.0, 2.0]),
                              couplings=[(0.2 * SIGMA_X, SIGMA_X)],
                              res=vacuum_qubit_res())

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
        ops = build_AB(model, 1.0)
        assert np.linalg.norm(ops.b) < 1e-14

    def test_constant_integrand(self):
        # zero Hamiltonians: H~ = h constant, B = -h^2 t^2 / 2
        g = 0.3
        model = zero_hamiltonian_model(g * SIGMA_X, SIGMA_X)
        ops = build_AB(model, 2.0)
        h = -g * np.kron(SIGMA_X, SIGMA_X)
        assert np.linalg.norm(ops.b - (-0.5 * h @ h * 4.0)) < 1e-10
        at_zero = build_AB(model, 0.0)
        assert np.linalg.norm(at_zero.b) < 1e-15

    def test_matches_contour_dyson_coefficients(self):
        # B is the g^2 coefficient of U_0^dag U(g), and int B the
        # Gauss-Legendre quadrature of B(t'); non-diagonal H_S, non-diagonal
        # H_R with a degenerate pair, two coupling terms
        model = _degenerate_reservoir_model()
        t = 1.7
        ops = build_AB(model, t)
        assert np.linalg.norm(ops.b - _dyson_b(model, t)) <= 1e-12
        x, w = np.polynomial.legendre.leggauss(20)
        b_int_ref = 0.5 * t * sum(
            wk * _dyson_b(model, 0.5 * t * (xk + 1.0))
            for xk, wk in zip(x, w))
        assert np.linalg.norm(ops.b_int - b_int_ref) <= 1e-12

    @pytest.mark.parametrize("t", [1.7, 2.0 * np.pi])
    def test_matches_van_loan_block_exponential(self, t):
        # a degenerate pair (omega from eigh ~ 1e-16) and a pair split by
        # 1e-9 take phi's small-omega form: (e^{i omega t} - 1) / (i omega)
        # would lose eps / omega there
        model = _degenerate_reservoir_model([0.0, 0.8, 0.8, 1.7, 1.7 + 1e-9])
        ops = build_AB(model, t)
        for got, ref in zip((ops.b, ops.b_int), _van_loan_blocks(model, t)):
            assert np.linalg.norm(got - ref) <= 1e-13

    def test_node_cap_raises(self):
        # omega_max t ~ 6e4: Gauss-Legendre is still moving at 4096 nodes
        res = ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                            energies=[0.0, 1e4])
        model = WeakCouplingModel(
            hs=h_system(1.0), hr=np.diag([0.0, 1e4]).astype(complex),
            couplings=[(SIGMA_X, SIGMA_X)], res=res)
        with pytest.raises(QuadratureNotConverged, match="4096"):
            build_AB(model, 2.0 * np.pi)


def _van_loan_blocks(model, t):
    """B and integral_0^t B from the exponential of the 4d x 4d
    block-triangular matrix (C. F. Van Loan, IEEE Trans. Autom. Control 23,
    395 (1978)).  With X = -i H_0 and Y = -i H_I,

        expm(t [[X, 1, 0, 0],     [[U_0, .,   .,     U_0 int_0^t B],
                [0, X, Y, 0],  =   [0,   U_0, U_0 A, U_0 B        ],
                [0, 0, X, Y],      [0,   0,   U_0,   .            ],
                [0, 0, 0, X]])     [0,   0,   0,     U_0          ]]
    """
    d = model.dim_s * model.dim_r
    x = -1j * model.h0()
    m = np.zeros((4, d, 4, d), dtype=complex)
    for k in range(4):
        m[k, :, k] = x
    m[0, :, 1] = np.eye(d)
    m[1, :, 2] = m[2, :, 3] = -1j * model.h_interaction()
    e = scipy.linalg.expm(t * m.reshape(4 * d, 4 * d)).reshape(4, d, 4, d)
    u0_dag = e[0, :, 0].conj().T
    return u0_dag @ e[1, :, 3], u0_dag @ e[0, :, 3]


def _degenerate_reservoir_model(energies=(0.0, 0.8, 0.8, 1.7)):
    """Non-diagonal H_S, and a non-diagonal H_R with a degenerate pair
    coupled through two terms, one with <r|R|r> = 0."""
    n = len(energies)
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    hr = q @ np.diag(energies) @ q.conj().T
    res = ReservoirSpec(probs=[0.4, 0.3, 0.2, 0.1] + [0.0] * (n - 4),
                        states=q.T, energies=energies)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r_op = q @ (0.5 * (w + w.conj().T) * (1 - np.eye(n))) @ q.conj().T
    return WeakCouplingModel(
        hs=0.6 * SIGMA_X + 0.3 * SIGMA_Z, hr=hr,
        couplings=[(0.2 * r_op, SIGMA_X), (0.1 * hr, SIGMA_Y)], res=res)


def _dyson_b(model, t, n_points=16, radius=0.2):
    """g^2 coefficient of U_0^dag expm(-i (H_0 + g H_I) t), from Cauchy's
    formula as the trapezoid rule on the circle |g| = radius."""
    h0 = (np.kron(model.hs, np.eye(model.dim_r))
          + np.kron(np.eye(model.dim_s), model.hr))
    u0_dag = scipy.linalg.expm(1j * h0 * t)
    gs = radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)
    us = [u0_dag @ scipy.linalg.expm(-1j * (h0 + g * model.h_interaction())
                                     * t) for g in gs]
    return sum(u * g**-2 for u, g in zip(us, gs)) / n_points


class TestLindbladIdentification:
    @pytest.mark.parametrize("n_thermal", [0.0, 1.5])
    def test_two_level_atom_structure(self, n_thermal):
        # U_S d<B>_R/dt U_S^dag = -i Delta H - sum L^dag L with
        # d<B>_R/dt = -gamma0 (|e><e| + n): Delta H = 0, and sum L^dag L is
        # that of the emission master equation,
        # gamma0 (n+1) |e><e| + gamma0 n |g><g|
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.25, n_thermal=n_thermal)
        b_dot = -p.gamma0 * (PROJ_E + n_thermal * np.eye(2))
        t = 0.5 * p.period
        u_s = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        m = u_s @ b_dot @ u_s.conj().T
        ldl = sum(l.conj().T @ l for l in se_lindblad_model(p).jump_ops)
        ref = (p.gamma0 * (n_thermal + 1.0) * PROJ_E
               + p.gamma0 * n_thermal * PROJ_G)
        assert np.linalg.norm(ldl - ref) < 1e-10
        assert np.linalg.norm(-0.5 * (m + m.conj().T) - ldl) < 1e-10
        assert np.linalg.norm(0.5j * (m - m.conj().T)) < 1e-10


class TestDeltaZ:
    def test_zero_interaction(self):
        model = zero_hamiltonian_model(0.0 * SIGMA_X, SIGMA_X)
        ops = build_AB(model, 1.0)
        assert abs(delta_z_from_b(*reservoir_averages(ops, model), model.hs,
                                  np.array([1.0, 0.0], dtype=complex))
                   ) < 1e-13

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
        dz = delta_z_from_b(blk[-1], np.trapezoid(blk, dx=grid.dt, axis=0),
                            u_fin, hs, psi)
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
            vals.append(np.imag(delta_z_from_b(
                blk[-1], np.trapezoid(blk, dx=grid.dt, axis=0), u_fin, hs,
                psi)))
        assert abs(vals[1] - vals[0]) < 1e-12
        assert abs(vals[2] - vals[0]) < 1e-12

    def test_rcond_guard(self):
        pd = pd_weak_coupling_model(PhaseDampingParams(omega=1.0, alpha=0.01))
        ops = build_AB(pd, 2.0 * np.pi)
        with pytest.raises(RCondViolated):
            delta_z_from_b(*reservoir_averages(ops, pd), pd.hs,
                           psi_initial(np.pi / 2))
        se = se_weak_coupling_model(TwoLevelAtomParams(omega=1.0, gamma0=0.0),
                                    dim_bath=3, g=0.1)
        ops = build_AB(se, 2.0 * np.pi)
        delta_z_from_b(*reservoir_averages(ops, se), se.hs,
                       psi_initial(np.pi / 2))  # must not raise

    def test_vanishing_system_expectation(self):
        model = zero_hamiltonian_model(0.1 * SIGMA_X, SIGMA_X)
        ops = build_AB(model, 1.0)
        # replace the system propagator so <psi|U_S|psi> = 0
        with pytest.raises(UndefinedGP):
            delta_z_from_b(*reservoir_averages(
                dataclasses.replace(ops, u_fin=SIGMA_X), model), model.hs,
                np.array([1.0, 0.0], dtype=complex))

    def test_reservoir_redecomposition_invariance(self):
        # Tr(rho_R B) is basis independent inside degenerate blocks
        from gpdist.distribution import redecompose

        res = ReservoirSpec(probs=[0.6, 0.4], states=np.eye(2, dtype=complex),
                            energies=[1.0, 1.0])
        model = WeakCouplingModel(
            hs=h_system(1.0), hr=np.eye(2, dtype=complex),
            couplings=[(0.2 * SIGMA_X, SIGMA_X)], res=res)
        ops = build_AB(model, 2.0 * np.pi)
        base = delta_z_from_b(*reservoir_averages(ops, model), model.hs,
                              psi_initial(np.pi / 3))
        rng = np.random.default_rng(6)
        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt_res = redecompose(res, {0: v})
        # the redecomposed states break <r|R|r> = 0, so the guard in
        # reservoir_averages would refuse them: average the blocks directly
        alt = delta_z_from_b(
            *(sum(p * blk for p, blk in zip(alt_res.probs,
                                            _full_b_blocks(op, alt_res)))
              for op in (ops.b, ops.b_int)),
            ops.u_fin, model.hs, psi_initial(np.pi / 3))
        assert abs(alt - base) < 1e-9


def _full_b_blocks(op, res):
    """Blocks <r|op|r> of a joint operator, one per reservoir state."""
    dim_s = len(op) // res.dim
    op4 = op.reshape(dim_s, res.dim, dim_s, res.dim)
    return [np.einsum("i,aibj,j->ab", r.conj(), op4, r) for r in res.states]


class TestBlockRoute:
    def test_correction_of_average_is_average_of_corrections(self):
        # the functional is real-linear in B and the weights are real
        res = ReservoirSpec(probs=[0.7, 0.3], states=np.eye(2, dtype=complex),
                            energies=[0.0, 2.0])
        model = WeakCouplingModel(hs=h_system(1.0), hr=np.diag([0.0, 2.0]),
                                  couplings=[(0.2 * SIGMA_X, SIGMA_X)],
                                  res=res)
        ops = build_AB(model, 2.0 * np.pi)
        per_state = sum(
            p * delta_z_from_b(blk, blk_int, ops.u_fin, model.hs,
                               psi_initial(np.pi / 3))
            for p, blk, blk_int in zip(res.probs, _full_b_blocks(ops.b, res),
                                       _full_b_blocks(ops.b_int, res)))
        assert abs(delta_z_from_b(*reservoir_averages(ops, model), model.hs,
                                  psi_initial(np.pi / 3))
                   - per_state) <= 1e-14


class TestPerturbativeMoments:
    def test_zero_correction(self):
        beta0 = 1.2
        assert perturbative_moments(0.0, beta0) == pytest.approx(
            np.exp(1j * beta0))

    def test_first_order_phase(self):
        dz = 0.02j
        beta0 = np.pi / 2.0
        got = perturbative_moments(dz, beta0)
        assert np.angle(got) == pytest.approx(beta0 + 0.02, abs=1e-5)

    def test_sharpness_at_second_order(self):
        # |moment| = 1 + O(corr^2): the distribution is sharp at this order
        got = perturbative_moments(0.01j, 0.5)
        assert abs(abs(got) - 1.0) < 1e-4

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            perturbative_moments(0.5j, 0.0)
