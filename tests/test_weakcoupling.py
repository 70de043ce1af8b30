"""Second-order perturbation theory: B, the Lindblad structure of B, the
phase-correction functional, and the coupling-condition guard."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import gpdist.weakcoupling
from gpdist.channels import ReservoirSpec
from gpdist.errors import (
    DimensionError,
    InvalidOperand,
    InvalidState,
    QuadratureNotConverged,
    RCondViolated,
    UndefinedGP,
)
from gpdist.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, eigh_hermitian
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
)

PROJ_G = np.diag([1.0, 0.0]).astype(complex)
PROJ_E = np.diag([0.0, 1.0]).astype(complex)


def se_effective_b_blocks(p, n):
    """Reservoir-averaged <B(t)>_R = -gamma0 (|e><e| + n) t of spontaneous
    emission on the n-step grid of one period; the n-dependence is
    proportional to the identity, which is why thermal fluctuations cancel
    in the mean GP."""
    b0 = -p.gamma0 * (PROJ_E + p.n_thermal * np.eye(2))
    return np.linspace(0.0, p.period, n + 1)[:, None, None] * b0


def vacuum_qubit_res(energy=2.0):
    return ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                         energies=[0.0, energy])


def zero_hamiltonian_model(r_op, s_op, probs=(1.0, 0.0)):
    res = ReservoirSpec(probs=list(probs), states=np.eye(2, dtype=complex),
                        energies=[0.0, 0.0])
    return WeakCouplingModel(hs=np.zeros((2, 2)), couplings=[(r_op, s_op)],
                             res=res)


class TestModelValidation:
    def test_dimension_mismatch(self):
        # one state in d_R = 2 leaves H_R undefined on the other direction
        res = ReservoirSpec(probs=[1.0], states=[[1.0, 0.0]], energies=[0.0])
        with pytest.raises(InvalidState, match="orthonormal basis"):
            WeakCouplingModel(hs=h_system(1.0), couplings=[], res=res)

    def test_h_r_is_read_off_the_reservoir(self):
        # sum_r E_r |r><r|, with no field that could state it a second time
        model = _degenerate_reservoir_model()
        res = model.res
        ref = sum(e * np.outer(r, r.conj())
                  for e, r in zip(res.energies, res.states))
        assert np.linalg.norm(model.hr - ref) < 1e-14
        with pytest.raises(AttributeError):
            model.hr = ref
        with pytest.raises(TypeError):
            WeakCouplingModel(hs=model.hs, hr=ref, couplings=[], res=res)

    @pytest.mark.parametrize("term, r_dim, s_dim", [("R", 3, 2), ("S", 2, 3)])
    def test_coupling_of_wrong_size(self, term, r_dim, s_dim):
        # named by its term, not left to numpy's broadcasting error
        with pytest.raises(DimensionError, match=f"coupling 1: {term} has"):
            WeakCouplingModel(hs=h_system(1.0),
                              couplings=[(SIGMA_X, SIGMA_X),
                                         (np.eye(r_dim), np.eye(s_dim))],
                              res=vacuum_qubit_res())

    def test_non_stationary_reservoir_state(self):
        # a redecomposed spec need not be orthogonal, so its states do not
        # define an H_R of which the mixture is a stationary state
        from gpdist.distribution import redecompose

        res = ReservoirSpec(probs=[0.6, 0.4], states=np.eye(2, dtype=complex),
                            energies=[1.0, 1.0])
        c, s = np.cos(0.3), np.sin(0.3)
        alt = redecompose(res, {0: np.array([[c, s], [-s, c]])})
        assert not alt.orthonormal
        with pytest.raises(InvalidState, match="orthonormal basis"):
            WeakCouplingModel(hs=h_system(1.0),
                              couplings=[(SIGMA_X, SIGMA_X)], res=alt)

    def test_non_hermitian_system_hamiltonian(self):
        # the interaction picture is built from a Hermitian H_S
        with pytest.raises(InvalidOperand):
            WeakCouplingModel(hs=-0.5 * SIGMA_Z + 0.3j * SIGMA_X,
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
        # two terms, three states in a complex basis: the first term's only
        # nonzero <r|R|r> sits on the unpopulated state, the second's worst
        # populated one is |-0.7|
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 6))
                            .view(complex))
        off = np.array([[0.0, 0.4, 0.2j], [0.4, 0.0, 1.0], [-0.2j, 1.0, 0.0]])
        res = ReservoirSpec(probs=[0.5, 0.5, 0.0], states=q.T,
                            energies=[0.0, 1.0, 2.0])
        model = WeakCouplingModel(
            hs=np.zeros((2, 2)), res=res,
            couplings=[(q @ (off + np.diag([0.0, 0.0, 5.0])) @ q.conj().T,
                        SIGMA_X),
                       (q @ (off + np.diag([0.3, -0.7, 9.0])) @ q.conj().T,
                        SIGMA_Z)])
        assert model.rcond_defect() == pytest.approx(0.7, rel=1e-14)

    def test_unpopulated_states_ignored(self):
        # <r|R|r> != 0 only on a zero-probability state is acceptable
        model = zero_hamiltonian_model(np.diag([0.0, 3.0]).astype(complex),
                                       SIGMA_Z, probs=(1.0, 0.0))
        assert model.rcond_defect() < 1e-14


class TestBuildAB:
    def test_zero_interaction(self):
        model = zero_hamiltonian_model(0.0 * SIGMA_X, SIGMA_X)
        b, b_int, _ = build_AB(model, 1.0)
        assert np.linalg.norm(b) < 1e-14
        assert np.linalg.norm(b_int) < 1e-14

    def test_constant_integrand(self):
        # zero Hamiltonians: H~ = h constant, B = -h^2 t^2 / 2
        g = 0.3
        model = zero_hamiltonian_model(g * SIGMA_X, SIGMA_X)
        b = build_AB(model, 2.0)[0]
        h = -g * np.kron(SIGMA_X, SIGMA_X)
        assert np.linalg.norm(b - _average(model, -0.5 * h @ h * 4.0)) < 1e-10
        at_zero = build_AB(model, 0.0)[0]
        assert np.linalg.norm(at_zero) < 1e-15

    def test_matches_contour_dyson_coefficients(self):
        # B is the g^2 coefficient of U_0^dag U(g), and int B the
        # Gauss-Legendre quadrature of B(t'); non-diagonal H_S, non-diagonal
        # H_R with a degenerate pair, so that rho_R is not diagonal in the
        # eigenbasis build_AB picks, two coupling terms
        model = _degenerate_reservoir_model()
        t = 1.7
        b, b_int, u_fin = build_AB(model, t)
        assert np.linalg.norm(b - _average(model, _dyson_b(model, t))) <= 1e-12
        x, w = np.polynomial.legendre.leggauss(20)
        b_int_ref = 0.5 * t * sum(
            wk * _dyson_b(model, 0.5 * t * (xk + 1.0))
            for xk, wk in zip(x, w))
        assert np.linalg.norm(b_int - _average(model, b_int_ref)) <= 1e-12
        assert np.linalg.norm(
            u_fin - scipy.linalg.expm(-1j * t * model.hs)) <= 1e-13

    @pytest.mark.parametrize("t", [1.7, 2.0 * np.pi])
    def test_matches_van_loan_block_exponential(self, t):
        # a degenerate pair (omega from eigh ~ 1e-16) and a pair split by
        # 1e-9 take phi's small-omega form: (e^{i omega t} - 1) / (i omega)
        # would lose eps / omega there
        model = _degenerate_reservoir_model([0.0, 0.8, 0.8, 1.7, 1.7 + 1e-9])
        for got, ref in zip(build_AB(model, t), _van_loan_blocks(model, t)):
            assert np.linalg.norm(got - _average(model, ref)) <= 1e-13

    @pytest.mark.parametrize("t", [1.7, 2.0 * np.pi])
    def test_matches_van_loan_at_joint_dimension_32(self, t):
        model = _ladder_model()
        for got, ref in zip(build_AB(model, t), _van_loan_blocks(model, t)):
            assert np.linalg.norm(got - _average(model, ref)) <= 1e-13

    def test_peak_memory_is_two_node_blocks(self):
        # a block of 16 nodes holds one complex (16, d, d) array; a numpy
        # ufunc's broadcast buffer may sit beside it, never a second block
        model = _ladder_model()
        d = model.dim_s * model.dim_r
        build_AB(model, 2.0 * np.pi)  # first-call
        tracemalloc.start()
        try:
            build_AB(model, 2.0 * np.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * d * d * 16 + 64 * 1024

    def test_one_eigendecomposition(self, monkeypatch):
        # the reservoir basis is res.states: only H_S is diagonalised
        calls = []

        def counting_eigh(h):
            calls.append(h)
            return eigh_hermitian(h)

        monkeypatch.setattr(gpdist.weakcoupling, "eigh_hermitian",
                            counting_eigh)
        model = _degenerate_reservoir_model()
        build_AB(model, 1.7)
        assert len(calls) == 1
        assert np.array_equal(calls[0], model.hs)

    def test_node_cap_raises(self):
        # omega_max t ~ 6e4: Gauss-Legendre is still moving at 4096 nodes
        res = ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                            energies=[0.0, 1e4])
        model = WeakCouplingModel(
            hs=h_system(1.0), couplings=[(SIGMA_X, SIGMA_X)], res=res)
        with pytest.raises(QuadratureNotConverged, match="4096"):
            build_AB(model, 2.0 * np.pi)

    def test_coupling_condition_is_checked_before_any_node(self, monkeypatch):
        nodes = []
        monkeypatch.setattr(gpdist.weakcoupling, "_b_and_integral",
                            lambda *args: nodes.append(args))
        pd = pd_weak_coupling_model(PhaseDampingParams(omega=1.0, alpha=0.01))
        with pytest.raises(RCondViolated):
            build_AB(pd, 2.0 * np.pi)
        assert nodes == []


def _average(model, op):
    """tr_R[(1 x rho_R) op] of a joint operator (system slow index)."""
    res, ds, dr = model.res, model.dim_s, model.dim_r
    rho_r = (res.states.T * res.probs) @ res.states.conj()
    return np.einsum("aibj,ji->ab", op.reshape(ds, dr, ds, dr), rho_r)


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
    coupled through two terms, both with <r|R|r> = 0."""
    n = len(energies)
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    res = ReservoirSpec(probs=[0.4, 0.3, 0.2, 0.1] + [0.0] * (n - 4),
                        states=q.T, energies=energies)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r_op = q @ (0.5 * (w + w.conj().T) * (1 - np.eye(n))) @ q.conj().T
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r_op2 = q @ (0.5 * (w + w.conj().T) * (1 - np.eye(n))) @ q.conj().T
    return WeakCouplingModel(
        hs=0.6 * SIGMA_X + 0.3 * SIGMA_Z,
        couplings=[(0.2 * r_op, SIGMA_X), (0.1 * r_op2, SIGMA_Y)], res=res)


def _ladder_model():
    """d_S = 2 and d_R = 16, the joint dimension of the benchmark's compare
    workload: a thermal ladder with a doubled middle rung and a top pair
    split by 1e-9, on non-identity orthonormal reservoir states, coupled
    through sigma_x by an R with <r|R|r> = 0.  H_S is not diagonal, so g
    couples the degenerate and the split pairs."""
    rng, dim_r = np.random.default_rng(35), 16
    energies = np.linspace(0.0, 1.5, dim_r - 1)
    energies = np.sort(np.append(energies, energies[(dim_r - 1) // 2]))
    energies[-1] = energies[-2] + 1e-9
    probs = np.exp(-energies) / np.exp(-energies).sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim_r, dim_r))
                        + 1j * rng.normal(size=(dim_r, dim_r)))
    w = rng.normal(size=(dim_r, dim_r)) + 1j * rng.normal(size=(dim_r, dim_r))
    r_op = q @ (0.5 * (w + w.conj().T) * (1 - np.eye(dim_r))) @ q.conj().T
    res = ReservoirSpec(probs=list(probs), states=q.T, energies=energies)
    return WeakCouplingModel(hs=0.6 * SIGMA_X + 0.3 * SIGMA_Z,
                             couplings=[(0.05 * r_op, SIGMA_X)], res=res)


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
        assert abs(delta_z_from_b(*build_AB(model, 1.0), model.hs,
                                  np.array([1.0, 0.0], dtype=complex))
                   ) < 1e-13

    @pytest.mark.parametrize("n_thermal", [0.0, 1.0, 5.0])
    def test_spontaneous_emission_phase_correction(self, n_thermal):
        # effective <r|B|r> blocks reproduce Im<DeltaZ> = pi^2 (g0/w) sin^2
        p = TwoLevelAtomParams(omega=1.0, gamma0=1e-3, n_thermal=n_thermal,
                               theta=np.pi / 3)
        blk = se_effective_b_blocks(p, 4096)
        t = p.period
        u_fin = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
        psi = psi_initial(p.theta)
        hs = -0.5 * SIGMA_Z
        dz = delta_z_from_b(blk[-1], np.trapezoid(blk, dx=t / 4096, axis=0),
                            u_fin, hs, psi)
        ref = np.pi**2 * p.gamma0 * np.sin(p.theta) ** 2
        assert np.imag(dz) == pytest.approx(ref, abs=1e-8)

    def test_temperature_independence_exact_arithmetic(self):
        vals = []
        for n in (0.0, 1.0, 5.0):
            p = TwoLevelAtomParams(omega=1.0, gamma0=1e-3, n_thermal=n,
                                   theta=np.pi / 3)
            blk = se_effective_b_blocks(p, 1024)
            t = p.period
            u_fin = np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
            psi = psi_initial(p.theta)
            hs = -0.5 * SIGMA_Z
            vals.append(np.imag(delta_z_from_b(
                blk[-1], np.trapezoid(blk, dx=t / 1024, axis=0), u_fin, hs,
                psi)))
        assert abs(vals[1] - vals[0]) < 1e-12
        assert abs(vals[2] - vals[0]) < 1e-12

    def test_rcond_guard(self):
        pd = pd_weak_coupling_model(PhaseDampingParams(omega=1.0, alpha=0.01))
        with pytest.raises(RCondViolated):
            build_AB(pd, 2.0 * np.pi)
        se = se_weak_coupling_model(TwoLevelAtomParams(omega=1.0, gamma0=0.0),
                                    dim_bath=3, g=0.1)
        delta_z_from_b(*build_AB(se, 2.0 * np.pi), se.hs,
                       psi_initial(np.pi / 2))  # must not raise

    def test_vanishing_system_expectation(self):
        model = zero_hamiltonian_model(0.1 * SIGMA_X, SIGMA_X)
        b, b_int, _ = build_AB(model, 1.0)
        # replace the system propagator so <psi|U_S|psi> = 0
        with pytest.raises(UndefinedGP):
            delta_z_from_b(b, b_int, SIGMA_X, model.hs,
                           np.array([1.0, 0.0], dtype=complex))

    def test_reservoir_redecomposition_invariance(self):
        # Tr(rho_R B) is basis independent inside degenerate blocks
        from gpdist.distribution import redecompose

        res = ReservoirSpec(probs=[0.6, 0.4], states=np.eye(2, dtype=complex),
                            energies=[1.0, 1.0])
        model = WeakCouplingModel(
            hs=h_system(1.0), couplings=[(0.2 * SIGMA_X, SIGMA_X)], res=res)
        b, b_int, u_fin = build_AB(model, 2.0 * np.pi)
        base = delta_z_from_b(b, b_int, u_fin, model.hs,
                              psi_initial(np.pi / 3))
        rng = np.random.default_rng(6)
        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt_res = redecompose(res, {0: v})
        # the redecomposed states break <r|R|r> = 0, so build_AB's guard
        # would refuse them: average the blocks of the full B directly
        alt = delta_z_from_b(
            *(sum(p * blk for p, blk in zip(alt_res.probs,
                                            _full_b_blocks(op, alt_res)))
              for op in _van_loan_blocks(model, 2.0 * np.pi)),
            u_fin, model.hs, psi_initial(np.pi / 3))
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
        model = WeakCouplingModel(hs=h_system(1.0),
                                  couplings=[(0.2 * SIGMA_X, SIGMA_X)],
                                  res=res)
        b, b_int = _van_loan_blocks(model, 2.0 * np.pi)
        averages = build_AB(model, 2.0 * np.pi)
        u_fin = averages[2]
        per_state = sum(
            p * delta_z_from_b(blk, blk_int, u_fin, model.hs,
                               psi_initial(np.pi / 3))
            for p, blk, blk_int in zip(res.probs, _full_b_blocks(b, res),
                                       _full_b_blocks(b_int, res)))
        assert abs(delta_z_from_b(*averages, model.hs, psi_initial(np.pi / 3))
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
