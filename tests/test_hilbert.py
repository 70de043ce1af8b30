"""Dense linear algebra substrate: matexp, propagators, partial inners."""

import warnings

import numpy as np
import pytest

from gpdist.errors import DimensionError, InvalidOperand
from gpdist.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Schedule,
    TimeGrid,
    is_hermitian,
    matexp,
    partial_inner,
    partial_trace_reservoir,
    time_ordered_propagator,
)

RNG = np.random.default_rng(42)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_unitary(dim, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMatexp:
    def test_zero_is_identity(self):
        assert np.allclose(matexp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_pauli_half_turn(self):
        # series-summation oracle: exp(-i pi sx / 2) = -i sx
        got = matexp(-0.5j * np.pi * SIGMA_X)
        ref = np.zeros((2, 2), dtype=complex)
        arg = -0.5j * np.pi * SIGMA_X
        term = np.eye(2, dtype=complex)
        for k in range(1, 60):
            ref += term
            term = term @ arg / k
        assert np.linalg.norm(got - (-1j * SIGMA_X)) < 1e-12
        assert np.linalg.norm(got - ref) < 1e-12

    def test_diagonal(self):
        got = matexp(np.diag([0.3, -1.2 + 0.5j]))
        assert np.allclose(got, np.diag(np.exp([0.3, -1.2 + 0.5j])), atol=1e-14)

    def test_anti_hermitian_gives_unitary(self):
        m = -1j * random_hermitian(5)
        u = matexp(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-10

    def test_general_matches_scipy(self):
        import scipy.linalg

        m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert np.linalg.norm(matexp(m) - scipy.linalg.expm(m)) < 1e-10

    def test_non_finite_raises(self):
        with pytest.raises(InvalidOperand):
            matexp(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_huge_non_hermitian_matches_scipy(self):
        # both Frobenius norms overflow; eigh would read one triangle only
        import scipy.linalg

        m = np.array([[0.0, 1e160], [0.0, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matexp(m)
        assert np.array_equal(got, scipy.linalg.expm(m))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            matexp(np.zeros((2, 3)))


class TestTimeGrid:
    def test_spacing(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(grid.midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)


class TestIsHermitian:
    @pytest.mark.parametrize("m, expected", [
        ([[0.0, 1e200], [0.0, 0.0]], False),
        ([[0.0, 1e200], [1e200, 0.0]], True),
        ([[np.nan, 0.0], [0.0, 0.0]], False),
        ([[np.inf, 0.0], [0.0, 0.0]], False),
    ])
    def test_huge_and_non_finite_entries(self, m, expected):
        # the Frobenius norms of 1e200 entries overflow unless rescaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hermitian(np.array(m, dtype=complex)) is expected


class TestSchedule:
    def test_constant_and_cache(self):
        h = random_hermitian(2)
        sched = Schedule.constant(h)
        grid = TimeGrid(0.0, 1.0, 8)
        samples = sched.sample(grid)
        assert samples.shape == (9, 2, 2)

    def test_hermiticity_check(self):
        sched = Schedule(evaluator=lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]),
                         dim=2)
        with pytest.raises(InvalidOperand):
            sched.check_hermitian(TimeGrid(0.0, 1.0, 2))

    def test_dim_mismatch(self):
        sched = Schedule(evaluator=lambda t: np.eye(3), dim=2)
        with pytest.raises(DimensionError):
            sched(0.0)


class TestPropagator:
    def test_constant_hamiltonian(self):
        h = random_hermitian(3)
        grid = TimeGrid(0.0, 1.0, 2048)
        us = time_ordered_propagator(Schedule.constant(h), grid)
        # midpoint rule is exact for constant schedules, up to the roundoff
        # accumulated over 2048 matrix products
        assert np.linalg.norm(us[-1] - matexp(-1j * h * 1.0)) < 1e-11

    def test_zero_hamiltonian(self):
        us = time_ordered_propagator(Schedule.constant(np.zeros((2, 2))),
                                     TimeGrid(0.0, 3.0, 16))
        assert all(np.allclose(u, np.eye(2), atol=1e-14) for u in us)

    def test_sigma_z_full_period(self):
        # H = -(w/2) sz over t = 2 pi / w: U = exp(i pi sz) = -1
        us = time_ordered_propagator(Schedule.constant(-0.5 * SIGMA_Z),
                                     TimeGrid(0.0, 2.0 * np.pi, 1024))
        assert np.linalg.norm(us[-1] + np.eye(2)) < 1e-10

    def test_unitarity_along_grid(self):
        sched = Schedule(
            evaluator=lambda t: random_hermitian(2, np.random.default_rng(0))
            * np.cos(t),
            dim=2,
        )
        us = time_ordered_propagator(sched, TimeGrid(0.0, 2.0 * np.pi, 2048))
        worst = max(np.linalg.norm(u.conj().T @ u - np.eye(2)) for u in us)
        assert worst < 1e-9

    def test_second_order_convergence(self):
        h0, h1 = random_hermitian(2), random_hermitian(2)
        sched = Schedule(evaluator=lambda t: h0 + np.sin(t) * h1, dim=2)
        ref = time_ordered_propagator(sched, TimeGrid(0.0, 2.0, 8192))[-1]
        errs = []
        for n in (256, 512):
            u = time_ordered_propagator(sched, TimeGrid(0.0, 2.0, n))[-1]
            errs.append(np.linalg.norm(u - ref))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0  # halving dt cuts the error ~4x


    @pytest.mark.parametrize("h", [random_hermitian(8, np.random.default_rng(8)),
                                   np.zeros((8, 8))])
    def test_constant_matches_expm_at_every_node(self, h):
        import scipy.linalg

        grid = TimeGrid(0.5, 3.0, 64)
        us = time_ordered_propagator(Schedule.constant(h), grid)
        worst = max(np.linalg.norm(u - scipy.linalg.expm(-1j * h * (t - 0.5)))
                    for t, u in zip(grid.times, us))
        assert worst <= 1e-12


class TestPartialInner:
    def test_uncoupled(self):
        u_s = random_unitary(2)
        r = np.array([0.6, 0.8j])
        got = partial_inner(r, np.kron(u_s, np.eye(2)), r, 2, 2)
        assert np.linalg.norm(got - u_s) < 1e-12

    def test_identity_joint(self):
        b = np.array([1.0, 0.0, 0.0])
        r = np.array([0.0, 1.0, 0.0]) / 1.0
        got = partial_inner(b, np.eye(6), r, 2, 3)
        assert np.linalg.norm(got) < 1e-14
        got2 = partial_inner(r, np.eye(6), r, 2, 3)
        assert np.linalg.norm(got2 - np.eye(2)) < 1e-14

    def test_matches_loop_contraction(self):
        dim_s, dim_r = 2, 2
        u = random_unitary(4)
        rng = np.random.default_rng(5)
        bra = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = np.zeros((2, 2), dtype=complex)
        for a in range(dim_s):
            for b in range(dim_s):
                for i in range(dim_r):
                    for j in range(dim_r):
                        ref[a, b] += (bra[i].conj()
                                      * u[a * dim_r + i, b * dim_r + j]
                                      * ket[j])
        got = partial_inner(bra, u, ket, dim_s, dim_r)
        assert np.linalg.norm(got - ref) < 1e-12

    def test_kraus_completeness_over_basis(self):
        dim_s, dim_r = 2, 3
        u = random_unitary(6)
        r = np.zeros(3)
        r[1] = 1.0
        acc = np.zeros((2, 2), dtype=complex)
        for j in range(dim_r):
            b = np.zeros(3)
            b[j] = 1.0
            k = partial_inner(b, u, r, dim_s, dim_r)
            acc += k.conj().T @ k
        assert np.linalg.norm(acc - np.eye(2)) < 1e-10

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            partial_inner(np.ones(2), np.eye(5), np.ones(2), 2, 2)
        with pytest.raises(DimensionError):
            partial_inner(np.ones(3), np.eye(4), np.ones(2), 2, 2)


class TestPartialTrace:
    def test_product_state(self):
        rho_s = np.diag([0.25, 0.75]).astype(complex)
        rho_r = np.diag([0.5, 0.5]).astype(complex)
        got = partial_trace_reservoir(np.kron(rho_s, rho_r), 2, 2)
        assert np.linalg.norm(got - rho_s) < 1e-14


def test_pauli_algebra():
    # basis order (ground, excited): sz = diag(-1, +1), so the stored x and
    # y matrices close the algebra with a sign relative to the usual order
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, -2j * SIGMA_Z)
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(SIGMA_Z, np.diag([-1.0, 1.0]))
