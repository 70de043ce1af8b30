"""Dense linear algebra substrate: Hermiticity, grids, the benchmark's
schedule, and the reference partial inner product of the system-slow
convention."""

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
    eigh_hermitian,
    is_hermitian,
)

RNG = np.random.default_rng(42)


def random_unitary(dim, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTimeGrid:
    def test_spacing(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert grid.dt == 0.25
        assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])

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
    def test_hermiticity_check(self):
        # a schedule holds no matrix: a Hamiltonian is checked where it is
        # diagonalized
        with pytest.raises(InvalidOperand):
            eigh_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dim_mismatch(self):
        sched = Schedule(evaluator=lambda t: np.eye(3), dim=2)
        with pytest.raises(DimensionError):
            sched(0.0)


def partial_inner(bra_r, u, ket_r, dim_s, dim_r):
    """System-space operator ``<b_R| U |r>`` of a joint operator ``U`` with
    the system as the slow index; ``bra_r`` enters conjugated.  The
    per-state reference of the decomposition tests."""
    return np.einsum("i,aibj,j->ab", np.conj(bra_r),
                     np.reshape(u, (dim_s, dim_r, dim_s, dim_r)), ket_r)


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


def test_pauli_algebra():
    # basis order (ground, excited): sz = diag(-1, +1), so the stored x and
    # y matrices close the algebra with a sign relative to the usual order
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, -2j * SIGMA_Z)
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(SIGMA_Z, np.diag([-1.0, 1.0]))
