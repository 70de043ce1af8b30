"""Atomic GP distributions, moments, spread, and decomposition freedom."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdist.channels import ReservoirSpec
from gpdist.distribution import (
    DECOMPOSITION_SEEDS,
    PhaseDistribution,
    block_first_moment,
    build_distribution,
    decomposition_check,
    moments,
    redecompose,
)
from gpdist.errors import InvalidBlock, InvalidDecomposition, UndefinedGP
from gpdist.hilbert import partial_inner
from gpdist.models import (
    TwoLevelAtomParams,
    se_distribution,
    se_exact_z_values,
    se_weights,
)
from gpdist.phase import ClosedFormPath


def constant_path(psi, t_end=1.0):
    """One-member family that stays at ``psi``."""
    psi = np.asarray(psi, dtype=complex)
    return ClosedFormPath(
        states=lambda t: (np.tile(psi, (1, len(t), 1)),
                          np.zeros((1, len(t), len(psi)))), t_end=t_end)


class TestPhaseDistribution:
    def test_valid_z(self):
        d = PhaseDistribution(weights=[0.5, 0.5], values=[1.0, 0.5j])
        assert np.array_equal(d.values, [1.0, 0.5j])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            PhaseDistribution(weights=[0.5, 0.6], values=[1.0, 1.0])
        with pytest.raises(ValueError):
            PhaseDistribution(weights=[-0.5, 1.5], values=[1.0, 1.0])

    def test_to_h_projection(self):
        # P_H reads each atom at its phase z / |z|
        d = PhaseDistribution(weights=[0.4, 0.6], values=[2.0j, -0.5])
        h = moments(d, n_max=2).h_moments
        assert np.allclose(h, [0.4 * 1.0j - 0.6, -0.4 + 0.6])

    def test_to_h_zero_atom_rejected(self):
        d = PhaseDistribution(weights=[0.5, 0.5], values=[0.0, 1.0])
        with pytest.raises(UndefinedGP):
            moments(d)

    def test_h_moments_bit_exact_on_random_atoms(self):
        # the second normalisation of u changes the bits of about a third
        # of these atoms, so it must be part of the H measure
        rng = np.random.default_rng(20)
        z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        w = rng.random(1000)
        w /= w.sum()
        u = z / np.abs(z)
        u = u / np.abs(u)
        rep = moments(PhaseDistribution(weights=w, values=z), n_max=3)
        assert np.array_equal(rep.h_moments,
                              [np.sum(w * u**n) for n in np.arange(1, 4)])


class TestBuildDistribution:
    def test_single_trajectory_sharp(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        dist = build_distribution(np.array([1.0]), constant_path(psi))
        rep = moments(dist, n_max=1)
        assert len(dist.values) == 1
        assert rep.spread_w == 0.0  # sharp distribution, exactly

    def test_spontaneous_emission_atoms(self):
        p = TwoLevelAtomParams(omega=1.0, gamma0=0.05, n_thermal=1.0,
                               theta=np.pi / 3)
        pz = se_distribution(p)
        f_minus, f_plus = se_exact_z_values(p)
        w = se_weights(p)
        assert np.allclose(pz.weights, [w[0], w[2]])
        assert np.allclose(pz.values, [f_minus, f_plus])
        assert pz.weights.sum() == pytest.approx(1.0)

    def test_zero_atom_legal_for_z_only(self):
        # member 0 ends orthogonal to its start (GP undefined), member 1
        # stays at |0>
        def states(t):
            zero = np.zeros_like(t)
            bad = np.stack([np.cos(t / 2.0), np.sin(t / 2.0)], axis=1)
            dbad = 0.5 * np.stack([-np.sin(t / 2.0), np.cos(t / 2.0)], axis=1)
            good = np.stack([np.ones_like(t), zero], axis=1)
            return (np.stack([bad, good]).astype(complex),
                    np.stack([dbad, np.zeros_like(good)]).astype(complex))

        dist = build_distribution(np.array([0.5, 0.5]),
                                  ClosedFormPath(states=states, t_end=np.pi))
        assert dist.values[0] == 0.0
        assert dist.values[1] != 0.0
        with pytest.raises(UndefinedGP):
            moments(dist)


class TestMoments:
    def test_single_unit_atom(self):
        phi = 0.8
        d = PhaseDistribution(weights=[1.0], values=[np.exp(1j * phi)])
        rep = moments(d, n_max=3)
        assert rep.mean_gp_z == pytest.approx(phi)
        assert np.angle(rep.mean_gp_h) == pytest.approx(phi)
        assert rep.spread_w == 0.0
        assert np.allclose(rep.h_moments,
                           [np.exp(1j * n * phi) for n in (1, 2, 3)])

    def test_symmetric_pair(self):
        phi = 0.6
        d = PhaseDistribution(weights=[0.5, 0.5],
                              values=[np.exp(1j * phi), np.exp(-1j * phi)])
        rep = moments(d, n_max=1)
        assert rep.mean_gp_h == pytest.approx(np.cos(phi))
        assert rep.spread_w == pytest.approx(1.0 / np.cos(phi) ** 2 - 1.0)

    def test_vanishing_first_moment(self):
        d = PhaseDistribution(weights=[0.5, 0.5], values=[1.0, -1.0])
        with pytest.raises(UndefinedGP):
            moments(d, n_max=1)

    def test_n_max_validation(self):
        d = PhaseDistribution(weights=[1.0], values=[1.0])
        with pytest.raises(ValueError):
            moments(d, n_max=0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-3.1, 3.1)),
                    min_size=1, max_size=6))
    def test_spread_nonnegative_property(self, raw):
        ws = np.array([w for w, _ in raw])
        ws = ws / ws.sum()
        vals = np.exp(1j * np.array([a for _, a in raw]))
        d = PhaseDistribution(weights=ws, values=vals)
        try:
            rep = moments(d, n_max=2)
        except UndefinedGP:
            return
        assert rep.spread_w >= 0.0
        assert abs(rep.h_moments[0]) <= 1.0 + 1e-12


def density(spec):
    """rho_R = sum_r p_r |r><r| of a reservoir decomposition."""
    return np.einsum("r,ri,rj->ij", spec.probs, spec.states,
                     spec.states.conj())


def _degenerate_res():
    return ReservoirSpec(probs=[0.2, 0.5, 0.3],
                         states=np.eye(3, dtype=complex),
                         energies=[0.0, 1.0, 1.0])


class TestBlockFirstMoment:
    def test_one_dimensional_block(self):
        res = _degenerate_res()
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6))
                            + 1j * rng.normal(size=(6, 6)))
        psi = np.array([0.6, 0.8], dtype=complex)
        got = block_first_moment(q, res, psi, [0])
        k = partial_inner(res.states[0], q, res.states[0], 2, 3)
        assert got == pytest.approx(0.2 * np.vdot(psi, k @ psi))

    def test_identity_full_space(self):
        res = ReservoirSpec(probs=[0.4, 0.6], states=np.eye(2, dtype=complex),
                            energies=[1.0, 1.0])
        psi = np.array([1.0, 0.0], dtype=complex)
        assert block_first_moment(np.eye(4), res, psi, [0, 1]) \
            == pytest.approx(1.0)

    def test_rotated_block_invariance(self):
        res = _degenerate_res()
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6))
                            + 1j * rng.normal(size=(6, 6)))
        psi = np.array([0.6, 0.8], dtype=complex)
        base = block_first_moment(q, res, psi, [1, 2])
        for seed in range(5):
            g = np.random.default_rng(seed)
            v, _ = np.linalg.qr(g.normal(size=(2, 2))
                                + 1j * g.normal(size=(2, 2)))
            alt = redecompose(res, {1: v})
            got = block_first_moment(q, alt, psi, [1, 2])
            assert abs(got - base) < 1e-10

    def test_mixed_energies_rejected(self):
        res = _degenerate_res()
        with pytest.raises(InvalidBlock):
            block_first_moment(np.eye(6), res, np.array([1.0, 0.0]), [0, 1])


class TestRedecompose:
    def test_identity_unitaries(self):
        res = _degenerate_res()
        alt = redecompose(res, {1: np.eye(2)})
        assert np.allclose(alt.probs, res.probs)
        assert np.allclose(alt.states, res.states)

    def test_hadamard_equal_weights(self):
        res = ReservoirSpec(probs=[0.5, 0.5], states=np.eye(2, dtype=complex),
                            energies=[0.0, 0.0])
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        alt = redecompose(res, {0: had})
        assert np.allclose(density(alt), density(res), atol=1e-12)
        assert np.allclose(alt.probs, [0.5, 0.5])

    def test_unequal_weights_density_preserved(self):
        res = _degenerate_res()
        rng = np.random.default_rng(9)
        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt = redecompose(res, {1: v})
        assert alt.orthonormal is False
        assert np.allclose(density(alt), density(res), atol=1e-12)
        assert not np.allclose(alt.states, res.states)

    def test_non_unitary_rejected(self):
        res = _degenerate_res()
        with pytest.raises(InvalidDecomposition):
            redecompose(res, {1: np.array([[1.0, 0.0], [0.0, 2.0]])})

    def test_wrong_shape_rejected(self):
        res = _degenerate_res()
        with pytest.raises(InvalidDecomposition):
            redecompose(res, {1: np.eye(3)})

    def test_zero_weight_member_rejected(self):
        res = ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2, dtype=complex),
                            energies=[0.0, 0.0])
        with pytest.raises(InvalidDecomposition, match="zero weight"):
            redecompose(res, {0: np.eye(2)})

    def test_higher_z_moments_may_change(self):
        # decomposition freedom is documented to leave only the FIRST
        # Z-moment invariant; verify a second moment actually moves
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6))
                            + 1j * rng.normal(size=(6, 6)))
        res = _degenerate_res()
        psi = np.array([0.6, 0.8], dtype=complex)

        def z2(spec):
            return sum(
                p * np.vdot(psi, partial_inner(r, q, r, 2, 3) @ psi) ** 2
                for p, r in zip(spec.probs, spec.states))

        v, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        alt = redecompose(res, {1: v})
        assert abs(z2(alt) - z2(res)) > 1e-6


def loop_decomposition_check(res, psi, u_fin, seed):
    """The per-seed, per-state reference: ``redecompose`` and one
    ``partial_inner`` per reservoir state."""
    rng = np.random.default_rng(seed)

    def first_moments(spec):
        v = np.array([np.vdot(psi, partial_inner(r, u_fin, r, 2, res.dim)
                              @ psi) for r in spec.states])
        return spec.probs @ v, spec.probs @ (v / abs(v))

    z0, h0 = first_moments(res)
    blocks = [(bi, len(blk)) for bi, blk in enumerate(res.blocks())
              if len(blk) > 1]
    worst_z, worst_h = 0.0, 0.0
    for _ in range(DECOMPOSITION_SEEDS):
        unitaries = {}
        for bi, k in blocks:
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            unitaries[bi] = np.linalg.qr(g)[0]
        z1, h1 = first_moments(redecompose(res, unitaries))
        worst_z = max(worst_z, abs(z1 - z0))
        worst_h = max(worst_h, abs(h1 - h0))
    return worst_z, worst_h


class TestDecompositionCheck:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_matches_per_state_loop(self, seed):
        # degenerate blocks of sizes 2 and 3 with unequal weights, in a
        # rotated reservoir basis, under a generic joint unitary
        rng = np.random.default_rng(100 + seed)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6))
                                + 1j * rng.normal(size=(6, 6)))
        res = ReservoirSpec(probs=[0.3, 0.25, 0.15, 0.12, 0.1, 0.08],
                            states=basis,
                            energies=[0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        u_fin, _ = np.linalg.qr(rng.normal(size=(12, 12))
                                + 1j * rng.normal(size=(12, 12)))
        psi = np.array([0.6, 0.8j])
        got = decomposition_check(res, psi, u_fin, seed)
        want = loop_decomposition_check(res, psi, u_fin, seed)
        assert got[1] > 1e-3  # the H moment does move
        assert got == pytest.approx(want, abs=1e-12, rel=0.0)
