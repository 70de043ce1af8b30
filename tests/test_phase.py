"""Geometric-phase functional: dynamic-phase removal, Z, gauge behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdist.channels import ReservoirSpec, SystemEnsemble
from gpdist.distribution import PhaseDistribution
from gpdist.errors import (DegenerateTrajectory, InvalidOperand, InvalidState,
                           UndefinedGP)
from gpdist.hilbert import SIGMA_Z, Schedule, TimeGrid, time_ordered_propagator
from gpdist.models import PhaseDampingParams, TwoLevelAtomParams
from gpdist.phase import (
    Trajectory,
    angle_to_positive_branch,
    dynamic_phase,
    gauge_transform,
    principal_angle,
    unwrap_sweep,
    z_functional,
)

OMEGA = 1.0


def precession_states(theta, grid):
    """Closed two-level precession under H = -(w/2) sz, analytic."""
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    t = grid.times
    return np.stack([s * np.exp(-0.5j * OMEGA * t),
                     c * np.exp(0.5j * OMEGA * t)], axis=1)


def precession_trajectory(theta, n_steps=4096, t_end=2.0 * np.pi):
    grid = TimeGrid(0.0, t_end, n_steps)
    return Trajectory(grid=grid, states=precession_states(theta, grid))


class TestTrajectory:
    def test_shape_validation(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            Trajectory(grid=grid, states=np.ones((3, 2), dtype=complex))

    def test_degenerate_norm_raises(self):
        grid = TimeGrid(0.0, 1.0, 2)
        states = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(DegenerateTrajectory):
            Trajectory(grid=grid, states=states)

    def test_norms(self):
        traj = precession_trajectory(np.pi / 3, n_steps=8)
        assert np.allclose(traj.norms(), 1.0)


NAN = float("nan")


# Each check must reject a non-finite value, which passes both x < 0 and
# x > tol; the phase of a NaN path would otherwise come out as nan+nanj.
@pytest.mark.parametrize("build, error", [
    (lambda: Trajectory(grid=TimeGrid(0.0, 1.0, 2),
                        states=[[NAN, 0.0], [1.0, 0.0], [1.0, 0.0]]),
     InvalidOperand),
    (lambda: ReservoirSpec(probs=[NAN], states=[[1.0]], energies=[0.0]),
     InvalidState),
    (lambda: ReservoirSpec(probs=[1.0, 0.0], states=np.eye(2),
                           energies=[0.0, NAN]),
     InvalidState),
    (lambda: SystemEnsemble(probs=[NAN], states=[[1.0, 0.0]]), InvalidState),
    (lambda: PhaseDistribution(kind="z", weights=[NAN], values=[1.0]),
     ValueError),
    (lambda: TimeGrid(0.0, NAN, 4), ValueError),
    (lambda: TwoLevelAtomParams(omega=NAN, gamma0=0.0), ValueError),
    (lambda: TwoLevelAtomParams(omega=1.0, gamma0=float("inf")), ValueError),
    (lambda: PhaseDampingParams(omega=float("inf"), alpha=0.0), ValueError),
    (lambda: PhaseDampingParams(omega=1.0, alpha=NAN), ValueError),
], ids=["trajectory", "reservoir", "reservoir_energy", "ensemble",
        "distribution", "grid", "atom_omega", "atom_gamma0", "damping_omega",
        "damping_alpha"])
def test_non_finite_input_rejected(build, error):
    with pytest.raises(error):
        build()


class TestDynamicPhase:
    def test_eigenstate_minus_et(self):
        e = 0.7
        grid = TimeGrid(0.0, 2.0 * np.pi, 65536)
        states = np.outer(np.exp(-1j * e * grid.times),
                          np.array([1.0, 0.0]))
        got = dynamic_phase(Trajectory(grid=grid, states=states))
        assert abs(got - (-e * 2.0 * np.pi)) < 1e-8

    def test_parallel_transport_zero(self):
        # real rotating frame vector: Im<psi|psi_dot> = 0 identically
        grid = TimeGrid(0.0, np.pi, 4096)
        states = np.stack([np.cos(grid.times), np.sin(grid.times)], axis=1)
        got = dynamic_phase(Trajectory(grid=grid, states=states.astype(complex)))
        assert abs(got) < 1e-12

    def test_precession_value(self):
        # one-period dynamic phase is +pi cos(theta) in this basis convention
        theta = np.pi / 3
        traj = precession_trajectory(theta, n_steps=16384)
        assert abs(dynamic_phase(traj) - np.pi * np.cos(theta)) < 1e-7


class TestZFunctional:
    def test_constant_trajectory(self):
        grid = TimeGrid(0.0, 1.0, 8)
        psi = np.array([0.6, 0.8j])
        states = np.tile(psi, (9, 1))
        res = z_functional(Trajectory(grid=grid, states=states))
        assert abs(res.z - np.vdot(psi, psi)) < 1e-12
        assert abs(res.beta) < 1e-12

    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 2,
                                       3 * np.pi / 4])
    def test_closed_precession_beta(self, theta):
        res = z_functional(precession_trajectory(theta))
        beta = angle_to_positive_branch(res.beta)
        assert abs(beta - 2.0 * np.pi * np.sin(theta / 2.0) ** 2) < 1e-6

    def test_beta_is_arg_z(self):
        res = z_functional(precession_trajectory(np.pi / 5))
        assert res.beta == float(np.angle(res.z))
        assert abs(np.exp(1j * res.beta) - res.z / abs(res.z)) < 1e-12

    def test_orthogonal_final_state_undefined(self):
        # half a precession period at theta = pi/2 lands orthogonal to start
        traj = precession_trajectory(np.pi / 2, t_end=np.pi)
        with pytest.raises(UndefinedGP):
            z_functional(traj)

    def test_numeric_propagation_matches_analytic(self):
        grid = TimeGrid(0.0, 2.0 * np.pi, 4096)
        us = time_ordered_propagator(Schedule.constant(-0.5 * OMEGA * SIGMA_Z),
                                     grid)
        theta = np.pi / 4
        psi0 = np.array([np.sin(theta / 2), np.cos(theta / 2)], dtype=complex)
        traj = Trajectory(grid=grid,
                          states=np.einsum("kab,b->ka", us, psi0))
        res = z_functional(traj)
        ref = z_functional(precession_trajectory(theta))
        assert abs(res.z - ref.z) < 1e-8


class TestGauge:
    def test_zero_gauge_identity(self):
        traj = precession_trajectory(np.pi / 4, n_steps=64)
        out = gauge_transform(traj, lambda t: 0.0)
        assert np.allclose(out.states, traj.states)

    def test_linear_gauge_invariance(self):
        traj = precession_trajectory(np.pi / 4, n_steps=65536)
        z0 = z_functional(traj).z
        z1 = z_functional(gauge_transform(traj, lambda t: 0.37 * t)).z
        assert abs(z1 - z0) < 1e-8

    def test_random_smooth_gauges(self):
        traj = precession_trajectory(np.pi / 3, n_steps=32768)
        z0 = z_functional(traj).z
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = rng.normal(scale=0.3, size=3)
            alpha = (lambda t, c=c:
                     c[0] + c[1] * (t / (2 * np.pi))
                     + c[2] * (t / (2 * np.pi)) ** 2)
            z1 = z_functional(gauge_transform(traj, alpha)).z
            assert abs(z1 - z0) < 1e-8

    def test_array_gauge_and_validation(self):
        traj = precession_trajectory(np.pi / 4, n_steps=16)
        out = gauge_transform(traj, np.zeros(17))
        assert np.allclose(out.states, traj.states)
        with pytest.raises(ValueError):
            gauge_transform(traj, np.zeros(5))


class TestInvariances:
    def test_norm_scaling(self):
        traj = precession_trajectory(np.pi / 4)
        res = z_functional(traj)
        scaled = Trajectory(grid=traj.grid, states=3.5 * traj.states)
        res2 = z_functional(scaled)
        assert res2.beta == pytest.approx(res.beta, abs=1e-12)
        assert abs(res2.z) == pytest.approx(3.5**2 * abs(res.z), rel=1e-12)

    def test_reparametrization(self):
        # same projective path traversed with a monotone clock change
        theta = np.pi / 4
        grid = TimeGrid(0.0, 2.0 * np.pi, 8192)
        u = grid.times / (2.0 * np.pi)
        warped = 2.0 * np.pi * u**2
        s, c = np.sin(theta / 2), np.cos(theta / 2)
        states = np.stack([s * np.exp(-0.5j * warped),
                           c * np.exp(0.5j * warped)], axis=1)
        beta_warp = z_functional(Trajectory(grid=grid, states=states)).beta
        beta_ref = z_functional(precession_trajectory(theta, n_steps=8192)).beta
        assert abs(beta_warp - beta_ref) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0),
           theta=st.floats(min_value=0.2, max_value=3.0))
    def test_norm_scaling_property(self, scale, theta):
        traj = precession_trajectory(theta, n_steps=256)
        scaled = Trajectory(grid=traj.grid, states=scale * traj.states)
        assert z_functional(scaled).beta == pytest.approx(
            z_functional(traj).beta, abs=1e-10)


class TestAngles:
    def test_unwrap_sweep(self):
        raw = [3.0, -3.1, -2.9, 3.1]
        out = unwrap_sweep(raw)
        assert np.all(np.abs(np.diff(out)) < np.pi)
        assert np.allclose(np.mod(out - raw, 2.0 * np.pi), 0.0, atol=1e-12)

    def test_unwrap_with_start(self):
        out = unwrap_sweep([-3.0], start=2.0 * np.pi)
        assert out[0] == pytest.approx(-3.0 + 2.0 * np.pi)

    def test_principal_angle(self):
        assert principal_angle(3.0 * np.pi) == pytest.approx(np.pi)
        assert principal_angle(-0.5) == pytest.approx(-0.5)

    def test_positive_branch(self):
        assert angle_to_positive_branch(-0.5) == pytest.approx(
            2.0 * np.pi - 0.5)
        assert angle_to_positive_branch(1.0) == pytest.approx(1.0)
