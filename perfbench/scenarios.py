"""Seeded scenario generator: YAML-ready dicts for the gpdist CLI.

Every value is a plain Python float, int or list, because ``yaml.safe_dump``
rejects numpy scalars and the CLI loader truncates a float ``n_steps``.
The seed moves parameters within narrow bands around fixed scales, so the
work per pass and the size of the grid error stay comparable across seeds.
"""

from __future__ import annotations

import math

import numpy as np

COUPLING_G = 0.02


def _floats(xs) -> list[float]:
    return [float(x) for x in xs]


def _cell(z: complex):
    return [float(z.real), float(z.imag)] if z.imag != 0.0 else float(z.real)


def _matrix(m: np.ndarray) -> list[list]:
    return [[_cell(complex(z)) for z in row] for row in m]


def _sorted_jitter(rng, lo: float, hi: float, n: int) -> list[float]:
    """``n`` sorted values on an even ladder from lo to hi, each moved by
    up to a fiftieth of the spacing."""
    ladder = np.linspace(lo, hi, n)
    step = (hi - lo) / max(n - 1, 1)
    return _floats(ladder + rng.uniform(-0.02, 0.02, n) * step)


def reservoir(rng, dim_r: int, e_max: float = 1.5,
              kt: float = 1.0) -> tuple[list[float], list[float]]:
    """Reservoir ladder whose middle rung is doubled, with thermal populations.

    The degenerate pair gives ``decomposition_check`` a block to
    redecompose.
    """
    energies = np.asarray(_sorted_jitter(rng, 0.0, e_max, dim_r - 1))
    energies = np.sort(np.append(energies, energies[(dim_r - 1) // 2]))
    boltz = np.exp(-(energies - energies[0]) / kt)
    probs = boltz / boltz.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return _floats(energies), _floats(probs)


def coupling_matrix(rng, dim_r: int) -> np.ndarray:
    """Random Hermitian R with zero diagonal and unit spectral norm.

    The zero diagonal makes ``<r|R|r> = 0`` on every reservoir eigenstate,
    the condition the perturbative GP formula requires.
    """
    a = rng.normal(size=(dim_r, dim_r)) + 1j * rng.normal(size=(dim_r, dim_r))
    r = 0.5 * (a + a.conj().T)
    np.fill_diagonal(r, 0.0)
    return r / np.linalg.norm(r, 2)


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def custom_joint(rng, dim_r: int, sweep: str, n_points: int, n_steps: int,
                 outputs: list[str]) -> dict:
    """``custom_joint`` scenario with a d_S=2 x d_R joint space, sweeping
    ``theta`` or ``omega``."""
    energies, probs = reservoir(rng, dim_r)
    r_op = coupling_matrix(rng, dim_r)
    params = {
        "omega": float(rng.uniform(0.99, 1.01)),
        "theta": float(rng.uniform(1.08, 1.12)),
        "reservoir_energies": energies,
        "reservoir_probs": probs,
        "couplings": [{"g": COUPLING_G, "r": _matrix(r_op),
                       "s": _matrix(SIGMA_X)}],
    }
    lo, hi = {"theta": (0.6, 2.4), "omega": (0.8, 1.2)}[sweep]
    return {
        "schema": 1,
        "model": "custom_joint",
        "params": params,
        "grid": {"n_steps": int(n_steps)},
        "sweep": {"parameter": sweep,
                  "values": _sorted_jitter(rng, lo, hi, n_points)},
        "outputs": list(outputs),
    }


def custom_lindblad_se(rng, n_steps: int) -> dict:
    """Spontaneous emission as a master equation: one jump operator
    sqrt(gamma)|g><e|.  No sweep: the CLI integrates only the first point."""
    gamma = float(rng.uniform(0.04, 0.06))
    return {
        "schema": 1,
        "model": "custom_lindblad",
        "params": {
            "omega": float(rng.uniform(0.99, 1.01)),
            "theta": float(rng.uniform(0.6, 2.4)),
            "jump_ops": [[[0.0, math.sqrt(gamma)], [0.0, 0.0]]],
        },
        "grid": {"n_steps": int(n_steps)},
        "outputs": [],
    }


def phase_damping(rng, n_points: int, n_steps: int) -> dict:
    return {
        "schema": 1,
        "model": "phase_damping",
        "params": {
            "omega": float(rng.uniform(0.99, 1.01)),
            "alpha": float(rng.uniform(0.009, 0.011)),
        },
        "grid": {"n_steps": int(n_steps)},
        "sweep": {"parameter": "theta",
                  "values": _sorted_jitter(rng, 0.4, 2.7, n_points)},
        "outputs": ["moments", "atoms"],
    }
