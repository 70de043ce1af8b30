"""Atomic geometric-phase distributions and their moments.

One set of atoms, the complex values Z[psi_{r,s}] weighted by the initial
probabilities p_r * q_s, carries both candidate distributions:

* P_Z, at the values; the mean GP is the argument of the first moment.
* P_H (Holevo-style), at the unit-modulus phases Z/|Z|; the modulus of the
  first moment sets the spread W = |<e^{i beta}>|^{-2} - 1.

Atoms are exact weighted delta functions (no binning); coincident atoms are
not merged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ENERGY_DEGENERACY_TOL, ReservoirSpec
from .errors import InvalidBlock, InvalidDecomposition, UndefinedGP
from .hilbert import partial_inner
from .phase import ClosedFormPath, family_z

WEIGHT_TOL = 1e-10
FIRST_MOMENT_EPS = 1e-12  # |<z>_Z| below this leaves the mean GP undefined
# |<e^{is}>|^2 is <= 1 up to rounding; spreads below this floor are reported
# as exactly zero so that sharp distributions come out sharp.
SPREAD_NOISE_FLOOR = 1e-14
DECOMPOSITION_SEEDS = 10  # random redecompositions in ``decomposition_check``


@dataclass(frozen=True)
class PhaseDistribution:
    """Weighted complex Z atoms; ``moments`` reads P_Z and P_H off them."""

    weights: np.ndarray
    values: np.ndarray
    error_estimate: float | None = None  # largest atom error estimate, rad

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)
        if len(weights) == 0 or len(weights) != len(values):
            raise ValueError("need one weight per atom, at least one atom")
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= WEIGHT_TOL):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("atom values must be finite")
        if self.error_estimate is not None and not (
                np.isfinite(self.error_estimate) and self.error_estimate >= 0):
            raise ValueError("error_estimate must be finite and >= 0")


@dataclass(frozen=True)
class MomentReport:
    mean_gp_z: float          # arg <z>_Z, radians, principal branch
    mean_gp_h: complex        # <e^{is}>_H (phase AND modulus are meaningful)
    spread_w: float           # |<e^{is}>|^{-2} - 1, dimensionless
    z_moments: np.ndarray     # <z^n> for n = 1..n_max
    h_moments: np.ndarray     # <e^{ins}> for n = 1..n_max


def build_distribution(weights: np.ndarray,
                       family: ClosedFormPath) -> PhaseDistribution:
    """P_Z with one atom per member of ``family``, weighted by ``weights``
    and valued Z[psi], from one ``family_z`` call.

    A member with undefined GP is a legal zero atom, on which ``moments``
    raises, since P_H needs every phase.  The distribution's
    ``error_estimate`` is the largest over the defined atoms, or None when
    there are none.
    """
    z, _, errors = family_z(family)
    defined = errors[z != 0.0]
    return PhaseDistribution(weights=weights, values=z, error_estimate=(
        float(defined.max()) if len(defined) else None))


def moments(dist: PhaseDistribution, n_max: int = 2) -> MomentReport:
    """First ``n_max`` moments of both measures plus mean GP and spread.

    P_H takes each atom at its phase u = z / |z|, normalised once more so
    that |u| rounds to 1; a zero atom has no phase and raises UndefinedGP,
    and so does a first Z-moment below ``FIRST_MOMENT_EPS``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    z_moms = np.array([np.sum(dist.weights * dist.values**n) for n in ns])
    mod = np.abs(dist.values)
    if np.any(mod < 1e-300):
        raise UndefinedGP("zero atom cannot be projected onto the circle")
    u = dist.values / mod
    u /= np.abs(u)
    h_moms = np.array([np.sum(dist.weights * u**n) for n in ns])

    first_z = z_moms[0]
    if abs(first_z) < FIRST_MOMENT_EPS:
        raise UndefinedGP("first Z-moment vanishes; mean GP undefined")
    first_h = h_moms[0]
    coherence = first_h.real**2 + first_h.imag**2
    spread = 1.0 / coherence - 1.0
    if abs(spread) < SPREAD_NOISE_FLOOR:
        spread = 0.0
    return MomentReport(
        mean_gp_z=float(np.angle(first_z)),
        mean_gp_h=complex(first_h),
        spread_w=spread,
        z_moments=z_moms,
        h_moments=h_moms,
    )


def block_first_moment(
    u_joint: np.ndarray,
    res: ReservoirSpec,
    psi_s: np.ndarray,
    block: list[int],
) -> complex:
    """Contribution of one degenerate block to the first Z-moment.

    Returns ``sum_{r in block} p_r <psi_S|<r|U|r>|psi_S>``, which is a trace
    over the block density matrix and therefore independent of how the block
    is decomposed into pure states.  The block's common dynamic-phase factor
    D(E) is 1 for parallel-transported states.
    """
    psi_s = np.asarray(psi_s, dtype=complex)
    dim_s = len(psi_s)
    dim_r = res.dim
    e0 = res.energies[block[0]]
    for i in block[1:]:
        if abs(res.energies[i] - e0) >= ENERGY_DEGENERACY_TOL * max(1.0, abs(e0)):
            raise InvalidBlock("block mixes distinct energies")
    acc = 0.0 + 0.0j
    for i in block:
        k = partial_inner(res.states[i], u_joint, res.states[i], dim_s, dim_r)
        acc += res.probs[i] * np.vdot(psi_s, k @ psi_s)
    return complex(acc)


def _mixed_members(probs: np.ndarray, states: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (s, k) and normalised states (s, k, d) of one block's members
    ``u_j = sum_i V[j, i] sqrt(p_i) |r_i>`` for each unitary V of the stack
    ``v`` (s, k, k), from the block's weights ``probs`` and states.

    Raises InvalidDecomposition when a V is not unitary, gives a member of
    zero weight or changes the block density matrix.
    """
    eye = np.eye(v.shape[-1])
    if np.any(np.linalg.norm(v.conj().transpose(0, 2, 1) @ v - eye,
                             axis=(1, 2)) > 1e-10):
        raise InvalidDecomposition("block transformation is not unitary")
    new = v @ (np.sqrt(probs)[:, None] * states)   # rows sqrt(p_i)|r_i>
    new_p = np.einsum("sji,sji->sj", new.conj(), new).real
    if np.any(new_p < 1e-300):
        raise InvalidDecomposition("degenerate member with zero weight")
    new /= np.sqrt(new_p)[..., None]
    density = np.einsum("r,ri,rj->ij", probs, states, states.conj())
    if np.any(np.linalg.norm(
            np.einsum("sr,sri,srj->sij", new_p, new, new.conj()) - density,
            axis=(1, 2)) > 1e-12):
        raise InvalidDecomposition("block density matrix changed")
    return new_p, new


def redecompose(
    res: ReservoirSpec,
    block_unitaries: dict[int, np.ndarray],
) -> ReservoirSpec:
    """Alternative pure-state decomposition of the same reservoir density.

    ``block_unitaries`` maps a block index (position in ``res.blocks()``) to
    a unitary V of the block size; the new unnormalized members are
    ``u_j = sum_i V[j, i] sqrt(p_i) |r_i>`` (square-root decomposition
    freedom), so every block density matrix is preserved exactly.
    """
    blocks = res.blocks()
    probs = res.probs.copy()
    states = res.states.copy()
    for bi, v in block_unitaries.items():
        blk = blocks[bi]
        v = np.asarray(v, dtype=complex)
        k = len(blk)
        if v.shape != (k, k):
            raise InvalidDecomposition(
                f"block {bi} has size {k}, unitary has shape {v.shape}"
            )
        new_p, new = _mixed_members(res.probs[blk], res.states[blk], v[None])
        probs[blk], states[blk] = new_p[0], new[0]
    return ReservoirSpec(probs=probs, states=states,
                         energies=res.energies.copy(), orthonormal=False)


def decomposition_check(res: ReservoirSpec, psi_s: np.ndarray,
                        u_fin: np.ndarray, seed: int) -> tuple[float, float]:
    """Redecompose degenerate blocks with seeded random unitaries and return
    the worst shift of each first moment (Z, H) under the common-D(E)
    convention.

    Each seed draws one unitary per block, in block order, and mixes that
    block's members; a block of zero total weight has nothing to
    redecompose and draws nothing.  Every member's first moment
    v = <psi_S|<u|U|u>|psi_S> is read off one reservoir operator,
    v = <u|M|u> with M = <psi_S|U|psi_S>.
    """
    blocks = [blk for blk in res.blocks()
              if len(blk) > 1 and res.probs[blk].sum() > 0.0]
    if not blocks:
        return 0.0, 0.0
    psi_s = np.asarray(psi_s, dtype=complex)
    dim_s = len(psi_s)
    m = np.einsum("a,arbs,b->rs", psi_s.conj(),
                  u_fin.reshape(dim_s, res.dim, dim_s, res.dim), psi_s)

    def first_moments(probs, states):
        # the blocks partition the states, so the block moments sum to
        # Z = sum p_r v_r, and H = sum p_r v_r / |v_r|
        v = np.einsum("...ri,ij,...rj->...r", states.conj(), m, states)
        return (probs * v).sum(-1), (probs * (v / abs(v))).sum(-1)

    # per seed, the real and imaginary parts of each block's k x k draw
    sizes = [len(blk) for blk in blocks]
    draws = np.random.default_rng(seed).normal(
        size=(DECOMPOSITION_SEEDS, sum(2 * k * k for k in sizes)))
    probs = np.tile(res.probs, (DECOMPOSITION_SEEDS, 1))
    states = np.tile(res.states, (DECOMPOSITION_SEEDS, 1, 1))
    start = 0
    for blk, k in zip(blocks, sizes):
        g = draws[:, start:start + 2 * k * k].reshape(-1, 2, k, k)
        start += 2 * k * k
        v = np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0]
        probs[:, blk], states[:, blk] = _mixed_members(
            res.probs[blk], res.states[blk], v)
    z0, h0 = first_moments(res.probs, res.states)
    z1, h1 = first_moments(probs, states)
    return float(abs(z1 - z0).max()), float(abs(h1 - h0).max())
