"""Atomic geometric-phase distributions and their moments.

Two candidate distributions are supported:

* Z-valued: atoms at the complex values Z[psi_{r,s}] weighted by the initial
  probabilities p_r * q_s; the mean GP is the argument of the first moment.
* H-valued (Holevo-style): atoms at the unit-modulus phases Z/|Z|; the
  modulus of the first moment sets the spread W = |<e^{i beta}>|^{-2} - 1.

Atoms are exact weighted delta functions (no binning); coincident atoms are
not merged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ENERGY_DEGENERACY_TOL, ReservoirSpec
from .errors import InvalidBlock, InvalidDecomposition, UndefinedGP
from .hilbert import partial_inner
from .phase import ClosedFormPath, Trajectory, z_functional

WEIGHT_TOL = 1e-10
FIRST_MOMENT_EPS = 1e-12  # |<z>_Z| below this leaves the mean GP undefined
# |<e^{is}>|^2 is <= 1 up to rounding; spreads below this floor are reported
# as exactly zero so that sharp distributions come out sharp.
SPREAD_NOISE_FLOOR = 1e-14
DECOMPOSITION_SEEDS = 10  # random redecompositions in ``decomposition_check``


@dataclass(frozen=True)
class PhaseDistribution:
    """Weighted atom list; ``kind`` is "z" (complex values) or "h" (phases)."""

    kind: str
    weights: np.ndarray
    values: np.ndarray
    error_estimate: float | None = None  # largest atom error estimate, rad

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", values)
        if self.kind not in ("z", "h"):
            raise ValueError("kind must be 'z' or 'h'")
        if len(weights) == 0 or len(weights) != len(values):
            raise ValueError("need one weight per atom, at least one atom")
        if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= WEIGHT_TOL):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("atom values must be finite")
        if self.kind == "h" and not np.all(np.abs(np.abs(values) - 1.0) <= 1e-12):
            raise ValueError("h-valued atoms must lie on the unit circle")
        if self.error_estimate is not None and not (
                np.isfinite(self.error_estimate) and self.error_estimate >= 0):
            raise ValueError("error_estimate must be finite and >= 0")

    def to_h(self) -> "PhaseDistribution":
        """Project Z-valued atoms onto the unit circle."""
        if self.kind == "h":
            return self
        mod = np.abs(self.values)
        if np.any(mod < 1e-300):
            raise UndefinedGP("zero atom cannot be projected onto the circle")
        v = self.values / mod
        return PhaseDistribution(kind="h", weights=self.weights,
                                 values=v / np.abs(v),
                                 error_estimate=self.error_estimate)


@dataclass(frozen=True)
class MomentReport:
    mean_gp_z: float          # arg <z>_Z, radians, principal branch
    mean_gp_h: complex        # <e^{is}>_H (phase AND modulus are meaningful)
    spread_w: float           # |<e^{is}>|^{-2} - 1, dimensionless
    z_moments: np.ndarray     # <z^n> for n = 1..n_max
    h_moments: np.ndarray     # <e^{ins}> for n = 1..n_max


def build_distribution(
    weighted_trajs: list[tuple[float, Trajectory | ClosedFormPath]],
    kind: str = "z",
) -> PhaseDistribution:
    """One atom per trajectory, valued Z[psi] ("z") or Z/|Z| ("h").

    A trajectory with undefined GP contributes a legal zero atom to a
    Z-valued build but aborts an H-valued build, which needs every phase.
    The distribution's ``error_estimate`` is the largest over the defined
    atoms, or None when one of them has none (a sampled trajectory).
    """
    weights, values, estimates = [], [], []
    for w, traj in weighted_trajs:
        try:
            res = z_functional(traj)
            z = res.z
            estimates.append(res.error_estimate)
        except UndefinedGP:
            if kind == "h":
                raise
            z = 0.0
        weights.append(w)
        values.append(z)
    estimate = (None if None in estimates or not estimates
                else max(estimates))
    dist = PhaseDistribution(kind="z", weights=np.array(weights),
                             values=np.array(values), error_estimate=estimate)
    return dist.to_h() if kind == "h" else dist


def moments(dist: PhaseDistribution, n_max: int = 2) -> MomentReport:
    """First ``n_max`` moments of both measures plus mean GP and spread.

    For a Z-valued input the H-side quantities are computed from the
    projected atoms; a Z-valued first moment below ``FIRST_MOMENT_EPS`` raises
    UndefinedGP.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    z_moms = np.array([np.sum(dist.weights * dist.values**n) for n in ns])
    h = dist.to_h()
    h_moms = np.array([np.sum(h.weights * h.values**n) for n in ns])

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
    energies = res.energies.copy()
    for bi, v in block_unitaries.items():
        blk = blocks[bi]
        v = np.asarray(v, dtype=complex)
        k = len(blk)
        if v.shape != (k, k):
            raise InvalidDecomposition(
                f"block {bi} has size {k}, unitary has shape {v.shape}"
            )
        if np.linalg.norm(v.conj().T @ v - np.eye(k)) > 1e-10:
            raise InvalidDecomposition("block transformation is not unitary")
        sq = np.sqrt(probs[blk])[:, None] * states[blk]   # rows sqrt(p_i)|r_i>
        new = v @ sq
        new_p = np.einsum("ji,ji->j", new.conj(), new).real
        if np.any(new_p < 1e-300):
            raise InvalidDecomposition("degenerate member with zero weight")
        probs[blk] = new_p
        states[blk] = new / np.sqrt(new_p)[:, None]
    out = ReservoirSpec(probs=probs, states=states, energies=energies,
                        orthonormal=False)
    for bi in block_unitaries:
        if np.linalg.norm(out.block_density(blocks[bi])
                          - res.block_density(blocks[bi])) > 1e-12:
            raise InvalidDecomposition("block density matrix changed")
    return out


def decomposition_check(res: ReservoirSpec, psi_s: np.ndarray,
                        u_fin: np.ndarray, seed: int) -> tuple[float, float]:
    """Redecompose degenerate blocks with seeded random unitaries and return
    the worst shift of each first moment (Z, H) under the common-D(E)
    convention."""
    rng = np.random.default_rng(seed)
    dim_s = len(psi_s)

    def first_moments(spec):
        # v_r = <psi|<r|U|r>|psi>; the blocks partition the states, so the
        # block moments sum to Z = sum p_r v_r, and H = sum p_r v_r / |v_r|
        v = np.array([np.vdot(psi_s, partial_inner(r, u_fin, r, dim_s,
                                                   res.dim) @ psi_s)
                      for r in spec.states])
        return spec.probs @ v, spec.probs @ (v / abs(v))

    z0, h0 = first_moments(res)
    worst_z, worst_h = 0.0, 0.0
    blocks = [(bi, len(blk)) for bi, blk in enumerate(res.blocks())
              if len(blk) > 1]
    for _ in range(DECOMPOSITION_SEEDS if blocks else 0):
        unitaries = {}
        for bi, k in blocks:
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            unitaries[bi] = np.linalg.qr(g)[0]
        z1, h1 = first_moments(redecompose(res, unitaries))
        worst_z = max(worst_z, abs(z1 - z0))
        worst_h = max(worst_h, abs(h1 - h0))
    return worst_z, worst_h
