"""Geometric-phase distributions for open quantum systems.

Evolves small quantum systems under non-unitary and Kraus dynamics, removes
the dynamic phase from overlap phases, and builds the two candidate
geometric-phase distributions (complex-valued P_Z and unit-modulus P_H) with
their moments and Holevo-style spread, including the second-order
weak-coupling formula and closed-form two-level-atom models.
"""

__version__ = "0.3.0"

from .errors import (
    ConfigError,
    DegenerateTrajectory,
    DimensionError,
    GpdistError,
    InconsistentModel,
    IntegrationDiverged,
    InvalidBlock,
    InvalidChannel,
    InvalidDecomposition,
    InvalidOperand,
    InvalidState,
    RCondViolated,
    UndefinedGP,
)
from .hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Schedule,
    TimeGrid,
    matexp,
    partial_inner,
    partial_trace_reservoir,
    time_ordered_propagator,
)
from .phase import (
    PhaseResult,
    Trajectory,
    dynamic_phase,
    gauge_transform,
    unwrap_sweep,
    z_functional,
)
from .channels import (
    KrausChannel,
    LindbladModel,
    ReservoirSpec,
    SystemEnsemble,
    adapted_basis,
    apply_kraus,
    conditional_kraus_elements,
    conditional_trajectories,
    integrate_lindblad,
    lindblad_rhs,
    liouvillian,
    spectral_conditional_trajectories,
)
from .distribution import (
    MomentReport,
    PhaseDistribution,
    block_first_moment,
    build_distribution,
    merge_atoms,
    moments,
    redecompose,
)
from .weakcoupling import (
    PerturbationOperators,
    WeakCouplingModel,
    build_AB,
    delta_z,
    delta_z_from_b,
    lindblad_identification,
    perturbative_moments,
)
from .models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    closed_system_gp,
    pd_kraus_channel,
    pd_lindblad_model,
    pd_moments,
    psi_initial,
    se_distributions,
    se_kraus_channel,
    se_lindblad_model,
    se_mean_gp_zero_temperature,
)
