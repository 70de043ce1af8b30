"""Geometric-phase distributions for open quantum systems.

Evolves small quantum systems under non-unitary and Kraus dynamics, removes
the dynamic phase from overlap phases, and builds one weighted atom set Z[psi]
carrying both candidate geometric-phase distributions (P_Z at the values,
P_H at their phases) with their moments and Holevo-style spread, plus the
second-order weak-coupling formula and closed-form two-level-atom models.
"""

__version__ = "0.11.0"

from .errors import (
    ConfigError,
    DegenerateTrajectory,
    DimensionError,
    GpdistError,
    IntegrationDiverged,
    InvalidBlock,
    InvalidChannel,
    InvalidDecomposition,
    InvalidOperand,
    InvalidState,
    QuadratureNotConverged,
    RCondViolated,
    UndefinedGP,
)
from .hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TimeGrid,
    partial_inner,
)
from .phase import (
    ClosedFormPath,
    family_z,
)
from .channels import (
    KrausChannel,
    LindbladModel,
    ReservoirSpec,
    SystemEnsemble,
    apply_kraus,
    integrate_lindblad,
    liouvillian,
    spectral_conditional_trajectories,
)
from .distribution import (
    MomentReport,
    PhaseDistribution,
    block_first_moment,
    build_distribution,
    decomposition_check,
    moments,
    redecompose,
)
from .weakcoupling import (
    PerturbationOperators,
    WeakCouplingModel,
    build_AB,
    delta_z_from_b,
    perturbative_moments,
    reservoir_averages,
)
from .models import (
    PhaseDampingParams,
    TwoLevelAtomParams,
    closed_system_gp,
    pd_kraus_channel,
    pd_lindblad_model,
    pd_moments,
    psi_initial,
    se_distribution,
    se_kraus_channel,
    se_lindblad_model,
    se_mean_gp_zero_temperature,
)
