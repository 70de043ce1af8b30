"""Exception hierarchy for gpdist.

Numerical failures are always raised as typed exceptions, never returned as
silent NaNs.
"""


class GpdistError(Exception):
    """Base class for all gpdist errors."""


class InvalidOperand(GpdistError):
    """Matrix or vector contains non-finite entries."""


class DimensionError(GpdistError):
    """Operands have incompatible dimensions."""


class InvalidState(GpdistError):
    """A state vector is invalid (e.g. zero norm where a direction is needed)."""


class DegenerateTrajectory(GpdistError):
    """A trajectory norm fell below the positivity threshold."""


class UndefinedGP(GpdistError):
    """The geometric phase is undefined because Z[psi] (or a first moment)
    vanishes within tolerance."""


class IntegrationDiverged(GpdistError):
    """A master-equation state lost trace beyond tolerance or is not
    finite, as when the Lindblad generator overflows."""


class InvalidChannel(GpdistError):
    """Kraus channel violates the completeness relation."""


class InvalidDecomposition(GpdistError):
    """A reservoir redecomposition changed the block density matrix."""


class RCondViolated(GpdistError):
    """The reservoir coupling has <r|R|r> != 0 for some populated eigenstate,
    so the perturbative phase formula is spurious."""


class ConfigError(GpdistError):
    """A scenario configuration file is malformed."""


class QuadratureNotConverged(GpdistError):
    """Gauss-Legendre values of a dynamic phase still disagree at the node
    cap."""
