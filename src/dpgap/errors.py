"""Exception hierarchy.

Two top-level families map onto the CLI exit codes: ``PreconditionError``
(bad inputs, exit 2) and ``NumericalError`` (a computation could not be
completed, exit 3).  Every exception carries a short machine-parsable
``code`` used on stderr.
"""


class DpgapError(Exception):
    code = "DPGAP_ERROR"


class PreconditionError(DpgapError):
    code = "PRECONDITION"


class DomainError(PreconditionError):
    """Argument outside the mathematical domain (non-finite, wrong sign...)."""

    code = "DOMAIN"


class MeshError(PreconditionError):
    code = "MESH_DEGENERATE"


class RangeError(PreconditionError):
    code = "RANGE"


class GapPreconditionError(PreconditionError):
    code = "GAP_PRECONDITION_B_NOT_DUAL_INTEGRABLE"


class NumericalError(DpgapError):
    code = "NUMERICAL"


class UnboundedConjugateError(NumericalError):
    code = "CONJUGATE_UNBOUNDED"


class NormOverflowError(NumericalError):
    code = "NORM_OVERFLOW"


class EnergyOverflowError(NumericalError):
    code = "ENERGY_OVERFLOW"


class NormalizationError(NumericalError):
    code = "NORMALIZATION_INFEASIBLE"


class NoRemovableSingularityError(NumericalError):
    """The dual tail integral converges: no vanishing-energy cutoff exists.

    Raised by the cutoff builder exactly in the gap regime.
    """

    code = "NO_REMOVABLE_SINGULARITY"


class NonConvergedError(NumericalError):
    code = "SOLVER_NON_CONVERGED"
