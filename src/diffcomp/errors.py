"""Exception types shared across the package.

The CLI maps these onto exit codes: format/size/dimension problems exit 2,
model violations and failed recovery checks exit 3.
"""


class DiffcompError(Exception):
    """Base class for all package-specific errors."""


class FormatError(DiffcompError):
    """A text file or serialized value does not match its documented format."""


class SizeCapError(DiffcompError):
    """A builder would exceed the configured term cap (DIFFCOMP_MAX_TERMS)."""


class InvalidRelabellingError(DiffcompError):
    """A variable relabelling is not injective or collides with kept variables."""


class ModelViolationError(DiffcompError):
    """Execution produced a scalar the model cannot interpret as a bit."""


class SingularMatrixError(DiffcompError):
    """Matrix inversion was requested for a singular matrix."""


class NotHomogeneousError(DiffcompError):
    """An operation requiring a homogeneous input received an inhomogeneous one."""


class InternalInconsistencyError(DiffcompError):
    """A certified post-condition failed; indicates a bug, not bad input."""


class NotApplicableError(DiffcompError):
    """The input is outside the domain where the operation is defined."""


class DimensionError(DiffcompError, ValueError):
    """A size, index or shape is out of range; still a ValueError for library callers."""
