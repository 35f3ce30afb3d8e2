"""Exception types shared across the package."""


class ErrpkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ErrpkitError):
    """Base class for errors in data, configuration or arguments that the
    caller must fix; the command line exits 2 on them, and 1 on any other
    :class:`ErrpkitError`."""


class InvalidMatrix(ErrpkitError):
    """Matrix violates a structural requirement (squareness, symmetry, finiteness)."""


class NotPositiveDefinite(InvalidMatrix):
    """A nonpositive eigenvalue was found where positive-definiteness is required."""


class DimMismatch(InvalidInput):
    """Operands have incompatible shapes or dimensions."""


class NumericalFailure(ErrpkitError):
    """A numerical routine failed to produce a usable result."""


class NonConvergence(NumericalFailure):
    """An iterative scheme did not reach tolerance within its iteration budget."""


class EmptyInput(InvalidInput):
    """An operation received an empty collection where data is required."""


class InvalidFilterSpec(InvalidInput):
    """Filter band or frequency is outside the valid range for the sampling rate."""


class InsufficientChannels(InvalidInput):
    """Too few channels for the requested operation."""


class InvalidWindow(InvalidInput):
    """A time window falls outside the epoch extent or is too short."""


class InvalidResampleFactor(InvalidInput):
    """Requested resampling rate is not an integer divisor of the input rate."""


class DegenerateTrainingSet(InvalidInput):
    """Training data does not contain both classes."""


class InsufficientData(InvalidInput):
    """Not enough data to honour the requested split or estimate."""


class PlanMismatch(InvalidInput):
    """Two results being compared were not produced under the same fold plan."""
