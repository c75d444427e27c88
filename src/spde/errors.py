"""Exception types shared across the package."""


class SpdeError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(SpdeError):
    """Basis construction parameters out of range."""


class DimensionMismatchError(SpdeError):
    """Vector length does not match the basis or state it is used with."""


class UnsupportedModelNormError(SpdeError):
    """Model does not declare the requested V-norm convention."""


class BasisKindMismatchError(SpdeError):
    """State/basis built for a different domain kind than the model expects."""


class IndivisibleFactorError(SpdeError):
    """Coarsening factor does not divide the step count."""


class MissingHypothesisSpecError(SpdeError):
    """Audit requested for a model without the needed declared constants."""


class IncompleteSpecError(SpdeError):
    """Hypothesis constants insufficient to evaluate the moment threshold."""


class NonfiniteStateError(SpdeError):
    """Time stepping produced a non-finite state (blow-up)."""

    def __init__(self, message, time=None, path_id=None):
        super().__init__(message)
        self.time = time
        self.path_id = path_id


class InadmissiblePError(SpdeError):
    """Moment exponent outside the admissible range for the model."""


class InvalidDeltaError(SpdeError):
    """Time shift is not a multiple of the save step."""


class ConfigError(SpdeError):
    """Configuration file or flag error (usage)."""


class NoiseHelperError(SpdeError):
    """A noise helper process ended before drawing (and, with a stepping
    job, stepping) all of its chunks."""


class HemicontinuityChildError(SpdeError):
    """The child process of a hemicontinuity audit ended before sending
    the results of its share of blocks."""
