"""Exception types shared across the package."""


class DdnPcaError(Exception):
    """Base class for all package errors."""


class DimensionError(DdnPcaError):
    """Shapes or index ranges are inconsistent with the operation."""


class SymmetryError(DdnPcaError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class BasisError(DdnPcaError):
    """A matrix required to have orthonormal columns does not."""


class OrderError(DdnPcaError):
    """A sequence required to be sorted (non-increasing) is not."""


class ParameterError(DdnPcaError):
    """A scalar parameter violates its admissible range."""


class SpectralGapError(DdnPcaError):
    """The eigenvalue gap needed by a perturbation bound is non-positive."""


class PsdError(DdnPcaError):
    """A matrix required to be positive semi-definite has a negative eigenvalue."""


class ScheduleError(DdnPcaError):
    """A support schedule violates its structural conditions."""


class EmptySubspaceError(DdnPcaError):
    """No eigenvalue exceeded the retention threshold."""


class NoClusterError(DdnPcaError):
    """The leading eigenvalue of a block is already below the zero threshold."""


class InsufficientDataError(DdnPcaError):
    """The block stream ended before the estimator was done."""


class NonTerminationError(DdnPcaError):
    """The cluster loop hit its safety cap without the stop flag."""


class ConfigError(DdnPcaError):
    """An experiment configuration file is malformed or invalid."""
