"""Exception types shared across the package."""


class CVClusterError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(CVClusterError):
    """A state object violates its invariants (shape, symmetry, uncertainty)."""


class InvalidOperationError(CVClusterError):
    """An operation request is malformed (non-symplectic map, bad mode index,
    unknown gate kind, out-of-range parameter)."""


class MeasurementError(CVClusterError):
    """A measurement cannot be carried out (ill-conditioned marginal,
    zero-probability pinned window, missing random generator)."""


class FrameError(CVClusterError):
    """Byproduct frame misuse, e.g. resolving a frame twice."""


class ScheduleError(CVClusterError):
    """A measurement schedule is invalid or an execution order is illegal
    (non-permutation, register and graph mismatch, node reuse)."""


class TruncationError(CVClusterError):
    """A number-basis state or operation is unsafe at the configured cutoff."""


class ConfigError(CVClusterError):
    """A configuration document failed to parse or validate."""
