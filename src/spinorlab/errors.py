"""Exception types raised by the analysis and construction layers."""


class SpinorError(Exception):
    """Base class for domain precondition violations."""


class ZeroSpinorError(SpinorError):
    """A spinor, block or amplitude that must be nonzero is zero."""


class SingularAngleError(SpinorError):
    """Polar angle hits a pole where the requested component form diverges."""


class MasslessError(SpinorError):
    """Operation requires m > 0 (rest-frame normalization undefined)."""


class DirectionMismatchError(SpinorError):
    """Momentum direction does not match the spinor's construction direction."""


class ProvenanceError(SpinorError):
    """Operation needs construction provenance that the spinor does not carry."""


class ScaleError(SpinorError):
    """A derived quantity overflows or underflows float64 at the input's scale."""


class JobError(Exception):
    """Malformed or inconsistent job document (CLI input layer)."""
