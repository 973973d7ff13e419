"""Exception hierarchy shared by all mlap1d modules."""


class MlapError(Exception):
    """Base class for all package errors."""


class AdmissibilityViolation(MlapError):
    """A problem parameter combination violates an admissibility inequality.

    The message names the inequality that failed.
    """


class NonPositiveK(MlapError):
    """Reaction-weight envelope is not positive (k_low <= 0)."""


class InvalidGrading(MlapError):
    """Grid grading exponent below 1, or so large for the node count that the
    graded nodes collapse at double precision.

    A collapse names n, the grading and the first node that is not above its
    left neighbour.
    """


class InvalidGrid(MlapError):
    """Grid nodes that do not rise strictly from exactly 0 to exactly 1."""


class TooFewNodes(MlapError):
    """A grid was requested with fewer nodes than ``core.MIN_NODES``, or
    built directly from fewer than two."""


class GridMismatch(MlapError):
    """Two grid functions (or a function and a grid) live on different grids."""


class NonConvergence(MlapError):
    """An iteration exhausted its budget, or a solve failed its residual check.

    Carries the partial solver state in ``report`` when one is available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BarrierOrderViolation(MlapError):
    """A monotone-iteration iterate escaped the sub/supersolution bracket."""


class SignChange(MlapError):
    """An eigen-iterate lost interior positivity (grid too coarse)."""


class DomainError(MlapError):
    """Barrier parameter outside its valid range (e.g. log scale A <= max phi)."""


class NoCertifiableScale(MlapError):
    """No barrier scaling constant up to c_max certifies the inequality."""


class NonPositiveCandidate(MlapError):
    """Barrier candidate is not positive at interior nodes."""


class InsufficientWindow(MlapError):
    """A fit window contains too few usable nodes."""


class NonPositiveValues(MlapError):
    """Field values are not positive where a log-fit needs them."""


class SolveFailed(MlapError):
    """A solve inside a multi-level scan failed; wraps the original error."""


class InvalidConfig(MlapError):
    """Run configuration is malformed (unknown key, empty matrix, bad levels)."""
