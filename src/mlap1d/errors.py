"""Exception hierarchy shared by all mlap1d modules."""


class MlapError(Exception):
    """Base class for all package errors.

    ``exit_status`` is the command line's exit status for the error: 2,
    invalid input, unless the class is a failed solve or certification,
    which exits 1.  ``report`` is the SolveReport of a failed solve, or None.
    """

    exit_status = 2

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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
    """Grid nodes that do not rise strictly from exactly 0 to exactly 1, or
    a ball grid whose centre dual cell, (r_1/2)^N/N, rounds to no volume in
    double precision; that message names N and r_1."""


class TooFewNodes(MlapError):
    """A grid was requested with fewer nodes than ``core.MIN_NODES``, or
    built directly from fewer than three."""


class GridMismatch(MlapError):
    """Two grid functions (or a function and a grid) live on different grids,
    a problem and its grid on different domains, or a problem's K gives not
    one value per unknown node."""


class NonFiniteTheta(MlapError, ValueError):
    """A fixed right-hand side is not finite at an unknown node (also a ValueError)."""


class NonConvergence(MlapError):
    """An iteration exhausted its budget or its resolution, a solve failed its
    residual check, or no scale brackets a singular solve; a failed solve
    carries its record in ``report``, the eigenpair's budget error none."""

    exit_status = 1


class BarrierOrderViolation(MlapError):
    """The singular solve's midpoint left its certified pair; ``report`` holds both."""

    exit_status = 1


class DomainError(MlapError):
    """Barrier or check parameter outside its valid range (e.g. log scale
    A <= max phi, an infinite log exponent or scale, c outside [1, inf), a
    non-finite slack, skip_cells < 0 or leaving no cell, a problem posed at
    another m than its check, or a default log scale, barrier sample, sum or
    quotient that overflows double precision)."""


class NoCertifiableScale(MlapError):
    """No finite barrier scaling constant certifies; the message names the node."""

    exit_status = 1


class NonPositiveCandidate(MlapError):
    """Barrier candidate is not positive at interior nodes."""


class InsufficientWindow(MlapError):
    """A fit window contains too few usable nodes, or no log-profile optimum."""


class NonPositiveValues(MlapError):
    """Field values are not positive where a log-fit needs them."""


class SolveFailed(MlapError):
    """A solve inside a multi-level scan failed; wraps the original error and
    takes its exit status (1 when there is none: the scan itself failed)."""

    @property
    def exit_status(self) -> int:
        cause = self.__cause__
        return cause.exit_status if isinstance(cause, MlapError) else 1


class InvalidConfig(MlapError):
    """Run configuration is malformed (unknown key, empty matrix, bad levels),
    or a problem's K is neither None nor callable."""
