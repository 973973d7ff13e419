"""Problem data, admissibility checks, regime classification, and graded grids.

The equation under study is the Dirichlet problem

    -div(|grad u|^(m-2) grad u) = K(x) u^(-p),     u = 0 on the boundary,

on the unit interval (0,1) or, reduced by radial symmetry, on the unit ball,
with a continuous positive weight K that behaves like delta(x)^(-q) at the
boundary, where delta is the distance to the boundary.  The admissible
parameter range is

    m > 1,   p >= 0,   q >= 0,   p + q < 2 - (1 - p)/m,

and the solution's boundary behaviour splits into three regimes at p + q = 1.
Everything downstream (solver, eigen, barriers, analyzer) works in terms of
the types defined here.  All types are immutable after construction and
every operation is a pure function, so values can be shared freely across
threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    AdmissibilityViolation,
    DomainError,
    GridMismatch,
    InvalidConfig,
    InvalidGrading,
    InvalidGrid,
    NonPositiveK,
    TooFewNodes,
)

__all__ = [
    "Domain",
    "INTERVAL01",
    "ProblemSpec",
    "Regime",
    "RegimeReport",
    "Grid1D",
    "GridFunction",
    "BoundaryProfile",
    "classify_regime",
    "default_k_values",
    "make_graded_grid",
    "regime_profiles",
]

# Absolute tolerance on p + q - 1 when deciding the critical regime.  Inputs
# are exact user-provided reals, not computed quantities, so this only guards
# against decimal-literal noise.
CRITICAL_EQ_TOL = 1e-12

# Fewest nodes make_graded_grid builds a grid with.
MIN_NODES = 16

# Grading of the grids the analyzer, repro and the command line build by default.
DEFAULT_GRADING = 3.0


def is_whole(x) -> bool:
    """Whether x is a finite whole number and not a bool (3 and 3.0 are, 2.5,
    nan, inf, True, None and "3" are not)."""
    try:
        return not isinstance(x, bool) and x == int(x)
    except (OverflowError, ValueError, TypeError):  # int(inf), int(nan), int(None)
        return False


@dataclass(frozen=True)
class Domain:
    """Computational domain of dimension N: the open unit interval at N = 1,
    the radially reduced unit ball at N >= 2.

    ``ball_dim`` is N, and the cell weights are the radial ones, r^(N-1).
    The radial reduction keeps r in [0, 1], Dirichlet at r = 1 and zero flux
    at r = 0.
    """

    ball_dim: int = 1

    def __post_init__(self):
        if not is_whole(self.ball_dim):
            raise AdmissibilityViolation(
                f"dimension N must be a whole number, got N = {self.ball_dim}"
            )
        object.__setattr__(self, "ball_dim", int(self.ball_dim))
        if self.ball_dim < 1:
            raise AdmissibilityViolation(f"dimension N must be at least 1, got N = {self.ball_dim}")
        # the grid raises r to the power N, which an N past the double range
        # (about 1.8e308) would crash untyped
        try:
            float(self.ball_dim)
        except OverflowError:
            raise AdmissibilityViolation(
                f"dimension N overflows a double: N >= 2^{self.ball_dim.bit_length() - 1}"
            ) from None

    @staticmethod
    def interval() -> "Domain":
        return INTERVAL01

    @staticmethod
    def ball(n: int) -> "Domain":
        if is_whole(n) and n < 2:
            raise AdmissibilityViolation("ball domain requires dimension N >= 2")
        return Domain(n)

    @property
    def is_ball(self) -> bool:
        return self.ball_dim > 1

    @property
    def diameter(self) -> float:
        # unit interval has diameter 1, the unit ball diameter 2
        return 2.0 if self.is_ball else 1.0

    def delta(self, x: np.ndarray) -> np.ndarray:
        """Distance to the boundary at coordinates ``x``."""
        x = np.asarray(x, dtype=float)
        if self.is_ball:
            return 1.0 - x
        return np.minimum(x, 1.0 - x)


INTERVAL01 = Domain()


def _check_m(m: float) -> None:
    """Raise AdmissibilityViolation unless 1 < m < inf; a NaN m fails too."""
    if not m > 1.0:
        raise AdmissibilityViolation(f"m > 1 fails: m = {m}")
    if not m < math.inf:
        raise AdmissibilityViolation(f"m < inf fails: m = {m}")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters (m, p, q, K-envelope, domain) of the singular problem.

    ``k_low`` and ``k_high`` bound K(x) * delta(x)^q from below and above; the
    default realization used by the solver is K(x) = delta(x)^(-q), i.e. both
    bounds 1.  Regime classification depends only on (m, p, q).

    Only admissible specs are built: construction raises
    AdmissibilityViolation naming the failed inequality, or NonPositiveK
    when the reaction-weight envelope is not positive.
    """

    m: float
    p: float
    q: float
    k_low: float = 1.0
    k_high: float = 1.0
    domain: Domain = INTERVAL01

    def __post_init__(self):
        _check_m(self.m)
        if not self.p >= 0.0:
            raise AdmissibilityViolation(f"p >= 0 fails: p = {self.p}")
        if not self.q >= 0.0:
            raise AdmissibilityViolation(f"q >= 0 fails: q = {self.q}")
        bound = self.admissibility_bound
        if not self.p + self.q < bound:
            raise AdmissibilityViolation(
                f"p + q < 2 - (1 - p)/m fails: p + q = {self.p + self.q} >= {bound}"
            )
        if not self.k_low > 0.0:
            raise NonPositiveK(f"k_low must be positive, got {self.k_low}")
        if not self.k_low <= self.k_high:
            raise AdmissibilityViolation(
                f"k_low <= k_high fails: {self.k_low} > {self.k_high}"
            )
        # an infinite envelope bounds nothing: a barrier checked against it
        # is vacuous on one side and refused on the other
        if not self.k_high < math.inf:
            raise AdmissibilityViolation(f"k_high < inf fails: k_high = {self.k_high}")

    @property
    def admissibility_bound(self) -> float:
        """Right-hand side of the constraint p + q < 2 - (1 - p)/m."""
        return 2.0 - (1.0 - self.p) / self.m


class Regime(enum.Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


@dataclass(frozen=True)
class RegimeReport:
    """Closed-form predictions attached to a classified problem.

    boundary_exponent is the gamma in u ~ delta^gamma (gamma = 1 off the
    supercritical regime, where the critical case carries the extra factor
    log^log_exponent(1/delta)).  tau_sup is the supremum of Sobolev indices
    tau with u in W_0^{1,tau}; it is +inf unless supercritical.
    theta_exponent describes the effective right-hand side K u^(-p): the power
    a in theta ~ delta^(-a) (sub/supercritical) or the log-power
    p/(m+p-1) in theta ~ delta^(-1) log^(-p/(m+p-1)) (critical).
    """

    regime: Regime
    boundary_exponent: float
    log_exponent: float | None
    tau_sup: float
    theta_exponent: float


def classify_regime(spec: ProblemSpec) -> RegimeReport:
    """Classify ``spec`` and evaluate the closed-form exponent predictions."""
    m, p, q = spec.m, spec.p, spec.q
    s = p + q
    if abs(s - 1.0) <= CRITICAL_EQ_TOL:
        return RegimeReport(
            regime=Regime.CRITICAL,
            boundary_exponent=1.0,
            log_exponent=1.0 / (m + p - 1.0),
            tau_sup=math.inf,
            theta_exponent=p / (m + p - 1.0),
        )
    if s < 1.0:
        return RegimeReport(
            regime=Regime.SUBCRITICAL,
            boundary_exponent=1.0,
            log_exponent=None,
            tau_sup=math.inf,
            theta_exponent=s,
        )
    return RegimeReport(
        regime=Regime.SUPERCRITICAL,
        boundary_exponent=(m - q) / (m + p - 1.0),
        log_exponent=None,
        tau_sup=(m + p - 1.0) / (s - 1.0),
        theta_exponent=(m * p + (m - 1.0) * q) / (m + p - 1.0),
    )


def default_log_scale(domain: Domain, s: float) -> float:
    """Default A for the log-power profile f * log^s(A / f) of a profile f
    with sup f <= 1.

    Exceeds 1 + diam(domain), and also e^s so that the profile stays concave
    at the maximum of f (log^s(A/f) needs log(A) > s there for the
    supersolution inequality to have the right sign at interior maxima).
    """
    return max(domain.diameter + 2.0, math.e**s + 1.0)


@dataclass(frozen=True)
class BoundaryProfile:
    """A boundary profile of a positive f with sup f <= 1 that vanishes like
    delta at the boundary: the power f^exponent, 0 < exponent <= 1, or, when
    log_exponent s is given, f log^s(A / f) with A = log_scale > 1 (its
    exponent is 1).

    The paper's barriers take the first eigenfunction for f
    (barriers.build_barrier), the singular solve's starting profile takes
    delta (solver.solve_singular).  Construction raises DomainError for
    values outside these ranges.
    """

    exponent: float
    log_exponent: float | None = None
    log_scale: float | None = None

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.0:
            raise DomainError(f"power barrier exponent must be in (0, 1], got {self.exponent}")
        if self.log_exponent is None:
            return
        if self.exponent != 1.0:
            raise DomainError(f"a log profile has exponent 1, got {self.exponent}")
        if not self.log_exponent > 0.0:
            raise DomainError(f"log barrier exponent must be positive, got {self.log_exponent}")
        if not self.log_scale > 1.0:
            raise DomainError(f"log scale A must exceed 1, got {self.log_scale}")

    @staticmethod
    def power(gamma: float) -> "BoundaryProfile":
        return BoundaryProfile(gamma)

    @staticmethod
    def logpower(s: float, A: float) -> "BoundaryProfile":  # noqa: N803 (the paper's A)
        return BoundaryProfile(1.0, s, A)

    def describe(self) -> str:
        if self.log_exponent is None:
            return f"power(gamma={self.exponent:g})"
        return f"logpower(s={self.log_exponent:g}, A={self.log_scale:g})"

    def scaled(self, f: np.ndarray, scale: float) -> np.ndarray:
        """scale times the profile of f (f > 0)."""
        if self.log_exponent is None:
            return scale * f**self.exponent
        return scale * f * np.log(self.log_scale / f) ** self.log_exponent

    def log_of(self, log_f: np.ndarray) -> np.ndarray:
        """The log of the profile, written over ``log_f`` = log f and returned."""
        log_f *= self.exponent
        if self.log_exponent is not None:  # exponent 1: log_f is still log f
            log_f += self.log_exponent * np.log(np.log(self.log_scale) - log_f)
        return log_f


# The two sides of a barrier check, and the boundary cells a check skips
# unless told otherwise (barriers re-exports SUB and SUPER).
SUB = "sub"
SUPER = "super"
SKIP_CELLS = 2


def regime_profiles(spec: ProblemSpec) -> tuple[BoundaryProfile, BoundaryProfile]:
    """(sub, super) boundary profiles for the spec's regime.

    Supercritical: both sides are f^gamma with the predicted boundary
    exponent.  Critical: both sides are f log^s(A/f) with the predicted log
    exponent s = 1/(m+p-1) and A the default log scale.  Subcritical: the
    lower side is f (u ~ delta) and the upper side the critical one's log
    profile, one log factor above u ~ delta.
    """
    report = classify_regime(spec)
    if report.regime is Regime.SUPERCRITICAL:
        power = BoundaryProfile.power(report.boundary_exponent)
        return power, power
    s = 1.0 / (spec.m + spec.p - 1.0)
    log_power = BoundaryProfile.logpower(s, default_log_scale(spec.domain, s))
    if report.regime is Regime.CRITICAL:
        return log_power, log_power
    return BoundaryProfile.power(1.0), log_power


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Boundary-graded node set on [0,1].

    For the interval both endpoints are Dirichlet boundary; for the radial
    ball only the last node (r = 1) is, and node 0 sits at the symmetry
    center r = 0.  Nodes are strictly increasing with exact endpoints.

    A grid caches, on first use, only its defining arrays (``nodes`` and
    ``delta_nodes``) and the arrays every solver sweep reads: the cell
    widths ``h``, the dual-cell volumes ``cell_volumes`` and the flux
    weights ``flux_weights``.  On the interval those are r^0 = 1, a
    read-only zero-stride view of one double that holds no array of n
    doubles, and multiplying by it is exact.  The midpoints, the midpoint
    distances and the radially weighted cell measures are computed where
    they are read.  A graded grid then stores 4n doubles on the interval
    and 5n on the ball.

    A ball grid whose centre dual cell, of volume (r_1/2)^N/N, rounds to
    no volume at all is refused with InvalidGrid: every balance at r = 0
    divides by that volume.

    On the interval the widths, volumes and midpoint distances are derived
    from ``delta_nodes``, the distance to the nearer boundary, with formulas
    that map to themselves under the mirror x -> 1 - x: a cell on one side
    of x = 1/2 takes the difference of its nodes' distances, so a grid whose
    distances are exact mirrors has
    exact mirror widths, volumes and midpoint distances.  make_graded_grid
    supplies the distances in closed form, and its nodes, 1 - delta on the
    right half, are kept for output and validation.  For nodes given
    directly the distance is min(x, 1 - x), which is exact, and the widths
    are then the node differences to the last bit.
    """

    nodes: np.ndarray
    grading_exponent: float
    domain: Domain = INTERVAL01

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        x = self.nodes
        if x.ndim != 1 or x.size < 3:  # an unknown node between two cells
            raise TooFewNodes("grid needs at least three nodes")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise InvalidGrid("grid endpoints must be exactly 0 and 1")
        if not np.all(np.diff(x) > 0.0):
            raise InvalidGrid("grid nodes must be strictly increasing")
        nn = self.domain.ball_dim
        if self.domain.is_ball and (0.5 * x[1]) ** nn / nn == 0.0:
            # the centre's dual-cell volume, which the residual check divides by
            raise InvalidGrid(
                f"the centre cell of the N = {nn} ball has no volume in double precision: "
                f"(r_1/2)^N/N rounds to 0 at r_1 = {x[1]:g}"
            )

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def _centre(self) -> tuple[int, int]:
        """The first node at x >= 1/2 and the first at x > 1/2.  Cells left
        of the second lie on the left of x = 1/2, cells from the first on
        lie on its right, and when the two are equal the cell between them
        straddles x = 1/2."""
        x = self.nodes
        return int(np.searchsorted(x, 0.5, "left")), int(np.searchsorted(x, 0.5, "right"))

    @cached_property
    def h(self) -> np.ndarray:
        """Interval widths, one per cell."""
        if self.domain.is_ball:
            return _freeze(np.diff(self.nodes))
        right, past = self._centre
        h = np.diff(self.delta_nodes)
        np.negative(h[right:], out=h[right:])
        if right == past:  # the straddling cell
            h[right - 1] = self.nodes[right] - self.nodes[right - 1]
        return _freeze(h)

    @property
    def midpoints(self) -> np.ndarray:
        return _freeze(0.5 * (self.nodes[1:] + self.nodes[:-1]))

    @cached_property
    def delta_nodes(self) -> np.ndarray:
        return _freeze(self.domain.delta(self.nodes))

    @property
    def delta_mid(self) -> np.ndarray:
        """Distance of each cell's midpoint to the nearer boundary."""
        if self.domain.is_ball:
            return _freeze(self.domain.delta(self.midpoints))
        right, past = self._centre
        d = self.delta_nodes
        dm = 0.5 * (d[1:] + d[:-1])
        if right == past:  # the straddling cell's midpoint is 1/2 + (d_l - d_r)/2
            dm[right - 1] = 0.5 - 0.5 * abs(d[right - 1] - d[right])
        return _freeze(dm)

    @property
    def cell_measures(self) -> np.ndarray:
        """Measure of each cell, h * r_mid^(N-1); on the interval (N = 1) the
        array h itself."""
        return _freeze(self.h * self.flux_weights) if self.domain.is_ball else self.h

    @cached_property
    def flux_weights(self) -> np.ndarray:
        """Per-cell weight r_mid^(N-1) of the midpoint flux, 1 on the interval
        (the cell width enters through the dual-cell volume, not here)."""
        if self.domain.is_ball:
            return _freeze(self.midpoints ** (self.domain.ball_dim - 1))
        return np.broadcast_to(1.0, self.n - 1)

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Dual-cell measure around each node: the exact integral of r^(N-1)
        over the dual cell, which keeps the discrete divergence in exact
        summation-by-parts duality with the cell measures.  At N = 1 it is
        the half-sum of the adjacent widths, the distance between the
        adjacent midpoints, taken from their distances to the boundary.
        """
        if not self.domain.is_ball:
            return self._interval_volumes()
        x, nn = self.nodes, self.domain.ball_dim
        v = np.diff(np.concatenate(([x[0]], self.midpoints, [x[-1]])) ** nn)
        v /= nn  # in place: a third live full-length temporary raised the peak RSS
        return _freeze(v)

    def _interval_volumes(self) -> np.ndarray:
        # midpoints left of 1/2 come before index r (r >= 1, as x_1 > 0 =
        # delta_0); the ends count as midpoints at distance 0, one per side
        right, past = self._centre
        d, dm = self.delta_nodes, self.delta_mid
        r = right - 1 if right == past and d[right - 1] > d[right] else right
        v = np.diff(dm, prepend=0.0, append=0.0)
        np.negative(v[r + 1 :], out=v[r + 1 :])
        # the node between the two sides: (1/2 - dm_(r-1)) + (1/2 - dm_r)
        v[r] = (0.5 - dm[r - 1]) + (0.5 - dm[r])
        return _freeze(v)

    @cached_property
    def chain_start(self) -> int | None:
        """The first node of the zero-flux chain to the Dirichlet node: 0 on
        the ball (no flux crosses r = 0), the centre (n-1)//2 on an interval
        grid whose cell widths and dual-cell volumes equal their mirror
        images to the last bit, as make_graded_grid's do, None otherwise."""
        if self.domain.is_ball:
            return 0
        h, v = self.h, self.cell_volumes
        if np.array_equal(h, h[::-1]) and np.array_equal(v, v[::-1]):
            return (self.n - 1) // 2
        return None

    @cached_property
    def boundary_sides(self) -> tuple[slice, ...]:
        """Node ranges nearest each Dirichlet boundary, one per boundary:
        x <= 1/2 and x > 1/2 on the interval, every node on the ball."""
        if self.domain.is_ball:
            return (slice(0, self.n),)
        half = self._centre[1]
        return (slice(0, half), slice(half, self.n))

    @property
    def unknown_slice(self) -> slice:
        """Index range of non-Dirichlet nodes (solver unknowns)."""
        if self.domain.is_ball:
            return slice(0, self.n - 1)
        return slice(1, self.n - 1)

    def dirichlet_indices(self) -> tuple[int, ...]:
        return (self.n - 1,) if self.domain.is_ball else (0, self.n - 1)


def same_grid(a: Grid1D, b: Grid1D) -> bool:
    return a is b or (
        a.domain == b.domain
        and a.nodes.size == b.nodes.size
        and np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.delta_nodes, b.delta_nodes)
    )


def make_graded_grid(n: int, grading: float, domain: Domain = INTERVAL01) -> Grid1D:
    """Build a boundary-graded grid with ``n`` nodes.

    Interval: symmetric two-sided grading.  The distance to the boundary is
    delta = 0.5 (2t)^grading, t = i/(n-1), on the left half (the centre node
    of an odd grid at exactly 1/2), and the right half is its exact mirror;
    the nodes are delta on the left and 1 - delta on the right.  Every
    derived quantity comes from delta (see Grid1D), so for every n and
    grading the grid is an exact mirror, and ``Grid1D.chain_start`` is its
    centre (n-1)//2.  For n = 2^k + 1 and integer grading 1-3 every value
    is exact, and 1 - delta is the node itself.
    Ball: one-sided grading toward r = 1 via r = 1 - (1-t)^grading.  Cell
    widths shrink like delta^(1 - 1/grading) toward the graded boundary;
    grading = 1 is uniform.

    Raises InvalidConfig for an n that is not a whole number (an integral
    float such as 17.0 is taken as 17), TooFewNodes for n < MIN_NODES, and
    InvalidGrading for a grading below 1 or one that makes the nodes next to
    the graded boundary collapse at double precision.
    """
    if not grading >= 1.0:
        raise InvalidGrading(f"grading must be >= 1, got {grading}")
    if not is_whole(n):
        raise InvalidConfig(f"node count n must be a whole number, got n = {n!r}")
    n = int(n)
    if n < MIN_NODES:
        raise TooFewNodes(f"need at least {MIN_NODES} nodes, got {n}")
    t = np.linspace(0.0, 1.0, n)
    delta = None
    if domain.is_ball:
        x = 1.0 - (1.0 - t) ** grading
    else:
        left = 0.5 * (2.0 * t[: (n + 1) // 2]) ** grading
        if n % 2:
            left[-1] = 0.5
        delta = np.concatenate((left, left[: n // 2][::-1]))
        x = delta.copy()
        np.subtract(1.0, delta[left.size :], out=x[left.size :])
    x[-1] = 1.0
    flat = np.flatnonzero(np.diff(x) <= 0.0)
    if flat.size:
        i = int(flat[0]) + 1
        raise InvalidGrading(
            f"grading {grading} collapses the graded nodes at double precision "
            f"for n = {n}: node {i} (x = {float(x[i])!r}) is not above node "
            f"{i - 1} (x = {float(x[i - 1])!r})"
        )
    grid = Grid1D(nodes=x, grading_exponent=float(grading), domain=domain)
    if delta is not None:
        # the closed-form distances replace min(x, 1 - x), which loses the
        # right half's digits to the rounding of 1 - delta
        object.__setattr__(grid, "delta_nodes", _freeze(delta))
    return grid


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values attached to every node of a grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != self.grid.nodes.shape:
            raise GridMismatch(
                f"{self.values.size} values on a grid with {self.grid.n} nodes"
            )

    @staticmethod
    def interior_from_callable(
        grid: Grid1D, f: Callable[[np.ndarray], np.ndarray]
    ) -> "GridFunction":
        """Sample ``f``, a function of the node coordinate, at the
        non-Dirichlet ``grid.nodes`` only; boundary entries are 0.

        The right-half nodes 1 − delta of a graded interval grid round delta
        to ulp(1) off n = 2^k + 1, so a function of the distance meant to be
        an exact mirror is sampled from ``grid.delta_nodes`` instead.
        """
        v = np.zeros(grid.n)
        sl = grid.unknown_slice
        v[sl] = f(grid.nodes[sl])
        return GridFunction(grid, v)


def default_k_values(spec: ProblemSpec, grid: Grid1D) -> GridFunction:
    """Sample the default weight K = delta^(-q) at the unknown nodes.

    K delta^q = 1 must lie in the spec's [k_low, k_high] envelope; other
    weights go to solve_singular as ``k_values``.
    """
    if not (spec.k_low <= 1.0 <= spec.k_high):
        raise AdmissibilityViolation(
            f"the default K = delta^(-q) leaves the envelope [{spec.k_low}, {spec.k_high}]"
        )
    k, sl = np.zeros(grid.n), grid.unknown_slice
    k[sl] = grid.delta_nodes[sl] ** (-spec.q)
    return GridFunction(grid, k)


def _k_in_envelope(spec: ProblemSpec, grid: Grid1D, k_values: GridFunction | None) -> GridFunction:
    """The default K, or ``k_values`` once it is checked to live on ``grid``
    and K delta^q to lie in the envelope; ``spec`` must share ``grid``'s domain."""
    if spec.domain != grid.domain:
        raise GridMismatch(f"the problem is posed on {spec.domain}, the grid on {grid.domain}")
    if k_values is None:
        return default_k_values(spec, grid)
    if not same_grid(k_values.grid, grid):
        raise GridMismatch(
            f"custom K is sampled on another grid ({k_values.grid.n} nodes, grading "
            f"{k_values.grid.grading_exponent:g}) than the solve's ({grid.n} nodes, "
            f"grading {grid.grading_exponent:g})"
        )
    sl = grid.unknown_slice
    envelope = k_values.values[sl] * grid.delta_nodes[sl] ** spec.q
    if np.any(envelope < spec.k_low * (1 - 1e-12)) or np.any(envelope > spec.k_high * (1 + 1e-12)):
        raise AdmissibilityViolation(
            "custom K leaves the (k_low, k_high) envelope: "
            f"K delta^q in [{envelope.min():g}, {envelope.max():g}]"
        )
    return k_values
