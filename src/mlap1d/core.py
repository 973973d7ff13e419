"""Problem data, admissibility checks, regime classification, and graded grids.

The equation under study is the Dirichlet problem

    -div(|grad u|^(m-2) grad u) = K(x) u^(-p),     u = 0 on the boundary,

on the unit interval (0,1) or, reduced by radial symmetry, on the unit ball,
with a continuous positive weight K that behaves like delta(x)^(-q) at the
boundary, where delta is the distance to the boundary.  The admissible
parameter range is

    m > 1,   p >= 0,   q >= 0,   p + q < 2 - (1 - p)/m,

and the solution's boundary behaviour splits into three regimes at p + q = 1.
Everything downstream (operator, solver, eigen, barriers, analyzer) works in
terms of the types defined here.  All types are immutable after construction
and every operation is a pure function, so values can be shared freely across
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
    "validate_spec",
    "classify_regime",
    "make_graded_grid",
    "same_grid",
]

# Absolute tolerance on p + q - 1 when deciding the critical regime.  Inputs
# are exact user-provided reals, not computed quantities, so this only guards
# against decimal-literal noise.
CRITICAL_EQ_TOL = 1e-12

# Fewest nodes make_graded_grid builds a grid with.
MIN_NODES = 16


@dataclass(frozen=True)
class Domain:
    """Computational domain: the open unit interval or the radial unit ball.

    ``ball_dim`` is the ambient dimension N of the ball (N >= 2); it is 1 for
    the interval.  The radial reduction keeps only r in [0, 1] with the
    Dirichlet condition at r = 1 and a symmetry (zero-flux) condition at r = 0.
    """

    kind: str
    ball_dim: int = 1

    def __post_init__(self):
        if self.kind not in ("interval", "ball"):
            raise InvalidConfig(f"unknown domain kind {self.kind!r}")
        if self.kind == "ball" and self.ball_dim < 2:
            raise AdmissibilityViolation("ball domain requires dimension N >= 2")

    @staticmethod
    def interval() -> "Domain":
        return INTERVAL01

    @staticmethod
    def ball(n: int) -> "Domain":
        return Domain("ball", int(n))

    @property
    def is_ball(self) -> bool:
        return self.kind == "ball"

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


INTERVAL01 = Domain("interval")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters (m, p, q, K-envelope, domain) of the singular problem.

    ``k_low`` and ``k_high`` bound K(x) * delta(x)^q from below and above; the
    default realization used by the solver is K(x) = delta(x)^(-q), i.e. both
    bounds 1.  Regime classification depends only on (m, p, q).
    """

    m: float
    p: float
    q: float
    k_low: float = 1.0
    k_high: float = 1.0
    domain: Domain = INTERVAL01

    @property
    def admissibility_bound(self) -> float:
        """Right-hand side of the constraint p + q < 2 - (1 - p)/m."""
        return 2.0 - (1.0 - self.p) / self.m


def validate_spec(spec: ProblemSpec) -> ProblemSpec:
    """Return ``spec`` unchanged iff every admissibility constraint holds.

    Raises AdmissibilityViolation naming the failed inequality, or
    NonPositiveK when the reaction-weight envelope is not positive.
    """
    if not spec.m > 1.0:
        raise AdmissibilityViolation(f"m > 1 fails: m = {spec.m}")
    if not spec.p >= 0.0:
        raise AdmissibilityViolation(f"p >= 0 fails: p = {spec.p}")
    if not spec.q >= 0.0:
        raise AdmissibilityViolation(f"q >= 0 fails: q = {spec.q}")
    bound = spec.admissibility_bound
    if not spec.p + spec.q < bound:
        raise AdmissibilityViolation(
            f"p + q < 2 - (1 - p)/m fails: p + q = {spec.p + spec.q} >= {bound}"
        )
    if not spec.k_low > 0.0:
        raise NonPositiveK(f"k_low must be positive, got {spec.k_low}")
    if not spec.k_low <= spec.k_high:
        raise AdmissibilityViolation(
            f"k_low <= k_high fails: {spec.k_low} > {spec.k_high}"
        )
    return spec


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
    validate_spec(spec)
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
    Derived quantities (cell widths, dual-cell volumes, radially weighted
    interval measures) are cached on first use.
    """

    nodes: np.ndarray
    grading_exponent: float
    domain: Domain = INTERVAL01

    def __post_init__(self):
        object.__setattr__(self, "nodes", _freeze(self.nodes))
        x = self.nodes
        if x.ndim != 1 or x.size < 2:
            raise TooFewNodes("grid needs at least two nodes")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise InvalidGrid("grid endpoints must be exactly 0 and 1")
        if not np.all(np.diff(x) > 0.0):
            raise InvalidGrid("grid nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def h(self) -> np.ndarray:
        """Interval widths, one per cell."""
        return _freeze(np.diff(self.nodes))

    @cached_property
    def midpoints(self) -> np.ndarray:
        return _freeze(0.5 * (self.nodes[1:] + self.nodes[:-1]))

    @cached_property
    def delta_nodes(self) -> np.ndarray:
        return _freeze(self.domain.delta(self.nodes))

    @cached_property
    def delta_mid(self) -> np.ndarray:
        return _freeze(self.domain.delta(self.midpoints))

    @cached_property
    def interval_weights(self) -> np.ndarray:
        """Measure of each cell: h on the interval, h * r_mid^(N-1) radially."""
        if self.domain.is_ball:
            nm1 = self.domain.ball_dim - 1
            return _freeze(self.h * self.midpoints**nm1)
        return self.h

    @cached_property
    def flux_weights(self) -> np.ndarray:
        """Per-cell weight of the midpoint flux: 1 on the interval, r_mid^(N-1)
        radially (the cell width enters through the dual-cell volume, not here)."""
        if self.domain.is_ball:
            nm1 = self.domain.ball_dim - 1
            return _freeze(self.midpoints**nm1)
        return _freeze(np.ones(self.n - 1))

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Dual-cell measure around each node.

        Interval: half-sums of adjacent widths.  Ball: the exact integral of
        r^(N-1) over the dual cell, which keeps the discrete divergence in
        exact summation-by-parts duality with the interval weights.
        """
        x = self.nodes
        mid = np.concatenate(([x[0]], self.midpoints, [x[-1]]))
        if self.domain.is_ball:
            nn = self.domain.ball_dim
            return _freeze((mid[1:] ** nn - mid[:-1] ** nn) / nn)
        return _freeze(mid[1:] - mid[:-1])

    @cached_property
    def mirror_symmetric(self) -> bool:
        """Whether this is an interval grid whose cell widths and dual-cell
        volumes equal their mirror images exactly (to the last bit)."""
        return (
            not self.domain.is_ball
            and np.array_equal(self.h, self.h[::-1])
            and np.array_equal(self.cell_volumes, self.cell_volumes[::-1])
        )

    @property
    def unknown_slice(self) -> slice:
        """Index range of non-Dirichlet nodes (solver unknowns)."""
        if self.domain.is_ball:
            return slice(0, self.n - 1)
        return slice(1, self.n - 1)

    @property
    def min_h(self) -> float:
        return float(self.h.min())

    def dirichlet_indices(self) -> tuple[int, ...]:
        return (self.n - 1,) if self.domain.is_ball else (0, self.n - 1)


def same_grid(a: Grid1D, b: Grid1D) -> bool:
    return a is b or (
        a.domain == b.domain
        and a.nodes.size == b.nodes.size
        and np.array_equal(a.nodes, b.nodes)
    )


def make_graded_grid(n: int, grading: float, domain: Domain = INTERVAL01) -> Grid1D:
    """Build a boundary-graded grid with ``n`` nodes.

    Interval: symmetric two-sided grading via x = 0.5 (2t)^grading for
    t <= 1/2 and the mirror image above, t = i/(n-1).  Ball: one-sided
    grading toward r = 1 via r = 1 - (1-t)^grading.  Cell widths shrink like
    delta^(1 - 1/grading) toward the graded boundary; grading = 1 is uniform.
    For n = 2^k + 1 and integer grading 1-3 the interval nodes are exact
    mirror images, x_i = 1 - x_(n-1-i), so ``Grid1D.mirror_symmetric`` holds.

    Raises TooFewNodes for n < MIN_NODES, and InvalidGrading for a grading
    below 1 or one that makes the nodes next to the graded boundary collapse
    at double precision.
    """
    if grading < 1.0:
        raise InvalidGrading(f"grading must be >= 1, got {grading}")
    if n < MIN_NODES:
        raise TooFewNodes(f"need at least {MIN_NODES} nodes, got {n}")
    t = np.linspace(0.0, 1.0, n)
    if domain.is_ball:
        x = 1.0 - (1.0 - t) ** grading
    else:
        lower = t <= 0.5
        x = np.where(
            lower,
            0.5 * (2.0 * t) ** grading,
            1.0 - 0.5 * (2.0 * (1.0 - t)) ** grading,
        )
    x[0], x[-1] = 0.0, 1.0
    flat = np.flatnonzero(np.diff(x) <= 0.0)
    if flat.size:
        i = int(flat[0]) + 1
        raise InvalidGrading(
            f"grading {grading} collapses the graded nodes at double precision "
            f"for n = {n}: node {i} (x = {float(x[i])!r}) is not above node "
            f"{i - 1} (x = {float(x[i - 1])!r})"
        )
    return Grid1D(nodes=x, grading_exponent=float(grading), domain=domain)


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
    def zeros(grid: Grid1D) -> "GridFunction":
        return GridFunction(grid, np.zeros(grid.n))

    @staticmethod
    def from_callable(
        grid: Grid1D,
        f: Callable[[np.ndarray], np.ndarray],
        dirichlet: bool = False,
    ) -> "GridFunction":
        """Sample ``f`` at the nodes.

        With ``dirichlet=True`` the boundary entries are forced to exactly 0,
        which also suppresses sampling artifacts of functions singular at the
        boundary (f is still evaluated there; use interior_from_callable to
        avoid that).
        """
        v = np.asarray(f(grid.nodes), dtype=float).copy()
        if dirichlet:
            for i in grid.dirichlet_indices():
                v[i] = 0.0
        return GridFunction(grid, v)

    @staticmethod
    def interior_from_callable(
        grid: Grid1D, f: Callable[[np.ndarray], np.ndarray]
    ) -> "GridFunction":
        """Sample ``f`` at non-Dirichlet nodes only; boundary entries are 0.

        This is how singular right-hand sides are realized: they are sampled
        on the graded grid, never at the boundary itself.
        """
        v = np.zeros(grid.n)
        sl = grid.unknown_slice
        v[sl] = f(grid.nodes[sl])
        return GridFunction(grid, v)

    @property
    def interior(self) -> np.ndarray:
        return self.values[self.grid.unknown_slice]

    def is_dirichlet(self) -> bool:
        return all(self.values[i] == 0.0 for i in self.grid.dirichlet_indices())


def default_k_values(spec: ProblemSpec, grid: Grid1D) -> GridFunction:
    """Sample the default weight K = delta^(-q) at the unknown nodes.

    K delta^q = 1 must lie in the spec's [k_low, k_high] envelope; other
    weights go to solve_singular as ``k_values``.
    """
    if not (spec.k_low <= 1.0 <= spec.k_high):
        raise AdmissibilityViolation(
            f"the default K = delta^(-q) leaves the envelope [{spec.k_low}, {spec.k_high}]"
        )
    return GridFunction.interior_from_callable(
        grid, lambda x: spec.domain.delta(x) ** (-spec.q)
    )
