"""Quantitative checks on computed fields: boundary exponents, log corrections,
Sobolev seminorms, divergence thresholds, and the distance-integral dichotomy.

The asymptotic relations under test are two-sided bounds (u ~ delta^gamma,
u ~ delta log^s(1/delta)), so everything here is fitted on a window of
boundary distances well inside the resolved range and judged by behaviour
under mesh refinement, never by a single-grid number: any single grid gives a
finite Sobolev seminorm whether or not the integral diverges, but refinement
ratios separate the cases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    GridFunction,
    INTERVAL01,
    MIN_NODES,
    ProblemSpec,
    classify_regime,
    make_graded_grid,
)
from .errors import (
    DomainError,
    InsufficientWindow,
    InvalidConfig,
    InvalidGrading,
    NonPositiveValues,
    SolveFailed,
)
from .solver import solve_dirichlet, solve_singular

__all__ = [
    "FitResult",
    "Verdict",
    "ScanReport",
    "FixedRHS",
    "DistanceIntegralResult",
    "GradientBoundReport",
    "fit_boundary_exponent",
    "fit_log_correction",
    "fit_log_profile",
    "sobolev_seminorm",
    "threshold_scan",
    "distance_integral_classify",
    "gradient_bound_check",
]

# Verdict bands for refinement ratios of Sobolev seminorms (see threshold_scan).
CONVERGENT_BAND = 0.02
DIVERGENT_FLOOR = 1.05

# Cells next to each Dirichlet boundary that gradient_bound_check skips.
GRADIENT_SKIP_CELLS = 2


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of a boundary power law or log correction.

    ``exponent`` is the fitted gamma of u ~ delta^gamma (fixed to 1 by
    definition in a log-correction fit, where ``log_exponent`` carries the
    fitted s of u ~ delta log^s(1/delta)).
    """

    exponent: float
    log_exponent: float | None
    r_squared: float
    window: tuple[float, float]


def _r_squared(dy: np.ndarray, resid: np.ndarray) -> float:
    """1 - SSres/SStot from the centred data ``dy`` and the fit residuals."""
    sst = float(np.dot(dy, dy))
    return 1.0 if sst == 0.0 else 1.0 - float(np.dot(resid, resid)) / sst


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x, and the fit's r^2."""
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    slope = float(np.dot(dx, dy)) / float(np.dot(dx, dx))
    return slope, _r_squared(dy, dy - slope * dx)


def _window_samples(
    u: GridFunction, window: tuple[float, float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(delta, value) samples per boundary side, window-filtered.

    Distances below 10 * (smallest cell) are excluded even if the window
    reaches them: the asymptotic relations are polluted by discretization in
    the first cells.
    """
    lo, hi = window
    grid = u.grid
    max_delta = float(grid.delta_nodes.max())
    if not 0.0 < lo < hi:
        raise InsufficientWindow(f"window ({lo}, {hi}) is not an interval in (0, inf)")
    if hi > max_delta / 4.0:
        raise InsufficientWindow(
            f"window must stay strictly inside (0, {max_delta / 4.0:g})"
        )
    lo = max(lo, 10.0 * grid.min_h)
    delta = grid.delta_nodes
    near = (delta >= lo) & (delta <= hi)
    if grid.domain.is_ball:
        masks = [near]
    else:
        half = grid.nodes <= 0.5
        masks = [near & half, near & ~half]
    sides = [(delta[mask], u.values[mask]) for mask in masks]
    total = sum(d.size for d, _ in sides)
    if total < 10 or any(d.size < 2 for d, _ in sides):
        raise InsufficientWindow(
            f"window ({window[0]:g}, {window[1]:g}) contains {total} usable nodes"
        )
    for _, vals in sides:
        if np.any(vals <= 0.0):
            raise NonPositiveValues("field must be positive on the fit window")
    return sides


def _per_side_fit(u: GridFunction, window: tuple[float, float], fit_side, log: bool) -> FitResult:
    """Fit each boundary side of the window with ``fit_side(delta, u) ->
    (slope, r^2)``; the mean slope is the exponent (the log exponent, the
    power fixed to 1, with ``log``) and the weaker r^2 is reported."""
    fits = [fit_side(d, vals) for d, vals in _window_samples(u, window)]
    slope = float(np.mean([s for s, _ in fits]))
    return FitResult(
        exponent=1.0 if log else slope,
        log_exponent=slope if log else None,
        r_squared=float(min(r2 for _, r2 in fits)),
        window=(float(window[0]), float(window[1])),
    )


def fit_boundary_exponent(u: GridFunction, window: tuple[float, float]) -> FitResult:
    """Fit gamma in u ~ delta^gamma by log-log least squares on the window.

    On the interval the two boundary sides are fitted separately and the
    slopes averaged (the reported r^2 is the weaker of the two).
    """
    return _per_side_fit(u, window, lambda d, vals: _linfit(np.log(d), np.log(vals)), log=False)


def fit_log_correction(u: GridFunction, window: tuple[float, float]) -> FitResult:
    """Fit s in u ~ C delta log^s(1/delta), the linear factor held fixed.

    Least squares of log(u/delta) against log log(1/delta); exact when u is
    exactly of that form.
    """
    return _per_side_fit(
        u, window, lambda d, vals: _linfit(np.log(np.log(1.0 / d)), np.log(vals / d)), log=True
    )


def fit_log_profile(u: GridFunction, window: tuple[float, float]) -> FitResult:
    """Fit s in u/delta ~ C log^s(1/delta) + B with the affine offset free.

    Solutions of -u'' = delta^(-1) log^(-a)(1/delta) have gradients of the
    form C' log^s + B with an O(1) offset B from global matching; the
    two-parameter fit of fit_log_correction then converges to s only like
    log^(-s)(1/delta), far too slowly for any reachable grid.  Freeing the
    offset removes that bias: this fit is exact on C delta log^s(1/delta)
    + B delta and still distinguishes wrong exponents.
    """
    from scipy.optimize import curve_fit

    def model(big_l, c0, s, b0):
        return c0 * big_l**s + b0

    def fit_side(d, vals):
        big_l = np.log(1.0 / d)
        y = vals / d
        popt, _ = curve_fit(model, big_l, y, p0=(1.0, 0.5, 0.0), maxfev=20000)
        return float(popt[1]), _r_squared(y - y.mean(), y - model(big_l, *popt))

    return _per_side_fit(u, window, fit_side, log=True)


def sobolev_seminorm(u: GridFunction, tau: float) -> float:
    """(sum_cells w |Du|^tau)^(1/tau), radially weighted in the ball case."""
    if tau < 1.0:
        raise InvalidConfig(f"tau must be >= 1, got {tau}")
    g = u.grid
    du = np.diff(u.values) / g.h
    return float(np.dot(g.interval_weights, np.abs(du) ** tau) ** (1.0 / tau))


class Verdict(enum.Enum):
    CONVERGENT = "Convergent"
    MARGINAL = "Marginal"
    DIVERGENT = "Divergent"


# numeric codes used when verdicts appear in claim records
VERDICT_CODE = {Verdict.CONVERGENT: 0, Verdict.MARGINAL: 1, Verdict.DIVERGENT: 2}


@dataclass(frozen=True)
class FixedRHS:
    """A fixed right-hand side theta(x) paired with the operator exponent m."""

    theta: Callable[[np.ndarray], np.ndarray]
    m: float


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Sobolev seminorms across a refinement sequence with per-tau verdicts."""

    tau_values: tuple[float, ...]
    level_ns: tuple[int, ...]
    norms: np.ndarray  # (levels, taus)
    ratios: np.ndarray  # (levels - 1, taus)
    verdicts: tuple[Verdict, ...]
    predicted_threshold: float | None

    def verdict_for(self, tau: float) -> Verdict:
        return self.verdicts[self.tau_values.index(tau)]

    def csv_rows(self) -> list[tuple]:
        rows = []
        for j, tau in enumerate(self.tau_values):
            for l, n in enumerate(self.level_ns):
                ratio = self.ratios[l - 1, j] if l > 0 else math.nan
                rows.append((tau, n, self.norms[l, j], ratio, self.verdicts[j].value))
        return rows


def _ratio_verdict(ratios: np.ndarray) -> Verdict:
    """Classify a sequence of refinement ratios of one seminorm.

    Convergent: the finest-pair ratio sits in the band 1 +- 0.02.
    Divergent: ratios stay at or above 1.05, or they grow, or they stay above
    the convergent band while their excess over 1 stops decaying (the
    signature of logarithmic divergence, whose norm grows by a constant
    increment per refinement).  Marginal otherwise; marginal verdicts are
    expected exactly at thresholds.
    """
    last = float(ratios[-1])
    if abs(last - 1.0) <= CONVERGENT_BAND:
        return Verdict.CONVERGENT
    if float(ratios.min()) >= DIVERGENT_FLOOR:
        return Verdict.DIVERGENT
    if last >= float(ratios[0]) - 1e-12 and last > 1.0 + CONVERGENT_BAND:
        return Verdict.DIVERGENT
    excess = ratios - 1.0
    if np.all(excess > CONVERGENT_BAND) and excess[-1] >= 0.6 * excess[0]:
        return Verdict.DIVERGENT
    return Verdict.MARGINAL


def _solve_on_level(target, n: int, grading: float, solve_level) -> GridFunction:
    try:
        if solve_level is not None:
            return solve_level(n)
        if isinstance(target, ProblemSpec):
            grid = make_graded_grid(n, grading, target.domain)
            return solve_singular(target, grid).solution
        grid = make_graded_grid(n, grading, INTERVAL01)
        theta = GridFunction.interior_from_callable(grid, target.theta)
        return solve_dirichlet(theta, target.m).solution
    except Exception as exc:  # noqa: BLE001 - deliberate wrap-and-reraise
        raise SolveFailed(f"solve failed at level n={n}: {exc}") from exc


def threshold_scan(
    target: ProblemSpec | FixedRHS | None,
    tau_values,
    refinement_levels,
    grading: float = 3.0,
    predicted_threshold: float | None = None,
    solve_level: Callable[[int], GridFunction] | None = None,
) -> ScanReport:
    """Solve on nested graded grids and classify each tau by seminorm ratios.

    ``refinement_levels`` is the increasing list of node counts; each level
    must refine the previous one (n - 1 doubles) so the grids are nested.
    For a ProblemSpec target the predicted threshold is filled in from the
    regime classification unless given explicitly.  ``solve_level``, when
    given, returns the solution of ``target`` at n nodes (on the grid built
    with ``grading``) in place of a fresh solve with the default
    SolverConfig, so a caller can share solves between the scan and its
    other checks or solve a problem of its own building; ``target`` may then
    be None.  Bad levels (fewer than four, one below MIN_NODES nodes, or not
    nested) raise InvalidConfig and a grading below 1 raises InvalidGrading,
    all before any solve.
    """
    levels = [int(n) for n in refinement_levels]
    if len(levels) < 4:
        raise InvalidConfig("need at least 4 refinement levels")
    for n in levels:
        if n < MIN_NODES:
            raise InvalidConfig(f"level n={n} has fewer than {MIN_NODES} nodes")
    for a, b in zip(levels, levels[1:]):
        if b - 1 != 2 * (a - 1):
            raise InvalidConfig(
                f"levels must be nested by doubling: {b} does not refine {a}"
            )
    if grading < 1.0:
        raise InvalidGrading(f"grading must be >= 1, got {grading}")
    taus = [float(t) for t in tau_values]
    if predicted_threshold is None and isinstance(target, ProblemSpec):
        predicted_threshold = classify_regime(target).tau_sup

    norms = np.empty((len(levels), len(taus)))
    for l, n in enumerate(levels):
        u = _solve_on_level(target, n, grading, solve_level)
        for j, tau in enumerate(taus):
            norms[l, j] = sobolev_seminorm(u, tau)
    if not np.all(np.isfinite(norms)):
        raise SolveFailed("non-finite seminorm in scan")
    ratios = norms[1:] / norms[:-1]
    verdicts = tuple(_ratio_verdict(ratios[:, j]) for j in range(len(taus)))
    return ScanReport(
        tau_values=tuple(taus),
        level_ns=tuple(levels),
        norms=norms,
        ratios=ratios,
        verdicts=verdicts,
        predicted_threshold=predicted_threshold,
    )


@dataclass(frozen=True)
class DistanceIntegralResult:
    """Verdict of the distance-integral dichotomy for one exponent a."""

    finite: bool
    value: float | None
    estimated_exponent: float
    increments: tuple[float, ...]

    def verdict(self) -> str:
        return "Finite" if self.finite else "Infinite"


def distance_integral_classify(
    a: float, refinement_levels: int = 6, grading: float = 3.0
) -> DistanceIntegralResult:
    """Decide whether the integral of delta^(-a) over (0,1) is finite.

    Midpoint quadrature on nested graded grids of 257, 513, ... nodes; the
    geometric decay rate of the quadrature increments estimates the exponent (increments scale like
    delta_min^(1-a) and delta_min shrinks by 2^(-grading) per level), and the
    integral is classified finite iff that estimate stays below 1.  When
    finite, the value is completed with the geometric tail extrapolation.
    """
    if refinement_levels < 4:
        raise InvalidConfig("need at least 4 refinement levels")
    q = []
    for l in range(refinement_levels):
        grid = make_graded_grid(256 * 2**l + 1, grading, INTERVAL01)
        q.append(float(np.dot(grid.h, grid.delta_mid ** (-a))))
    d = np.diff(q)
    if np.max(np.abs(d)) <= 1e-13 * max(1.0, abs(q[-1])):
        return DistanceIntegralResult(True, q[-1], -math.inf, tuple(d))
    rho = d[-1] / d[-2]
    est = 1.0 + math.log2(abs(rho)) / grading if rho > 0 else -math.inf
    if rho > 0 and est >= 0.995:
        return DistanceIntegralResult(False, None, est, tuple(d))
    tail = d[-1] * rho / (1.0 - rho) if abs(rho) < 1.0 else 0.0
    return DistanceIntegralResult(True, q[-1] + tail, est, tuple(d))


@dataclass(frozen=True)
class GradientBoundReport:
    """sup |Du| delta^(a-1) over checked cells, with refinement stability."""

    constant: float
    refined_constant: float
    ratio: float
    passed: bool


def _gradient_constant(w: GridFunction, a: float) -> float:
    g = w.grid
    du = np.abs(np.diff(w.values)) / g.h
    weights = g.delta_mid ** (a - 1.0)
    lo = 0 if g.domain.is_ball else GRADIENT_SKIP_CELLS
    hi = g.h.size - GRADIENT_SKIP_CELLS
    if hi <= lo:
        raise DomainError("grid too coarse for the skipped boundary cells")
    return float(np.max(du[lo:hi] * weights[lo:hi]))


def gradient_bound_check(
    w: GridFunction, a: float, refined: GridFunction
) -> GradientBoundReport:
    """Check the gradient bound |grad w| <= c delta^(1-a) by its sup constant.

    The constant is sup |Dw| * delta^(a-1) over the cells clear of the
    GRADIENT_SKIP_CELLS next to each Dirichlet boundary.  One grid always
    gives a finite constant, so the check passes iff the constant of the
    ``refined`` companion solve is within a factor of 2 of it.
    """
    c0 = _gradient_constant(w, a)
    c1 = _gradient_constant(refined, a)
    ratio = c1 / c0
    return GradientBoundReport(
        constant=c0,
        refined_constant=c1,
        ratio=ratio,
        passed=bool(0.5 <= ratio <= 2.0),
    )
