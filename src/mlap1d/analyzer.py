"""Quantitative checks on computed fields: boundary exponents, log corrections,
Sobolev seminorms, divergence thresholds, and the distance-integral dichotomy.

The asymptotic relations under test are two-sided bounds (u ~ delta^gamma,
u ~ delta log^s(1/delta)), so everything here is fitted on a window of
boundary distances well inside the resolved range and judged by behaviour
under mesh refinement, never by a single-grid number: any single grid gives a
finite Sobolev seminorm whether or not the integral diverges, but the decay
rate of its refinement increments separates the cases, and one rule on that
rate (_rate_verdict) makes every integrability call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GridFunction, INTERVAL01, MIN_NODES, make_graded_grid
from .errors import (
    DomainError,
    GridMismatch,
    InsufficientWindow,
    InvalidConfig,
    InvalidGrading,
    NonPositiveValues,
    SolveFailed,
)

# Unused here: bench/tests/test_bench.py checks that the benchmark's tracer
# wraps this import site too.
from .solver import solve_dirichlet  # noqa: F401

__all__ = [
    "FitResult",
    "Verdict",
    "ScanReport",
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

# Increment rates at or below this read Divergent (see _rate_verdict).
RATE_BAND = 0.005

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
    # einsum sums on one thread; np.dot's BLAS sum depends on the thread count
    return float(np.einsum("i,i->", g.interval_weights, np.abs(du) ** tau) ** (1.0 / tau))


class Verdict(enum.Enum):
    CONVERGENT = "Convergent"
    MARGINAL = "Marginal"
    DIVERGENT = "Divergent"


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Sobolev seminorms across a refinement sequence with per-tau verdicts."""

    tau_values: tuple[float, ...]
    level_ns: tuple[int, ...]
    norms: np.ndarray  # (levels, taus)
    rates: tuple[float, ...]  # the increment rate behind each verdict
    verdicts: tuple[Verdict, ...]

    def verdict_for(self, tau: float) -> Verdict:
        return self.verdicts[self.tau_values.index(tau)]


def _increment_rate(values, grading: float) -> float:
    """e = -log2(d_L/d_(L-1))/grading of the last two increments d_l = v_(l+1) - v_l
    (e > 0 when v tends to a limit like delta_min^e); +inf at rounding level of
    v_L, nan (no rate) when the two differ in sign or the earlier one is zero."""
    d = np.diff(values)
    if d[-1] == 0.0 or np.max(np.abs(d)) <= 1e-13 * abs(float(values[-1])):
        return math.inf
    if np.sign(d[-1]) != np.sign(d[-2]):
        return math.nan
    return -math.log2(float(d[-1] / d[-2])) / grading


def _rate_verdict(e: float) -> Verdict:
    """Convergent for e > RATE_BAND, Divergent for e <= RATE_BAND (e = 0 is
    logarithmic divergence), Marginal when there is no rate."""
    if math.isnan(e):
        return Verdict.MARGINAL
    return Verdict.CONVERGENT if e > RATE_BAND else Verdict.DIVERGENT


def threshold_scan(
    solve_level: Callable[[int], GridFunction], tau_values, refinement_levels, grading: float = 3.0
) -> ScanReport:
    """Classify each tau by the increment rate e of ||Du||_tau^tau over the
    fields ``solve_level(n)`` (_rate_verdict).  e tracks 1 - tau/tau*, so the
    verdict flips to Divergent at tau = tau*(1 - RATE_BAND).

    ``solve_level(n)`` returns the field at n nodes on the grid graded with
    ``grading``; the caller builds the problem and its grids, so it can share
    solves with its other checks.  ``refinement_levels`` are increasing node
    counts, each refining the last (n - 1 doubles).  Fewer than four levels,
    one below MIN_NODES nodes or unnested ones raise InvalidConfig and a
    grading below 1 InvalidGrading, all before any solve.  A level whose
    solve raises becomes SolveFailed naming n, the error chained; a field on
    a grid of another node count or grading raises GridMismatch.
    """
    levels = [int(n) for n in refinement_levels]
    if len(levels) < 4:
        raise InvalidConfig("need at least 4 refinement levels")
    for a, b in zip(levels, levels[1:]):
        if b - 1 != 2 * (a - 1):
            raise InvalidConfig(f"levels must be nested by doubling: {b} does not refine {a}")
    if levels[0] < MIN_NODES:  # the smallest of nested levels
        raise InvalidConfig(f"level n={levels[0]} has fewer than {MIN_NODES} nodes")
    if grading < 1.0:
        raise InvalidGrading(f"grading must be >= 1, got {grading}")
    taus = [float(t) for t in tau_values]

    norms = np.empty((len(levels), len(taus)))
    for l, n in enumerate(levels):
        try:
            u = solve_level(n)
        except Exception as exc:  # noqa: BLE001 - deliberate wrap-and-reraise
            raise SolveFailed(f"solve failed at level n={n}: {exc}") from exc
        g = u.grid
        if g.n != n or g.grading_exponent != grading:
            raise GridMismatch(f"level n={n} at grading {grading:g} got a field on "
                               f"{g.n} nodes at grading {g.grading_exponent:g}")
        for j, tau in enumerate(taus):
            norms[l, j] = sobolev_seminorm(u, tau)
    if not np.all(np.isfinite(norms)):
        raise SolveFailed("non-finite seminorm in scan")
    rates = tuple(_increment_rate(norms[:, j] ** t, grading) for j, t in enumerate(taus))
    return ScanReport(
        tau_values=tuple(taus),
        level_ns=tuple(levels),
        norms=norms,
        rates=rates,
        verdicts=tuple(_rate_verdict(e) for e in rates),
    )


@dataclass(frozen=True)
class DistanceIntegralResult:
    """Verdict of the distance-integral dichotomy for one exponent a."""

    finite: bool
    value: float | None
    estimated_exponent: float
    increments: tuple[float, ...]


def distance_integral_classify(
    a: float, refinement_levels: int = 6, grading: float = 3.0
) -> DistanceIntegralResult:
    """Decide whether the integral of delta^(-a) over (0,1) is finite.

    Midpoint quadrature on nested graded grids of 257, 513, ... nodes; the
    increments scale like delta_min^(1-a), so their increment rate e gives
    the estimated exponent 1 - e, and threshold_scan's rule decides: Infinite
    iff e <= RATE_BAND (_rate_verdict).  When finite, the value is completed
    with the geometric tail extrapolation.
    """
    if refinement_levels < 4:
        raise InvalidConfig("need at least 4 refinement levels")
    q = []
    for l in range(refinement_levels):
        grid = make_graded_grid(256 * 2**l + 1, grading, INTERVAL01)
        q.append(float(np.einsum("i,i->", grid.h, grid.delta_mid ** (-a))))
    d = np.diff(q)
    e = _increment_rate(q, grading)
    if _rate_verdict(e) is Verdict.DIVERGENT:
        return DistanceIntegralResult(False, None, 1.0 - e, tuple(d))
    rho = d[-1] / d[-2] if math.isfinite(e) else 0.0
    return DistanceIntegralResult(True, q[-1] + d[-1] * rho / (1.0 - rho), 1.0 - e, tuple(d))


@dataclass(frozen=True)
class GradientBoundReport:
    """sup |Du| delta^(a-1) over checked cells, with refinement stability."""

    constant: float
    refined_constant: float
    ratio: float


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
    gives a finite constant, so the report carries the constant of the
    ``refined`` companion solve and its ratio to this one; the caller judges
    that ratio.
    """
    c0 = _gradient_constant(w, a)
    c1 = _gradient_constant(refined, a)
    return GradientBoundReport(constant=c0, refined_constant=c1, ratio=c1 / c0)
