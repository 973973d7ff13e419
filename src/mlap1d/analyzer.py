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

from .core import DEFAULT_GRADING, GridFunction, INTERVAL01, MIN_NODES, is_whole, make_graded_grid
from .errors import (
    DomainError,
    GridMismatch,
    InsufficientWindow,
    InvalidConfig,
    InvalidGrading,
    MlapError,
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
DISTANCE_LEVELS = 6  # nested grids distance_integral_classify sums on by default


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


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x, and the fit's r^2 = 1 - SSres/SStot."""
    # einsum sums on one thread; np.dot's BLAS sum depends on the thread count
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    slope = float(np.einsum("i,i->", dx, dy)) / float(np.einsum("i,i->", dx, dx))
    sst, resid = float(np.einsum("i,i->", dy, dy)), dy - slope * dx
    return slope, 1.0 if sst == 0.0 else 1.0 - float(np.einsum("i,i->", resid, resid)) / sst


def _window_samples(
    u: GridFunction, window: tuple[float, float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(delta, value) samples per boundary side, window-filtered.

    Distances below 10 * (smallest cell) are excluded even if the window
    reaches them: the asymptotic relations are polluted by discretization in
    the first cells.
    """
    lo, hi = window
    grid, delta = u.grid, u.grid.delta_nodes
    max_delta = float(delta.max())
    if not 0.0 < lo < hi:
        raise InsufficientWindow(f"window ({lo}, {hi}) is not an interval in (0, inf)")
    if hi > max_delta / 4.0:
        raise InsufficientWindow(
            f"window must stay strictly inside (0, {max_delta / 4.0:g})"
        )
    lo = max(lo, 10.0 * float(grid.h.min()))
    near = (delta >= lo) & (delta <= hi)
    sides = [(delta[s][near[s]], u.values[s][near[s]]) for s in grid.boundary_sides]
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


def fit_log_profile(u: GridFunction, window: tuple[float, float]) -> FitResult:
    """Fit s in u/delta ~ C log^s(1/delta) + B, with C and the offset B free.

    Solutions of -u'' = delta^(-1) log^(-a)(1/delta) carry an O(1) offset B
    that biases any fit without it.  For fixed s, C and B are linear least
    squares; each side's s is the zero in (0, 64] (L^s stays finite) of the
    derivative of their residual (variable projection), or else InsufficientWindow.
    """

    def fit_side(d, vals):
        ell = np.log(np.log(1.0 / d))
        yc = vals / d
        yc -= yc.mean()

        def slope(s):  # (-1/2 dRSS/ds, C, centred L^s) at s, with C and B fitted
            x = np.expm1(s * ell) if s else ell.copy()  # L^s - 1, or (L^s - 1)/s -> log L at 0
            dx = ell * (x + 1.0) if s else 0.5 * ell * ell
            x -= x.sum() / x.size
            c = np.einsum("i,i->", x, yc) / np.einsum("i,i->", x, x)
            return c * (np.einsum("i,i->", dx, yc) - c * np.einsum("i,i->", dx, x)), c, x

        lo, hi, f_lo, f_hi = 0.0, 1.0, slope(0.0)[0], slope(1.0)[0]
        while f_lo > 0.0 and f_hi > 0.0 and hi < 64.0:
            lo, f_lo, hi, f_hi = hi, f_hi, 2.0 * hi, slope(2.0 * hi)[0]
        if not f_lo > 0.0 >= f_hi:
            raise InsufficientWindow(
                f"no log profile optimum for s in (0, 64] on [{d.min():g}, {d.max():g}]"
            )
        # Illinois false position (an end kept twice has its value halved)
        kept, f, s, last = 0, 1.0, hi, lo
        while f != 0.0 and min(hi - lo, abs(s - last)) > 1e-9 * hi:
            s, last = (lo * f_hi - hi * f_lo) / (f_hi - f_lo), s
            f, c, x = slope(s)
            if f > 0.0:
                lo, f_lo, f_hi, kept = s, f, f_hi * (0.5 if kept > 0 else 1.0), 1
            else:
                hi, f_hi, f_lo, kept = s, f, f_lo * (0.5 if kept < 0 else 1.0), -1
        r = yc - c * x
        return float(s), 1.0 - float(np.einsum("i,i->", r, r) / np.einsum("i,i->", yc, yc))

    return _per_side_fit(u, window, fit_side, log=True)


def _check_tau(tau: float) -> None:
    """Raise InvalidConfig unless 1 <= tau < inf; a NaN tau fails too."""
    if not tau >= 1.0:
        raise InvalidConfig(f"tau must be >= 1, got {tau}")
    if not tau < math.inf:
        raise InvalidConfig(f"tau must be finite, got {tau}")


def sobolev_seminorm(u: GridFunction, tau: float) -> float:
    """(sum_cells w |Du|^tau)^(1/tau), radially weighted in the ball case.

    A sum that overflows double precision raises DomainError naming tau.
    """
    _check_tau(tau)
    g = u.grid
    du = np.diff(u.values) / g.h
    with np.errstate(over="ignore"):
        total = float(np.einsum("i,i->", g.cell_measures, np.abs(du) ** tau))
    if total == math.inf:
        raise DomainError(f"sum w |Du|^tau overflows double precision at tau = {tau:g}")
    return total ** (1.0 / tau)


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
    (e > 0 when v tends to a limit like delta_min^e); +inf when both are at rounding
    level of v_L, nan (no rate) when the two differ in sign or the earlier one is zero."""
    d = np.diff(values[-3:])
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
    solve_level: Callable[[int], GridFunction], tau_values, refinement_levels,
    grading: float = DEFAULT_GRADING,
) -> ScanReport:
    """Classify each tau by the increment rate e of ||Du||_tau^tau over the
    fields ``solve_level(n)`` (_rate_verdict).  e tracks 1 - tau/tau*, so the
    verdict flips to Divergent at tau = tau*(1 - RATE_BAND).

    ``solve_level(n)`` returns the field at n nodes on the grid graded with
    ``grading``; the caller builds the problem and its grids, so it can share
    solves with its other checks.  ``refinement_levels`` are increasing node
    counts, each refining the last (n - 1 doubles).  The rate reads the last
    two increments, so three levels suffice; the earlier levels of a longer
    scan only fill rows of ``norms``.  Fewer than three levels, one that is
    not a whole number (a whole float such as 257.0 is taken as 257) or is
    below MIN_NODES nodes, unnested ones, no tau or a tau not in [1, inf)
    raise InvalidConfig and a grading below 1 InvalidGrading, all before any
    solve.  A level whose solve raises a package error becomes SolveFailed
    naming n, the error chained; any other exception propagates as itself.
    A field on a grid of another node count or grading raises GridMismatch.
    """
    levels = list(refinement_levels)
    if not all(map(is_whole, levels)):
        raise InvalidConfig(f"levels must be whole node counts, got {levels!r}")
    levels = [int(n) for n in levels]
    if len(levels) < 3:
        raise InvalidConfig("need at least 3 refinement levels")
    for a, b in zip(levels, levels[1:]):
        if b - 1 != 2 * (a - 1):
            raise InvalidConfig(f"levels must be nested by doubling: {b} does not refine {a}")
    if levels[0] < MIN_NODES:  # the smallest of nested levels
        raise InvalidConfig(f"level n={levels[0]} has fewer than {MIN_NODES} nodes")
    if not grading >= 1.0:
        raise InvalidGrading(f"grading must be >= 1, got {grading}")
    taus = [float(t) for t in tau_values]
    if not taus:
        raise InvalidConfig("need at least one tau")
    for t in taus:
        _check_tau(t)

    norms = np.empty((len(levels), len(taus)))
    for l, n in enumerate(levels):
        try:
            u = solve_level(n)
        except MlapError as exc:
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
    a: float, refinement_levels: int = DISTANCE_LEVELS, grading: float = DEFAULT_GRADING
) -> DistanceIntegralResult:
    """Decide whether the integral of delta^(-a) over (0,1) is finite.

    Midpoint quadrature on nested graded grids of 257, 513, ... nodes; the
    increments scale like delta_min^(1-a), so their increment rate e gives
    the estimated exponent 1 - e, and threshold_scan's rule decides: Infinite
    iff e <= RATE_BAND (_rate_verdict).  When finite, the value is completed
    with the geometric tail extrapolation.  The rate and the tail read the
    last two increments, so three levels suffice.  A level sum that
    overflows, which needs a > 1 (each term h delta_mid^(-a) is at most 2
    for a <= 1), reads Infinite, its exponent estimated from the finite
    levels (nan with fewer than three).  A non-finite a, or a level count
    that is not a whole number (3.0 is taken as 3) or is below three, raises
    InvalidConfig.
    """
    if not math.isfinite(a):
        raise InvalidConfig(f"exponent a must be finite, got {a}")
    if not is_whole(refinement_levels) or refinement_levels < 3:
        raise InvalidConfig(f"need at least 3 refinement levels, a whole number, got "
                            f"{refinement_levels!r}")
    q = []
    for l in range(int(refinement_levels)):
        grid = make_graded_grid(256 * 2**l + 1, grading, INTERVAL01)
        with np.errstate(over="ignore"):
            q.append(float(np.einsum("i,i->", grid.h, grid.delta_mid ** (-a))))
    finite = [v for v in q if v < math.inf]  # the sums grow with the level
    d = np.diff(finite)
    e = _increment_rate(finite, grading) if len(finite) >= 3 else math.nan
    if len(finite) < len(q) or _rate_verdict(e) is Verdict.DIVERGENT:
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
    lo = GRADIENT_SKIP_CELLS if 0 in g.dirichlet_indices() else 0
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
