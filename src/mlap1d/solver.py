"""Direct solver for -div(Phi) = theta and the singular outer iteration.

In one dimension the finite-volume equations

    F_{i+1/2} - F_{i-1/2} = -V_i theta_i

fix every cell flux F up to one constant, so solve_dirichlet needs no
Jacobian, line search or regularization.  On the ball the constant is zero
(no flux crosses r = 0).  An interval problem whose cell widths, dual-cell
volumes and theta all equal their mirror images exactly has a symmetric
solution and a flux that is odd about x = 1/2, so the constant is known
there too: the centre node of an odd grid gives F = -V_c theta_c / 2 to the
cell on its right, and the centre cell of an even grid carries zero flux.
Such a problem is solved on its right half by the ball's zero-flux
integration and mirrored.  On any other interval problem the constant is the
root c of the increasing scalar equation sum_j h_j phi^(-1)(c - R_j) = 0,
which says that u returns to zero at x = 1.  The loads R_j are accumulated
outward from the cell where the flux changes sign, because prefix sums from
x = 0 would cancel catastrophically there when theta is large near the
boundary.  One root search finds c.  It starts in the cell where the m = 2
flux, known in closed form, changes sign, and moves its anchor to the cell
of smallest |flux| as it goes.  Each step keeps that peak cell's term exact:
for m > 2, phi^(-1) has an infinite slope at zero flux, so the step is
solved in the peak cell's gradient, where that term is linear.  Inverting
the flux gives Du in every cell, and u is summed inward from the Dirichlet
boundary, which leaves the rounding error of the closure in the peak cell.
Every solution is checked a posteriori by its noise-aware scaled residual.
A mirror-solved problem is checked from the centre node on: its fluxes are
exactly odd and its noise terms exactly even, so that value is the whole
grid's to the last bit.

solve_singular treats -div(Phi) = K u^(-p) as the fixed point of
T(v) = solve(K v^(-p)), with the singular term clamped below at a certified
discrete subsolution to rule out overflow from undershoot.  T is
order-reversing, and its linearisation in log u has its spectrum in
[-rho, 0], rho = p/(m-1).  One loop serves every p >= 0: it relaxes,
u <- u^(1-w) T(u)^w with w = 2/(2+rho), which contracts by rho/(2+rho) per
solve (at p = 0, w = 1 and one solve decides), and every solve brings its
own certificate, the scaling bracket.  The loop holds its iterate as
L = log u on the unknowns, in one block it allocates once, so a sweep takes
four full-length transcendental passes: exp for theta = K exp(-p Lt) with
Lt = max(L, log sub), one log of the solve's result shared by the bracket
and the relaxation, and the bracket's two log1p.
-Delta_m is (m-1)-homogeneous and K u^(-p) decreases in u, so with
w = T(u), lam w is a supersolution if lam^(m-1+p) >= (max(u, sub)/w)^p at
every unknown node and a subsolution if <= holds at every one.  The extreme
scales lam_lo <= lam_hi put the solution in [lam_lo w, lam_hi w]; the loop
stops once the width (lam_hi - lam_lo) sup w is at most picard_tol and
returns the midpoint, within half the width of the solution.  The solve's
scaled residual r enters lam as slack s = r (1 + u^p/K), r never below the
assembly noise, so the width cannot fall below about 2 max s sup u/(m-1+p):
a tolerance under that resolution floor raises NonConvergence.  Both
barriers are certified at every unknown node, so the comparison principle
puts the solution between them; the result is checked against that pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    Grid1D,
    GridFunction,
    ProblemSpec,
    default_k_values,
    validate_spec,
)
from .errors import (
    AdmissibilityViolation,
    BarrierOrderViolation,
    InvalidConfig,
    NonConvergence,
    NonFiniteTheta,
)
from .operator import dflux_of_gradient, flux_of_gradient

if TYPE_CHECKING:  # eigen sits above solver
    from .eigen import EigenPair

__all__ = ["SolverConfig", "SolveReport", "solve_dirichlet", "solve_singular"]

# Bound on the noise-aware scaled residual of every Dirichlet solve.
RESIDUAL_TOL = 1e-10

# Budget of closure evaluations per solve.  Bisection alone shrinks the
# bracket 2^200-fold in that many steps; a search that has not stopped by then
# is judged by the residual check like any other.
MAX_ROOT_STEPS = 200


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and budget of the outer singular loop.

    ``picard_tol`` is the sup-norm width of the scaling bracket at which the
    singular loop stops; ``max_picard_iters`` bounds its Dirichlet solves.
    """

    picard_tol: float = 1e-8
    max_picard_iters: int = 100

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise InvalidConfig(f"picard_tol must be positive, got {self.picard_tol}")
        if self.max_picard_iters < 1:
            raise InvalidConfig(
                f"max_picard_iters must be at least 1, got {self.max_picard_iters}"
            )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a solve.

    ``final_residual`` is the noise-aware scaled residual of the last
    Dirichlet solve, and ``converged`` means it is at most RESIDUAL_TOL.
    ``iterations`` counts the closure evaluations of the one interval root
    search for a Dirichlet solve (0 on the ball and on mirror-symmetric
    interval problems) and Dirichlet solves for a singular one.  Singular
    solves attach the certified barrier pair used to initialize and guard the
    iteration, and report ``picard_gap``, the width of the scaling bracket,
    for every p >= 0: a certified bound, the solution is within
    picard_gap/2 of ``solution``.
    """

    solution: GridFunction
    iterations: int
    final_residual: float
    converged: bool
    picard_gap: float | None = None
    sub_barrier: GridFunction | None = None
    super_barrier: GridFunction | None = None
    barrier_c: float | None = None


# Residuals are recomputed from flux differences, which near a graded boundary
# cancel catastrophically (|F_i - F_{i-1}| ~ V_i theta_i while |F_i| = O(1)),
# and for m < 2 the flux derivative amplifies the rounding of Du itself.
# Anything below this multiple of machine epsilon times the assembly scale is
# numerically indistinguishable from zero and must not block convergence.
ASSEMBLY_NOISE = 64.0 * np.finfo(float).eps


def _scaled_residual(grid, u, m, loads, theta_vals, first=None) -> float:
    """sup over the unknowns from node ``first`` on (all of them by default)
    of max(|g_i| - noise_i, 0) / (V_i (1 + |theta_i|)).

    g_i = F_{i-1} - F_i - V_i theta_i is the flux balance at node i (no flux
    enters the ball's node 0).  The noise model is first-order rounding:
    each flux carries an error of eps_mach * (|F| + phi'(Du) * sup|u| / h)
    and the load one of eps_mach * V |theta|.  sup|u| is taken over the
    cells that bound those nodes, which on a mirror-symmetric solution from
    the centre on is the whole grid's.
    """
    sl = grid.unknown_slice if first is None else slice(first, grid.n - 1)
    c = max(sl.start - 1, 0)  # the first cell that bounds a node in sl
    h, weights = grid.h[c:], grid.flux_weights[c:]
    # the arithmetic of the formula above, written into few arrays
    du = np.diff(u[c:])
    du /= h
    fw = flux_of_gradient(du, m)
    fw *= weights
    u_scale = max(1e-300, float(u[c:].max()), -float(u[c:].min()))
    fn = dflux_of_gradient(du, m)
    fn *= weights
    fn *= np.divide(u_scale, h, out=du)
    fn += np.abs(fw, out=du)
    res = 0.0
    if sl.start == 0:  # the ball's node 0, where no flux enters
        g0 = abs(fw[0] + loads[0]) - ASSEMBLY_NOISE * (fn[0] + abs(loads[0]))
        res = float(max(g0, 0.0) / (grid.cell_volumes[0] * (1.0 + abs(theta_vals[0]))))
    # node k of ``between`` lies between entries k and k + 1 of fw and fn
    between = slice(c + 1, grid.n - 1)
    g = np.subtract(fw[:-1], fw[1:], out=du[:-1])
    g -= loads[between]
    np.abs(g, out=g)
    noise = np.add(fn[:-1], fn[1:])
    noise += np.abs(loads[between], out=fw[:-1])
    noise *= ASSEMBLY_NOISE
    g -= noise
    np.maximum(g, 0.0, out=g)
    den = np.abs(theta_vals[between], out=noise)
    den += 1.0
    den *= grid.cell_volumes[between]
    g /= den
    return max(res, float(g.max()))


def _inverse_flux(y, m):
    """Du with |Du|^(m-2) Du = y."""
    du = np.abs(y)
    np.power(du, 1.0 / (m - 1.0), out=du)
    return np.copysign(du, y, out=du)


def _compensated_cumsum(x):
    """Cumulative sum of ``x`` correct to rounding at every entry.

    A plain cumulative sum drifts like sqrt(n) ulps; u is summed inward from
    both boundaries, so that drift would land in the peak cell as a jump
    the residual check cannot tell from a wrong flux when m < 2.  The exact
    rounding error of every step (TwoSum) is summed and added back.
    """
    s = np.cumsum(x)
    err = np.empty_like(s)  # the partial sum before each step, at first
    err[:1] = 0.0
    err[1:] = s[:-1]
    bp = s - err
    t = s - bp
    err -= t
    err += np.subtract(x, bp, out=t)
    s += np.cumsum(err, out=err)
    return s


def _zero_flux_solution(loads, h, weights, m):
    """u at the left node of every cell of a chain that starts at a node with
    zero flux on its left and ends at a Dirichlet node (u = 0).

    The cell fluxes are w_j |Du_j|^(m-2) Du_j = -sum_{i <= j} loads_i, and u
    is summed inward from the Dirichlet end.
    """
    flux = np.cumsum(loads)
    np.negative(flux, out=flux)
    flux /= weights
    hdu = _inverse_flux(flux, m)
    hdu *= h
    u = _compensated_cumsum(hdu[::-1])
    return np.negative(u, out=u)[::-1]


def _anchored_loads(loads, k):
    """R_j, the sum of the node loads between cell k and cell j, signed so that
    the cell fluxes are F_j = F_k - R_j (R_k = 0)."""
    return np.concatenate(
        (-np.cumsum(loads[k:0:-1])[::-1], [0.0], np.cumsum(loads[k + 1 : -1]))
    )


def _power_root(a, b, q, tau):
    """The x >= 0 with a x + b x^q = tau, for a, b >= 0 not both zero, q >= 1
    and tau >= 0.

    At the root both terms are at most tau and one is at least tau/2, so the
    smaller of tau/a and (tau/b)^(1/q) lies in [x, 2x].  The left side is
    convex, so Newton's method falls from there monotonically to x; it stops
    when rounding halts the fall.
    """
    x = min(
        tau / a if a > 0.0 else np.inf, (tau / b) ** (1.0 / q) if b > 0.0 else np.inf
    )
    while x > 0.0:
        xq1 = x ** (q - 1.0)
        nxt = x - (a * x + b * xq1 * x - tau) / (a + q * b * xq1)
        if not nxt < x:
            break
        x = nxt
    return x


def _closure_root(loads, h, m, k, c):
    """One root search for the closure G(c) = sum_j h_j phi^(-1)(c - R_j).

    G increases in c.  The loads start anchored at cell k, and c is the flux
    F_k.  After every closure evaluation the loads are re-anchored at the
    cell whose flux is closest to zero, the peak cell, by translating R, c
    and the bracket [min R, max R] that safeguards the search.  Each step
    solves a model of G that keeps the peak cell's term exact and follows the
    tangent of the others.  For m > 2, phi^(-1) has an infinite slope at zero
    flux, which no tangent in c follows; in the peak cell's gradient s, with
    c = phi(s), that term is just h_k s, so the model is solved for s.  For
    m <= 2 it is solved for c.  A step that leaves the bracket or fails to
    halve the previous one is replaced by bisection.  The search stops once
    G is at the rounding level of its sum, or the bracket is down to
    adjacent floats, or the step is below the resolution of every flux but
    the peak cell's; such a step is applied to the peak cell alone.  Returns
    the peak cell, h_j Du_j at the root and the number of closure
    evaluations.
    """
    eps = np.finfo(float).eps
    inv = 1.0 / (m - 1.0)
    big_r = _anchored_loads(loads, k)
    lo, hi = float(big_r.min()), float(big_r.max())
    last_step = hi - lo
    r2 = None
    y, a, t, hdu = (np.empty_like(big_r) for _ in range(4))
    for it in range(1, MAX_ROOT_STEPS + 1):
        np.subtract(c, big_r, out=y)
        np.abs(y, out=a)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.power(a, inv - 1.0, out=t)  # |Du_j|/|y_j|
            np.multiply(y, t, out=hdu)
        hdu *= h
        val = float(np.sum(hdu))
        if np.isnan(val):  # 0 * inf at a flux that is exactly zero, m > 2
            zero = a == 0.0
            hdu[zero] = 0.0
            t[zero] = 0.0
            val = float(np.sum(hdu))
        # y's storage is free now: it takes |Du_j| for the rounding level
        if abs(val) <= 4.0 * eps * float(np.einsum("i,i->", h, np.multiply(a, t, out=y))):
            break
        if val < 0.0:
            lo = c
        else:
            hi = c
        j = int(np.argmin(a))
        if j != k:
            shift = float(big_r[j])
            big_r -= shift
            c, lo, hi, k, r2 = c - shift, lo - shift, hi - shift, j, None
        t[k] = 0.0
        rest = inv * float(np.einsum("i,i->", h, t))  # the other cells' slope dG/dc
        # the model h_k phi^(-1)(c') + rest c' = tau
        tau = rest * c - (val - float(hdu[k]))
        sign = 1.0 if tau >= 0.0 else -1.0
        if m > 2.0:
            x = _power_root(float(h[k]), rest, m - 1.0, abs(tau))  # |s|
            du_k, nxt = sign * x, sign * x ** (m - 1.0)
        else:
            x = _power_root(rest, float(h[k]), inv, abs(tau))  # |c'|
            du_k, nxt = sign * x**inv, sign * x
        step = c - nxt
        if r2 is None:
            # fp resolution of c - R_j is ulp(max(|c|, |R_j|)); the peak
            # cell's flux is exempt, so the smallest other |R_j| sets the scale
            np.abs(big_r, out=a)
            a[k] = np.inf
            r2 = float(a.min())
        if abs(step) <= 2.0 * eps * max(abs(c), r2):
            hdu[k] = h[k] * du_k
            break
        if not (lo < nxt < hi) or abs(step) > 0.5 * abs(last_step):
            nxt = 0.5 * (lo + hi)
        last_step = nxt - c
        if nxt in (lo, hi):  # the bracket is down to adjacent floats
            break
        c = nxt
    return k, hdu, it


def solve_dirichlet(theta: GridFunction, m: float) -> SolveReport:
    """Solve -div(|Du|^(m-2) Du) = theta with homogeneous Dirichlet data.

    ``theta`` must be finite at the unknown nodes (boundary entries are
    ignored).  The fluxes are integrated exactly from the loads V theta (see
    the module docstring); the result is returned only when its noise-aware
    scaled residual is at most RESIDUAL_TOL, and NonConvergence is raised
    with the report attached otherwise.
    """
    if m <= 1.0:
        raise AdmissibilityViolation(f"m > 1 fails: m = {m}")
    grid = theta.grid
    sl = grid.unknown_slice
    theta_vals = theta.values  # read at the unknowns only
    if not np.all(np.isfinite(theta_vals[sl])):
        raise NonFiniteTheta("theta must be finite at the unknown nodes")

    h = grid.h
    n = grid.n
    loads = np.zeros(n)
    np.multiply(grid.cell_volumes[sl], theta_vals[sl], out=loads[sl])
    iterations = 0
    first = None  # the residual check covers every unknown
    if grid.domain.is_ball:
        # zero flux at r = 0
        u = np.zeros(n)
        u[:-1] = _zero_flux_solution(loads[:-1], h, grid.flux_weights, m)
    elif grid.mirror_symmetric and np.array_equal(theta_vals[sl], theta_vals[sl][::-1]):
        # the solution is symmetric and the flux odd about x = 1/2: solve
        # the right half from the centre, where the centre node (odd n)
        # keeps half its load and the centre cell (even n) has zero flux
        k = (n - 1) // 2  # the first cell of the right half
        half = loads[k:-1].copy()
        half[0] = 0.5 * loads[k] if n % 2 else 0.0
        u = np.zeros(n)
        u[k:-1] = _zero_flux_solution(half, h[k:], 1.0, m)
        u[: n // 2] = u[::-1][: n // 2]
        # u, h, V and theta are exact mirrors, so the fluxes are exactly odd
        # and the noise terms exactly even: the check from the centre node
        # on equals the full one to the last bit
        first = n // 2
    else:
        # flux weights are 1 on the interval; the search starts anchored at
        # the cell where the m = 2 flux is closest to zero
        prefix = _anchored_loads(loads, 0)
        c0 = float(np.einsum("i,i->", h, prefix))  # the exact root for m = 2 (sum h = 1)
        k = int(np.argmin(np.abs(c0 - prefix)))
        k, hdu, iterations = _closure_root(loads, h, m, k, c0 - prefix[k])
        u = np.zeros(n)
        u[1 : k + 1] = _compensated_cumsum(hdu[:k])
        np.negative(_compensated_cumsum(hdu[:k:-1])[::-1], out=u[k + 1 : -1])

    res = _scaled_residual(grid, u, m, loads, theta_vals, first)
    report = SolveReport(
        solution=GridFunction(grid, u),
        iterations=iterations,
        final_residual=res,
        converged=res <= RESIDUAL_TOL,
    )
    if not report.converged:
        raise NonConvergence(
            f"a-posteriori check failed: scaled residual {res:g}", report=report
        )
    return report


def solve_singular(
    spec: ProblemSpec,
    grid: Grid1D,
    config: SolverConfig | None = None,
    k_values: GridFunction | None = None,
    base: EigenPair | None = None,
) -> SolveReport:
    """Solve -div(|Du|^(m-2) Du) = K u^(-p) by bracketed monotone iteration.

    K defaults to delta^(-q); a custom weight can be supplied through
    ``k_values`` as long as it stays inside the spec's (k_low, k_high)
    envelope, against which the barriers are certified.

    The iteration starts at a numerically certified subsolution barrier and
    applies T(v) = solve_dirichlet(K v^(-p)) (see the module docstring).  For
    every p >= 0 it stops on a scaling bracket of width at most
    ``picard_tol`` and returns its midpoint, so ``picard_gap`` bounds twice
    the error; p = 0 takes one solve.  Both barriers are certified at every
    unknown node, so the comparison principle puts the discrete solution
    between them; BarrierOrderViolation, raised when the result leaves the
    pair by more than ``picard_tol``, names the side, the node and the
    excess, and signals a defect rather than a property of the input.

    The barriers are built on ``base``, the first m-Laplace eigenpair on
    ``grid``; it is computed here when not given.

    The grid should resolve delta^gamma boundary layers for the predicted
    exponent gamma; grading >= 2/gamma is a good default.
    """
    from .barriers import certified_pair  # deferred: barriers sit above solver

    validate_spec(spec)
    cfg = config or SolverConfig()
    if k_values is None:
        k_values = default_k_values(spec, grid)
    else:
        sl = grid.unknown_slice
        envelope = k_values.values[sl] * grid.delta_nodes[sl] ** spec.q
        if np.any(envelope < spec.k_low * (1 - 1e-12)) or np.any(
            envelope > spec.k_high * (1 + 1e-12)
        ):
            raise AdmissibilityViolation(
                "custom K leaves the (k_low, k_high) envelope: "
                f"K delta^q in [{envelope.min():g}, {envelope.max():g}]"
            )

    pair = certified_pair(spec, grid, base=base)
    return _singular_loop(spec, grid, cfg, pair, k_values.values)


def _singular_report(inner, pair, iterations, gap, **changes) -> SolveReport:
    """The last Dirichlet solve's report as a singular one: the loop's
    solve count and bracket width, and the certified barrier pair."""
    return replace(
        inner,
        iterations=iterations,
        picard_gap=gap,
        sub_barrier=pair.sub,
        super_barrier=pair.super_,
        barrier_c=pair.c,
        **changes,
    )


def _singular_theta(p, k, lt, out):
    """theta = K exp(-p Lt) on the unknowns, written into ``out`` (which may
    be ``lt``), where Lt = max(log v, log sub) is the log iterate clamped at
    the subsolution."""
    np.multiply(lt, -p, out=out)
    np.exp(out, out=out)
    out *= k
    return out


def _scaling_bracket(spec, log_ratio, theta, residual, out):
    """Scales lam_lo <= lam_hi with the solution in [lam_lo w, lam_hi w].

    w = T(v) solves -Delta_m w = theta with theta = K vt^(-p),
    vt = max(v, sub), up to the scaled residual r (1 + theta), where the
    slack r is the solve's measured ``residual`` but never below
    ASSEMBLY_NOISE.  By (m-1)-homogeneity lam w is a supersolution of
    -Delta_m u = K u^(-p) wherever lam^(m-1+p) (1 - s) >= (vt/w)^p, with
    s = r (1 + 1/theta) (vt^p/K is 1/theta), and a subsolution wherever
    lam^(m-1+p) (1 + s) <= (vt/w)^p.  K u^(-p) decreases in u, so the
    comparison principle puts the solution between the two.  Takes the
    unknowns only, and (vt/w)^p in log space: ``log_ratio`` = p log(vt/w).
    Overwrites ``theta`` and uses ``out`` as scratch.  Returns (0, inf)
    when the slack swamps the load.
    """
    s = np.divide(1.0, theta, out=theta)  # the slack, in theta's storage
    s += 1.0
    s *= max(residual, ASSEMBLY_NOISE)
    if float(s.max()) >= 1.0:
        return 0.0, np.inf
    e = 1.0 / (spec.m - 1.0 + spec.p)
    np.log1p(s, out=out)
    np.subtract(log_ratio, out, out=out)
    lam_lo = float(np.exp(e * out.min()))
    np.negative(s, out=s)
    np.log1p(s, out=s)
    np.subtract(log_ratio, s, out=s)
    lam_hi = float(np.exp(e * s.max()))
    return lam_lo, lam_hi


def _singular_loop(spec, grid, cfg, pair, k_vals):
    """Relaxed iteration that stops on its own scaling bracket.

    With rho = p/(m-1) the linearisation of log T at the fixed point has its
    spectrum in [-rho, 0], so the relaxed step u <- u^(1-w) T(u)^w with
    w = 2/(2+rho) contracts by rho/(2+rho) per solve, for every rho; at
    p = 0, w = 1 and T does not depend on u, so one solve decides.  The
    iteration starts at the subsolution and is held as L = log u on the
    unknowns, where the step is L <- (1-w) L + w log T(u).  The loop takes
    log sub and log K once and reuses four more arrays, theta among them, so
    each sweep makes four transcendental passes: the exp in theta, the log
    of T(u) that the bracket and the step share, and the bracket's two
    log1p.  After every solve _scaling_bracket puts the solution in
    [lam_lo T(u), lam_hi T(u)]; the loop stops once the width
    (lam_hi - lam_lo) sup T(u) is at most picard_tol and returns the
    midpoint, which is within half the width of the solution.  The
    comparison principle already puts that solution between the barriers,
    which are certified at every unknown node; the exit check confirms it.
    """
    tol = cfg.picard_tol
    m, p = spec.m, spec.p
    sl = grid.unknown_slice
    omega = 2.0 / (2.0 + p / (m - 1.0))
    k = k_vals[sl]
    # every array the sweeps reuse, in one block: six separate arrays that
    # outlive the solves fragment the heap and raise the peak resident size.
    # Rows are full length so that the last can be theta, zero at the
    # boundary; solve_dirichlet does not keep theta, so every sweep rewrites
    # it under the read-only view it hands over
    work = np.zeros((6, grid.n))
    log_k, log_sub, big_l, log_w, log_ratio = (row[sl] for row in work[:5])
    theta, theta_sl = work[5], work[5, sl]
    np.log(k, out=log_k)
    np.log(pair.sub.values[sl], out=log_sub)
    big_l[:] = log_sub
    iterations = 0
    while True:
        np.maximum(big_l, log_sub, out=theta_sl)
        _singular_theta(p, k, theta_sl, theta_sl)
        inner = solve_dirichlet(GridFunction(grid, theta.view()), m)
        iterations += 1
        w = inner.solution.values
        np.log(w[sl], out=log_w)
        # max log (w^p/K), for the resolution floor below
        np.multiply(log_w, p, out=log_ratio)
        log_ratio -= log_k
        log_load = float(log_ratio.max())
        np.maximum(big_l, log_sub, out=log_ratio)
        log_ratio -= log_w
        log_ratio *= p  # p log (max(u, sub)/w)
        # the relaxed step, taken before the bracket so that it can use
        # log_w's storage; the loop returns w, not the stepped iterate
        big_l *= 1.0 - omega
        log_w *= omega
        big_l += log_w
        lam_lo, lam_hi = _scaling_bracket(
            spec, log_ratio, theta_sl, inner.final_residual, log_w
        )
        w_max = float(np.max(w))
        width = (lam_hi - lam_lo) * w_max
        if width <= tol:
            break
        # _scaling_bracket's slack s, at least ASSEMBLY_NOISE (1 + v^p/K),
        # alone keeps lam_hi/lam_lo above 1 + 2 max(s)/(m-1+p).  s is taken
        # at the certified lower bracket v = lam_lo w, not at the iterate:
        # early iterates overshoot the solution and would overstate it
        load = lam_lo**p * float(np.exp(log_load))
        resolution = 2.0 * ASSEMBLY_NOISE * (1.0 + load) / (m - 1.0 + p) * lam_lo * w_max
        why = None
        if resolution > tol:
            why = f"picard_tol {tol:g} is below the resolution {resolution:g}"
        elif iterations >= cfg.max_picard_iters:
            why = "singular iteration budget exhausted"
        if why:
            raise NonConvergence(
                f"{why}: bracket width {width:g}",
                report=_singular_report(inner, pair, iterations, width, converged=False),
            )

    mid = 0.5 * (lam_lo + lam_hi) * w
    for side, excess in (
        ("below the subsolution", pair.sub.values - mid),
        ("above the supersolution", mid - pair.super_.values),
    ):
        i = int(np.argmax(excess))
        if excess[i] > tol:
            raise BarrierOrderViolation(
                f"the bracketed solution lies {side} of the certified pair "
                f"at node {i} by {excess[i]:g}"
            )
    return _singular_report(inner, pair, iterations, width, solution=GridFunction(grid, mid))
