"""The discrete m-Laplacian, its direct Dirichlet solver and the singular loop.

apply_mlap is the finite-volume -div(Phi) with the midpoint flux
Phi = |Du|^(m-2) Du, Du = (u_{i+1} - u_i) / h_{i+1/2}, weighted by
w = r^(N-1) on the ball: at each unknown, the flux difference over the
dual-cell volume V_i.  So <apply_mlap(u), v>_V = sum_cells w Phi(Du) Dv
holds exactly (discrete summation by parts), and apply_mlap - theta is the
gradient of the energy

    E(u) = sum_cells w |Du|^m / m - sum_nodes V_i theta_i u_i,

strictly convex for m > 1, so the discrete Dirichlet problem has exactly
one solution.  Every forward flux, in apply_mlap and the residual check
alike, comes from one kernel, _weighted_flux: a barrier certified with
apply_mlap brackets the solver's discrete solution because both apply the
same operator.

In one dimension the finite-volume equations

    F_{i+1/2} - F_{i-1/2} = -V_i theta_i

fix every cell flux F up to one constant, so solve_dirichlet needs no
Jacobian, line search or regularization.  Where the constant is known, the
problem is a zero-flux chain from node k = Grid1D.chain_start to the
Dirichlet node, solved by _zero_flux_solution.  On the ball k = 0: no flux
crosses r = 0.  An interval problem whose widths, dual-cell volumes and
theta all equal their mirror images exactly has a symmetric solution and a
flux odd about x = 1/2, so its right half is a chain from the centre
k = (n-1)//2: the centre node of an odd grid gives F = -V_c theta_c / 2 to
the cell on its right, the centre cell of an even grid carries zero flux,
and the left half is mirrored.  On any other interval problem the constant
is the root c of the increasing scalar equation
sum_j h_j phi^(-1)(c - R_j) = 0, which says that u returns to zero at
x = 1.  The loads R_j are accumulated outward from the cell where the flux
changes sign, because prefix sums from x = 0 would cancel catastrophically
there when theta is large near the boundary.  One root search finds c.  It
starts in the cell where the m = 2 flux, known in closed form, changes
sign, and moves its anchor to the cell of smallest |flux| as it goes,
summing the loads afresh from there.  Each step keeps that peak cell's
term exact: for m > 2, phi^(-1) has an infinite slope at zero flux, so the
step is solved in the peak cell's gradient, where that term is linear.
Inverting the flux gives Du in every cell, and u is summed inward from the
Dirichlet boundary, which leaves the rounding error of the closure in the
peak cell.  Every solution is checked a posteriori by its noise-aware
scaled residual.  An interval chain is checked from the centre node on: its
fluxes are exactly odd and its noise terms exactly even, so that value is
the whole grid's to the last bit.  Both paths are one kernel, _solve_into,
that works in its caller's workspace: a lone solve allocates one per call,
the singular loop one per solve.  A chain's theta and loads start at its
first node, so its workspace spans the chain only.

solve_singular treats -div(Phi) = K u^(-p) as the fixed point of
T(v) = solve(K v^(-p)), with the singular term clamped below at a certified
lower bound of the solution to rule out overflow from undershoot.  T is
order-reversing, and its linearisation in log u has its spectrum in
[-rho, 0], rho = p/(m-1).  One loop serves every p >= 0: it relaxes,
u <- u^(1-w) T(u)^w with w = 2/(2+rho), which contracts by rho/(2+rho) per
solve (at p = 0, w = 1 and one solve decides), and every solve has its own
certificate, the scaling bracket.  K is the spec's, sampled once per solve
by core.k_values.  The loop holds it and its iterate as L = log u on the
unknowns, in one block it allocates once, so a sweep takes two
transcendental passes over the unknowns: exp for theta = K exp(-p Lt) with
Lt = max(L, log sub), and one log of the solve's result, shared by the
relaxation and the log ratio the bracket reads.  The bracket itself, with
its two log1p passes, and the resolution floor's pass are formed only on a
sweep that can leave the loop: the first, whose bracket is the pair, and
any later one whose scalar pre-test, _sweep_goes_on, cannot prove that it
neither stops nor refuses.  Every width, pair and message that leaves the
loop is the bracket's.
-Delta_m is (m-1)-homogeneous and K u^(-p) decreases in u, so with
w = T(u), lam w is a supersolution if lam^(m-1+p) >= (max(u, sub)/w)^p at
every unknown node and a subsolution if <= holds at every one.  The extreme
scales lam_lo <= lam_hi put the solution in [lam_lo w, lam_hi w]; the loop
stops once the width (lam_hi - lam_lo) sup w is at most picard_tol and
returns the midpoint, within half the width of the solution.  The solve's
scaled residual r enters lam as slack s = r (1 + u^p/K), r never below the
assembly noise, so the width cannot fall below about 2 max s sup u/(m-1+p):
a tolerance under that resolution floor raises NonConvergence.  The first
solve, w0 = T(v0) with v0 an explicit profile in delta with the predicted
boundary behaviour, gives the pair: lam_lo w0 and lam_hi w0 are a sub- and
a supersolution at every unknown node, for the K being solved, up to the
slack s, so the comparison principle puts the solution between them
(barriers.check_barrier with slack 0 refuses 144 of the 204 lattice pairs
at n = 1025, 37 of them, all m = 1.2, by over 1e-6 relative at the flat
top).  The pair is the clamp, the loop's start and the check its result
must pass; it costs one solve, and no eigenpair or scale search.  It is
kept as what it is, one field and two scales: w0 and lam_lo, lam_hi.

Every ball problem is a chain, and so is every interval problem whose grid,
K and v0 equal their mirror images to the last bit, since its unique
solution is symmetric.  That is checked once per solve, from the inputs,
and every sweep then runs on the chain, nodes k to n - 2, by _solve_into in
the loop's workspace, which its residual check and the bracket share, so a
sweep allocates nothing.  At m = 2 the flux is Du itself, and the chain and
the check skip the powers, which would be exact there.  On the interval
every step is elementwise, so by induction every theta, w and iterate is an
exact mirror, and every min and max over the right half is the whole
grid's: the answers are those of the whole-grid loop to the last bit.  w is
the loop's one full-length array besides the pair's w0, and is mirrored
only where one leaves the loop: the first pair, the returned solution and
the report of an error.  Every other array of a chain loop, theta and the
loads included, spans the chain.  Other interval inputs run on the whole
grid, in the same kernel and a workspace with the
closure's five rows: each sweep asks _chain_start of its theta alone, as
solve_dirichlet would, and takes that chain or the closure search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid1D,
    GridFunction,
    ProblemSpec,
    _check_m,
    is_whole,
    k_values,
    regime_profiles,
)
from .errors import (
    BarrierOrderViolation,
    InvalidConfig,
    NonConvergence,
    NonFiniteTheta,
)
__all__ = ["SolverConfig", "SolveReport", "apply_mlap", "solve_dirichlet", "solve_singular"]

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
    singular loop stops, positive and finite: at inf the first solve would
    stop with no claim on the answer; ``max_picard_iters`` bounds its
    Dirichlet solves, a whole number >= 1 (not a bool, NaN or inf).
    """

    picard_tol: float = 1e-8
    max_picard_iters: int = 100

    def __post_init__(self):
        if not self.picard_tol > 0:
            raise InvalidConfig(f"picard_tol must be positive, got {self.picard_tol}")
        if not self.picard_tol < math.inf:
            raise InvalidConfig(f"picard_tol must be finite, got {self.picard_tol}")
        if not is_whole(self.max_picard_iters):
            raise InvalidConfig(f"max_picard_iters must be a count, got {self.max_picard_iters!r}")
        object.__setattr__(self, "max_picard_iters", int(self.max_picard_iters))
        if self.max_picard_iters < 1:
            raise InvalidConfig(
                f"max_picard_iters must be at least 1, got {self.max_picard_iters}"
            )


@dataclass(frozen=True, eq=False)
class _Pair:
    """The certified bracket of the first solve, one field and two scales:
    the sub- and supersolution are lam_lo w0 and lam_hi w0."""

    w0: GridFunction
    lam_lo: float
    lam_hi: float

    def scaled(self, lam: float) -> GridFunction:
        return GridFunction(self.w0.grid, lam * self.w0.values)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a solve.

    ``final_residual`` is the noise-aware scaled residual of the last
    Dirichlet solve, and ``converged`` means it is at most RESIDUAL_TOL.
    ``iterations`` counts the closure evaluations of the one interval root
    search for a Dirichlet solve (0 on a zero-flux chain) and Dirichlet
    solves for a singular one, a failed one included.  Singular solves
    report ``picard_gap``, the width of the scaling bracket, for every
    p >= 0: a certified bound, the solution is within picard_gap/2 of
    ``solution``.  It is None on a singular solve that failed its residual
    check, which no bracket holds.

    Singular solves also attach ``pair``, the certified barrier pair used to
    initialize and guard the iteration, once there is one.  ``sub_barrier``
    and ``super_barrier`` form its products lam_lo w0 and lam_hi w0 anew on
    every read, and ``barrier_c`` is lam_hi/lam_lo.  All three are None
    without a pair.
    """

    solution: GridFunction
    iterations: int
    final_residual: float
    converged: bool
    picard_gap: float | None = None
    pair: _Pair | None = None

    @property
    def sub_barrier(self) -> GridFunction | None:
        return None if self.pair is None else self.pair.scaled(self.pair.lam_lo)

    @property
    def super_barrier(self) -> GridFunction | None:
        return None if self.pair is None else self.pair.scaled(self.pair.lam_hi)

    @property
    def barrier_c(self) -> float | None:
        return None if self.pair is None else self.pair.lam_hi / self.pair.lam_lo


# Residuals are recomputed from flux differences, which near a graded boundary
# cancel catastrophically (|F_i - F_{i-1}| ~ V_i theta_i while |F_i| = O(1)),
# and for m < 2 the flux derivative amplifies the rounding of Du itself.
# Anything below this multiple of machine epsilon times the assembly scale is
# numerically indistinguishable from zero and must not block convergence.
ASSEMBLY_NOISE = 64.0 * np.finfo(float).eps


def _weighted_flux(du, weights, m, out):
    """The cell fluxes w |Du|^(m-1) sign(Du) (safe at Du = 0), written into
    ``out``.  ``weights`` is None on the interval, whose unit weights
    multiply nothing (x 1.0 = x)."""
    if m == 2.0:  # w Du, which the power gives exactly
        if weights is None:
            np.copyto(out, du)
            return out
        return np.multiply(du, weights, out=out)
    np.abs(du, out=out)
    np.power(out, m - 1.0, out=out)
    np.copysign(out, du, out=out)
    if weights is not None:
        out *= weights
    return out


def apply_mlap(u: GridFunction, m: float) -> GridFunction:
    """Interior residual of -div(Phi) applied to ``u``.

    Dirichlet boundary entries of the result are 0 by convention.  No flux
    enters node 0, so where it is an unknown (the radial symmetry center
    r = 0) it is treated with its one-sided dual cell.
    """
    g = u.grid
    fw = np.zeros(g.n)  # fw[i]: the weighted flux of the cell left of node i
    _weighted_flux(np.diff(u.values) / g.h, g.flux_weights, m, fw[1:])
    out = np.zeros(g.n)
    sl = g.unknown_slice
    out[sl] = -(fw[1:][sl] - fw[sl]) / g.cell_volumes[sl]
    return GridFunction(g, out)


def _scaled_residual(grid, u, m, loads, theta_vals, first, rows) -> float:
    """sup over the unknowns from node ``first`` on of
    max(|g_i| - noise_i, 0) / (V_i (1 + |theta_i|)), NaN if any term is
    NaN, so that a solution that overflowed fails the check.  ``loads`` and
    ``theta_vals`` start at node ``first``; ``u`` is indexed by node.

    g_i = F_{i-1} - F_i - V_i theta_i is the flux balance at node i (no flux
    enters the ball's node 0).  The noise model is first-order rounding:
    each flux carries an error of eps_mach * (|F| + phi'(Du) * sup|u| / h)
    and the load one of eps_mach * V |theta|.  sup|u| is taken over the
    cells that bound those nodes, which on an interval chain's symmetric
    solution from the centre on is the whole grid's.

    ``rows`` is scratch for four arrays over those cells (n - first + 1
    wide will do).  The caller holds np.errstate(divide="ignore") for
    phi'(0) = inf when m < 2.
    """
    c = max(first - 1, 0)  # the first cell that bounds a node checked
    cells = grid.n - 1 - c
    du, fw, fn, noise = rows[:4, :cells]
    h, uc = grid.h[c:], u[c:]
    # only the ball checks from node 0; the interval's weights are ones
    weights = grid.flux_weights[c:] if first == 0 else None
    u_scale = max(1e-300, float(np.maximum.reduce(uc)), -float(np.minimum.reduce(uc)))
    # the arithmetic of the formula above, written into the four rows:
    # F from _weighted_flux and phi'(Du) = (m-1) |Du|^(m-2)
    np.subtract(uc[1:], uc[:-1], out=du)
    du /= h
    _weighted_flux(du, weights, m, fw)
    if m == 2.0:  # phi' = 1, which the power gives exactly
        np.divide(u_scale, h, out=fn)
        if weights is not None:
            fn *= weights
    else:
        np.abs(du, out=fn)
        np.power(fn, m - 2.0, out=fn)
        fn *= m - 1.0
        if weights is not None:
            fn *= weights
        fn *= np.divide(u_scale, h, out=du)
    fn += np.abs(fw, out=du)
    res = 0.0
    if first == 0:  # the ball's node 0, where no flux enters
        g0 = abs(fw[0] + loads[0]) - ASSEMBLY_NOISE * (fn[0] + abs(loads[0]))
        res = float(max(g0, 0.0) / (grid.cell_volumes[0] * (1.0 + abs(theta_vals[0]))))
        loads, theta_vals = loads[1:], theta_vals[1:]
    # node k of ``between`` lies between entries k and k + 1 of fw and fn,
    # and is entry k of the loads and theta
    between = slice(c + 1, grid.n - 1)
    loads, theta_vals = loads[: cells - 1], theta_vals[: cells - 1]
    g = np.subtract(fw[:-1], fw[1:], out=du[:-1])
    g -= loads
    np.abs(g, out=g)
    noise = np.add(fn[:-1], fn[1:], out=noise[:-1])
    noise += np.abs(loads, out=fw[:-1])
    noise *= ASSEMBLY_NOISE
    g -= noise
    if np.maximum.reduce(g) <= 0.0:  # every term is 0; a NaN takes the full path
        return res
    np.maximum(g, 0.0, out=g)
    den = np.abs(theta_vals, out=noise)
    den += 1.0
    den *= grid.cell_volumes[between]
    g /= den
    return float(np.maximum(res, np.maximum.reduce(g)))  # NaN, unlike max(), propagates


def _inverse_flux(y, m, out):
    """Du with |Du|^(m-2) Du = y, written into ``out``."""
    du = np.abs(y, out=out)
    np.power(du, 1.0 / (m - 1.0), out=du)
    return np.copysign(du, y, out=du)


def _compensated_cumsum(x, s, err, bp, t):
    """Cumulative sum of ``x`` correct to rounding at every entry, written
    into ``s``; ``err``, ``bp`` and ``t`` are scratch as long as ``x``.

    A plain cumulative sum drifts like sqrt(n) ulps; u is summed inward from
    both boundaries, so that drift would land in the peak cell as a jump
    the residual check cannot tell from a wrong flux when m < 2.  The exact
    rounding error of every step (TwoSum) is summed and added back.
    """
    np.add.accumulate(x, out=s)
    err[:1] = 0.0  # the first step is exact; prev holds the sum before each later one
    prev, cur, e, bp, t = s[:-1], s[1:], err[1:], bp[1:], t[1:]
    np.subtract(cur, prev, out=bp)
    np.subtract(cur, bp, out=t)
    np.subtract(prev, t, out=e)
    e += np.subtract(x[1:], bp, out=t)
    s += np.add.accumulate(err, out=err)
    return s


def _zero_flux_solution(grid, loads, m, u, k, rows):
    """u from node k to node n - 2, written into ``u``, on the chain that
    starts at node k with zero flux on its left (Grid1D.chain_start) and
    ends at the Dirichlet node n - 1 (u = 0).

    On the interval (k > 0) the centre node of an odd grid keeps half its
    load and the centre cell of an even grid carries no flux.  The cell
    fluxes are w_j |Du_j|^(m-2) Du_j = -sum_{i <= j} loads_i, and u is
    summed inward from the Dirichlet end, both sums on the negations (exact
    under rounding).  ``loads`` starts at node k.  ``rows``: four scratch
    rows of at least n - 1 - k.
    """
    n = grid.n
    flux, hdu, err, bp = rows[:4, : n - 1 - k]
    np.copyto(flux, loads[: n - 1 - k])
    if k:
        flux[0] = 0.5 * loads[0] if n % 2 else 0.0
    np.add.accumulate(flux, out=flux)
    if not k:  # the interval's flux weights, from its centre on, are ones
        flux /= grid.flux_weights
    if m == 2.0:  # Du = flux, which _inverse_flux gives exactly
        np.multiply(flux, grid.h[k:], out=hdu)
    else:
        _inverse_flux(flux, m, hdu)
        hdu *= grid.h[k:]
    _compensated_cumsum(hdu[::-1], u[k:-1][::-1], err, bp, flux)


def _anchored_loads(loads, k, out):
    """R_j, the sum of the node loads between cell k and cell j, signed so that
    the cell fluxes are F_j = F_k - R_j (R_k = 0), written into ``out``, one
    entry per cell."""
    left = out[:k]
    np.cumsum(loads[k:0:-1], out=left[::-1])
    np.negative(left, out=left)
    out[k] = 0.0
    np.cumsum(loads[k + 1 : -1], out=out[k + 1 :])


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


def _closure_root(loads, h, m, k, c, rows):
    """One root search for the closure G(c) = sum_j h_j phi^(-1)(c - R_j).

    G increases in c.  The loads start anchored at cell k, and c is the flux
    F_k.  After every closure evaluation the loads are re-anchored at the
    cell whose flux is closest to zero, the peak cell j, by _anchored_loads
    (R translated in place would carry the old anchor's rounding of small
    loads into the peak cell); c and the bracket [min R, max R] that
    safeguards the search translate by the old R_j.  Each step
    solves a model of G that keeps the peak cell's term exact and follows the
    tangent of the others.  For m > 2, phi^(-1) has an infinite slope at zero
    flux, which no tangent in c follows; in the peak cell's gradient s, with
    c = phi(s), that term is just h_k s, so the model is solved for s.  For
    m <= 2 it is solved for c.  A step that leaves the bracket or fails to
    halve the previous one is replaced by bisection.  The search stops once
    G is at the rounding level of its sum, or the bracket is down to
    adjacent floats, or the step is below the resolution of every flux but
    the peak cell's; such a step is applied to the peak cell alone.  Returns
    the peak cell, h_j Du_j at the root (in the last of ``rows``, five
    scratch rows of a length per cell) and the number of closure
    evaluations.
    """
    eps = np.finfo(float).eps
    inv = 1.0 / (m - 1.0)
    big_r, y, a, t, hdu = rows[:5, : h.size]
    _anchored_loads(loads, k, big_r)
    lo, hi = float(big_r.min()), float(big_r.max())
    last_step = hi - lo
    r2 = None
    for it in range(1, MAX_ROOT_STEPS + 1):
        np.subtract(c, big_r, out=y)
        np.abs(y, out=a)
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
            _anchored_loads(loads, j, big_r)
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


def _loads(volumes, theta_vals, out):
    """The loads V theta, written into ``out``, once theta is checked finite
    (its max and min are: NaN propagates).  The three arrays start at one
    node, and ``volumes`` says how many nodes there are."""
    theta_vals = theta_vals[: volumes.size]
    if not (math.isfinite(np.maximum.reduce(theta_vals))
            and math.isfinite(np.minimum.reduce(theta_vals))):
        raise NonFiniteTheta("theta must be finite at the unknown nodes")
    np.multiply(volumes, theta_vals, out=out[: volumes.size])
    return out


def _chain_start(grid, *arrays):
    """Grid1D.chain_start, or None on an interval grid where one of ``arrays``
    is not its own mirror image to the last bit at the unknowns."""
    k = grid.chain_start
    sl = grid.unknown_slice
    if k and not all(np.array_equal(a[sl], a[sl][::-1]) for a in arrays):
        return None
    return k


def _solve_into(grid, theta_vals, m, k, loads, u, rows):
    """One Dirichlet solve of -div(Phi) = theta into ``u``; returns the
    number of closure evaluations and the scaled residual.

    With k from _chain_start it solves the zero-flux chain: theta and the
    loads start at node k, and it reads theta and writes the loads from
    there to node n - 2, writes u from node k to n - 2 and, on an odd
    interval grid, u[k-1] (the caller mirrors the rest), and checks the
    residual from node 0 on the ball and from the centre node n//2 on the
    interval.  With k None theta and the loads are indexed by node, and it
    runs the closure search on the interval and writes the loads and u at
    every unknown.  u is always indexed by node.  The caller owns
    ``loads``, ``u`` (zero at the Dirichlet nodes) and ``rows``, four rows
    of n - k on a chain and five of n - 1 otherwise, and holds
    np.errstate(divide="ignore", over="ignore", invalid="ignore"), which
    the closure search runs in too: loads that overflow turn u and the
    residual NaN, which the caller's check turns into NonConvergence.
    """
    n = grid.n
    if k is not None:
        _loads(grid.cell_volumes[k:-1], theta_vals, loads)
        _zero_flux_solution(grid, loads, m, u, k, rows)
        if k and n % 2:  # the check from the centre node reads u one node to its left
            u[k - 1] = u[k + 1]
        first = n // 2 if k else 0
        return 0, _scaled_residual(
            grid, u, m, loads[first - k :], theta_vals[first - k :], first, rows
        )
    sl = grid.unknown_slice
    _loads(grid.cell_volumes[sl], theta_vals[sl], loads[sl])
    # flux weights are 1 on the interval; the search starts anchored at the
    # cell where the m = 2 flux is closest to zero
    h = grid.h
    prefix, dist = rows[:2, : n - 1]
    _anchored_loads(loads, 0, prefix)
    c0 = float(np.einsum("i,i->", h, prefix))  # the exact root for m = 2 (sum h = 1)
    k = int(np.argmin(np.abs(np.subtract(c0, prefix, out=dist), out=dist)))
    k, hdu, iterations = _closure_root(loads, h, m, k, c0 - prefix[k], rows)
    # u summed inward from both ends, the right half on the negations, in
    # the rows the search no longer reads
    _compensated_cumsum(hdu[:k], u[1 : k + 1], *rows[1:4, :k])
    right = u[k + 1 : -1]
    _compensated_cumsum(hdu[:k:-1], right[::-1], *rows[1:4, : n - 2 - k])
    np.negative(right, out=right)
    return iterations, _scaled_residual(grid, u, m, loads[1:], theta_vals[1:], 1, rows)


def _mirror_left(u, k):
    """Mirror the right half of ``u`` onto its left after an interval chain (k > 0)."""
    if k:
        n = u.size
        u[: n // 2] = u[::-1][: n // 2]
    return u


def solve_dirichlet(theta: GridFunction, m: float) -> SolveReport:
    """Solve -div(|Du|^(m-2) Du) = theta with homogeneous Dirichlet data.

    1 < m < inf, and ``theta`` must be finite at the unknown nodes
    (boundary entries are ignored).  The fluxes are integrated exactly from the loads V theta (see
    the module docstring); the result is returned only when its noise-aware
    scaled residual is at most RESIDUAL_TOL, and NonConvergence is raised
    with the report attached otherwise.
    """
    _check_m(m)
    grid = theta.grid
    n = grid.n
    k = _chain_start(grid, theta.values)
    start = k or 0  # the first node of theta and the loads that _solve_into takes
    u = np.zeros(n)
    # the loads and the scratch rows in one block: separate ones fragment the
    # heap between solves and raise the peak resident size
    r, c = (5, n - 1) if k is None else (4, n - k)
    work = np.empty(n - start + r * c)
    loads, rows = work[: n - start], work[n - start :].reshape(r, c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        evals, res = _solve_into(grid, theta.values[start:], m, k, loads, u, rows)
    report = SolveReport(GridFunction(grid, _mirror_left(u, k)), evals, res, res <= RESIDUAL_TOL)
    if not report.converged:
        raise NonConvergence(f"a-posteriori check failed: scaled residual {res:g}", report=report)
    return report


def _first_pair(grid, w, lam_lo, lam_hi) -> _Pair:
    """The pair of the first solve's whole field ``w``, which is copied."""
    return _Pair(GridFunction(grid, w.copy()), lam_lo, lam_hi)


def _log_profile(spec, grid, out):
    """log v0 on the unknowns, written into ``out``.  v0 is the regime's
    lower profile (core.regime_profiles) in delta: delta^gamma when
    supercritical, delta when subcritical and delta log^s(A/delta) when
    critical."""
    np.log(grid.delta_nodes[grid.unknown_slice], out=out)
    regime_profiles(spec)[0].log_of(out)


def _singular_theta(p, k, lt, out):
    """theta = K exp(-p Lt) on the unknowns, written into ``out`` (which may
    be ``lt``), where Lt = max(log v, log sub) is the log iterate clamped at
    the subsolution."""
    np.multiply(lt, -p, out=out)
    np.exp(out, out=out)
    out *= k
    return out


def _slack(theta, residual, out=None):
    """The slack r (1 + 1/theta) of _scaling_bracket, r = max(residual,
    ASSEMBLY_NOISE), written into ``out``, or of one value of theta."""
    s = np.divide(1.0, theta, out=out)
    s += 1.0
    s *= max(residual, ASSEMBLY_NOISE)
    return s


def _scaling_bracket(spec, log_ratio, theta, residual, out):
    """Scales lam_lo <= lam_hi with the solution in [lam_lo w, lam_hi w],
    formed on the sweeps that can leave the loop (see _sweep_goes_on).

    w = T(v) solves -Delta_m w = theta with theta = K vt^(-p),
    vt = max(v, sub), up to the scaled residual r (1 + theta), where the
    slack r is the solve's measured ``residual`` but never below
    ASSEMBLY_NOISE.  By (m-1)-homogeneity lam w is a supersolution of
    -Delta_m u = K u^(-p) wherever lam^(m-1+p) (1 - s) >= (vt/w)^p, with
    s = r (1 + 1/theta) (vt^p/K is 1/theta), and a subsolution wherever
    lam^(m-1+p) (1 + s) <= (vt/w)^p.  K u^(-p) decreases in u, so the
    comparison principle puts the solution between the two.  Takes the
    unknowns only, and (vt/w)^p in log space: ``log_ratio`` = p log(vt/w).
    The bracket, and so the first solve's pair, holds up to the slack s
    only, not as an exact discrete sub- and supersolution.
    Overwrites ``theta`` and uses ``out`` as scratch.  Returns (0, inf)
    when the slack swamps the load.
    """
    s = _slack(theta, residual, theta)  # in theta's storage
    if float(np.maximum.reduce(s)) >= 1.0:
        return 0.0, np.inf
    e = 1.0 / (spec.m - 1.0 + spec.p)
    np.log1p(s, out=out)
    np.subtract(log_ratio, out, out=out)
    lam_lo = float(np.exp(e * np.minimum.reduce(out)))
    np.negative(s, out=s)
    np.log1p(s, out=s)
    np.subtract(log_ratio, s, out=s)
    lam_hi = float(np.exp(e * np.maximum.reduce(s)))
    return lam_lo, lam_hi


# Relative margin for the rounding of exp in _sweep_goes_on: a few ulps, where
# a faithful exp is off by at most one
_EXP_ROUNDING = 4.0 * np.finfo(float).eps


def _sweep_goes_on(spec, log_ratio, theta, residual, w_max, min_log_k, tol) -> bool:
    """True only if the sweep's scaling bracket provably neither stops the
    loop nor refuses: a bracket exists, its width exceeds ``tol`` and its
    resolution floor is at most ``tol``.  Decided from scalars, so that such
    a sweep skips _scaling_bracket and the floor's pass; a NaN anywhere gives
    False.  Takes _scaling_bracket's arguments, before it overwrites
    ``theta``, and sup w, the solve's min log K and the loop's tolerance.

    The slack s = r (1 + 1/theta) rounds monotonically in theta, op for op,
    so its max is the same ops at min theta, bit for bit: the bracket exists
    exactly when that is below 1 and lam_lo does not underflow, which
    log1p(s) < log 2 < 1 rules out once exp(e (min log_ratio - 2)) > 0.
    log1p(s) >= 0 puts the slack-free scales exp(e min log_ratio) and
    exp(e max log_ratio) inside [lam_lo, lam_hi], so their width, narrowed
    by _EXP_ROUNDING, is at most the bracket's.  The floor grows with lam_lo
    and with max log(w^p/K) <= p log sup w - min log K; at the slack-free
    lam_lo that bound, doubled for the rounding of the logs and exps, is
    above it.
    """
    m, p = spec.m, spec.p
    theta_min = np.minimum.reduce(theta)
    if not (theta_min > 0.0 and _slack(theta_min, residual) < 1.0):
        return False
    e = 1.0 / (m - 1.0 + p)
    lo, hi = np.minimum.reduce(log_ratio), np.maximum.reduce(log_ratio)
    if not np.exp(e * (lo - 2.0)) > 0.0:
        return False
    lam_lo, lam_hi = np.exp(e * lo), np.exp(e * hi)
    if not (lam_hi * (1.0 - _EXP_ROUNDING) - lam_lo * (1.0 + _EXP_ROUNDING)) * w_max > tol:
        return False
    load = np.exp(p * np.log(lam_lo) + (p * np.log(w_max) - min_log_k))
    floor = 2.0 * ASSEMBLY_NOISE * (1.0 + load) / (m - 1.0 + p) * lam_lo * w_max
    return 2.0 * floor <= tol


def solve_singular(
    spec: ProblemSpec, grid: Grid1D, config: SolverConfig | None = None
) -> SolveReport:
    """Solve -div(|Du|^(m-2) Du) = K u^(-p) by bracketed monotone iteration.

    K is the spec's weight, sampled on ``grid`` by core.k_values, which
    refuses a grid on another domain and a K outside the spec's
    (k_low, k_high) envelope before any solve.

    The first Dirichlet solve, w0 = T(v0) with v0 the regime's profile in
    delta (see _log_profile), is bracketed by _scaling_bracket: lam_lo w0
    and lam_hi w0 are a sub- and a supersolution for this K at every unknown
    node up to the bracket's slack, so the comparison principle puts the
    discrete solution between them.  That pair clamps the iteration, which
    starts at lam_lo w0 and applies T(v) = solve_dirichlet(K v^(-p)) (see
    the module docstring).
    For every p >= 0 it stops on a scaling bracket of width at most
    ``picard_tol`` and returns its midpoint, so ``picard_gap`` bounds twice
    the error; p = 0 takes one solve.  A later sweep forms its bracket only
    when _sweep_goes_on cannot prove from scalars that it neither stops nor
    refuses, so every width, pair and message is a bracket's, and the
    answers are those of a loop that brackets every sweep, bit for bit.
    ``iterations`` counts every Dirichlet solve, the first included, and
    ``barrier_c`` is the first bracket's ratio lam_hi/lam_lo.  A failed residual check, a solve with
    no bracket, a tolerance below the resolution floor and an exhausted
    budget raise NonConvergence.  BarrierOrderViolation, raised when the
    result leaves the pair by more than ``picard_tol``, names the side, the
    node and the excess, and signals a defect rather than a property of the
    input.  Every one carries the loop's record in ``report``.

    The grid should resolve delta^gamma boundary layers for the predicted
    exponent gamma; grading >= 2/gamma is a good default.
    """
    cfg = config or SolverConfig()
    tol = cfg.picard_tol
    m, p = spec.m, spec.p
    n = grid.n
    omega = 2.0 / (2.0 + p / (m - 1.0))
    k_full = k_values(spec, grid).values
    # w has its own array, outside the block: it is the returned solution.
    # Until the first solve writes it, it holds log v0 on the unknowns
    w = np.zeros(n)
    _log_profile(spec, grid, w[grid.unknown_slice])
    chain = _chain_start(grid, k_full, w)
    sl = grid.unknown_slice if chain is None else slice(chain, n - 1)
    size = n - 1 - sl.start
    # every array the sweeps reuse, in one block: separate arrays that
    # outlive the solves fragment the heap and raise the peak resident size.
    # Its rows start at node origin, the chain's first node or node 0 on the
    # whole grid, and end at the Dirichlet node n - 1.  theta and the loads
    # are the first two rows.  K, log K, log sub, L and Lt span sl: the loop
    # owns its copy of K, and the full-length sample is released.  The last
    # rows are the scratch of _solve_into (four on a chain, the closure's
    # five on the whole grid), which then takes log w
    origin = chain or 0
    work = np.zeros((7 + (5 if chain is None else 4)) * (n - origin))
    block = work.reshape(-1, n - origin)
    theta, loads = block[:2]
    k, log_k, log_sub, big_l, lt = block[2:7, :size]
    scratch = block[7:]
    log_w = scratch[0, :size]
    theta_sl, loads_sl = theta[sl.start - origin :][:size], loads[sl.start - origin :][:size]
    k[:] = k_full[sl]
    del k_full
    np.log(k, out=log_k)
    min_log_k = float(np.minimum.reduce(log_k))
    log_sub.fill(-np.inf)  # nothing clamps the first solve
    big_l[:] = w[sl]
    pair = None
    iterations = 0
    # a failure sets why and breaks to the one exit, which raises with the
    # loop's record: the whole field, the last residual, the pair, the solve
    # count and the width (None after a failed residual check)
    error, why = NonConvergence, None
    # entered once for all sweeps: phi'(0) = inf in the residual check when
    # m < 2, and loads that overflow, which end in a NaN residual and
    # NonConvergence
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            np.maximum(big_l, log_sub, out=lt)
            _singular_theta(p, k, lt, theta_sl)
            # a whole-grid sweep's one allocation: _chain_start's mirror comparison
            start = _chain_start(grid, theta) if chain is None else chain
            o = (start or 0) - origin  # the row entry of the solve's first node
            residual = _solve_into(grid, theta[o:], m, start, loads[o:], w, scratch)[1]
            if chain is None:  # the whole grid's w, as solve_dirichlet returns it
                _mirror_left(w, start)
            iterations += 1
            if not residual <= RESIDUAL_TOL:  # no bracket holds this solve
                why, width = f"a-posteriori check failed: scaled residual {residual:g}", None
                break
            np.log(w[sl], out=log_w)
            lt -= log_w
            lt *= p  # p log (max(u, sub)/w)
            w_max = float(np.maximum.reduce(w[sl.start :]))  # left of sl: 0 or mirror images
            # a sweep that provably neither stops nor refuses forms no bracket
            certify = pair is None or iterations >= cfg.max_picard_iters or not _sweep_goes_on(
                spec, lt, theta_sl, residual, w_max, min_log_k, tol
            )
            if certify:
                # max log (w^p/K), for the resolution floor below, in the
                # loads' storage, which no one reads until the next solve
                log_load = np.multiply(log_w, p, out=loads_sl)
                log_load -= log_k
                log_load = float(np.maximum.reduce(log_load))
            # the relaxed step, taken before the bracket so that it can use
            # log_w's storage; the loop returns w, not the stepped iterate, and
            # the first solve's step is replaced by the start at the pair's sub
            big_l *= 1.0 - omega
            log_w *= omega
            big_l += log_w
            if not certify:
                continue
            lam_lo, lam_hi = _scaling_bracket(spec, lt, theta_sl, residual, log_w)
            width = (lam_hi - lam_lo) * w_max
            if lam_lo == 0.0:
                why = (
                    "no scale brackets the solve: the slack swamps the load "
                    f"(bracket width {width:g})"
                )
                break
            if pair is None:
                pair = _first_pair(grid, _mirror_left(w, chain), lam_lo, lam_hi)
                np.multiply(pair.w0.values[sl], pair.lam_lo, out=log_sub)
                np.log(log_sub, out=log_sub)
                big_l[:] = log_sub
            if width <= tol:
                break
            # _scaling_bracket's slack s, at least ASSEMBLY_NOISE (1 + v^p/K),
            # alone keeps lam_hi/lam_lo above 1 + 2 max(s)/(m-1+p).  s is taken
            # at the certified lower bracket v = lam_lo w, not at the iterate:
            # early iterates overshoot the solution and would overstate it.
            # max v^p/K is formed in log space, where lam_lo^p alone can overflow
            load = float(np.exp(p * math.log(lam_lo) + log_load))
            resolution = 2.0 * ASSEMBLY_NOISE * (1.0 + load) / (m - 1.0 + p) * lam_lo * w_max
            if resolution > tol:
                why = f"picard_tol {tol:g} is below the resolution {resolution:g}"
            elif iterations >= cfg.max_picard_iters:
                why = "singular iteration budget exhausted"
            if why:
                why = f"{why}: bracket width {width:g}"
                break
    _mirror_left(w, chain)
    if why is None:
        w *= 0.5 * (lam_lo + lam_hi)  # the midpoint, in w's own array
        # the comparison principle already puts the solution inside the pair;
        # this confirms it.  The pair and each side's excess are formed in the
        # block's first 2n entries, which no solve reads again
        sub = np.multiply(pair.w0.values, pair.lam_lo, out=work[:n])
        sup = np.multiply(pair.w0.values, pair.lam_hi, out=work[n : 2 * n])
        for side, a, b in (("below the subsolution", sub, w), ("above the supersolution", w, sup)):
            excess = np.subtract(a, b, out=sub)
            i = int(np.argmax(excess))
            if excess[i] > tol:
                error = BarrierOrderViolation
                why = (
                    f"the bracketed solution lies {side} of the certified pair "
                    f"at node {i} by {excess[i]:g}"
                )
                break
        else:
            return SolveReport(GridFunction(grid, w), iterations, residual, True, width, pair)
    report = SolveReport(GridFunction(grid, w), iterations, residual, False, width, pair)
    raise error(why, report=report)
