"""Sub/supersolution barriers, exact scales, and certification.

A barrier is a core.BoundaryProfile of the first eigenfunction phi
(sup-norm 1), sampled on the grid of that eigenpair and checked at its m:

  * power:      c^(+-1) * phi^gamma,              gamma in (0, 1]
  * log-power:  c^(+-1) * phi * log^s (A / phi),   s > 0, A > sup phi

with the same constant c >= 1 scaling the supersolution up and the subsolution
down.  build_barrier(family, side, c, base) is the one way to build one, so
every barrier takes its grid and m from its eigenpair alone; certified_pair
(spec, base) builds both sides on base.grid.  core.regime_profiles picks
each regime's (sub, super) profiles, the same ones the singular solve starts
from with delta in place of phi.

A candidate w is numerically certified as a subsolution of -div(Phi) = rhs
when the discrete residual -div(Phi(w)) - rhs(w) is <= slack at every
checked node, and as a supersolution when it is >= -slack.  By default
check_barrier skips the core.SKIP_CELLS innermost cells next to each Dirichlet
boundary, where the one-sided stencil meets the boundary singularity, so
that a refinement study compares interior statements.  certified_pair
checks every unknown node instead: the discrete comparison principle places
the solution between the barriers only when both inequalities hold at every
node.  These are the paper's barriers, the device of its proof; the
singular solve does not use them, and certifies its own pair from its first
Dirichlet solve (solver.solve_singular).  For the singular problem the
right-hand side is evaluated at the candidate itself, K * w^(-p), which is
the definition of a sub/supersolution of that equation.  A ProblemSpec
posed at another m than the check's is refused.

Both sides of the inequality are homogeneous in c, so auto_scale finds a
side's scale from one operator application to the unit barrier, and
certified_pair checks both at the larger of the two.  A certificate from a
coarse grid is only trusted after it survives refinement: a wrong boundary
exponent can look certified on a fixed grid because its violation zone hides
below the resolved scale, but refinement exposes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    SKIP_CELLS,
    SUB,
    SUPER,
    BoundaryProfile,
    Grid1D,
    GridFunction,
    ProblemSpec,
    is_whole,
    regime_profiles,
    same_grid,
)
from .eigen import EigenPair
from .errors import (
    DomainError,
    GridMismatch,
    NoCertifiableScale,
    NonPositiveCandidate,
)
from .solver import apply_mlap

__all__ = [
    "BarrierCertificate",
    "BarrierPair",
    "build_barrier",
    "check_barrier",
    "auto_scale",
    "certified_pair",
]

_LOG2_MAX = 1023.0  # c = 2^1023 is the largest power-of-two float


def build_barrier(family: BoundaryProfile, side: str, c: float, base: EigenPair) -> GridFunction:
    """The barrier c^(+-1) * family(phi) on ``side``, sampled on the grid of
    its base eigenpair; c >= 1 scales the supersolution up and the
    subsolution down.  Raises DomainError when a sample overflows."""
    if side not in (SUB, SUPER):
        raise DomainError(f"side must be {SUB!r} or {SUPER!r}")
    if not 1.0 <= c < math.inf:
        raise DomainError(f"scaling constant must be >= 1 and finite, got {c}")
    phi = base.eigenfunction.values
    grid = base.grid
    if family.log_exponent is not None and family.log_scale <= phi.max():
        raise DomainError(f"log scale A={family.log_scale:g} must exceed max phi = {phi.max():g}")
    vals = np.zeros(grid.n)
    sl = grid.unknown_slice
    with np.errstate(over="ignore"):
        vals[sl] = family.scaled(phi[sl], 1.0 / c if side == SUB else c)
    if not np.isfinite(vals).all():
        raise DomainError(f"the {side} barrier {family.describe()} at c = {c:g} overflows a double")
    return GridFunction(grid, vals)


@dataclass(frozen=True, eq=False)
class BarrierCertificate:
    """Result of a barrier inequality check.

    ``worst_margin`` is the smallest slack-adjusted margin over the checked
    nodes (negative means the inequality failed there), ``worst_node`` the
    node index where it occurs.
    """

    side: str
    certified: bool
    worst_node: int
    worst_margin: float
    checked_nodes: int
    slack: float
    skip_cells: int

    def report_items(self) -> list[tuple[str, object]]:
        """(key, value) rows of the certificate in field order, values unformatted."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def _checked_indices(grid: Grid1D, skip_cells: int, slack: float) -> np.ndarray:
    """The nodes a check reads, once its skip_cells and slack are valid."""
    if not math.isfinite(slack):
        raise DomainError(f"slack must be finite, got {slack}")
    if not is_whole(skip_cells):
        raise DomainError(f"skip_cells must be a whole number, got {skip_cells!r}")
    if skip_cells < 0:
        raise DomainError(f"skip_cells must be >= 0, got {skip_cells}")
    skip_cells = int(skip_cells)
    hi = grid.n - 2 - skip_cells  # last node whose right cell is clear of the boundary zone
    lo = skip_cells + 1 if 0 in grid.dirichlet_indices() else 0
    if hi < lo:
        raise DomainError(f"grid too coarse for skip_cells = {skip_cells}")
    return np.arange(lo, hi + 1)


def _rhs_at(candidate: GridFunction, rhs, side: str, m: float) -> np.ndarray:
    """Right-hand side values at the nodes, fixed theta or K * candidate^(-p).

    For the singular right-hand side the weight envelope is used one-sidedly:
    a subsolution of k_low delta^(-q) u^(-p) is a subsolution for every
    admissible K >= k_low delta^(-q), and symmetrically for supersolutions
    with k_high, so certificates hold for the whole envelope.
    """
    if isinstance(rhs, GridFunction):
        if not same_grid(rhs.grid, candidate.grid):
            raise GridMismatch("fixed theta lives on a different grid")
        return rhs.values
    spec: ProblemSpec = rhs
    grid = candidate.grid
    if spec.domain != grid.domain:
        raise GridMismatch(f"the problem is posed on {spec.domain}, the grid on {grid.domain}")
    if spec.m != m:
        raise DomainError(f"the problem is posed at m = {spec.m}, the operator at m = {m}")
    sl = grid.unknown_slice
    if np.any(candidate.values[sl] <= 0.0):
        raise NonPositiveCandidate("singular rhs needs a positive candidate")
    k0 = spec.k_low if side == SUB else spec.k_high
    vals = np.zeros(grid.n)
    delta = grid.delta_nodes[sl]
    with np.errstate(over="ignore"):  # an infinite rhs fails super and holds sub, as it should
        vals[sl] = k0 * delta ** (-spec.q) * candidate.values[sl] ** (-spec.p)
    return vals


def check_barrier(
    candidate: GridFunction,
    side: str,
    rhs,
    m: float,
    slack: float = 0.0,
    skip_cells: int = SKIP_CELLS,
) -> BarrierCertificate:
    """Certify the discrete sub/supersolution inequality for ``candidate``.

    ``rhs`` is either a fixed GridFunction theta or a ProblemSpec, in which
    case the singular right-hand side K * candidate^(-p) is used (candidate
    must then be positive at interior nodes).  Sub is certified iff the
    residual -div(Phi(candidate)) - rhs is <= slack at every checked node,
    super iff it is >= -slack.  A non-finite slack, a ProblemSpec posed at
    another m, or fluxes that overflow to a residual inf - inf (NaN) at a
    checked node raise DomainError; an infinite rhs alone decides the side.
    """
    if side not in (SUB, SUPER):
        raise DomainError(f"side must be {SUB!r} or {SUPER!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        res = apply_mlap(candidate, m).values - _rhs_at(candidate, rhs, side, m)
    idx = _checked_indices(candidate.grid, skip_cells, slack)
    margins = (1.0 if side == SUPER else -1.0) * res[idx] + slack
    k = int(np.argmin(margins))  # the first NaN, if there is one
    if math.isnan(margins[k]):
        raise DomainError(f"the {side} residual is NaN at node {idx[k]}: a flux overflows")
    return BarrierCertificate(
        side=side,
        certified=bool(margins[k] >= 0.0),
        worst_node=int(idx[k]),
        worst_margin=float(margins[k]),
        checked_nodes=idx.size,
        slack=slack,
        skip_cells=int(skip_cells),
    )


def check_scaled(family, side, c, rhs, base, slack, skip_cells):
    """The barrier of ``family`` at scale c and its certificate at base.m."""
    cand = build_barrier(family, side, c, base)
    return cand, check_barrier(cand, side, rhs, base.m, slack, skip_cells)


def auto_scale(
    family: BoundaryProfile,
    side: str,
    rhs,
    base: EigenPair,
    slack: float = 0.0,
    skip_cells: int = SKIP_CELLS,
) -> tuple[float, BarrierCertificate]:
    """The barrier's scale c >= 1 and its certificate, at the m of ``base``.

    With A = -div(Phi(P)) and R the rhs of the unit barrier P (c = 1) at the
    checked nodes, the residual at scale c is c^(m-1) A - c^(-p) R on the
    super side and c^(1-m) A - c^p R on the sub side (p = 0 for a fixed
    theta).  log2 c is bisected on these to the smallest value where every
    margin, slack included, is >= 0, over the nodes that hold at c = 2^1023.
    A node that fails there (as where A < 0 on the super side) caps c from
    above or fails at every c, and is judged at the value found, so a window
    of certifying scales gives its lower end.  One check confirms it, a doubling
    count of ulps higher (up to 2^32, a relative 1e-6) where rounding breaks
    the homogeneity, or else at the next power of two, which scales P
    exactly.  So c is an upper bound on the smallest certifying scale,
    sharp to 1e-6 unless a node's residual is rounding noise.

    Raises NoCertifiableScale, naming the node, when no c certifies (a node
    caps c below the scale the other nodes need, or fails at every c).
    That signals a wrong profile exponent or an under-resolved grid, or the
    flat top of the eigenfunction profiles: for m < 2 phi is 1 to within a
    few ulps next to its maximum (1 - 8.2e-15 at m = 1.2, n = 1025), and the
    flux |Dw|^(m-1) turns the profile's rounding there into a residual of
    the wrong sign on both sides, which only a power of two may outweigh
    and none does as m nears 1 (on the ball, w_0 = w_1 and the residual at
    r = 0 is -K w^(-p)).
    """
    m = base.m
    unit = build_barrier(family, side, 1.0, base)
    idx = _checked_indices(base.grid, skip_cells, slack)
    a, r = apply_mlap(unit, m).values[idx], _rhs_at(unit, rhs, side, m)[idx]
    p = rhs.p if isinstance(rhs, ProblemSpec) else 0.0
    s = 1.0 if side == SUPER else -1.0

    def margins(log2_c):
        with np.errstate(over="ignore", invalid="ignore"):
            return s * (np.exp2(s * (m - 1.0) * log2_c) * a - np.exp2(-s * p * log2_c) * r) + slack

    floors = ~(margins(_LOG2_MAX) < 0.0)  # the nodes that bound c from below only
    lo, hi = 0.0, 0.0 if np.all(margins(0.0)[floors] >= 0.0) else _LOG2_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if np.all(margins(mid)[floors] >= 0.0) else (mid, hi)
    k = int(np.argmin(worst := margins(hi)))
    if not worst[k] >= 0.0:
        raise NoCertifiableScale(
            f"no finite c certifies {family.describe()} ({side}): the unit barrier has "
            f"-div(Phi) = {a[k]:g} against the rhs {r[k]:g} at node {idx[k]}"
        )
    c0 = 2.0**hi
    steps = (c0 + 2.0**j * math.ulp(c0) for j in range(33))
    for c in (c0, *steps, 2.0 ** math.ceil(hi)):
        _, cert = check_scaled(family, side, c, rhs, base, slack, skip_cells)
        if cert.certified:
            return c, cert
    raise NoCertifiableScale(
        f"{family.describe()} ({side}) fails its check from c = {c0:g} to {c:g}; "
        f"last margin {cert.worst_margin:g} at node {cert.worst_node}"
    )


@dataclass(frozen=True, eq=False)
class BarrierPair:
    """A certified (sub, super) bracket sharing one scaling constant."""

    sub: GridFunction
    super_: GridFunction
    c: float
    sub_cert: BarrierCertificate
    super_cert: BarrierCertificate


def certified_pair(spec: ProblemSpec, base: EigenPair) -> BarrierPair:
    """Certified sub/supersolution pair for the singular problem on ``base.grid``.

    The grid and m are the eigenpair's: a spec at another m (DomainError)
    or on another domain (GridMismatch) is refused.  Both sides are checked
    at every unknown node (no skipped boundary cells), at the larger of
    their two scales (auto_scale), so the comparison principle puts the
    discrete solution between them everywhere; the side that set that scale
    keeps its certificate.
    """
    families = dict(zip((SUB, SUPER), regime_profiles(spec)))
    scales = {s: auto_scale(f, s, spec, base, skip_cells=0) for s, f in families.items()}
    c = max(c for c, _ in scales.values())
    found = {
        s: (build_barrier(f, s, c, base), scales[s][1])
        if scales[s][0] == c
        else check_scaled(f, s, c, spec, base, 0.0, 0)
        for s, f in families.items()
    }
    for _, cert in found.values():
        if not cert.certified:
            raise NoCertifiableScale(f"{cert.side} fails at c = {c:g} at node {cert.worst_node}")
    (sub, sub_cert), (sup, super_cert) = found[SUB], found[SUPER]
    return BarrierPair(sub=sub, super_=sup, c=c, sub_cert=sub_cert, super_cert=super_cert)
