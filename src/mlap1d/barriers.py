"""Sub/supersolution barrier families, scaling search, and certification.

Barriers are built from the first eigenfunction phi (sup-norm 1) in two
families:

  * power:      c^(+-1) * phi^gamma,              gamma in (0, 1]
  * log-power:  c^(+-1) * phi * log^s (A / phi),   s > 0, A > sup phi

with the same constant c > 1 scaling the supersolution up and the subsolution
down.  A candidate w is numerically certified as a subsolution of
-div(Phi) = rhs when the discrete residual -div(Phi(w)) - rhs(w) is <= slack
at every checked node, and as a supersolution when it is >= -slack.  By
default check_barrier skips the innermost cells next to each Dirichlet
boundary, where the one-sided stencil meets the boundary singularity, so
that a refinement study compares interior statements.  certified_pair, which
guards the singular solve, checks every unknown node instead: the discrete
comparison principle places the solution between the barriers only when
both inequalities hold at every node.  For the singular problem the
right-hand side is evaluated at the candidate itself, K * w^(-p), which is
the definition of a sub/supersolution of that equation.

Certification is monotone in c on both sides, so the smallest certifying
power of two is found by walking the ladder c = 2, 4, 8, ...: auto_scale
walks it for one side, certified_pair for both at once, each rung checking
first the side that failed the rung before.  A certificate obtained on a
coarse grid is only trusted after it survives refinement: a wrong boundary
exponent can look certified on a fixed grid because its violation zone hides
below the resolved scale, but refinement exposes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid1D, GridFunction, ProblemSpec, Regime, classify_regime, same_grid
from .eigen import EigenPair, first_eigenpair
from .errors import (
    DomainError,
    GridMismatch,
    NoCertifiableScale,
    NonPositiveCandidate,
)
from .operator import apply_mlap

__all__ = [
    "PowerOfEigen",
    "LogPowerOfEigen",
    "BarrierSpec",
    "BarrierCertificate",
    "BarrierPair",
    "SUB",
    "SUPER",
    "build_barrier",
    "check_barrier",
    "auto_scale",
    "regime_families",
    "certified_pair",
    "default_log_scale",
]

SUB = "sub"
SUPER = "super"


@dataclass(frozen=True)
class PowerOfEigen:
    """Barrier profile phi^gamma."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise DomainError(f"power barrier exponent must be in (0, 1], got {self.gamma}")

    def describe(self) -> str:
        return f"power(gamma={self.gamma:g})"


@dataclass(frozen=True)
class LogPowerOfEigen:
    """Barrier profile phi * log^s(A / phi)."""

    s: float
    big_a: float

    def __post_init__(self):
        if self.s <= 0.0:
            raise DomainError(f"log barrier exponent must be positive, got {self.s}")
        if self.big_a <= 1.0:
            raise DomainError(f"log scale A must exceed 1, got {self.big_a}")

    def describe(self) -> str:
        return f"logpower(s={self.s:g}, A={self.big_a:g})"


Family = PowerOfEigen | LogPowerOfEigen


def default_log_scale(domain, s: float) -> float:
    """Default A for the log-power family.

    Exceeds 1 + diam(domain), and also e^s so that the profile stays concave
    at the eigenfunction maximum (log^s(A/phi) needs log(A) > s there for the
    supersolution inequality to have the right sign at interior maxima).
    """
    return max(domain.diameter + 2.0, math.e**s + 1.0)


@dataclass(frozen=True, eq=False)
class BarrierSpec:
    """One barrier: profile family, scaling c, side, and the base eigenpair."""

    family: Family
    c: float
    side: str
    base: EigenPair

    def __post_init__(self):
        if self.side not in (SUB, SUPER):
            raise DomainError(f"side must be {SUB!r} or {SUPER!r}")
        if self.c < 1.0:
            raise DomainError(f"scaling constant must be >= 1, got {self.c}")

    @property
    def scale(self) -> float:
        return 1.0 / self.c if self.side == SUB else self.c


def build_barrier(spec: BarrierSpec, grid: Grid1D) -> GridFunction:
    """Sample the barrier on ``grid`` (the base eigenpair's own grid)."""
    if not same_grid(spec.base.grid, grid):
        raise GridMismatch("barrier base eigenpair was computed on a different grid")
    phi = spec.base.eigenfunction.values
    vals = np.zeros(grid.n)
    sl = grid.unknown_slice
    p_int = phi[sl]
    fam = spec.family
    if isinstance(fam, PowerOfEigen):
        vals[sl] = spec.scale * p_int**fam.gamma
    else:
        if fam.big_a <= phi.max():
            raise DomainError(
                f"log scale A={fam.big_a:g} must exceed max phi = {phi.max():g}"
            )
        vals[sl] = spec.scale * p_int * np.log(fam.big_a / p_int) ** fam.s
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
    description: str = ""

    def report_items(self) -> list[tuple[str, object]]:
        """(key, value) rows of the certificate, values unformatted."""
        return [
            ("side", self.side),
            ("certified", self.certified),
            ("worst_node", self.worst_node),
            ("worst_margin", self.worst_margin),
            ("checked_nodes", self.checked_nodes),
            ("slack", self.slack),
            ("skip_cells", self.skip_cells),
            ("description", self.description),
        ]


def _checked_indices(grid: Grid1D, skip_cells: int) -> np.ndarray:
    n = grid.n
    hi = n - 2 - skip_cells  # last node whose right cell is clear of the boundary zone
    lo = 0 if grid.domain.is_ball else skip_cells + 1
    if hi < lo:
        raise DomainError(f"grid too coarse for skip_cells = {skip_cells}")
    return np.arange(lo, hi + 1)


def _rhs_at(candidate: GridFunction, rhs, side: str) -> np.ndarray:
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
    sl = grid.unknown_slice
    if np.any(candidate.values[sl] <= 0.0):
        raise NonPositiveCandidate("singular rhs needs a positive candidate")
    k0 = spec.k_low if side == SUB else spec.k_high
    vals = np.zeros(grid.n)
    delta = grid.delta_nodes[sl]
    vals[sl] = k0 * delta ** (-spec.q) * candidate.values[sl] ** (-spec.p)
    return vals


def check_barrier(
    candidate: GridFunction,
    side: str,
    rhs,
    m: float,
    slack: float = 0.0,
    skip_cells: int = 2,
    description: str = "",
) -> BarrierCertificate:
    """Certify the discrete sub/supersolution inequality for ``candidate``.

    ``rhs`` is either a fixed GridFunction theta or a ProblemSpec, in which
    case the singular right-hand side K * candidate^(-p) is used (candidate
    must then be positive at interior nodes).  Sub is certified iff the
    residual -div(Phi(candidate)) - rhs is <= slack at every checked node,
    super iff it is >= -slack.
    """
    if side not in (SUB, SUPER):
        raise DomainError(f"side must be {SUB!r} or {SUPER!r}")
    grid = candidate.grid
    res = apply_mlap(candidate, m).values - _rhs_at(candidate, rhs, side)
    idx = _checked_indices(grid, skip_cells)
    if side == SUB:
        margins = slack - res[idx]
    else:
        margins = res[idx] + slack
    k = int(np.argmin(margins))
    return BarrierCertificate(
        side=side,
        certified=bool(margins[k] >= 0.0),
        worst_node=int(idx[k]),
        worst_margin=float(margins[k]),
        checked_nodes=idx.size,
        slack=slack,
        skip_cells=skip_cells,
        description=description,
    )


def _ladder(families: dict[str, Family], rhs, m, base, grid, c_max, slack, skip_cells):
    """Walk c = 2, 4, ... <= c_max to the first rung where the barrier of
    every {side: family} certifies; return that c and {side: (candidate,
    certificate)}.  A rung stops at its first failing side, and the next
    rung checks that side first.
    """
    order = list(families)
    c, last = 2.0, None
    while c <= c_max:
        found = {}
        for side in order:
            family = families[side]
            cand = build_barrier(BarrierSpec(family=family, c=c, side=side, base=base), grid)
            cert = check_barrier(
                cand, side, rhs, m, slack=slack, skip_cells=skip_cells,
                description=f"{family.describe()} c={c:g} {side}",
            )
            if not cert.certified:
                last = (f"{family.describe()} ({side}); last margin "
                        f"{cert.worst_margin:g} at node {cert.worst_node}")
                order.remove(side)
                order.insert(0, side)
                break
            found[side] = (cand, cert)
        else:
            return c, found
        c *= 2.0
    raise NoCertifiableScale(
        f"no certifying c <= {c_max:g} for {last}" if last
        else f"c_max {c_max:g} below the first ladder rung"
    )


def auto_scale(
    family: Family,
    side: str,
    rhs,
    m: float,
    base: EigenPair,
    c_max: float = 2.0**20,
    slack: float = 0.0,
    skip_cells: int = 2,
) -> tuple[float, BarrierCertificate]:
    """Smallest power-of-two c in (1, c_max] whose barrier certifies.

    Walks the ladder for this one side.  Certification is monotone in c
    (the properly scaled side of the inequality strengthens as c grows), so
    the first certifying rung is the smallest certifying power of two.
    Raises NoCertifiableScale when c_max is reached, which signals a wrong
    profile exponent or an under-resolved grid.
    """
    c, found = _ladder({side: family}, rhs, m, base, base.grid, c_max, slack, skip_cells)
    return c, found[side][1]


def regime_families(spec: ProblemSpec) -> tuple[Family, Family]:
    """Barrier profiles (sub, super) appropriate for the spec's regime.

    Supercritical: both sides share the power profile with the predicted
    boundary exponent.  Critical: both sides share the log-power profile with
    the predicted log exponent.  Subcritical: the subsolution is the plain
    eigenfunction (gamma = 1, matching u ~ delta from below) while the
    supersolution needs unbounded curvature at the boundary and uses the
    log-power profile, an upper bound one log factor above u ~ delta.
    """
    report = classify_regime(spec)
    if report.regime is Regime.SUPERCRITICAL:
        fam = PowerOfEigen(report.boundary_exponent)
        return fam, fam
    s = 1.0 / (spec.m + spec.p - 1.0)
    logfam = LogPowerOfEigen(s=s, big_a=default_log_scale(spec.domain, s))
    if report.regime is Regime.CRITICAL:
        return logfam, logfam
    return PowerOfEigen(1.0), logfam


@dataclass(frozen=True, eq=False)
class BarrierPair:
    """A certified (sub, super) bracket sharing one scaling constant."""

    sub: GridFunction
    super_: GridFunction
    c: float
    sub_cert: BarrierCertificate
    super_cert: BarrierCertificate


def certified_pair(
    spec: ProblemSpec,
    grid: Grid1D,
    base: EigenPair | None = None,
    c_max: float = 2.0**20,
) -> BarrierPair:
    """Certified sub/supersolution pair for the singular problem on ``grid``.

    Both sides are certified at every unknown node (no skipped boundary
    cells), so the comparison principle puts the discrete solution between
    them everywhere.  One ladder walk checks both sides on each rung and
    returns the first rung where both certify: the smallest common
    power-of-two constant, since certification is monotone in c.
    """
    if base is None:
        base = first_eigenpair(grid, spec.m)
    sub_fam, super_fam = regime_families(spec)
    c, found = _ladder(
        {SUB: sub_fam, SUPER: super_fam}, spec, spec.m, base, grid, c_max, 0.0, 0
    )
    (sub, sub_cert), (sup, super_cert) = found[SUB], found[SUPER]
    return BarrierPair(sub=sub, super_=sup, c=c, sub_cert=sub_cert, super_cert=super_cert)
