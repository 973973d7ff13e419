"""Sub/supersolution barrier families, exact scales, and certification.

Barriers are built from the first eigenfunction phi (sup-norm 1) in two
families:

  * power:      c^(+-1) * phi^gamma,              gamma in (0, 1]
  * log-power:  c^(+-1) * phi * log^s (A / phi),   s > 0, A > sup phi

with the same constant c >= 1 scaling the supersolution up and the subsolution
down.  A candidate w is numerically certified as a subsolution of
-div(Phi) = rhs when the discrete residual -div(Phi(w)) - rhs(w) is <= slack
at every checked node, and as a supersolution when it is >= -slack.  By
default check_barrier skips the innermost cells next to each Dirichlet
boundary, where the one-sided stencil meets the boundary singularity, so
that a refinement study compares interior statements.  certified_pair
checks every unknown node instead: the discrete comparison principle places
the solution between the barriers only when both inequalities hold at every
node.  These are the paper's barriers, the device of its proof; the
singular solve does not use them, and certifies its own pair from its first
Dirichlet solve (solver.solve_singular).  For the singular problem the
right-hand side is evaluated at the candidate itself, K * w^(-p), which is
the definition of a sub/supersolution of that equation.

Both sides of the inequality are homogeneous in c, so auto_scale finds a
side's scale from one operator application to the unit barrier, and
certified_pair checks both at the larger of the two.  A certificate from a
coarse grid is only trusted after it survives refinement: a wrong boundary
exponent can look certified on a fixed grid because its violation zone hides
below the resolved scale, but refinement exposes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid1D,
    GridFunction,
    ProblemSpec,
    default_log_scale,
    regime_profiles,
    same_grid,
)
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
    "check_scaled",
    "auto_scale",
    "regime_families",
    "certified_pair",
    "default_log_scale",
]

SUB = "sub"
SUPER = "super"
_LOG2_MAX = 1023.0  # c = 2^1023 is the largest power-of-two float


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
        if not 1.0 <= self.c < math.inf:
            raise DomainError(f"scaling constant must be >= 1 and finite, got {self.c}")

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
    if skip_cells < 0:
        raise DomainError(f"skip_cells must be >= 0, got {skip_cells}")
    hi = grid.n - 2 - skip_cells  # last node whose right cell is clear of the boundary zone
    lo = skip_cells + 1 if 0 in grid.dirichlet_indices() else 0
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
    res = apply_mlap(candidate, m).values - _rhs_at(candidate, rhs, side)
    idx = _checked_indices(candidate.grid, skip_cells)
    margins = (1.0 if side == SUPER else -1.0) * res[idx] + slack
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


def check_scaled(family, side, c, rhs, m, base, grid, slack, skip_cells):
    """The barrier of ``family`` at scale c on ``grid`` and its certificate."""
    cand = build_barrier(BarrierSpec(family=family, c=c, side=side, base=base), grid)
    return cand, check_barrier(cand, side, rhs, m, slack, skip_cells, family.describe())


def auto_scale(
    family: Family,
    side: str,
    rhs,
    m: float,
    base: EigenPair,
    slack: float = 0.0,
    skip_cells: int = 2,
) -> tuple[float, BarrierCertificate]:
    """The barrier's scale c >= 1 and its certificate.

    With A = -div(Phi(P)) and R the rhs of the unit barrier P (c = 1) at the
    checked nodes, the residual at scale c is c^(m-1) A - c^(-p) R on the
    super side and c^(1-m) A - c^p R on the sub side (p = 0 for a fixed
    theta).  log2 c is bisected on these to the smallest value where every
    margin, slack included, is >= 0.  One check confirms it, a doubling
    count of ulps higher (up to 2^32, a relative 1e-6) where rounding breaks
    the homogeneity, or else at the next power of two, which scales P
    exactly.  So c is an upper bound on the smallest certifying scale,
    sharp to 1e-6 unless a node's residual is rounding noise.

    Raises NoCertifiableScale, naming the node, when no c certifies (a node
    that caps c from above, as a negative theta can, fails at c = 2^1023).
    That signals a wrong profile exponent or an under-resolved grid, or the
    flat top of the eigenfunction profiles: for m < 2 phi is 1 to within a
    few ulps next to its maximum (1 - 8.2e-15 at m = 1.2, n = 1025), and the
    flux |Dw|^(m-1) turns the profile's rounding there into a residual of
    the wrong sign on both sides, which only a power of two may outweigh
    and none does as m nears 1 (on the ball, w_0 = w_1 and the residual at
    r = 0 is -K w^(-p)).
    """
    unit = build_barrier(BarrierSpec(family=family, c=1.0, side=side, base=base), base.grid)
    idx = _checked_indices(base.grid, skip_cells)
    a, r = apply_mlap(unit, m).values[idx], _rhs_at(unit, rhs, side)[idx]
    p = rhs.p if isinstance(rhs, ProblemSpec) else 0.0
    s = 1.0 if side == SUPER else -1.0

    def margins(log2_c):
        with np.errstate(over="ignore", invalid="ignore"):
            return s * (np.exp2(s * (m - 1.0) * log2_c) * a - np.exp2(-s * p * log2_c) * r) + slack

    lo, hi = 0.0, 0.0 if np.all(margins(0.0) >= 0.0) else _LOG2_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if np.all(margins(mid) >= 0.0) else (mid, hi)
    k = int(np.argmin(worst := margins(hi)))
    if not worst[k] >= 0.0:
        raise NoCertifiableScale(
            f"no finite c certifies {family.describe()} ({side}): the unit barrier has "
            f"-div(Phi) = {a[k]:g} against the rhs {r[k]:g} at node {idx[k]}"
        )
    c0 = 2.0**hi
    steps = (c0 + 2.0**j * math.ulp(c0) for j in range(33))
    for c in (c0, *steps, 2.0 ** math.ceil(hi)):
        _, cert = check_scaled(family, side, c, rhs, m, base, base.grid, slack, skip_cells)
        if cert.certified:
            return c, cert
    raise NoCertifiableScale(
        f"{family.describe()} ({side}) fails its check from c = {c0:g} to {c:g}; "
        f"last margin {cert.worst_margin:g} at node {cert.worst_node}"
    )


def regime_families(spec: ProblemSpec) -> tuple[Family, Family]:
    """Barrier profiles (sub, super) appropriate for the spec's regime.

    The regime's profiles (core.regime_profiles) in the eigenfunction.
    Supercritical: both sides share the power profile with the predicted
    boundary exponent.  Critical: both sides share the log-power profile with
    the predicted log exponent.  Subcritical: the subsolution is the plain
    eigenfunction (gamma = 1, matching u ~ delta from below) while the
    supersolution needs unbounded curvature at the boundary and uses the
    log-power profile, an upper bound one log factor above u ~ delta.
    """
    return tuple(
        LogPowerOfEigen(s=prof.log_exponent, big_a=prof.log_scale)
        if prof.log_exponent
        else PowerOfEigen(prof.exponent)
        for prof in regime_profiles(spec)
    )


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
) -> BarrierPair:
    """Certified sub/supersolution pair for the singular problem on ``grid``.

    Both sides are checked at every unknown node (no skipped boundary cells),
    at the larger of their two scales (auto_scale), so the comparison
    principle puts the discrete solution between them everywhere; the side
    that set that scale keeps its certificate.
    """
    if base is None:
        base = first_eigenpair(grid, spec.m)
    families = dict(zip((SUB, SUPER), regime_families(spec)))
    scales = {s: auto_scale(f, s, spec, spec.m, base, skip_cells=0) for s, f in families.items()}
    c = max(c for c, _ in scales.values())
    found = {
        s: (build_barrier(BarrierSpec(family=f, c=c, side=s, base=base), grid), scales[s][1])
        if scales[s][0] == c
        else check_scaled(f, s, c, spec, spec.m, base, grid, 0.0, 0)
        for s, f in families.items()
    }
    for _, cert in found.values():
        if not cert.certified:
            raise NoCertifiableScale(f"{cert.side} fails at c = {c:g} at node {cert.worst_node}")
    (sub, sub_cert), (sup, super_cert) = found[SUB], found[SUPER]
    return BarrierPair(sub=sub, super_=sup, c=c, sub_cert=sub_cert, super_cert=super_cert)
