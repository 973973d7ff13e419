"""Reproduction of Theorem 1: the regime test matrix, its claims and the
runner behind ``mlap1d reproduce-theorem1``.

Each entry is solved, certified between barriers, fitted at the boundary and
scanned around the sharp index tau* = (m+p-1)/(p+q-1); every check becomes a
ClaimRecord (predicted, measured, tolerance).  The report files are written
and parsed by ``cli``; this module imports nothing from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import (
    RATE_BAND,
    ScanReport,
    Verdict,
    fit_boundary_exponent,
    fit_log_profile,
    gradient_bound_check,
    threshold_scan,
)
from .core import DEFAULT_GRADING, Domain, ProblemSpec, Regime, classify_regime, make_graded_grid
from .errors import InvalidConfig
from .solver import SolveReport, SolverConfig, solve_singular

REGIME_CODE = {Regime.SUBCRITICAL: 0, Regime.CRITICAL: 1, Regime.SUPERCRITICAL: 2}
VERDICT_CODE = {Verdict.CONVERGENT: 0, Verdict.MARGINAL: 1, Verdict.DIVERGENT: 2}

# A scan's rate tracks 1 - tau/tau* within 8e-4 at levels 1025-8193 (README)
RATE_ERROR = 1e-3

# The sandwich claim's loosest tolerance, the default picard_tol: a run at a
# tighter picard_tol is judged at its own, a looser one is not loosened
SANDWICH_TOL = SolverConfig.picard_tol


def predicted_verdict(tau: float, tstar: float) -> tuple[float, float] | None:
    """(verdict code, tolerance) Theorem 1 predicts for a scan at ``tau``: by
    the rate e = 1 - tau/tstar, Convergent (0 +- 0) above the rule's flip
    point RATE_BAND, Marginal or Divergent (1.5 +- 0.5) below it up to tstar,
    Divergent (2 +- 0) beyond; None within RATE_ERROR of the flip point."""
    e = 1.0 - tau / tstar
    if e > RATE_BAND + RATE_ERROR:
        return 0.0, 0.0
    if e >= RATE_BAND - RATE_ERROR:
        return None
    return (1.5, 0.5) if tau <= tstar else (2.0, 0.0)


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    predicted: float
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.predicted) <= self.tolerance


@dataclass(frozen=True)
class ReproReport:
    claims: tuple[ClaimRecord, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.claims)

    def blocks(self) -> list[list[tuple[str, object]]]:
        head = [
            ("report", "reproduce-theorem1"),
            ("overall", "pass" if self.overall else "fail"),
            ("claims", len(self.claims)),
        ]
        out = [head]
        for c in sorted(self.claims, key=lambda c: c.claim_id):
            out.append(
                [
                    ("claim", c.claim_id),
                    ("predicted", c.predicted),
                    ("measured", c.measured),
                    ("tolerance", c.tolerance),
                    ("pass", c.passed),
                ]
            )
        return out


def scan_claims(scan: ScanReport, tstar: float, prefix: str = "") -> list[ClaimRecord]:
    """One claim per scanned tau, ``<prefix>tau_<tau>``: its verdict code
    against predicted_verdict.  At the flip point, where that predicts none,
    ``<prefix>tau_<tau>_rate`` claims the rate 1 - tau/tau* +- RATE_ERROR."""
    claims = []
    for tau, verdict, rate in zip(scan.tau_values, scan.verdicts, scan.rates):
        name, expected = f"{prefix}tau_{tau:g}", predicted_verdict(tau, tstar)
        if expected is None:
            claims.append(ClaimRecord(f"{name}_rate", 1.0 - tau / tstar, rate, RATE_ERROR))
        else:
            code = float(VERDICT_CODE[verdict])
            claims.append(ClaimRecord(name, expected[0], code, expected[1]))
    return claims


@dataclass(frozen=True)
class MatrixEntry:
    """One row of the regime test matrix with its measurement resolutions.

    ``scan_levels`` lists only the levels a verdict reads: threshold_scan's
    rate takes the last two increments, so three nested levels.  The entry
    solves each distinct n of ``fit_n``, ``gradient_ns`` and
    ``scan_levels`` once (_entry_claims), and a scan whose finest level is
    ``fit_n`` adds two solves to the fit's.
    """

    entry_id: str
    spec: ProblemSpec
    fit_n: int
    window: tuple[float, float]
    scan_taus: tuple[float, ...] = ()
    scan_levels: tuple[int, ...] = ()
    gradient_ns: tuple[int, int] | None = None


def default_matrix() -> dict[str, MatrixEntry]:
    return {
        "E1": MatrixEntry(
            entry_id="E1",
            spec=ProblemSpec(m=2.0, p=0.3, q=0.3),
            fit_n=8193,
            window=(1e-5, 1e-3),
            gradient_ns=(4097, 8193),
        ),
        "E2": MatrixEntry(
            entry_id="E2",
            spec=ProblemSpec(m=2.0, p=0.5, q=0.5),
            fit_n=16385,
            window=(1e-5, 1e-2),
            scan_taus=(2.0, 4.0, 8.0),
            scan_levels=(4097, 8193, 16385),
        ),
        "E3": MatrixEntry(
            entry_id="E3",
            spec=ProblemSpec(m=2.0, p=0.5, q=1.0),
            fit_n=8193,
            window=(1e-4, 1e-2),
            scan_taus=(2.0, 2.5, 2.9, 3.0, 3.5, 4.0),
            scan_levels=(2049, 4097, 8193),
        ),
        # m != 2, so not in cli.DEFAULT_RUN: run on request only (--matrix E4,E5)
        "E4": MatrixEntry(
            "E4", ProblemSpec(m=3.0, p=0.5, q=1.0), fit_n=8193, window=(1e-4, 1e-2),
            scan_taus=(4.0, 4.75, 5.0, 5.25, 6.0), scan_levels=(2049, 4097, 8193),
        ),
        "E5": MatrixEntry(
            "E5", ProblemSpec(m=1.5, p=0.5, q=1.0, domain=Domain.ball(3)),
            fit_n=8193, window=(1e-6, 1e-4),
            scan_taus=(1.5, 1.75, 2.0, 2.25, 2.5), scan_levels=(2049, 4097, 8193),
        ),
    }


def _predictions(spec: ProblemSpec) -> dict[str, float]:
    """The theorem's predictions an override may replace: the regime code, and
    the log exponent of a critical spec or else the boundary exponent."""
    r = classify_regime(spec)
    if r.regime is Regime.CRITICAL:
        return {"regime": REGIME_CODE[r.regime], "log_exponent": r.log_exponent}
    return {"regime": REGIME_CODE[r.regime], "boundary_exponent": r.boundary_exponent}


def _entry_claims(
    entry: MatrixEntry, overrides: dict[str, float], config: SolverConfig
) -> list[ClaimRecord]:
    """Run one matrix entry end to end and emit its claim records.

    ``overrides`` maps lower-case ``<entry>.<claim>`` keys to predictions
    that replace the theorem's.  Every singular solve of the entry goes
    through one memo keyed on n, so the fit solve, the gradient check and
    the scan levels share their solves.  Each solve builds its grid,
    graded at core.DEFAULT_GRADING, so an entry shares no state with
    another and its grids are freed with its solves when it returns.
    """
    eid = entry.entry_id.lower()
    spec = entry.spec
    regime = classify_regime(spec)
    prediction = {
        name: overrides.get(f"{eid}.{name}", value)
        for name, value in _predictions(spec).items()
    }
    solves: dict[int, SolveReport] = {}

    def solve_at(n: int) -> SolveReport:
        if n not in solves:
            grid = make_graded_grid(n, DEFAULT_GRADING, spec.domain)
            solves[n] = solve_singular(spec, grid, config)
        return solves[n]

    claims: list[ClaimRecord] = []

    def claim(name: str, predicted: float, measured: float, tolerance: float) -> None:
        claims.append(ClaimRecord(f"{entry.entry_id}.{name}", predicted, measured, tolerance))

    solve = solve_at(entry.fit_n)
    u = solve.solution

    # regime classification is exact
    code = REGIME_CODE[regime.regime]
    claim("regime", prediction["regime"], code, 0.0)

    if regime.regime is Regime.CRITICAL:
        # on E2's window the fit reads 2/3 + 0.017 from n = 4097 to 32769
        fit = fit_log_profile(u, entry.window)
        claim("log_exponent", prediction["log_exponent"], fit.log_exponent, 0.03)
    else:
        fit = fit_boundary_exponent(u, entry.window)
        claim("boundary_exponent", prediction["boundary_exponent"], fit.exponent, 0.03)

    # barrier certification and the solution sandwiched between the barriers
    claim("barrier_scale_log2", 0.0, math.log2(solve.barrier_c), 20.0)
    below = float(np.max(solve.sub_barrier.values - u.values))
    above = float(np.max(u.values - solve.super_barrier.values))
    claim("sandwich_violation", 0.0, max(0.0, below, above), min(config.picard_tol, SANDWICH_TOL))

    if entry.gradient_ns is not None:
        n0, n1 = entry.gradient_ns
        gb = gradient_bound_check(
            solve_at(n0).solution, a=1.0, refined=solve_at(n1).solution
        )
        # the factor reads 1 + 1.4e-4 at (4097, 8193) on E1, shrinking with n
        claim("gradient_factor", 1.0, max(gb.ratio, 1.0 / gb.ratio), 1e-3)

    if entry.scan_taus:
        scan = threshold_scan(lambda n: solve_at(n).solution, entry.scan_taus, entry.scan_levels)
        claims += scan_claims(scan, regime.tau_sup, f"{entry.entry_id}.")
    return claims


def reproduce(
    names: tuple[str, ...], overrides: dict[str, str], config: SolverConfig
) -> ReproReport:
    """Run the named entries of the default matrix, in order, into one report.

    ``overrides`` maps ``<entry>.<claim>`` keys to numeric text.  An empty
    entry list, an unknown or repeated entry, an override of an entry not
    run, of a claim without an overridable prediction (see _predictions) or
    with a non-numeric value raises InvalidConfig before any solve.
    """
    matrix = default_matrix()
    if not names:
        raise InvalidConfig("empty test matrix")
    unknown = [w for w in names if w not in matrix]
    if unknown:
        raise InvalidConfig(f"unknown matrix entries: {unknown}")
    repeated = sorted({w for w in names if names.count(w) > 1})
    if repeated:
        raise InvalidConfig(f"repeated matrix entries: {repeated}")
    predictions = {}
    for key, raw in overrides.items():
        entry, _, name = key.partition(".")
        entry = entry.upper()
        if entry not in names:
            raise InvalidConfig(f"override {key!r} targets an entry not in the matrix")
        allowed = sorted(_predictions(matrix[entry].spec))
        if name not in allowed:
            raise InvalidConfig(f"override {key!r} names no prediction of {entry}: {allowed}")
        try:
            predictions[key] = float(raw)
        except ValueError as exc:
            raise InvalidConfig(f"bad value for override {key!r}: {raw!r}") from exc

    claims: list[ClaimRecord] = []
    for name in names:
        claims.extend(_entry_claims(matrix[name], predictions, config))
    return ReproReport(tuple(claims))
