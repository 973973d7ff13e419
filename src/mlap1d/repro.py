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
    fit_log_correction,
    gradient_bound_check,
    threshold_scan,
)
from .core import Domain, ProblemSpec, Regime, classify_regime, make_graded_grid
from .eigen import EigenPair, first_eigenpair
from .errors import InvalidConfig
from .solver import SolveReport, SolverConfig, solve_singular

REGIME_CODE = {Regime.SUBCRITICAL: 0, Regime.CRITICAL: 1, Regime.SUPERCRITICAL: 2}
VERDICT_CODE = {Verdict.CONVERGENT: 0, Verdict.MARGINAL: 1, Verdict.DIVERGENT: 2}

# A scan's rate tracks 1 - tau/tau* within 8e-4 at levels 1025-8193 (README)
RATE_ERROR = 1e-3


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
    """One row of the regime test matrix with its measurement resolutions."""

    entry_id: str
    spec: ProblemSpec
    fit_n: int
    window: tuple[float, float]
    grading: float = 3.0
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
            scan_levels=(2049, 4097, 8193, 16385),
        ),
        "E3": MatrixEntry(
            entry_id="E3",
            spec=ProblemSpec(m=2.0, p=0.5, q=1.0),
            fit_n=8193,
            window=(1e-4, 1e-2),
            scan_taus=(2.0, 2.5, 2.9, 3.0, 3.5, 4.0),
            scan_levels=(1025, 2049, 4097, 8193),
        ),
        # m != 2, run on request only (--matrix E4,E5)
        "E4": MatrixEntry(
            "E4", ProblemSpec(m=3.0, p=0.5, q=1.0), fit_n=8193, window=(1e-4, 1e-2),
            scan_taus=(4.0, 4.75, 5.0, 5.25, 6.0), scan_levels=(1025, 2049, 4097, 8193),
        ),
        "E5": MatrixEntry(
            "E5", ProblemSpec(m=1.5, p=0.5, q=1.0, domain=Domain.ball(3)),
            fit_n=8193, window=(1e-6, 1e-4),
            scan_taus=(1.5, 1.75, 2.0, 2.25, 2.5), scan_levels=(1025, 2049, 4097, 8193),
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
    entry: MatrixEntry,
    overrides: dict[str, float],
    config: SolverConfig,
    eigenpairs: dict[tuple, EigenPair],
) -> list[ClaimRecord]:
    """Run one matrix entry end to end and emit its claim records.

    ``overrides`` maps lower-case ``<entry>.<claim>`` keys to predictions
    that replace the theorem's.  Every singular solve of the entry goes
    through one memo keyed on n, so the fit solve, the gradient check and
    the scan levels share their grids; the barriers' eigenpairs come from
    the run-wide store ``eigenpairs``, keyed on (domain, n, grading, m).
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
            key = (spec.domain, n, entry.grading, spec.m)
            if key not in eigenpairs:
                grid = make_graded_grid(n, entry.grading, spec.domain)
                eigenpairs[key] = first_eigenpair(grid, spec.m)
            base = eigenpairs[key]
            solves[n] = solve_singular(spec, base.grid, config, base=base)
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
        fit = fit_log_correction(u, entry.window)
        claim("log_exponent", prediction["log_exponent"], fit.log_exponent, 0.1)
    else:
        fit = fit_boundary_exponent(u, entry.window)
        claim("boundary_exponent", prediction["boundary_exponent"], fit.exponent, 0.03)

    # barrier certification and the solution sandwiched between the barriers
    claim("barrier_scale_log2", 0.0, math.log2(solve.barrier_c), 20.0)
    below = float(np.max(solve.sub_barrier.values - u.values))
    above = float(np.max(u.values - solve.super_barrier.values))
    claim("sandwich_violation", 0.0, max(0.0, below, above), config.picard_tol)

    if entry.gradient_ns is not None:
        n0, n1 = entry.gradient_ns
        gb = gradient_bound_check(
            solve_at(n0).solution, a=1.0, refined=solve_at(n1).solution
        )
        claim("gradient_factor", 1.0, max(gb.ratio, 1.0 / gb.ratio), 0.5)

    if entry.scan_taus:
        scan = threshold_scan(
            lambda n: solve_at(n).solution, entry.scan_taus, entry.scan_levels, entry.grading
        )
        claims += scan_claims(scan, regime.tau_sup, f"{entry.entry_id}.")
    return claims


def reproduce(
    names: tuple[str, ...], overrides: dict[str, str], config: SolverConfig
) -> ReproReport:
    """Run the named entries of the default matrix, in order, into one report.

    ``overrides`` maps ``<entry>.<claim>`` keys to numeric text.  An empty or
    unknown entry list, an override of an entry not run, of a claim without
    an overridable prediction (see _predictions) or with a non-numeric value
    raises InvalidConfig before any solve.
    """
    matrix = default_matrix()
    if not names:
        raise InvalidConfig("empty test matrix")
    unknown = [w for w in names if w not in matrix]
    if unknown:
        raise InvalidConfig(f"unknown matrix entries: {unknown}")
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

    # Eigenpairs live for this run only, and each entry's solves only inside
    # its _entry_claims call, so nothing outlives the run.
    eigenpairs: dict[tuple, EigenPair] = {}
    claims: list[ClaimRecord] = []
    for name in names:
        claims.extend(_entry_claims(matrix[name], predictions, config, eigenpairs))
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise InvalidConfig("duplicate claim ids in reproduction run")
    return ReproReport(tuple(claims))
