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
    VERDICT_CODE,
    Verdict,
    fit_boundary_exponent,
    fit_log_correction,
    gradient_bound_check,
    threshold_scan,
)
from .core import ProblemSpec, Regime, classify_regime, make_graded_grid
from .eigen import EigenPair, first_eigenpair
from .errors import InvalidConfig
from .solver import SolveReport, SolverConfig, solve_singular

REGIME_CODE = {Regime.SUBCRITICAL: 0, Regime.CRITICAL: 1, Regime.SUPERCRITICAL: 2}

# A scan verdict is predicted only for tau farther than this from tau*; at
# the threshold itself the seminorm diverges logarithmically, so Marginal and
# Divergent are both consistent with the theorem.
THRESHOLD_BAND = 0.05


def predicted_verdict(tau: float, tstar: float) -> Verdict | None:
    """The scan verdict Theorem 1 predicts for ``tau`` below or above the
    sharp index ``tstar``; None inside THRESHOLD_BAND of it."""
    if math.isinf(tstar) or tau < tstar - THRESHOLD_BAND:
        return Verdict.CONVERGENT
    if tau > tstar + THRESHOLD_BAND:
        return Verdict.DIVERGENT
    return None


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
    }


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

    def override(fld: str, default: float) -> float:
        return overrides.get(f"{eid}.{fld}", default)

    claims: list[ClaimRecord] = []

    def claim(name: str, predicted: float, measured: float, tolerance: float) -> None:
        claims.append(ClaimRecord(f"{entry.entry_id}.{name}", predicted, measured, tolerance))

    solve = solve_at(entry.fit_n)
    u = solve.solution

    # regime classification is exact
    code = REGIME_CODE[regime.regime]
    claim("regime", override("regime", code), code, 0.0)

    if regime.regime is Regime.CRITICAL:
        fit = fit_log_correction(u, entry.window)
        predicted = override("log_exponent", regime.log_exponent)
        claim("log_exponent", predicted, fit.log_exponent, 0.1)
    else:
        fit = fit_boundary_exponent(u, entry.window)
        predicted = override("boundary_exponent", regime.boundary_exponent)
        claim("boundary_exponent", predicted, fit.exponent, 0.03)

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
            spec, entry.scan_taus, entry.scan_levels, grading=entry.grading,
            solve_level=lambda n: solve_at(n).solution,
        )
        for tau, verdict in zip(entry.scan_taus, scan.verdicts):
            expected = predicted_verdict(tau, regime.tau_sup)
            if expected is None:
                # at the threshold itself: Marginal or Divergent both acceptable
                predicted, tol = 1.5, 0.5
            else:
                predicted, tol = float(VERDICT_CODE[expected]), 0.0
            claim(f"tau_{tau:g}", predicted, float(VERDICT_CODE[verdict]), tol)
    return claims


def reproduce(
    names: tuple[str, ...], overrides: dict[str, str], config: SolverConfig
) -> ReproReport:
    """Run the named entries of the default matrix, in order, into one report.

    ``overrides`` maps ``<entry>.<claim>`` keys to numeric text.  An empty or
    unknown entry list, an override of an entry not run or a non-numeric
    override raises InvalidConfig before any solve.
    """
    matrix = default_matrix()
    if not names:
        raise InvalidConfig("empty test matrix")
    unknown = [w for w in names if w not in matrix]
    if unknown:
        raise InvalidConfig(f"unknown matrix entries: {unknown}")
    predictions = {}
    for key, raw in overrides.items():
        if key.partition(".")[0].upper() not in names:
            raise InvalidConfig(f"override {key!r} targets an entry not in the matrix")
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
