"""Robustness ratchet over the admissible lattice.

Every admissible (m, p, q) of the lattice, on the interval and the N = 3
ball at n = 1025, must either return a certified solution or raise the typed
error recorded for it below.  A certified solution has converged, its Picard
gap is at most ``picard_tol`` and it lies between its barriers.  A point that
now certifies where it used to be refused is progress; the floor on the
number of certified points only ever rises.
"""

import itertools

import numpy as np

from mlap1d import Domain, ProblemSpec, SolverConfig, make_graded_grid, solve_singular
from mlap1d.errors import (
    BarrierOrderViolation,
    MlapError,
    NoCertifiableScale,
    NonConvergence,
)

LATTICE_M = (1.2, 1.5, 2.0, 3.0, 5.0)
LATTICE_P = (0.0, 0.2, 0.5, 0.9, 1.5)
LATTICE_Q = (0.0, 0.3, 0.7, 1.0, 1.3)
DOMAINS = ("interval", "ball")
N = 1025
GRADING = 3.0

# Raise this floor when a refusal below is mended; never lower it.
MIN_CERTIFIED = 187

# (domain, m, p, q) -> the typed error the point is allowed to raise.
REFUSALS = {
    **{
        (d, 1.2, 0.0, q): NoCertifiableScale
        for d in DOMAINS
        for q in (0.0, 0.3, 0.7, 1.0)
    },
    ("ball", 1.2, 0.5, 0.0): NoCertifiableScale,
    ("ball", 1.2, 0.5, 0.3): NoCertifiableScale,
    ("ball", 1.2, 0.9, 0.0): NoCertifiableScale,
    ("ball", 1.2, 0.9, 1.0): NoCertifiableScale,
    # The loop converges here (width 1e-8 after 63 solves), but the result
    # rises 3.6e-4 above the supersolution at nodes 1 and n-2 only, the
    # cells next to the boundary that check_barrier skips.
    ("interval", 1.2, 1.5, 0.7): BarrierOrderViolation,
    ("interval", 1.5, 0.9, 1.0): BarrierOrderViolation,
    ("ball", 1.2, 0.2, 1.0): BarrierOrderViolation,
    ("interval", 1.5, 0.0, 1.3): BarrierOrderViolation,
    ("ball", 1.5, 0.0, 1.3): BarrierOrderViolation,
}


def admissible_lattice():
    return [
        (d, m, p, q)
        for d, m, p, q in itertools.product(DOMAINS, LATTICE_M, LATTICE_P, LATTICE_Q)
        if p + q < 2.0 - (1.0 - p) / m
    ]


def _certification_failure(report, tol):
    """Why ``report`` is not a certified solution, or None if it is."""
    if not report.converged:
        return "not converged"
    if not report.picard_gap <= tol:
        return f"picard gap {report.picard_gap:g} > {tol:g}"
    u = report.solution.values
    below = float(np.max(report.sub_barrier.values - u))
    above = float(np.max(u - report.super_barrier.values))
    if max(below, above) > tol:
        return f"outside its barriers by {max(below, above):g}"
    return None


def test_lattice_has_every_recorded_refusal():
    assert set(REFUSALS) <= set(admissible_lattice())
    assert len(admissible_lattice()) - len(REFUSALS) == MIN_CERTIFIED


def test_every_point_certifies_or_refuses_as_recorded():
    tol = SolverConfig().picard_tol
    certified, problems = 0, []
    for d, m, p, q in admissible_lattice():
        dom = Domain.ball(3) if d == "ball" else Domain.interval()
        spec = ProblemSpec(m=m, p=p, q=q, domain=dom)
        point = (d, m, p, q)
        try:
            report = solve_singular(spec, make_graded_grid(N, GRADING, dom))
        except MlapError as exc:
            expected = REFUSALS.get(point)
            if expected is None or type(exc) is not expected:
                problems.append(f"{point}: unexpected {type(exc).__name__}: {exc}")
            continue
        why = _certification_failure(report, tol)
        if why is not None:
            problems.append(f"{point}: quiet wrong answer, {why}")
            continue
        certified += 1
    assert not problems, "\n".join(problems)
    assert certified >= MIN_CERTIFIED

