"""Robustness ratchet over the admissible lattice.

Every admissible (m, p, q) of the lattice, on the interval and the N = 3
ball at n = 1025 and gradings 3 and 4, and its m = 1.2 points at n = 4097,
must either return a certified solution or raise the typed error recorded
for it below.  A certified
solution has converged, its Picard gap is at most ``picard_tol`` and it lies
between its barriers.  A point that now certifies where it used to be
refused is progress; the floors on the number of certified points only ever
rise.
"""

import itertools

import numpy as np

from mlap1d import Domain, ProblemSpec, SolverConfig, make_graded_grid, solve_singular
from mlap1d.errors import MlapError

LATTICE_M = (1.2, 1.5, 2.0, 3.0, 5.0)
LATTICE_P = (0.0, 0.2, 0.5, 0.9, 1.5)
LATTICE_Q = (0.0, 0.3, 0.7, 1.0, 1.3)
DOMAINS = ("interval", "ball")
N = 1025
GRADING = 3.0

# Raise a floor when a refusal below is mended; never lower it.
MIN_CERTIFIED = 204
MIN_CERTIFIED_GRADING_4 = 204

# (domain, m, p, q) -> the typed error the point is allowed to raise.  At
# grading 4 the lattice runs a second time.
REFUSALS_GRADING_4 = {}
REFUSALS = {}

# The m = 1.2 points run once more at this finer n: there no scaled
# eigenfunction profile certifies (the flat top in barriers.auto_scale), so
# these points check that the solve's own pair needs no such profile.
FINE_N = 4097
FINE_M = 1.2
MIN_CERTIFIED_FINE = 38


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
    for refusals, floor in (
        (REFUSALS, MIN_CERTIFIED),
        (REFUSALS_GRADING_4, MIN_CERTIFIED_GRADING_4),
    ):
        assert set(refusals) <= set(admissible_lattice())
        assert len(admissible_lattice()) - len(refusals) == floor


def _check_lattice(grading, refusals, floor, n=N, points=None):
    tol = SolverConfig().picard_tol
    certified, problems = 0, []
    for d, m, p, q in admissible_lattice() if points is None else points:
        dom = Domain.ball(3) if d == "ball" else Domain.interval()
        spec = ProblemSpec(m=m, p=p, q=q, domain=dom)
        point = (d, m, p, q)
        try:
            report = solve_singular(spec, make_graded_grid(n, grading, dom))
        except MlapError as exc:
            expected = refusals.get(point)
            if expected is None or type(exc) is not expected:
                problems.append(f"{point}: unexpected {type(exc).__name__}: {exc}")
            continue
        why = _certification_failure(report, tol)
        if why is not None:
            problems.append(f"{point}: quiet wrong answer, {why}")
            continue
        certified += 1
    assert not problems, "\n".join(problems)
    assert certified >= floor


def test_every_point_certifies_or_refuses_as_recorded():
    _check_lattice(GRADING, REFUSALS, MIN_CERTIFIED)


def test_every_point_certifies_or_refuses_at_grading_4():
    _check_lattice(4.0, REFUSALS_GRADING_4, MIN_CERTIFIED_GRADING_4)


def test_small_m_points_certify_at_4097():
    points = [pt for pt in admissible_lattice() if pt[1] == FINE_M]
    assert len(points) == MIN_CERTIFIED_FINE
    _check_lattice(GRADING, {}, MIN_CERTIFIED_FINE, FINE_N, points)
