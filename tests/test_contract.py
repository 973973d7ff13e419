"""The solve contract over seeded random inputs.

Every admissible (m, p, q), on any domain, grid size and grading, either
raises a typed error that names its cause or returns a certified solution.
The draws are derandomized, so the suite sees the same ones on every run.
The m -> 1 corner below once escaped as an untyped OverflowError, from the
resolution floor's lam_lo^p; it is an exhausted budget.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlap1d import Domain, ProblemSpec, SolverConfig, make_graded_grid, solve_singular
from mlap1d.cli import main
from mlap1d.errors import BarrierOrderViolation, MlapError, NonConvergence

# (m, p, q, N, n, grading) where lam_lo^p overflowed: the lattice points
# m = 1.05, q = 0 and p >= 2.5 at n = 129 and 1025, and a seeded random draw
CORNER = [
    (1.05, 2.5, 0.0, 1, 1025, 3.0),
    (1.05, 2.5, 0.0, 3, 1025, 3.0),
    (1.05, 3.0, 0.0, 1, 1025, 3.0),
    (1.05, 3.0, 0.0, 3, 1025, 3.0),
    (1.05, 4.0, 0.0, 1, 129, 3.0),
    (1.05, 4.0, 0.0, 1, 1025, 3.0),
    (1.05, 4.0, 0.0, 3, 129, 3.0),
    (1.05, 4.0, 0.0, 3, 1025, 3.0),
    (1.0262353396547657, 2.0775368845773423, 0.09087179281940178, 6, 990, 3.4997751120559695),
]


def domain(dim):
    return Domain.interval() if dim == 1 else Domain.ball(dim)


@st.composite
def draws(draw):
    """m log-uniform on [1.02, 30]; p = 0 or uniform below min(4, the q = 0
    edge); q uniform below the admissibility edge; N in {1, 2, 3, 6};
    n in [16, 1500) and grading in [1, 6)."""
    m = math.exp(draw(st.floats(math.log(1.02), math.log(30.0))))
    p_max = min(4.0, (2.0 * m - 1.0) / (m - 1.0))
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, p_max, exclude_max=True)))
    q = draw(st.floats(0.0, 1.0, exclude_max=True)) * (2.0 - (1.0 - p) / m - p)
    dim = draw(st.sampled_from([1, 2, 3, 6]))
    n = draw(st.integers(16, 1499))
    grading = draw(st.floats(1.0, 6.0, exclude_max=True))
    return m, p, q, dim, n, grading


def assert_typed(exc):
    assert type(exc) is not MlapError and str(exc)


@given(draws())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@example(CORNER[0])
@example(CORNER[1])
@example(CORNER[2])
@example(CORNER[3])
@example(CORNER[4])
@example(CORNER[5])
@example(CORNER[6])
@example(CORNER[7])
def test_every_draw_certifies_or_raises_a_typed_error(point):
    m, p, q, dim, n, grading = point
    try:
        spec = ProblemSpec(m=m, p=p, q=q, domain=domain(dim))
        grid = make_graded_grid(n, grading, spec.domain)
    except MlapError as exc:
        assert_typed(exc)
        return
    tol = SolverConfig().picard_tol
    try:
        rep = solve_singular(spec, grid)
    except MlapError as exc:
        assert_typed(exc)
        if isinstance(exc, (NonConvergence, BarrierOrderViolation)):
            record = exc.report
            assert record.solution.values.shape == (n,)
            assert not record.converged and record.iterations >= 1
        return
    u = rep.solution.values[grid.unknown_slice]
    assert rep.converged and rep.picard_gap <= tol
    assert np.all(np.isfinite(u)) and np.all(u > 0.0)


@pytest.mark.parametrize("point", CORNER)
def test_the_m_to_1_corner_exhausts_the_budget(point):
    m, p, q, dim, n, grading = point
    spec = ProblemSpec(m=m, p=p, q=q, domain=domain(dim))
    with pytest.raises(NonConvergence, match="singular iteration budget exhausted") as err:
        solve_singular(spec, make_graded_grid(n, grading, spec.domain))
    assert err.value.report.iterations == SolverConfig().max_picard_iters


def test_the_m_to_1_corner_fails_verification_on_the_command_line(tmp_path, capsys):
    args = ["solve", "--m", "1.05", "--p", "3", "--q", "0", "--n", "1025"]
    assert main(args + ["--output-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: singular iteration budget exhausted")
