"""The solve contract over seeded random inputs.

Every admissible (m, p, q), on any domain, grid size and grading, either
raises a typed error that names its cause or returns a certified solution.
The draws are derandomized, so the suite sees the same ones on every run.
Off the chain the draws add a custom K, jittered nodes and even n, which
run the whole-grid loop and the closure search of the interval.
A few draws also run through ``mlap1d solve``, which must write the
library's answer or print its typed error.
The m -> 1 corner below once escaped as an untyped OverflowError, from the
resolution floor's lam_lo^p; it is an exhausted budget.
"""

import io
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlap1d import (
    Domain,
    Grid1D,
    ProblemSpec,
    SolverConfig,
    make_graded_grid,
    solve_singular,
)
from mlap1d.cli import main, parse_report
from mlap1d.errors import BarrierOrderViolation, MlapError, NonConvergence
from mlap1d.fieldcsv import field_csv_text

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


def budget(examples):
    """``examples`` under Hypothesis's default profile, scaled by the loaded
    profile's max_examples over the default's 100 (conftest.py)."""
    return examples * settings.default.max_examples // 100


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


@st.composite
def off_chain_draws(draw):
    """draws()'s (m, p, q, n, grading) on the interval with n made even,
    a jitter amplitude in [0, 1/3] of each node's smaller cell and the seed
    of its pattern, and K = delta^(-q) (1 + eps sin(k x)) for |eps| < 0.4
    and k in [1, 40]."""
    m, p, q, _, n, grading = draw(draws())
    jitter = draw(st.floats(0.0, 1.0 / 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    eps = draw(st.floats(-0.4, 0.4, exclude_min=True, exclude_max=True))
    k = draw(st.floats(1.0, 40.0))
    return m, p, q, n + n % 2, grading, jitter, seed, eps, k


def jittered_grid(n, grading, jitter, seed):
    """make_graded_grid's interval nodes, each interior one moved by up to
    ``jitter`` times its smaller cell: nodes stay in order for jitter < 1/2."""
    x = make_graded_grid(n, grading).nodes.copy()
    room = np.minimum(x[1:-1] - x[:-2], x[2:] - x[1:-1])
    x[1:-1] += jitter * room * np.random.default_rng(seed).uniform(-1.0, 1.0, n - 2)
    return Grid1D(x, grading)


def assert_typed(exc):
    assert type(exc) is not MlapError and str(exc)


def assert_certified_or_typed(spec, grid):
    """The contract: a typed error, with the loop's record on a failed
    solve, or a certified positive solution."""
    tol = SolverConfig().picard_tol
    try:
        rep = solve_singular(spec, grid)
    except MlapError as exc:
        assert_typed(exc)
        if isinstance(exc, (NonConvergence, BarrierOrderViolation)):
            record = exc.report
            assert record.solution.values.shape == (grid.n,)
            assert not record.converged and record.iterations >= 1
        return
    u = rep.solution.values[grid.unknown_slice]
    assert rep.converged and rep.picard_gap <= tol
    assert np.all(np.isfinite(u)) and np.all(u > 0.0)


@given(draws())
@settings(max_examples=budget(150), derandomize=True, deadline=None, database=None)
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
    assert_certified_or_typed(spec, grid)


@given(off_chain_draws())
@settings(max_examples=budget(60), derandomize=True, deadline=None, database=None)
def test_every_off_chain_draw_certifies_or_raises_a_typed_error(point):
    m, p, q, n, grading, jitter, seed, eps, k = point
    try:
        spec = ProblemSpec(
            m=m, p=p, q=q, k_low=1.0 - abs(eps), k_high=1.0 + abs(eps),
            k=lambda x, d: d ** (-q) * (1.0 + eps * np.sin(k * x)),
        )
        grid = jittered_grid(n, grading, jitter, seed)
    except MlapError as exc:
        assert_typed(exc)
        return
    assert grid.chain_start is None
    assert_certified_or_typed(spec, grid)


@given(draws())
@settings(max_examples=budget(10), derandomize=True, deadline=None, database=None)
@example(CORNER[4])  # an exhausted budget, exit 1
@example((2.0, 0.5, 0.0, 1, 1499, 5.9))  # a grid that collapses, exit 2
def test_a_draw_solved_on_the_command_line_matches_the_library(point):
    """``mlap1d solve`` writes the library solve's field and report numbers,
    or exits with the library's typed error as its one line."""
    m, p, q, dim, n, grading = point
    argv = ["solve", "--m", repr(m), "--p", repr(p), "--q", repr(q), "--n", str(n),
            "--grading", repr(grading)]
    if dim > 1:
        argv += ["--domain", "ball", "--ball-dim", str(dim)]
    error = None
    try:
        spec = ProblemSpec(m=m, p=p, q=q, domain=domain(dim))
        rep = solve_singular(spec, make_graded_grid(n, grading, spec.domain))
    except MlapError as exc:
        error = exc
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--output-dir", tmp])
        csv = Path(tmp, "solution.csv").read_bytes() if code == 0 else None
        report = Path(tmp, "solve.report").read_text(encoding="utf-8") if code == 0 else None
    if error is not None:
        what = "verification failed" if error.exit_status == 1 else "invalid input"
        assert code == error.exit_status in (1, 2)
        assert (out.getvalue(), err.getvalue()) == ("", f"{what}: {error}\n")
        return
    assert code == 0 and err.getvalue() == ""
    assert csv == field_csv_text(rep.solution).encode("ascii")
    block = parse_report(report)[0]
    assert int(block["iterations"]) == rep.iterations
    assert float(block["picard_gap"]) == rep.picard_gap
    assert float(block["barrier_c"]) == rep.barrier_c


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


def test_a_failing_hypothesis_test_shows_its_example(tmp_path):
    """Under the suite's warning filters a failing @given test prints its
    falsifying example.  Hypothesis then imports libcst, whose deprecation
    warning the filters once turned into an INTERNALERROR that ended the
    session."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@given(st.integers())\n"
        "@settings(database=None, derandomize=True)\n"
        "def test_fails(x):\n"
        "    assert x < 10\n",
        encoding="utf-8",
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
