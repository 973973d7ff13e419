"""The field CSV writer produces exactly the bytes of per-value ``%.17g``."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlap1d
from mlap1d import fieldcsv
from mlap1d.core import Domain, Grid1D, GridFunction, ProblemSpec, make_graded_grid
from mlap1d.eigen import first_eigenpair
from mlap1d.fieldcsv import field_csv_text, write_field_csv
from mlap1d.solver import solve_singular

from test_cli import _reference_field_csv


def _reference_rows(table):
    return "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in table.tolist())


def _rows_text(table):
    table = np.asarray(table, dtype=np.float64).reshape(-1, 4)
    return b"".join(fieldcsv._blocks(table.T)).decode("ascii")


_TINY = np.finfo(np.float64).smallest_normal
_HUGE = np.finfo(np.float64).max

# value and, where the layout is the point of the case, its expected text
EDGE_CASES = [
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (_TINY, "2.2250738585072014e-308"),
    (np.nextafter(_TINY, 0.0), "2.2250738585072009e-308"),
    (_HUGE, "1.7976931348623157e+308"),
    (-_HUGE, "-1.7976931348623157e+308"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (np.nextafter(1e17, 0.0), "99999999999999984"),
    (1e-5, "1.0000000000000001e-05"),
    (1e-4, "0.0001"),
    (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
    # an exact tie of the 17-digit rounding, which goes to the even digit
    (2.0**-25, "2.9802322387695312e-08"),
]

# Values whose y = |x|·10^(16−X) lies within 2^-50 of a half-integer without
# being one, found by an exact modular search. The double-double estimate of
# y cannot tell on which side of the tie they fall.
NEAR_TIES = [
    2.2587466892102073e-308,
    3.015257775353347e-240,
    9.607267928150316e-160,
    4.596412561524038e-80,
    2.1647493794121965e-40,
    9.039362603591881e39,
    2.711176770832212e160,
    5.484593727308337e280,
]


# decimal exponents of every fixed/scientific switch and point position, and
# some with three digits
CORNER_EXPONENTS = list(range(-5, 18)) + [-308, -300, -123, -100, 100, 250, 308]


def _corner_value(exponent, zeros):
    """A positive double whose %.17g has decimal exponent ``exponent`` and
    exactly ``zeros`` trailing zeros among its 17 significant digits, or None
    if none of the significands tried has a double that prints as itself."""
    width = 17 - zeros
    low, high = 10 ** (width - 1), 10**width
    for lead in range(low + 1, high, max(1, (high - low) // 997)):
        if lead % 10:
            digits = str(lead) + "0" * zeros
            text = f"{digits[0]}.{digits[1:]}e{exponent:+03d}"
            value = float(text)
            if "%.16e" % value == text:
                return value
    return None


def test_power_rows_are_exact_for_every_exponent():
    for i in range(2 * fieldcsv._X_MAX + 1):
        hi, hh, hl, lo, shift = fieldcsv._power(i)
        s = int(np.float64(shift).view(np.int64)) >> 52
        power = Fraction(10) ** (16 + fieldcsv._X_MAX - i)
        assert 1 <= hi < 2 and hh + hl == hi
        assert abs((Fraction(hi) + Fraction(lo)) * Fraction(2) ** s - power) < power / 2**100


class TestLayoutCorners:
    """Every point position and trailing-zero count, which random draws
    rarely reach."""

    @pytest.mark.parametrize("exponent", CORNER_EXPONENTS)
    def test_every_trailing_zero_count_and_sign(self, exponent):
        values = [_corner_value(exponent, zeros) for zeros in range(17)]
        # only a lone digit d·10^X may have no double that prints as itself
        assert None not in values[:16]
        row = np.array([s * v for v in values if v is not None for s in (1.0, -1.0)])
        # each value once in each column: before a comma and before a newline
        table = row[(np.arange(row.size)[:, None] + np.arange(4)) % row.size]
        assert _rows_text(table) == _reference_rows(table)


class TestByteIdentity:
    @given(st.lists(st.tuples(*[st.integers(0, 2**64 - 1)] * 4), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bit_patterns(self, rows):
        table = np.array(rows, dtype=np.uint64).view(np.float64)
        assert _rows_text(table) == _reference_rows(table)

    @given(st.lists(st.tuples(*[st.floats(width=64)] * 4), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_floats(self, rows):
        table = np.array(rows, dtype=np.float64)
        assert _rows_text(table) == _reference_rows(table)

    @pytest.mark.parametrize("value,text", EDGE_CASES, ids=[t for _, t in EDGE_CASES])
    def test_edge_case(self, value, text):
        assert "%.17g" % value == text
        row = [value, -value, value, -value]
        assert _rows_text(row) == _reference_rows(np.array([row]))

    @pytest.mark.parametrize("value", NEAR_TIES, ids=repr)
    def test_near_tie(self, value):
        exponent = math.floor(math.log10(value))
        y = Fraction(value) * Fraction(10) ** (16 - exponent)
        distance = abs(y - math.floor(y) - Fraction(1, 2))
        assert 0 < distance < Fraction(1, 2**50)
        row = [value, -value, value / 2, value * 2]
        assert _rows_text(row) == _reference_rows(np.array([row]))

    @pytest.mark.parametrize(
        "rows",
        [1, fieldcsv.ROWS_PER_BLOCK, 2 * fieldcsv.ROWS_PER_BLOCK + 1],
        ids=["one-row", "one-block", "two-blocks-and-a-row"],
    )
    def test_block_boundaries(self, rows):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-20, 20, (rows, 4))
        table[0, 0] = 0.0
        table[-1, -1] = -0.0
        text = _rows_text(table)
        assert text == _reference_rows(table)
        assert text.count("\n") == rows

    def test_blocks_whose_exponents_leave_gaps(self):
        # decimal exponents 0 and 2 only: every block after the first finds
        # an unused exponent between them and nothing new to build
        rows = 2 * fieldcsv.ROWS_PER_BLOCK + 1
        table = np.resize([1.5, -150.25, 3.0, 999.5, 7.125], 4 * rows).reshape(rows, 4)
        assert _rows_text(table) == _reference_rows(table)


class TestWorkloadFields:
    """Solutions shaped like the benchmark's: n near 16385, grading 3."""

    @pytest.mark.parametrize("n", [16390, 16391])
    @pytest.mark.parametrize("domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"])
    @pytest.mark.parametrize("m,p,q", [(3.0, 1.5, 0.3), (1.5, 0.2, 0.7)])
    def test_solution_csv_bytes_and_round_trip(self, m, p, q, domain, n, tmp_path):
        grid = make_graded_grid(n, 3.0, domain)
        u = solve_singular(ProblemSpec(m=m, p=p, q=q, domain=domain), grid).solution
        text = field_csv_text(u)
        assert text == _reference_field_csv(u)
        path = tmp_path / "solution.csv"
        write_field_csv(path, u)
        assert path.read_text(encoding="utf-8") == text
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(table[:, 2], u.values)

    @pytest.mark.parametrize("n", [16389, 16390])
    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_interval_eigenfunction_csv_bytes(self, m, n):
        u = first_eigenpair(make_graded_grid(n, 3.0), m).eigenfunction
        assert field_csv_text(u) == _reference_field_csv(u)


ROWS = fieldcsv.ROWS_PER_BLOCK


class TestMirrorFields:
    """Fields equal to their reverse, exactly and one ulp off, across block
    boundaries."""

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, 2 * ROWS + 1, 2 * ROWS + 2])
    def test_exact_mirror_across_block_boundaries(self, n):
        grid = make_graded_grid(n, 3.0)
        u = GridFunction(grid, grid.delta_nodes**0.4)
        assert field_csv_text(u) == _reference_field_csv(u)

    @pytest.mark.parametrize("n", [2 * ROWS + 1, 2 * ROWS + 2])
    @pytest.mark.parametrize(
        "node", [1, ROWS // 2 - 1, ROWS // 2, ROWS, -ROWS // 2 - 1, -ROWS // 2, -2]
    )
    def test_one_ulp_off_in_u(self, n, node):
        grid = make_graded_grid(n, 3.0)
        values = grid.delta_nodes**0.4
        values[node] = np.nextafter(values[node], 1.0)
        u = GridFunction(grid, values)
        assert field_csv_text(u) == _reference_field_csv(u)

    @pytest.mark.parametrize("n", [2 * ROWS + 1, 2 * ROWS + 2])
    @pytest.mark.parametrize("node", [ROWS // 2, ROWS - 1, -ROWS // 2 - 1])
    def test_one_ulp_off_in_the_nodes(self, n, node):
        # nodes given directly: delta = min(x, 1 − x), so one nudged node
        # breaks the mirror of delta, and on the left half x = delta still
        nodes = make_graded_grid(n, 3.0).nodes.copy()
        nodes[node] = np.nextafter(nodes[node], 1.0)
        grid = Grid1D(nodes, 3.0)
        u = GridFunction(grid, np.sin(np.pi * nodes))
        assert field_csv_text(u) == _reference_field_csv(u)


def test_asymmetric_field_file_across_block_boundaries(tmp_path):
    # the generic path, two full blocks and a row, through the file writer:
    # du is taken block by block, with both endpoints in their own blocks
    n = 2 * fieldcsv.ROWS_PER_BLOCK + 1
    inner = np.sort(np.random.default_rng(n).random(n - 2))
    grid = Grid1D(np.concatenate(([0.0], inner, [1.0])), 1.0)
    u = GridFunction(grid, np.sin(np.pi * grid.nodes))
    assert not np.array_equal(grid.nodes, 1.0 - grid.nodes[::-1])
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    assert path.read_bytes() == _reference_field_csv(u).encode("ascii")


def _write_peak(u, tmp_path):
    """The traced peak of a second write of ``u``, in MiB: the first builds
    the formatter's tables."""
    write_field_csv(tmp_path / "warm.csv", u)
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "field.csv", u)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _power_field(n, domain):
    grid = make_graded_grid(n, 3.0, domain)
    return GridFunction(grid, grid.delta_nodes**0.4)


def test_write_peak_memory(tmp_path):
    # On this field (2 CPUs, Python 3.11.7, numpy 2.4.6) one %-format over
    # all rows peaked at 4.65 MiB, and the blocks joined or held in a list at
    # 3.70 MiB. Written block by block the writer peaks at 1.96 MiB: one
    # block's work arrays and text.
    assert _write_peak(_power_field(16385, Domain.interval()), tmp_path) < 2.06


def test_ball_write_peak_memory(tmp_path):
    # 4.81 MiB with the whole text and a copy of the field held, 1.98 MiB
    # block by block (the same host)
    assert _write_peak(_power_field(16385, Domain.ball(3)), tmp_path) < 2.08


@pytest.mark.parametrize("domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"])
def test_write_peak_does_not_grow_with_n(domain, tmp_path):
    # one block at a time: from n = 16385 to 65537 the ball's peak grew by
    # 7.9 MiB while the whole text was held, and the interval's by 1.9 MiB
    # while its right half's text was held; by 0.02 MiB or less block by block
    small = _write_peak(_power_field(16385, domain), tmp_path)
    assert _write_peak(_power_field(65537, domain), tmp_path) < small + 0.5


def test_cli_import_loads_no_scipy_fractions_or_decimal():
    code = (
        "import sys, mlap1d.cli; "
        "print(','.join(m for m in ('scipy', 'fractions', 'decimal') if m in sys.modules))"
    )
    src = str(Path(mlap1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    assert out.stdout.strip() == ""


def test_log_fits_load_no_scipy(tmp_path):
    # the log-profile fit of fit-exponent and of E2's claim runs on numpy alone
    code = (
        "import sys, mlap1d.cli as cli; "
        "cli.main(['fit-exponent', '--fit-kind', 'logaffine', '--m', '2', '--p', '0.5', "
        f"'--q', '0.5', '--n', '2049', '--output-dir', {str(tmp_path / 'fit')!r}]); "
        "cli.main(['reproduce-theorem1', '--matrix', 'E2', "
        f"'--output-dir', {str(tmp_path / 'r')!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "[]"
    assert (tmp_path / "fit" / "fit.report").is_file()
    assert (tmp_path / "r" / "reproduce.report").is_file()


def _fresh_interpreter(code):
    """Standard output of ``code`` run by a new interpreter on this mlap1d."""
    src = str(Path(mlap1d.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env
    )
    return out.stdout


def test_commands_without_a_field_build_no_formatter_tables(tmp_path):
    code = (
        "import mlap1d.cli as cli, mlap1d.fieldcsv as f; "
        "built = lambda: f._tables.cache_info().currsize + f._power.cache_info().currsize; "
        "print(built()); "
        "cli.main(['classify', '--m', '2', '--p', '0.5', '--q', '1']); "
        f"cli.main(['reproduce-theorem1', '--output-dir', {str(tmp_path)!r}]); "
        "print(built())"
    )
    out = _fresh_interpreter(code).split()
    assert out[0] == "0" and out[-1] == "0"
