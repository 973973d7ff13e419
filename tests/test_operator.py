import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    Domain,
    GridFunction,
    apply_mlap,
    make_graded_grid,
)
from mlap1d.solver import _weighted_flux


def smooth_field(grid, seed):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=4)
    x = grid.nodes
    vals = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
    return GridFunction(grid, vals)


class TestApplyMlap:
    def test_zero_field(self):
        g = make_graded_grid(33, 2.0)
        for m in (1.5, 2.0, 3.0):
            res = apply_mlap(GridFunction(g, np.zeros(g.n)), m)
            assert np.all(res.values == 0.0)

    def test_quadratic_exactness(self):
        # second difference of a quadratic is exact: residual of x(1-x) is 2
        g = make_graded_grid(33, 1.0)
        u = GridFunction.interior_from_callable(g, lambda x: x * (1 - x))
        res = apply_mlap(u, 2.0)
        assert np.max(np.abs(res.values[1:-1] - 2.0)) < 1e-12

    def test_quadratic_exact_even_graded(self):
        g = make_graded_grid(65, 3.0)
        u = GridFunction.interior_from_callable(g, lambda x: x * (1 - x))
        res = apply_mlap(u, 2.0)
        assert np.max(np.abs(res.values[1:-1] - 2.0)) < 1e-9

    def test_sine_eigen_identity(self):
        g = make_graded_grid(257, 1.0)
        u = GridFunction.interior_from_callable(g, lambda x: np.sin(np.pi * x))
        res = apply_mlap(u, 2.0)
        exact = np.pi**2 * u.values
        rel = np.abs(res.values[1:-1] - exact[1:-1]) / np.abs(exact[1:-1]).max()
        assert rel.max() <= 1e-3

    def test_boundary_entries_zero(self):
        g = make_graded_grid(33, 2.0)
        u = smooth_field(g, 1)
        assert apply_mlap(u, 3.0).values[0] == 0.0
        assert apply_mlap(u, 3.0).values[-1] == 0.0

    def test_radial_quadratic_exact(self):
        # -div(r^2 grad u)/r^2 of (1 - r^2)/6 is exactly 1 for the
        # exact-volume finite-volume scheme, including the center cell
        g = make_graded_grid(33, 1.5, Domain.ball(3))
        u = GridFunction.interior_from_callable(g, lambda r: (1 - r**2) / 6.0)
        res = apply_mlap(u, 2.0)
        assert np.max(np.abs(res.values[:-1] - 1.0)) < 1e-12

    def test_m2_matches_three_point_laplacian(self):
        g = make_graded_grid(65, 1.0)
        u = smooth_field(g, 2)
        res = apply_mlap(u, 2.0)
        h = 1.0 / 64.0
        v = u.values
        manual = -(v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        assert np.max(np.abs(res.values[1:-1] - manual)) < 1e-10

    @given(st.integers(0, 500), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
    @settings(max_examples=25, deadline=None)
    def test_summation_by_parts(self, seed, m):
        # <apply_mlap(u), u>_V = sum of cell measure * |Du|^m
        g = make_graded_grid(48, 2.0)
        u = smooth_field(g, seed)
        lhs = float(
            np.dot(
                u.grid.cell_volumes[1:-1],
                apply_mlap(u, m).values[1:-1] * u.values[1:-1],
            )
        )
        du = np.diff(u.values) / g.h
        rhs = float(np.dot(g.cell_measures, np.abs(du) ** m))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


class TestFluxField:
    @given(st.integers(0, 1000), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, seed, m):
        g = make_graded_grid(48, 2.0)
        u = smooth_field(g, seed)
        neg = GridFunction(g, -u.values)
        f_pos = _weighted_flux(np.diff(u.values) / g.h, g.flux_weights, m, np.empty(g.n - 1))
        f_neg = _weighted_flux(np.diff(neg.values) / g.h, g.flux_weights, m, np.empty(g.n - 1))
        assert np.allclose(f_neg, -f_pos, rtol=1e-13, atol=1e-300)
