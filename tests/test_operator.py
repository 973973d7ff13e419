import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    Domain,
    GridFunction,
    apply_mlap,
    energy,
    make_graded_grid,
)
from mlap1d.errors import GridMismatch
from mlap1d.operator import flux_of_gradient

from oracles import quad_integral


def smooth_field(grid, seed, dirichlet=True):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=4)
    x = grid.nodes
    vals = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
    return GridFunction(grid, vals if dirichlet else vals + 2.0)


class TestApplyMlap:
    def test_zero_field(self):
        g = make_graded_grid(33, 2.0)
        for m in (1.5, 2.0, 3.0):
            res = apply_mlap(GridFunction.zeros(g), m)
            assert np.all(res.values == 0.0)

    def test_quadratic_exactness(self):
        # second difference of a quadratic is exact: residual of x(1-x) is 2
        g = make_graded_grid(33, 1.0)
        u = GridFunction.from_callable(g, lambda x: x * (1 - x), dirichlet=True)
        res = apply_mlap(u, 2.0)
        assert np.max(np.abs(res.values[1:-1] - 2.0)) < 1e-12

    def test_quadratic_exact_even_graded(self):
        g = make_graded_grid(65, 3.0)
        u = GridFunction.from_callable(g, lambda x: x * (1 - x), dirichlet=True)
        res = apply_mlap(u, 2.0)
        assert np.max(np.abs(res.values[1:-1] - 2.0)) < 1e-9

    def test_sine_eigen_identity(self):
        g = make_graded_grid(257, 1.0)
        u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x), dirichlet=True)
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
        u = GridFunction.from_callable(g, lambda r: (1 - r**2) / 6.0, dirichlet=True)
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


class TestFluxField:
    @given(st.integers(0, 1000), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, seed, m):
        g = make_graded_grid(48, 2.0)
        u = smooth_field(g, seed)
        neg = GridFunction(g, -u.values)
        f_pos = flux_of_gradient(np.diff(u.values) / g.h, m)
        f_neg = flux_of_gradient(np.diff(neg.values) / g.h, m)
        assert np.allclose(f_neg, -f_pos, rtol=1e-13, atol=1e-300)


class TestEnergy:
    def test_zero_field(self):
        g = make_graded_grid(33, 2.0)
        theta = smooth_field(g, 3, dirichlet=False)
        assert energy(GridFunction.zeros(g), theta, 3.0) == 0.0

    def test_quadratic_minimum_value(self):
        # at the minimizer of -u'' = 2: E = int (1/2) u'^2 - 2u = -1/6
        g = make_graded_grid(2049, 1.0)
        u = GridFunction.from_callable(g, lambda x: x * (1 - x), dirichlet=True)
        theta = GridFunction(g, np.full(g.n, 2.0))
        e = energy(u, theta, 2.0)
        exact = quad_integral(lambda x: 0.5 * (1 - 2 * x) ** 2 - 2 * x * (1 - x))
        assert exact == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert e == pytest.approx(exact, abs=1e-4)

    def test_convexity_probe(self):
        g = make_graded_grid(129, 1.0)
        u = GridFunction.from_callable(g, lambda x: x * (1 - x), dirichlet=True)
        theta = GridFunction(g, np.full(g.n, 2.0))
        e0 = energy(u, theta, 2.0)
        for seed in range(3):
            v = smooth_field(g, seed)
            for t in (1e-3, -1e-3):
                assert energy(GridFunction(g, u.values + t * v.values), theta, 2.0) >= e0

    def test_grid_mismatch(self):
        g1, g2 = make_graded_grid(33, 1.0), make_graded_grid(65, 1.0)
        with pytest.raises(GridMismatch):
            energy(GridFunction.zeros(g1), GridFunction.zeros(g2), 2.0)

    @given(st.integers(0, 500), st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_directional_derivative_consistency(self, seed, m):
        # (E(u+tv) - E(u-tv)) / 2t matches <apply_mlap(u) - theta, v>_V
        g = make_graded_grid(64, 1.5)
        u = smooth_field(g, seed)
        v = smooth_field(g, seed + 7)
        theta = GridFunction(g, np.ones(g.n))
        t = 1e-6
        up = GridFunction(g, u.values + t * v.values)
        um = GridFunction(g, u.values - t * v.values)
        fd = (energy(up, theta, m) - energy(um, theta, m)) / (2 * t)
        resid = apply_mlap(u, m).values - theta.values
        pairing = float(np.dot(g.cell_volumes[1:-1], resid[1:-1] * v.values[1:-1]))
        scale = max(1.0, abs(fd))
        assert abs(fd - pairing) <= 1e-7 * scale

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
        rhs = float(np.dot(g.interval_weights, np.abs(du) ** m))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)
