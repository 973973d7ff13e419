import math

import numpy as np
import pytest

from mlap1d import (
    Domain,
    GridFunction,
    first_eigenpair,
    make_graded_grid,
    rayleigh_quotient,
)

from oracles import eigenvalue_closed_form, eigenvalue_shooting


class TestFirstEigenpair:
    def test_m2_interval(self):
        g = make_graded_grid(2049, 1.0)
        pair = first_eigenpair(g, 2.0)
        assert pair.eigenvalue == pytest.approx(np.pi**2, rel=1e-4)
        phi = pair.eigenfunction.values
        assert np.max(np.abs(phi - np.sin(np.pi * g.nodes))) <= 1e-4

    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_closed_form_and_shooting_oracle(self, m):
        lam_closed = eigenvalue_closed_form(m)
        lam_shoot = eigenvalue_shooting(m)
        # the two independent oracles agree tightly with each other
        assert lam_shoot == pytest.approx(lam_closed, rel=1e-9)
        g = make_graded_grid(2049, 2.0)
        pair = first_eigenpair(g, m)
        assert pair.eigenvalue == pytest.approx(lam_shoot, rel=1e-2)

    @pytest.mark.parametrize("m", [1.5, 3.0])
    @pytest.mark.parametrize("n", [1030, 1031])
    def test_eigenfunction_mirrors_exactly_off_dyadic_n(self, n, m):
        # the start field and every inverse iterate are exact mirrors on a
        # graded interval grid, so each solve takes the half-domain path
        g = make_graded_grid(n, 2.5)
        phi = first_eigenpair(g, m).eigenfunction.values
        assert np.array_equal(phi, phi[::-1])

    def test_normalization_exact(self):
        g = make_graded_grid(257, 2.0)
        pair = first_eigenpair(g, 2.5)
        assert pair.eigenfunction.values.max() == 1.0

    def test_positivity_and_unimodality(self):
        g = make_graded_grid(513, 2.0)
        for m in (1.5, 2.0, 3.0):
            pair = first_eigenpair(g, m)
            phi = pair.eigenfunction.values
            assert np.all(phi[1:-1] > 0)
            signs = np.sign(np.diff(phi))
            flips = np.count_nonzero(np.diff(signs[signs != 0]) != 0)
            assert flips == 1  # exactly one interior maximum

    def test_rayleigh_minimality(self):
        g = make_graded_grid(513, 1.0)
        for m in (2.0, 3.0):
            pair = first_eigenpair(g, m)
            for f in (lambda x: np.sin(np.pi * x), lambda x: x * (1 - x)):
                trial = GridFunction.interior_from_callable(g, f)
                assert pair.eigenvalue <= rayleigh_quotient(trial, m) * (1 + 1e-9)

    def test_residual_small(self):
        g = make_graded_grid(1025, 1.0)
        pair = first_eigenpair(g, 2.0)
        assert pair.residual <= 1e-4 * pair.eigenvalue

    def test_radial_m2(self):
        # first radial eigenpair of the Laplacian in the unit ball (N = 3):
        # phi = sin(pi r)/(pi r), lambda = pi^2
        g = make_graded_grid(2049, 1.0, Domain.ball(3))
        pair = first_eigenpair(g, 2.0)
        assert pair.eigenvalue == pytest.approx(np.pi**2, rel=1e-3)
        r = g.nodes[1:-1]
        sinc = np.sin(np.pi * r) / (np.pi * r)
        assert np.max(np.abs(pair.eigenfunction.values[1:-1] - sinc)) <= 1e-3
        assert pair.eigenfunction.values[0] == pytest.approx(1.0, abs=1e-6)


def test_exhausted_budget_raises(monkeypatch):
    import mlap1d.eigen
    from mlap1d.errors import NonConvergence

    monkeypatch.setattr(mlap1d.eigen, "MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match="eigen iteration did not settle in 1 steps"):
        first_eigenpair(make_graded_grid(129, 1.0), 2.0)


def test_start_field_overflow_stays_inside_the_iteration():
    # at m = 1000 the start field's quotient overflows double precision, and
    # no iterate's does: the eigenpair is returned without a warning
    pair = first_eigenpair(make_graded_grid(1025, 3.0), 1000.0)
    assert math.isfinite(pair.eigenvalue) and pair.eigenvalue > 1e303
    assert math.isfinite(pair.residual)


def test_iterate_overflow_is_a_domain_error(monkeypatch):
    # at m = 3000 every quotient overflows; the first iterate's stops the
    # iteration, which would otherwise spend its budget and blame it
    import mlap1d.eigen
    from mlap1d.errors import DomainError

    solves = []
    solve = mlap1d.eigen.solve_dirichlet
    monkeypatch.setattr(mlap1d.eigen, "solve_dirichlet", lambda *a: solves.append(a) or solve(*a))
    why = "^the Rayleigh quotient overflows double precision at m = 3000$"
    with pytest.raises(DomainError, match=why):
        first_eigenpair(make_graded_grid(1025, 3.0), 3000.0)
    assert len(solves) == 1
