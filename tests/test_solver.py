import ast
import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    Domain,
    Grid1D,
    GridFunction,
    ProblemSpec,
    SolverConfig,
    apply_mlap,
    k_values,
    make_graded_grid,
    solve_dirichlet,
    solve_singular,
)
from mlap1d import repro, solver
from mlap1d.errors import (
    BarrierOrderViolation,
    GridMismatch,
    InvalidConfig,
    MlapError,
    NonConvergence,
    NonFiniteTheta,
)
from mlap1d.solver import RESIDUAL_TOL

from oracles import node_graded_nodes, torsion_exact
from peaks import traced_peak


def const_theta(grid, value):
    return GridFunction(grid, np.full(grid.n, float(value)))


def kernel_spy(monkeypatch):
    """Record (k, number of scratch rows) of every call to the Dirichlet
    kernel: k is None on the whole grid."""
    solves, solve_into = [], solver._solve_into
    monkeypatch.setattr(
        solver, "_solve_into", lambda *a: solves.append((a[3], len(a[6]))) or solve_into(*a)
    )
    return solves


def node_graded_grid(n, grading):
    """A graded interval grid built from its nodes, which at these n is not
    an exact mirror, so its problems take the closure search."""
    return Grid1D(nodes=node_graded_nodes(n, grading), grading_exponent=grading)


class TestSolveDirichlet:
    def test_non_finite_theta_is_a_typed_value_error(self):
        g = make_graded_grid(33, 1.0)
        theta = const_theta(g, 1.0).values.copy()
        theta[5] = np.inf
        with pytest.raises(NonFiniteTheta, match="theta must be finite") as info:
            solve_dirichlet(GridFunction(g, theta), 2.0)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "bad, start", [(np.inf, 32), (np.nan, None)], ids=["inf-mirror", "nan"]
    )
    def test_nonfinite_theta_on_either_path(self, bad, start, monkeypatch):
        # a chain reads theta from its first node k on only: infs at a
        # left-half node and its mirror image keep theta a mirror, and the
        # chain meets the right one; a NaN at one node breaks the mirror
        # and the closure path meets it
        g = make_graded_grid(65, 3.0)
        theta = const_theta(g, 1.0).values.copy()
        theta[5] = bad
        if start is not None:
            theta[-6] = bad
        solves = kernel_spy(monkeypatch)
        with pytest.raises(NonFiniteTheta, match="^theta must be finite at the unknown nodes$"):
            solve_dirichlet(GridFunction(g, theta), 2.0)
        assert solves == [(start, 4 if start is not None else 5)]

    def test_m2_quadratic_exact(self):
        g = make_graded_grid(33, 1.0)
        rep = solve_dirichlet(const_theta(g, 2.0), 2.0)
        exact = g.nodes * (1 - g.nodes)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-10

    def test_m3_torsion(self):
        # both grids are exact mirrors (half-domain path): n = 1025 has a
        # centre node and n = 1026 a centre cell
        for n in (1025, 1026):
            g = make_graded_grid(n, 2.0)
            rep = solve_dirichlet(const_theta(g, 1.0), 3.0)
            exact = torsion_exact(3.0, g.nodes)
            assert np.max(np.abs(rep.solution.values - exact)) <= 5e-4
            peak = rep.solution.values.max()
            assert peak == pytest.approx((2.0 / 3.0) * 0.5**1.5, abs=5e-4)

    def test_m5_torsion_even_n(self):
        # n = 1026 puts the flux zero inside the centre cell, where phi^(-1)
        # has an infinite slope for m > 2; nodes built from x are not an
        # exact mirror there, so the closure search runs
        g = node_graded_grid(1026, 2.0)
        rep = solve_dirichlet(const_theta(g, 1.0), 5.0)
        assert rep.iterations > 0
        exact = torsion_exact(5.0, g.nodes)
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-5

    def test_m2_sine_recovery(self):
        g = make_graded_grid(257, 1.0)
        theta = GridFunction.interior_from_callable(
            g, lambda x: np.pi**2 * np.sin(np.pi * x)
        )
        rep = solve_dirichlet(theta, 2.0)
        err = np.max(np.abs(rep.solution.values - np.sin(np.pi * g.nodes)))
        assert err <= 1e-4  # O(h^2) at h = 1/256

    def test_converged_respects_tolerance(self):
        g = make_graded_grid(129, 2.0)
        rep = solve_dirichlet(const_theta(g, 1.0), 2.5)
        assert rep.converged and rep.final_residual <= RESIDUAL_TOL

    @pytest.mark.parametrize(
        "grid,theta",
        [(lambda: make_graded_grid(65, 1.0), 1e100), (lambda: node_graded_grid(66, 1.0), 1e80)],
        ids=["mirror", "closure"],
    )
    def test_overflow_to_nan_fails_the_check(self, grid, theta):
        # at m = 1.2 these loads overflow Du, and u turns NaN; a NaN residual
        # must fail the check, not read as 0
        g = grid()
        # the solve ignores the warnings of its own overflow
        with pytest.raises(NonConvergence, match="residual nan") as err:
            solve_dirichlet(const_theta(g, theta), 1.2)
        rep = err.value.report
        assert not rep.converged and np.isnan(rep.final_residual)
        assert np.isnan(rep.solution.values).any()
        assert (rep.iterations == 0) == (g.chain_start is not None)

    def test_nonconvergence_carries_partial_state(self, monkeypatch):
        # a residual check no solution can pass must raise with the report
        import mlap1d.solver as S

        monkeypatch.setattr(S, "RESIDUAL_TOL", -1.0)
        g = make_graded_grid(257, 2.0)
        with pytest.raises(NonConvergence) as err:
            solve_dirichlet(const_theta(g, 1.0), 3.0)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.report.final_residual >= 0.0
        assert err.value.report.solution.values.shape == (g.n,)

    def test_ball_torsion_small_m(self):
        # the flux r^(N-1) |u'|^(m-2) u' = -r^N / N is exact at every
        # midpoint, so u matches (m-1)/m N^(-1/(m-1)) (1 - r^(m/(m-1)))
        # up to the midpoint-rule error
        m, dim = 1.2, 3
        g = make_graded_grid(4097, 2.0, Domain.ball(dim))
        rep = solve_dirichlet(const_theta(g, 1.0), m)
        assert rep.converged
        mp = m / (m - 1.0)
        exact = (m - 1.0) / m * dim ** (-1.0 / (m - 1.0)) * (1.0 - g.nodes**mp)
        err = np.max(np.abs(rep.solution.values - exact))
        assert err <= 1e-5 * exact.max()

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_homogeneity(self, m, c):
        # solve(c^(m-1) theta) = c * solve(theta)
        g = make_graded_grid(129, 1.5)
        theta = GridFunction.interior_from_callable(
            g, lambda x: 1.0 + np.sin(np.pi * x)
        )
        base = solve_dirichlet(theta, m).solution.values
        scaled = solve_dirichlet(
            GridFunction(g, c ** (m - 1.0) * theta.values), m
        ).solution.values
        assert np.max(np.abs(scaled - c * base)) <= 1e-7 * c * np.max(np.abs(base))

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
    def test_comparison_principle(self, m):
        g = make_graded_grid(129, 1.5)
        rng = np.random.default_rng(42)
        for _ in range(3):
            base = rng.uniform(0.2, 1.0, size=g.n)
            bump = rng.uniform(0.0, 1.0, size=g.n)
            th1 = GridFunction(g, base)
            th2 = GridFunction(g, base + bump)
            u1 = solve_dirichlet(th1, m).solution.values
            u2 = solve_dirichlet(th2, m).solution.values
            assert np.all(u1 <= u2 + 1e-9)

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 4.0])
    def test_refinement_order_at_least_one(self, m):
        errs = []
        for n in (257, 513, 1025):
            g = make_graded_grid(n, 2.0)
            if m == 2.0:
                # m = 2 torsion is quadratic (exact on every grid); use the
                # sine manufactured solution to see the discretization order
                theta = GridFunction.interior_from_callable(
                    g, lambda x: np.pi**2 * np.sin(np.pi * x)
                )
                exact = np.sin(np.pi * g.nodes)
            else:
                theta = const_theta(g, 1.0)
                exact = torsion_exact(m, g.nodes)
            rep = solve_dirichlet(theta, m)
            errs.append(np.max(np.abs(rep.solution.values - exact)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert min(order1, order2) >= 1.0


def dyadic_mirror_grid():
    """An even-n interval grid whose nodes are dyadic, so x and 1 - x, the
    midpoints and every difference are exact and the grid mirrors exactly."""
    t = np.linspace(0.0, 1.0, 33)[:32]
    left = np.round(0.5 * t**2 * 2.0**20) / 2.0**20
    return Grid1D(nodes=np.concatenate((left, 1.0 - left[::-1])), grading_exponent=2.0)


class TestMirrorSymmetricSolve:
    GRIDS = {
        "n1025": lambda: make_graded_grid(1025, 3.0),
        "n64-dyadic": dyadic_mirror_grid,
    }

    @staticmethod
    def symmetric_theta(g):
        # computed from delta, which is exactly symmetric on these grids
        vals = np.zeros(g.n)
        vals[1:-1] = 1.0 + g.delta_nodes[1:-1] ** -0.7
        return GridFunction(g, vals)

    @pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 2.05, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_matches_the_closure_path(self, grid, m):
        g = self.GRIDS[grid]()
        assert g.chain_start == (g.n - 1) // 2
        theta = self.symmetric_theta(g)
        rep = solve_dirichlet(theta, m)
        u = rep.solution.values
        assert rep.iterations == 0
        assert np.array_equal(u, u[::-1])
        # one ulp on one load breaks the symmetry and forces the root search
        nudged = theta.values.copy()
        i = g.n // 3
        nudged[i] = np.nextafter(nudged[i], np.inf)
        general = solve_dirichlet(GridFunction(g, nudged), m)
        assert general.iterations > 0
        assert np.max(np.abs(general.solution.values - u)) <= 1e-13 * u.max()

    def test_asymmetric_theta_takes_the_closure_path(self):
        g = make_graded_grid(1025, 3.0)
        theta = GridFunction.interior_from_callable(g, lambda x: 1.0 + x)
        rep = solve_dirichlet(theta, 3.0)
        assert rep.converged and rep.iterations > 0

    @staticmethod
    def check_half_grid_residual(g, monkeypatch):
        # a mirror-symmetric solve checks its residual from the centre node
        # on; the value must be the full grid's to the last bit
        assert g.chain_start == (g.n - 1) // 2
        check = solver._scaled_residual
        firsts = []
        rows = np.empty((4, g.n))

        def spy(grid, u, m, loads, theta_vals, first, rows):
            firsts.append(first)
            return check(grid, u, m, loads, theta_vals, first, rows)

        def replay(v, m, first=1):  # from node 1 on: the whole grid's
            with np.errstate(divide="ignore"):
                return check(g, v, m, loads[first:], theta.values[first:], first, rows)

        monkeypatch.setattr(solver, "_scaled_residual", spy)
        # two symmetric perturbations: a smooth one, and one at the centre
        # node(s), where the largest residual then sits
        bump = 1e-6 * (g.nodes + g.nodes[::-1] * g.nodes[::-1])
        bumps = [bump + bump[::-1], np.zeros(g.n)]
        bumps[1][(g.n - 1) // 2 : g.n // 2 + 1] = 1e-6
        for a in (0.0, 0.7, 1.3):  # theta = 1, delta^-0.7, delta^-1.3
            theta = GridFunction.interior_from_callable(g, lambda x: g.domain.delta(x) ** -a)
            loads = g.cell_volumes * theta.values
            for m in (1.2, 1.5, 2.0, 3.0, 5.0):
                rep = solve_dirichlet(theta, m)
                u = rep.solution.values
                assert rep.iterations == 0
                assert rep.final_residual == replay(u, m)
                # the solve's residual is 0 here, so its check is replayed on
                # symmetric u's with residuals well above the noise too
                for b in bumps:
                    v = u * (1.0 + b)
                    assert np.array_equal(v, v[::-1])
                    half = replay(v, m, firsts[-1])
                    assert half == replay(v, m) > 0.0

    @pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2**k + 1 for k in range(6, 15)])
    def test_half_grid_residual_is_the_full_one(self, n, grading, monkeypatch):
        self.check_half_grid_residual(make_graded_grid(n, grading), monkeypatch)

    def test_half_grid_residual_is_the_full_one_at_even_n(self, monkeypatch):
        self.check_half_grid_residual(dyadic_mirror_grid(), monkeypatch)


class TestClosureSearch:
    """The one root search of interval problems that are not exact mirrors."""

    @staticmethod
    def near_symmetric_thetas(g):
        sl = g.unknown_slice
        flat = np.zeros(g.n)
        flat[sl] = 1.0
        singular = np.zeros(g.n)
        singular[sl] = 1.0 + g.delta_nodes[sl] ** -0.7
        return flat, singular

    @pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 2.05, 2.5, 3.0, 5.0, 8.0])
    def test_near_symmetric_loads_take_few_evaluations(self, m):
        # the m = 2 root starts the search in or next to the peak cell, and
        # a step that keeps that cell exact lands on the root
        for n in (1026, 1027, 4098, 4099):
            for grading in (1.0, 2.0, 3.0):
                g = node_graded_grid(n, grading)
                assert g.chain_start is None
                for theta in self.near_symmetric_thetas(g):
                    rep = solve_dirichlet(GridFunction(g, theta), m)
                    assert rep.iterations <= 3, (n, grading)

    @pytest.mark.parametrize("m", [2.05, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("n", [1026, 1027])
    def test_asymmetric_loads_converge(self, n, m):
        rng = np.random.default_rng(n)
        for grading in (1.0, 2.0, 3.0):
            g = make_graded_grid(n, grading)
            for theta in (1.0 + g.nodes, rng.uniform(0.2, 1.0, g.n)):
                rep = solve_dirichlet(GridFunction(g, theta), m)
                assert rep.converged and rep.final_residual <= RESIDUAL_TOL
                # at most 9 were measured; the peak moves with m on these loads
                assert rep.iterations <= 10, grading

    @pytest.mark.parametrize(
        "m,theta",
        [(1.05, lambda x: np.eye(x.size)[x.size // 3]), (1.02, lambda x: np.exp(5.0 * x))],
        ids=["sub-resolution-step", "adjacent-floats"],
    )
    def test_stalled_searches_end_at_the_root(self, m, theta):
        # near m = 1 these loads end the search on its two stall exits: a
        # step below the resolution of every flux but the peak cell's, and a
        # bracket down to adjacent floats
        g = make_graded_grid(65, 1.0)
        rep = solve_dirichlet(GridFunction(g, theta(g.nodes)), m)
        assert rep.converged and rep.iterations > 0

    @pytest.mark.parametrize(
        "a,m,n,grading", [(40.0, 50.0, 33, 1.0), (20.0, 1.05, 65, 3.0)], ids=["m50", "m1.05"]
    )
    def test_re_anchoring_keeps_the_small_loads(self, a, m, n, grading):
        # the search starts anchored at the m = 2 peak, where the left
        # cells' loads (~0.4 at m = 50) are summed behind loads of ~5e13 and
        # keep only that sum's ulps; re-anchored by translation, R carried
        # that rounding to the peak cell and failed the residual check
        g = make_graded_grid(n, grading)
        rep = solve_dirichlet(GridFunction(g, np.exp(a * g.nodes)), m)
        assert rep.iterations > 1 and rep.final_residual <= RESIDUAL_TOL


class TestSolveSingular:
    @pytest.mark.parametrize(
        "grid",
        [
            lambda: make_graded_grid(65, 1.0),
            lambda: make_graded_grid(65, 1.0, Domain.ball(3)),
            lambda: node_graded_grid(66, 1.0),
        ],
        ids=["mirror", "ball", "closure"],
    )
    def test_overflowing_loads_raise_the_typed_error(self, grid):
        # at m = 1.2 a load of K = 1e300 overflows Du; the sweep's NaN
        # residual must raise NonConvergence, and no RuntimeWarning first
        g = grid()
        spec = ProblemSpec(
            m=1.2, p=0.5, q=0.0, domain=g.domain, k_low=1e300, k_high=1e300,
            k=lambda x, d: np.full_like(d, 1e300),
        )
        with pytest.raises(NonConvergence, match="residual nan"):
            solve_singular(spec, g)

    def test_p_zero_reduces_to_dirichlet(self):
        spec = ProblemSpec(m=2.0, p=0.0, q=0.5)
        g = make_graded_grid(513, 2.0)
        rep = solve_singular(spec, g)
        direct = solve_dirichlet(k_values(spec, g), spec.m)
        assert np.max(np.abs(rep.solution.values - direct.solution.values)) <= 1e-10
        # one solve, whose scaling bracket is as wide as its residual slack
        assert rep.iterations == 1
        assert 0.0 < rep.picard_gap <= 1e-12

    def test_manufactured_singular_solution(self):
        # K built so that sin(pi x)^(2/3) is the exact discrete solution
        spec_mpq = dict(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(2049, 3.0)
        u_star = GridFunction.interior_from_callable(
            g, lambda x: np.sin(np.pi * x) ** (2.0 / 3.0)
        )
        neg_lap = apply_mlap(u_star, 2.0)
        sl = g.unknown_slice
        k_vals = np.zeros(g.n)
        k_vals[sl] = neg_lap.values[sl] * u_star.values[sl] ** 0.5
        env = k_vals[sl] * g.delta_nodes[sl]
        # a K known on this grid only, given at its unknown nodes
        spec = ProblemSpec(**spec_mpq, k_low=env.min(), k_high=env.max(), k=lambda x, d: k_vals[sl])
        rep = solve_singular(spec, g)
        assert np.max(np.abs(rep.solution.values - u_star.values)) <= 5e-3

    def test_supercritical_solution_positive_and_bracketed(self):
        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(1025, 3.0)
        rep = solve_singular(spec, g)
        u = rep.solution
        assert rep.converged
        assert rep.final_residual <= RESIDUAL_TOL
        assert np.all(u.values[g.unknown_slice] > 0)
        tol = SolverConfig().picard_tol
        assert np.all(u.values >= rep.sub_barrier.values - tol)
        assert np.all(u.values <= rep.super_barrier.values + tol)

    def test_monotone_iteration_ordering(self):
        # successive lower iterates never decrease (up to picard_tol)
        from mlap1d.solver import _singular_theta

        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(513, 3.0)
        rep = solve_singular(spec, g)
        tol = SolverConfig().picard_tol
        sl = g.unknown_slice
        k = k_values(spec, g).values[sl]
        sub = rep.sub_barrier
        log_sub = np.log(sub.values[sl])

        def t_map(v):
            theta = np.zeros(g.n)
            lt = np.maximum(np.log(v[sl]), log_sub)
            _singular_theta(spec.p, k, lt, theta[sl])
            return solve_dirichlet(GridFunction(g, theta), spec.m).solution.values

        lo = sub.values
        prev = lo
        for _ in range(4):
            hi = t_map(prev)
            nxt = t_map(hi)
            assert np.all(nxt >= prev - tol)
            prev = nxt

    def test_custom_k_outside_envelope_rejected(self):
        from mlap1d.errors import AdmissibilityViolation

        spec = ProblemSpec(m=2.0, p=0.5, q=1.0, k=lambda x, d: 3.0 / d)
        g = make_graded_grid(257, 3.0)
        with pytest.raises(AdmissibilityViolation):
            solve_singular(spec, g)

    @pytest.mark.parametrize("domain", [Domain.ball(3), Domain.interval()], ids=["ball", "interval"])
    def test_a_spec_on_another_domain_is_refused(self, domain):
        # a ball problem on an interval grid once returned the interval's solution
        other = Domain.interval() if domain.is_ball else Domain.ball(3)
        spec = ProblemSpec(2.0, 0.5, 1.0, domain=domain)
        with pytest.raises(GridMismatch, match=re.escape(f"posed on {domain}, the grid on {other}")):
            solve_singular(spec, make_graded_grid(1025, 3.0, other))

    def test_radial_singular_solve(self):
        spec = ProblemSpec(m=2.0, p=0.5, q=0.5, domain=Domain.ball(3))
        g = make_graded_grid(513, 3.0, spec.domain)
        rep = solve_singular(spec, g)
        assert rep.converged
        assert np.all(rep.solution.values[:-1] > 0)

    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_small_m_converges(self, domain):
        spec = ProblemSpec(m=1.2, p=0.2, q=0.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        rep = solve_singular(spec, g)
        assert rep.converged and rep.final_residual <= RESIDUAL_TOL
        assert rep.picard_gap <= SolverConfig().picard_tol

    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_p_zero_certifies_inside_its_barriers(self, domain):
        # with the barriers certified at every unknown node, the comparison
        # principle holds the solution between them next to the boundary too
        spec = ProblemSpec(m=1.5, p=0.0, q=1.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        rep = solve_singular(spec, g)
        tol = SolverConfig().picard_tol
        assert rep.converged and rep.picard_gap <= tol
        assert np.all(rep.solution.values >= rep.sub_barrier.values - tol)
        assert np.all(rep.solution.values <= rep.super_barrier.values + tol)

    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_p_zero_outside_bracket_raises(self, domain, monkeypatch):
        # a supersolution below the solution must not pass the exit check,
        # and the error names the side, the node and the excess; at p = 0
        # the solution does not depend on the barriers.  There the first
        # solve's pair is tight to rounding, so half its subsolution, the
        # scale lam_hi = lam_lo/2, stands in for a supersolution below it
        spec = ProblemSpec(m=1.5, p=0.0, q=1.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        rep = solve_singular(spec, g)
        low = 0.5 * rep.sub_barrier.values  # exactly (lam_lo/2) w0
        excess = rep.solution.values - low
        node = int(np.argmax(excess))
        first_pair, pairs = solver._first_pair, []

        def halved(*a):
            pair = first_pair(*a)
            pairs.append(dataclasses.replace(pair, lam_hi=0.5 * pair.lam_lo))
            return pairs[-1]

        monkeypatch.setattr(solver, "_first_pair", halved)
        with pytest.raises(BarrierOrderViolation) as err:
            solve_singular(spec, g)
        msg = str(err.value)
        assert f"above the supersolution of the certified pair at node {node} " in msg
        assert float(msg.rpartition(" by ")[2]) == pytest.approx(excess[node], rel=1e-5)
        # the record holds the midpoint the exit check rejected, with the pair
        [pair] = pairs
        report = err.value.report
        assert not report.converged and report.iterations == rep.iterations == 1
        assert np.array_equal(report.solution.values, rep.solution.values)
        assert report.pair is pair
        assert np.array_equal(report.super_barrier.values, low)
        assert np.array_equal(report.sub_barrier.values, rep.sub_barrier.values)
        assert report.barrier_c == 0.5 and report.picard_gap == rep.picard_gap

    def test_large_boundary_load_converges(self):
        # sum V theta reaches ~1e7 here while the peak flux is ~1e-3: loads
        # summed from x = 0 leave every inner solve at a scaled residual of
        # ~1e-7, loads summed outward from the peak cell at 0
        spec = ProblemSpec(m=3.0, p=1.5, q=0.3)
        g = make_graded_grid(16385, 3.0)
        rep = solve_singular(spec, g)
        assert rep.converged and rep.final_residual <= RESIDUAL_TOL


class TestCertifiedBracket:
    SPEC = ProblemSpec(m=2.0, p=0.5, q=1.0)
    # a picard_tol every bracketed lattice point resolves at n = 1025
    REF_TOL = 1e-13

    @pytest.mark.parametrize("weight", [1.0, 0.1, 1e-6])
    def test_bracket_holds_the_solution(self, weight):
        # the bracket of any iterate, here u_ref^(1-weight) sub^weight, must
        # hold the solution, which ref knows within its own width
        g = make_graded_grid(1025, 3.0)
        ref = solve_singular(self.SPEC, g, SolverConfig(picard_tol=self.REF_TOL))
        sub = ref.sub_barrier.values
        sl = g.unknown_slice
        v = np.zeros(g.n)
        v[sl] = ref.solution.values[sl] ** (1.0 - weight) * sub[sl] ** weight
        k = k_values(self.SPEC, g).values[sl]
        lt = np.maximum(np.log(v[sl]), np.log(sub[sl]))
        theta = np.zeros(g.n)
        solver._singular_theta(self.SPEC.p, k, lt, theta[sl])
        inner = solve_dirichlet(GridFunction(g, theta.copy()), 2.0)
        w = inner.solution.values
        log_ratio = self.SPEC.p * (lt - np.log(w[sl]))
        lam_lo, lam_hi = solver._scaling_bracket(
            self.SPEC, log_ratio, theta[sl], inner.final_residual, np.empty_like(lt)
        )
        assert 0.0 < lam_lo <= lam_hi < np.inf
        assert np.all(lam_lo * w <= ref.solution.values + ref.picard_gap)
        assert np.all(ref.solution.values <= lam_hi * w + ref.picard_gap)

    @pytest.mark.parametrize("residual", [0.0, 1e-9, 1e-4])
    @pytest.mark.parametrize(
        "spec", [SPEC, ProblemSpec(m=3.0, p=1.5, q=0.3)], ids=["2-0.5-1", "3-1.5-0.3"]
    )
    def test_log_space_helpers_match_the_direct_formulas(self, spec, residual):
        # theta = K max(v, sub)^(-p) and the bracket's formulas in u, against
        # the loop's log-space helpers; logs and exps round differently, so
        # the two agree to a tolerance set from the dtype, not bit for bit
        g = make_graded_grid(1025, 3.0)
        rep = solve_singular(spec, g)
        sl = g.unknown_slice
        sub = rep.sub_barrier.values[sl]
        k = k_values(spec, g).values[sl]
        v = rep.solution.values[sl] * 10.0 ** np.cos(40.0 * g.nodes[sl])
        assert np.any(v < sub) and np.any(v > sub)
        vt = np.maximum(v, sub)
        theta_ref = k * vt ** (-spec.p)
        lt = np.maximum(np.log(v), np.log(sub))
        theta = solver._singular_theta(spec.p, k, lt, np.empty_like(lt))
        rtol = 1e3 * np.finfo(float).eps
        np.testing.assert_allclose(theta, theta_ref, rtol=rtol, atol=0.0)

        full = np.zeros(g.n)
        full[sl] = theta_ref
        w = solve_dirichlet(GridFunction(g, full), spec.m).solution.values[sl]
        slack = max(residual, solver.ASSEMBLY_NOISE) * (1.0 + vt**spec.p / k)
        log_ratio = spec.p * np.log(vt / w)
        e = 1.0 / (spec.m - 1.0 + spec.p)
        ref = (
            np.exp(e * np.min(log_ratio - np.log1p(slack))),
            np.exp(e * np.max(log_ratio - np.log1p(-slack))),
        )
        log_ratio_lt = spec.p * (lt - np.log(w))
        lam = solver._scaling_bracket(spec, log_ratio_lt, theta, residual, np.empty_like(lt))
        np.testing.assert_allclose(lam, ref, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize(
        "point",
        [
            ("interval", 1.5, 0.2, 0.7),
            ("ball", 2.0, 0.5, 1.0),
            ("interval", 3.0, 0.5, 1.3),
            ("ball", 3.0, 0.9, 0.3),
            ("interval", 5.0, 0.2, 0.0),
            ("ball", 5.0, 0.9, 0.7),
            # rho = p/(m-1) >= 0.7, including rho >= 1
            ("interval", 2.0, 1.2, 0.0),
            ("ball", 3.0, 1.5, 0.3),
            ("interval", 1.2, 0.9, 0.3),
        ],
        ids=lambda pt: "-".join(map(str, pt)),
    )
    def test_picard_gap_bounds_the_error(self, point):
        # the midpoint of the bracket is within half its width of the solution
        d, m, p, q = point
        dom = Domain.ball(3) if d == "ball" else Domain.interval()
        spec = ProblemSpec(m=m, p=p, q=q, domain=dom)
        g = make_graded_grid(1025, 3.0, dom)
        rep = solve_singular(spec, g)
        ref = solve_singular(spec, g, SolverConfig(picard_tol=self.REF_TOL))
        assert rep.picard_gap <= SolverConfig().picard_tol
        err = np.max(np.abs(rep.solution.values - ref.solution.values))
        assert err <= 0.5 * (rep.picard_gap + ref.picard_gap)

    def test_slack_that_swamps_the_load_gives_no_bracket(self, monkeypatch):
        # theta ~ K^((m-1)/(m-1+p)) = 1e-15 at K = 1e-20 is below the assembly
        # noise, so no scale brackets the first solve and there is no pair
        spec = ProblemSpec(
            m=4.0, p=1.0, q=0.0, k_low=1e-20, k_high=1e-20, k=lambda x, d: np.full_like(d, 1e-20)
        )
        g = make_graded_grid(257, 3.0)
        brackets = []
        bracket = solver._scaling_bracket
        monkeypatch.setattr(
            solver, "_scaling_bracket", lambda *a: brackets.append(bracket(*a)) or brackets[-1]
        )
        with pytest.raises(NonConvergence, match="the slack swamps the load") as err:
            solve_singular(spec, g, SolverConfig(max_picard_iters=3))
        assert brackets == [(0.0, np.inf)]
        report = err.value.report
        assert report.iterations == 1 and report.picard_gap == np.inf
        assert report.pair is None
        assert report.sub_barrier is None and report.barrier_c is None

    def test_a_failed_residual_check_reports_the_loop(self, monkeypatch):
        # the second sweep's solve fails its residual check: the record is
        # the loop's, with both solves counted and the first pair, and no
        # width, since no bracket holds that solve
        g = make_graded_grid(1025, 3.0)
        pairs, fields = [], []
        first_pair = solver._first_pair
        monkeypatch.setattr(
            solver, "_first_pair", lambda *a: pairs.append(first_pair(*a)) or pairs[-1]
        )
        solve_into = solver._solve_into

        def second_fails(*a):
            evaluations, residual = solve_into(*a)
            fields.append(a[5].copy())
            return evaluations, 1.0 if len(fields) == 2 else residual

        monkeypatch.setattr(solver, "_solve_into", second_fails)
        why = "^a-posteriori check failed: scaled residual 1$"
        with pytest.raises(NonConvergence, match=why) as err:
            solve_singular(self.SPEC, g)
        [pair] = pairs
        report = err.value.report
        assert report.iterations == 2 and report.picard_gap is None
        assert not report.converged and report.final_residual == 1.0
        assert report.pair is pair
        # the whole field of the failed solve, its left half mirrored
        u = fields[1]
        u[: g.n // 2] = u[::-1][: g.n // 2]
        assert np.array_equal(report.solution.values, u)

    def test_unreachable_tolerance_raises_with_the_width(self):
        g = make_graded_grid(1025, 3.0)
        for spec in (self.SPEC, ProblemSpec(m=3.0, p=1.5, q=0.3)):
            with pytest.raises(NonConvergence, match="bracket width") as err:
                solve_singular(spec, g, SolverConfig(picard_tol=1e-15))
            report = err.value.report
            assert report.picard_gap > 1e-15 and not report.converged
            # the resolution floor is known after the first solve
            assert report.iterations == 1

    def test_resolution_floor_counts_the_load_slack(self):
        # here the width stalls at 1.36e-13, twice the floor 2 ASSEMBLY_NOISE
        # sup w/(m-1+p): the slack's 1 + u^p/K factor is about 2 at the peak.
        # Leaving it out spends the whole budget instead of raising early
        g = make_graded_grid(1025, 3.0)
        spec = ProblemSpec(m=1.2, p=0.9, q=1.0)
        with pytest.raises(NonConvergence, match="below the resolution") as err:
            solve_singular(spec, g, SolverConfig(picard_tol=1e-13))
        assert err.value.report.iterations <= 2

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec(m=2.0, p=0.5, q=1.0), ProblemSpec(m=3.0, p=1.5, q=0.3)],
        ids=["bracketed", "damped"],  # p below and above 0.7 (m-1)
    )
    def test_exhausted_budget_names_its_gap(self, spec):
        # every gap is a bracket width, whatever rho
        g = make_graded_grid(1025, 3.0)
        with pytest.raises(NonConvergence) as err:
            solve_singular(spec, g, SolverConfig(max_picard_iters=2))
        msg = str(err.value)
        assert f"bracket width {err.value.report.picard_gap:g}" in msg
        assert "last step" not in msg

    @pytest.mark.parametrize(
        "config, why",
        [
            (SolverConfig(max_picard_iters=2), "budget exhausted"),
            (SolverConfig(picard_tol=1e-15), "below the resolution"),
        ],
        ids=["budget", "resolution"],
    )
    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_error_reports_carry_the_certified_pair(self, domain, config, why, monkeypatch):
        # a failed singular solve reports the barrier pair that guarded it,
        # exactly as a successful one does
        spec = ProblemSpec(m=3.0, p=1.5, q=0.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        pairs = []
        first_pair = solver._first_pair
        monkeypatch.setattr(
            solver, "_first_pair", lambda *a: pairs.append(first_pair(*a)) or pairs[-1]
        )
        with pytest.raises(NonConvergence, match=why) as err:
            solve_singular(spec, g, config)
        [pair] = pairs
        report = err.value.report
        assert not report.converged
        assert report.pair is pair

    @pytest.mark.parametrize(
        "point, domain, solves",
        [
            ((2.0, 0.3, 0.3), "interval", {4097: 7, 8193: 7}),
            ((2.0, 0.5, 0.5), "interval", {2049: 9, 4097: 9, 8193: 9, 16385: 9}),
            ((2.0, 0.5, 1.0), "interval", {1025: 11, 2049: 11, 4097: 11, 8193: 11}),
            ((3.0, 1.5, 0.3), "interval", {16385: 14}),
            ((3.0, 1.5, 0.3), "ball", {16385: 14}),
            ((1.5, 0.2, 0.7), "interval", {16385: 9}),
        ],
        ids=["E1", "E2", "E3", "3-1.5-0.3-interval", "3-1.5-0.3-ball", "1.5-0.2-0.7"],
    )
    def test_sweep_counts_at_grading_3(self, point, domain, solves, monkeypatch):
        # every Dirichlet solve of one singular solve, pinned exactly: a
        # faster sweep must not come with more of them.  The spy sits on the
        # Dirichlet kernel, which every solve runs, the whole grid's, the
        # right half's of a mirror problem and an eigenpair's inner ones
        # alike.  Only the first sweep and the one that stops form a
        # certified bracket
        calls, brackets = kernel_spy(monkeypatch), []
        bracket = solver._scaling_bracket
        monkeypatch.setattr(
            solver, "_scaling_bracket", lambda *a: brackets.append(1) or bracket(*a)
        )
        m, p, q = point
        dom = Domain.ball(3) if domain == "ball" else Domain.interval()
        spec = ProblemSpec(m=m, p=p, q=q, domain=dom)
        counts = {}
        for n in solves:
            calls.clear()
            brackets.clear()
            rep = solve_singular(spec, make_graded_grid(n, 3.0, dom))
            assert rep.iterations == len(calls)
            assert rep.converged and len(brackets) == 2
            counts[n] = len(calls)
        assert counts == solves

    def test_relaxed_loop_solve_count(self):
        # the plain alternation needs 29 solves here
        rep = solve_singular(self.SPEC, make_graded_grid(1025, 3.0))
        assert rep.iterations <= 11

    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_small_rho_solve_count(self, domain):
        spec = ProblemSpec(m=5.0, p=0.2, q=0.0, domain=domain)
        rep = solve_singular(spec, make_graded_grid(1025, 3.0, domain))
        assert rep.iterations <= 5

    def test_large_rho_solve_count(self):
        # rho = 1.2; damping by (m-1)/(m-1+p), which only cancels the
        # scaling mode, needs 21 solves here
        spec = ProblemSpec(m=2.0, p=1.2, q=0.0)
        rep = solve_singular(spec, make_graded_grid(1025, 3.0))
        assert rep.iterations <= 14


def admissible_lattice(m):
    """(p, q) of the benchmark's lattice with p + q < 2 - (1 - p)/m."""
    return [
        (p, q)
        for p, q in itertools.product((0.0, 0.2, 0.5, 0.9, 1.5), (0.0, 0.3, 0.7, 1.0, 1.3))
        if p + q < 2.0 - (1.0 - p) / m
    ]


class TestBracketOnlyWhereASweepEnds:
    """A sweep after the first forms its certified bracket only when a
    scalar pre-test cannot rule out that it stops or refuses; every answer
    is that of the loop that brackets every sweep, to the last bit."""

    @staticmethod
    def outcome(spec, g, config=None):
        """The error type and message, or None, and the report of one solve."""
        try:
            return None, solve_singular(spec, g, config)
        except MlapError as exc:
            return (type(exc), str(exc)), exc.report

    def default_and_forced(self, monkeypatch, spec, g, config=None, counter=None):
        """The outcome with the pre-test and with every sweep bracketed,
        which must match to the last bit, and the sweeps the first skipped.
        ``counter``, a spy's call list, is cleared between the two."""
        brackets = []
        bracket = solver._scaling_bracket
        monkeypatch.setattr(
            solver, "_scaling_bracket", lambda *a: brackets.append(1) or bracket(*a)
        )
        default = self.outcome(spec, g, config)
        skipped = default[1].iterations - len(brackets)
        brackets.clear()
        if counter is not None:
            counter.clear()
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_sweep_goes_on", lambda *a: False)
            forced = self.outcome(spec, g, config)
        # forced, every sweep is bracketed but one that fails its residual check
        assert len(brackets) == forced[1].iterations - (forced[1].picard_gap is None)
        assert default[0] == forced[0]
        ra, rb = default[1], forced[1]
        assert np.array_equal(ra.solution.values, rb.solution.values)
        for name in ("iterations", "picard_gap", "final_residual", "converged"):
            assert getattr(ra, name) == getattr(rb, name), name
        assert (ra.pair is None) == (rb.pair is None)
        if ra.pair is not None:
            assert np.array_equal(ra.pair.w0.values, rb.pair.w0.values)
            assert (ra.pair.lam_lo, ra.pair.lam_hi) == (rb.pair.lam_lo, rb.pair.lam_hi)
        return default, skipped

    @pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_the_lattice_matches_the_loop_that_brackets_every_sweep(self, m, domain, monkeypatch):
        g = make_graded_grid(257, 3.0, domain)
        skipped = 0
        for p, q in admissible_lattice(m):
            spec = ProblemSpec(m=m, p=p, q=q, domain=domain)
            (error, report), skips = self.default_and_forced(monkeypatch, spec, g)
            assert error is None and report.converged
            skipped += skips
        assert skipped > 0  # the pre-test decides somewhere

    def swamped_third_sweep(self, monkeypatch):
        # the third sweep's theta, scaled below the assembly noise, leaves no
        # bracket for its solve, though the slack-free one is wider than
        # picard_tol and its floor far below it
        calls, singular_theta = [], solver._singular_theta

        def tiny(*a):
            calls.append(1)
            out = singular_theta(*a)
            if len(calls) == 3:
                out *= 1e-16
            return out

        monkeypatch.setattr(solver, "_singular_theta", tiny)
        return calls

    def failed_third_residual(self, monkeypatch):
        solves, solve_into = [], solver._solve_into

        def third_fails(*a):
            solves.append(1)
            evaluations, residual = solve_into(*a)
            return evaluations, 1.0 if len(solves) == 3 else residual

        monkeypatch.setattr(solver, "_solve_into", third_fails)
        return solves

    @pytest.mark.parametrize(
        "case, why, sweeps, brackets",
        [
            ("budget", "^singular iteration budget exhausted: bracket width", 4, 2),
            ("resolution", "^picard_tol 1e-13 is below the resolution", 2, 2),
            ("slack", "^no scale brackets the solve: the slack swamps the load", 3, 2),
            ("residual", "^a-posteriori check failed: scaled residual 1$", 3, 1),
        ],
    )
    @pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )
    def test_each_refusal_matches_the_loop_that_brackets_every_sweep(
        self, case, why, sweeps, brackets, domain, monkeypatch
    ):
        spec, n, config = ProblemSpec(m=2.0, p=0.5, q=1.0, domain=domain), 257, None
        counter = None
        if case == "budget":
            config = SolverConfig(max_picard_iters=4)
        elif case == "resolution":  # test_resolution_floor_counts_the_load_slack's case
            spec, n = ProblemSpec(m=1.2, p=0.9, q=1.0, domain=domain), 1025
            config = SolverConfig(picard_tol=1e-13)
        elif case == "slack":
            spec = ProblemSpec(m=3.0, p=1.5, q=0.3, domain=domain)
            counter = self.swamped_third_sweep(monkeypatch)
        else:
            counter = self.failed_third_residual(monkeypatch)
        g = make_graded_grid(n, 3.0, domain)
        (error, report), skipped = self.default_and_forced(monkeypatch, spec, g, config, counter)
        assert error[0] is NonConvergence and re.match(why, error[1])
        assert report.iterations == sweeps and report.pair is not None
        # the first sweep and the one that refuses, if it has a bracket
        assert sweeps - skipped == brackets

    @settings(deadline=None)
    @given(
        m=st.floats(1.05, 6.0),
        p=st.floats(0.0, 1.5),
        residual=st.floats(0.0, RESIDUAL_TOL),
        rows=st.lists(
            st.tuples(st.floats(-40.0, 40.0), st.floats(1e-300, 1e300)), min_size=1, max_size=30
        ),
    )
    def test_the_pre_test_rests_on_two_invariants(self, m, p, residual, rows):
        # the slack's largest value is the scalar slack at min theta, bit for
        # bit, and the slack-free scales lie inside _scaling_bracket's, up to
        # the rounding margin of exp
        log_ratio, theta = (np.array(c) for c in zip(*rows))
        s = solver._slack(theta, residual, np.empty_like(theta))
        assert solver._slack(np.minimum.reduce(theta), residual) == np.maximum.reduce(s)
        spec = ProblemSpec(m=m, p=p, q=0.0)
        e = 1.0 / (m - 1.0 + p)
        with np.errstate(over="ignore"):  # the scales may overflow, as in the loop
            lam_lo, lam_hi = solver._scaling_bracket(
                spec, log_ratio, theta.copy(), residual, np.empty_like(theta)
            )
            free_lo, free_hi = (np.exp(e * f.reduce(log_ratio)) for f in (np.minimum, np.maximum))
        if np.maximum.reduce(s) >= 1.0:
            assert (lam_lo, lam_hi) == (0.0, np.inf)
        elif lam_lo > 0.0:  # exp can underflow
            margin = solver._EXP_ROUNDING
            assert lam_lo <= free_lo * (1.0 + margin)
            assert free_hi * (1.0 - margin) <= lam_hi


class TestChainLoop:
    """The singular loop on the zero-flux chain, the ball's or the right half
    of a mirror interval problem, against the same loop forced through
    solve_dirichlet."""

    SPECS = {
        "subcritical": ProblemSpec(m=2.0, p=0.3, q=0.3),
        "critical": ProblemSpec(m=2.0, p=0.5, q=0.5),
        "supercritical": ProblemSpec(m=3.0, p=1.5, q=0.3),
        "p0": ProblemSpec(m=1.5, p=0.0, q=1.3),
    }
    GRIDS = {
        "n1025-g1": lambda: make_graded_grid(1025, 1.0),
        "n1025-g2": lambda: make_graded_grid(1025, 2.0),
        "n1025-g3": lambda: make_graded_grid(1025, 3.0),
        "n16385-g3": lambda: make_graded_grid(16385, 3.0),
        "n64-dyadic": dyadic_mirror_grid,
        "ball2-n1025": lambda: make_graded_grid(1025, 3.0, Domain.ball(2)),
        "ball3-n1025": lambda: make_graded_grid(1025, 3.0, Domain.ball(3)),
        "ball2-n16387": lambda: make_graded_grid(16387, 3.0, Domain.ball(2)),
        "ball3-n16387": lambda: make_graded_grid(16387, 3.0, Domain.ball(3)),
        "ball2-n16390": lambda: make_graded_grid(16390, 3.0, Domain.ball(2)),
        "ball3-n16390": lambda: make_graded_grid(16390, 3.0, Domain.ball(3)),
    }

    @staticmethod
    def outcome(spec, g, config=None):
        """The report, or the error and its report, of one singular solve."""
        try:
            return None, solve_singular(spec, g, config)
        except NonConvergence as exc:
            return str(exc), exc.report

    @staticmethod
    def assert_identical(a, b):
        assert a[0] == b[0]
        ra, rb = a[1], b[1]
        for name in ("solution", "sub_barrier", "super_barrier"):
            va, vb = getattr(ra, name), getattr(rb, name)
            assert (va is None) == (vb is None), name
            if va is not None:
                assert np.array_equal(va.values, vb.values), name
        for name in ("iterations", "picard_gap", "barrier_c", "final_residual", "converged"):
            assert getattr(ra, name) == getattr(rb, name), name

    def chain_and_reference(self, spec, g, monkeypatch, config=None):
        spec = dataclasses.replace(spec, domain=g.domain)
        solves, dirichlets = kernel_spy(monkeypatch), []
        dirichlet = solver.solve_dirichlet
        monkeypatch.setattr(
            solver, "solve_dirichlet", lambda *a: dirichlets.append(1) or dirichlet(*a)
        )
        chain = self.outcome(spec, g, config)
        # the loop solves on the chain only, in its four chain rows;
        # solve_dirichlet is not called
        assert solves == [(g.chain_start, 4)] * chain[1].iterations
        assert dirichlets == []
        solves.clear()
        chain_start, asked = solver._chain_start, []
        with monkeypatch.context() as mp:
            # the loop asks once with K and log v0, and on the whole grid
            # again with each sweep's theta alone: only the first answer is
            # forced off the chain
            mp.setattr(
                solver,
                "_chain_start",
                lambda grid, *arrays: None
                if len(arrays) == 2
                else asked.append(1) or chain_start(grid, *arrays),
            )
            reference = self.outcome(spec, g, config)
        # every theta is a mirror, so each sweep of the whole-grid loop takes
        # the chain too, in the closure's five rows
        assert len(asked) == reference[1].iterations
        assert solves == [(g.chain_start, 5)] * reference[1].iterations
        assert dirichlets == []
        return chain, reference

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_chain_loop_is_the_whole_loop_to_the_last_bit(self, spec, grid, monkeypatch):
        g = self.GRIDS[grid]()
        chain, reference = self.chain_and_reference(self.SPECS[spec], g, monkeypatch)
        assert chain[0] is None and chain[1].converged
        self.assert_identical(chain, reference)

    @pytest.mark.parametrize(
        "config, why",
        [
            (SolverConfig(picard_tol=1e-15), "below the resolution"),
            (SolverConfig(max_picard_iters=3), "budget exhausted"),
        ],
        ids=["resolution", "budget"],
    )
    @pytest.mark.parametrize("grid", ["n1025-g3", "ball2-n1025", "ball3-n1025"])
    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_errors_and_their_reports_match(self, spec, grid, config, why, monkeypatch):
        g = self.GRIDS[grid]()
        chain, reference = self.chain_and_reference(self.SPECS[spec], g, monkeypatch, config)
        if spec == "p0" and why == "budget exhausted":  # p = 0 decides in one solve
            assert chain[0] is None and chain[1].iterations == 1
        else:
            assert why in chain[0]
        self.assert_identical(chain, reference)

    @pytest.mark.parametrize("grid", ["n1025-g3", "n64-dyadic", "ball3-n1025"])
    def test_a_failed_residual_check_on_the_chain_reports_the_whole_field(
        self, grid, monkeypatch
    ):
        g = self.GRIDS[grid]()
        spec = dataclasses.replace(self.SPECS["critical"], domain=g.domain)
        monkeypatch.setattr(solver, "RESIDUAL_TOL", -1.0)  # below every residual
        solves = kernel_spy(monkeypatch)
        chain = self.outcome(spec, g)
        assert solves == [(g.chain_start, 4)] and chain[0].startswith("a-posteriori check failed")
        rep = chain[1]
        u = rep.solution.values
        assert u.shape == (g.n,) and not rep.converged and rep.final_residual >= 0.0
        assert np.all(u[g.unknown_slice] > 0.0)
        if not g.domain.is_ball:
            assert np.array_equal(u, u[::-1])
        # the first solve of the whole-grid loop, which takes the same chain
        # for theta alone, fails the same check with the same report
        chain_start = solver._chain_start
        with monkeypatch.context() as mp:
            mp.setattr(
                solver,
                "_chain_start",
                lambda grid, *arrays: None if len(arrays) == 2 else chain_start(grid, *arrays),
            )
            self.assert_identical(chain, self.outcome(spec, g))
        assert solves == [(g.chain_start, 4), (g.chain_start, 5)]

    @pytest.mark.parametrize(
        "spec, bound",
        [
            (ProblemSpec(m=2.0, p=0.5, q=0.5), 7.65),
            (ProblemSpec(m=3.0, p=1.5, q=0.3, domain=Domain.ball(3)), 13.15),
        ],
        ids=["interval", "ball3"],
    )
    def test_traced_peak_of_one_solve(self, spec, bound):
        # one singular solve at n = 16385, in full-length arrays: the loop's
        # block, w and the pair's w0.  The block's eleven rows span the
        # chain, half the grid on the interval; w is scaled into the
        # midpoint in place, the exit check writes into the block and the
        # sweeps allocate nothing.  Measured at 7.55n and 13.04n with numpy
        # 2.4.6; 11.04n and 15.03n while theta and the loads were full
        # length, the report held both barriers and the loop held the
        # default K and a separate midpoint
        g = make_graded_grid(16385, 3.0, spec.domain)
        solve_singular(spec, g)  # the grid's cached geometry is not the solve's
        assert traced_peak(lambda: solve_singular(spec, g), g.n) <= bound

    def test_one_ulp_of_asymmetric_k_takes_the_whole_grid(self, monkeypatch):
        # the interval chain checks residuals from the centre on only, so
        # this guard alone keeps it from solving a symmetrised problem
        g = make_graded_grid(1025, 3.0)

        def k(x, d):  # delta^(-q), one ulp up at node n // 3
            v = d ** -self.SPECS["critical"].q
            v[g.n // 3 - 1] = np.nextafter(v[g.n // 3 - 1], np.inf)
            return v

        spec = dataclasses.replace(self.SPECS["critical"], k=k)
        solves = kernel_spy(monkeypatch)
        rep = solve_singular(spec, g)
        assert solves == [(None, 5)] * rep.iterations
        tol = SolverConfig().picard_tol
        assert rep.converged and rep.picard_gap <= tol
        assert np.all(rep.solution.values >= rep.sub_barrier.values - tol)
        assert np.all(rep.solution.values <= rep.super_barrier.values + tol)
        u = rep.solution.values
        assert not np.array_equal(u, u[::-1])
        sym = solve_singular(self.SPECS["critical"], g).solution.values
        assert np.max(np.abs(u - sym)) <= rep.picard_gap + 1e-13 * sym.max()


class TestSolvePeaks:
    """Traced peaks of each Dirichlet path at n = 16385, in full-length
    arrays: the solve allocates its loads, u and the scratch rows, four of
    n - k on a chain and five of n - 1 for the closure search, and nothing
    else of that size."""

    N = 16385

    @classmethod
    def warm_peak(cls, solve):
        solve()  # the grid's cached geometry is not the solve's
        return traced_peak(solve, cls.N)

    @pytest.mark.parametrize(
        "domain, bound", [(Domain.interval(), 3.6), (Domain.ball(3), 6.05)], ids=["interval", "ball3"]
    )
    def test_chain_solve(self, domain, bound):
        # u, and the loads with four scratch rows from the chain's first
        # node on: 3.53n on the interval and 6.03n on the ball
        g = make_graded_grid(self.N, 3.0, domain)
        theta = GridFunction.interior_from_callable(g, lambda x: 1.0 + 0.0 * x)
        assert solve_dirichlet(theta, 3.0).iterations == 0
        assert self.warm_peak(lambda: solve_dirichlet(theta, 3.0)) <= bound

    def test_closure_solve(self):
        g = make_graded_grid(self.N, 3.0)
        theta = GridFunction(g, 1.0 + g.nodes)
        assert solve_dirichlet(theta, 3.0).iterations > 0
        assert self.warm_peak(lambda: solve_dirichlet(theta, 3.0)) <= 7.5

    def test_whole_grid_singular_solve(self):
        # the spec's K sampled on the grid, the loop's block (theta, the
        # loads, five rows of the unknowns, K's copy among them, and the
        # closure's five), w, the pair's w0 and the mirror comparison of
        # each sweep's theta.  Measured at 14.17n with numpy 2.4.6, as was
        # a K passed to the solve as an array and built inside the traced
        # call; 13.17n while that array was built outside it, 15.03n while
        # the loop kept a separate midpoint and the report both barriers
        spec = ProblemSpec(
            m=2.0, p=0.5, q=0.5, k_low=0.6, k_high=1.4,
            k=lambda x, d: d**-0.5 * (1.0 + 0.4 * np.sin(40.0 * x)),
        )
        g = make_graded_grid(self.N, 3.0)
        rep = solve_singular(spec, g)
        assert rep.iterations > 1
        assert self.warm_peak(lambda: solve_singular(spec, g)) <= 14.29

    @pytest.mark.parametrize(
        "domain, bound", [(Domain.interval(), 11.65), (Domain.ball(3), 18.15)], ids=["interval", "ball3"]
    )
    def test_singular_solve_that_builds_its_grid(self, domain, bound):
        # the solve's arrays plus the grid's stored geometry, 4n doubles on
        # the interval and 5n on the ball.  Measured at 11.55n and 18.05n
        # with numpy 2.4.6; 15.06n and 20.04n while the loop's theta and
        # loads were full length, the report held both barriers and the loop
        # a separate midpoint and K; 18.06n and 21.04n while grids also
        # cached their midpoints, the midpoint distances and, on the
        # interval, an array of ones
        spec = ProblemSpec(m=2.0, p=0.5, q=0.5, domain=domain)

        def solve():
            solve_singular(spec, make_graded_grid(self.N, 3.0, domain))

        solve()  # first-use set-up outside the grid
        assert traced_peak(solve, self.N) <= bound

    @pytest.mark.parametrize("order", list(itertools.permutations(("E1", "E2", "E3"))), ids="-".join)
    def test_reproduction_pass(self, order):
        # E1-E3 of reproduce-theorem1 in every order, each entry on grids
        # it builds and frees, so E2's n = 16385 solve sets the peak
        # wherever it runs.  Measured at 13.58n-13.61n (1.70 MiB) with numpy
        # 2.4.6; up to 15.12n (1.89 MiB) while the entries of a run shared
        # their grids, and 18.61n (2.33 MiB) for E1, E3, E2 while the loop's
        # theta and loads were full length, the report held both barriers
        # and the loop a separate midpoint and K
        def run():
            return repro.reproduce(order, {}, SolverConfig())

        assert run().overall  # first-use set-up
        assert traced_peak(run, self.N) <= 13.7


class TestReportPair:
    """A singular report keeps its certified pair as what it is, one field
    and two scales, and forms each barrier from them when it is read.  The
    error reports carry it too (test_p_zero_outside_bracket_raises,
    test_error_reports_carry_the_certified_pair)."""

    SPEC = ProblemSpec(m=3.0, p=1.5, q=0.3)
    DOMAINS = pytest.mark.parametrize(
        "domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"]
    )

    @DOMAINS
    def test_barriers_are_the_scaled_base(self, domain, monkeypatch):
        # bit for bit lam_lo w and lam_hi w of the whole field w the loop's
        # first pair is built from
        g = make_graded_grid(1025, 3.0, domain)
        first_pair, given = solver._first_pair, []

        def spy(grid, w, lam_lo, lam_hi):
            given.append((lam_lo * w, lam_hi * w, lam_hi / lam_lo))
            return first_pair(grid, w, lam_lo, lam_hi)

        monkeypatch.setattr(solver, "_first_pair", spy)
        rep = solve_singular(dataclasses.replace(self.SPEC, domain=domain), g)
        [(sub, sup, c)] = given
        w0, lo, hi = rep.pair.w0.values, rep.pair.lam_lo, rep.pair.lam_hi
        assert rep.converged and 0.0 < lo <= hi
        assert rep.pair.w0.grid is g and not w0.flags.writeable
        assert rep.sub_barrier.values.tobytes() == sub.tobytes() == (lo * w0).tobytes()
        assert rep.super_barrier.values.tobytes() == sup.tobytes() == (hi * w0).tobytes()
        assert rep.barrier_c == c == hi / lo
        if not domain.is_ball:  # the whole field, mirrored
            assert np.array_equal(w0, w0[::-1])

    @DOMAINS
    def test_a_report_holds_two_arrays(self, domain):
        # the solution and w0, each a whole array of n doubles and not a
        # view that would keep the loop's block alive
        g = make_graded_grid(1025, 3.0, domain)
        rep = solve_singular(dataclasses.replace(self.SPEC, domain=domain), g)
        held = [getattr(r, f.name) for r in (rep, rep.pair) for f in dataclasses.fields(r)]
        arrays = [v.values if isinstance(v, GridFunction) else v for v in held
                  if isinstance(v, (GridFunction, np.ndarray))]
        assert len(arrays) == 2
        assert arrays[0] is rep.solution.values and arrays[1] is rep.pair.w0.values
        for a in arrays:
            assert a.shape == (g.n,) and a.dtype == np.float64 and a.base is None


class TestSolverConfig:
    def test_positive_tolerances(self):
        with pytest.raises(InvalidConfig):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(InvalidConfig):
            SolverConfig(picard_tol=-1e-8)

    def test_nan_tolerance_is_refused(self):
        # a NaN width never compares below a NaN tolerance, so such a loop
        # once spent its whole budget before failing
        with pytest.raises(InvalidConfig, match="picard_tol must be positive, got nan"):
            SolverConfig(picard_tol=float("nan"))

    def test_infinite_tolerance_is_refused(self):
        # an infinite width bound stops the loop after its first solve, and
        # the sandwich claim measured against it could not fail
        with pytest.raises(InvalidConfig, match="picard_tol must be finite, got inf"):
            SolverConfig(picard_tol=float("inf"))

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5, True, None])
    def test_a_budget_that_is_not_a_count_is_refused(self, budget):
        # a NaN budget once turned the budget off, 2.5 acted as 3 and True as 1
        match = re.escape(f"max_picard_iters must be a count, got {budget!r}")
        with pytest.raises(InvalidConfig, match=match):
            SolverConfig(max_picard_iters=budget)

    @pytest.mark.parametrize("budget", [np.int64(7), 7.0])
    def test_a_whole_budget_is_stored_as_an_int(self, budget):
        cfg = SolverConfig(max_picard_iters=budget)
        assert cfg.max_picard_iters == 7 and type(cfg.max_picard_iters) is int


class TestStrongCouplingAndOtherM:
    def test_strong_coupling_damped_path(self):
        # p >= m-1: the plain alternation is non-contractive; the relaxed
        # loop must still converge and stay inside the certified bracket
        spec = ProblemSpec(m=2.0, p=1.2, q=0.0)
        g = make_graded_grid(1025, 3.0)
        rep = solve_singular(spec, g)
        assert rep.converged and rep.picard_gap <= 1e-8
        assert np.all(rep.solution.values >= rep.sub_barrier.values - 1e-8)
        assert np.all(rep.solution.values <= rep.super_barrier.values + 1e-8)
        # self-consistency of the fixed point
        k = k_values(spec, g).values
        theta = np.zeros(g.n)
        sl = g.unknown_slice
        theta[sl] = k[sl] * rep.solution.values[sl] ** (-spec.p)
        res = apply_mlap(rep.solution, spec.m).values - theta
        scaled = np.abs(res[sl]) / (1.0 + np.abs(theta[sl]))
        assert scaled.max() <= 1e-5

    def test_m3_supercritical(self):
        # m = 3, p = 0.5, q = 1: gamma = 0.8, all-nonlinear inner solves
        spec = ProblemSpec(m=3.0, p=0.5, q=1.0)
        g = make_graded_grid(1025, 3.0)
        rep = solve_singular(spec, g)
        assert rep.converged
        assert np.all(rep.solution.values[g.unknown_slice] > 0)
        from mlap1d import fit_boundary_exponent

        fit = fit_boundary_exponent(rep.solution, (1e-4, 1e-2))
        assert fit.exponent == pytest.approx(0.8, abs=0.05)


def test_every_failed_solve_raises_from_one_place():
    """In the solver, a failed Dirichlet solve raises in solve_dirichlet and
    every failure of the singular loop at its one exit, with the loop's
    record; the other raises refuse invalid input before any solve."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Raise):
            call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((func, call.id))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(Path(solver.__file__).read_text(encoding="utf-8")), None)
    assert sorted(found) == [
        ("__post_init__", "InvalidConfig"),
        ("__post_init__", "InvalidConfig"),
        ("__post_init__", "InvalidConfig"),
        ("__post_init__", "InvalidConfig"),
        ("_loads", "NonFiniteTheta"),
        ("solve_dirichlet", "NonConvergence"),
        ("solve_singular", "error"),
    ]
