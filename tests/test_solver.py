import dataclasses

import numpy as np
import pytest

from mlap1d import (
    Domain,
    Grid1D,
    GridFunction,
    ProblemSpec,
    SolverConfig,
    apply_mlap,
    default_k_values,
    first_eigenpair,
    make_graded_grid,
    solve_dirichlet,
    solve_singular,
)
from mlap1d import barriers, solver
from mlap1d.errors import (
    BarrierOrderViolation,
    InvalidConfig,
    NonConvergence,
    NonFiniteTheta,
)
from mlap1d.solver import RESIDUAL_TOL

from oracles import torsion_exact


def const_theta(grid, value):
    return GridFunction(grid, np.full(grid.n, float(value)))


class TestSolveDirichlet:
    def test_non_finite_theta_is_a_typed_value_error(self):
        g = make_graded_grid(33, 1.0)
        theta = const_theta(g, 1.0).values.copy()
        theta[5] = np.inf
        with pytest.raises(NonFiniteTheta, match="theta must be finite") as info:
            solve_dirichlet(GridFunction(g, theta), 2.0)
        assert isinstance(info.value, ValueError)

    def test_m2_quadratic_exact(self):
        g = make_graded_grid(33, 1.0)
        rep = solve_dirichlet(const_theta(g, 2.0), 2.0)
        exact = g.nodes * (1 - g.nodes)
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-10

    def test_m3_torsion(self):
        # n = 1025 is an exact mirror grid (half-domain path), n = 1026 is
        # not (closure root search)
        for n in (1025, 1026):
            g = make_graded_grid(n, 2.0)
            rep = solve_dirichlet(const_theta(g, 1.0), 3.0)
            exact = torsion_exact(3.0, g.nodes)
            assert np.max(np.abs(rep.solution.values - exact)) <= 5e-4
            peak = rep.solution.values.max()
            assert peak == pytest.approx((2.0 / 3.0) * 0.5**1.5, abs=5e-4)

    def test_m5_torsion_even_n(self):
        # n = 1026 puts the flux zero inside the centre cell, where phi^(-1)
        # has an infinite slope for m > 2
        g = make_graded_grid(1026, 2.0)
        rep = solve_dirichlet(const_theta(g, 1.0), 5.0)
        assert rep.iterations > 0
        exact = torsion_exact(5.0, g.nodes)
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-5

    def test_m2_sine_recovery(self):
        g = make_graded_grid(257, 1.0)
        theta = GridFunction.from_callable(
            g, lambda x: np.pi**2 * np.sin(np.pi * x), dirichlet=True
        )
        rep = solve_dirichlet(theta, 2.0)
        err = np.max(np.abs(rep.solution.values - np.sin(np.pi * g.nodes)))
        assert err <= 1e-4  # O(h^2) at h = 1/256

    def test_converged_respects_tolerance(self):
        g = make_graded_grid(129, 2.0)
        rep = solve_dirichlet(const_theta(g, 1.0), 2.5)
        assert rep.converged and rep.final_residual <= RESIDUAL_TOL

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
        theta = GridFunction.from_callable(
            g, lambda x: 1.0 + np.sin(np.pi * x), dirichlet=True
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
                theta = GridFunction.from_callable(
                    g, lambda x: np.pi**2 * np.sin(np.pi * x), dirichlet=True
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
        assert g.mirror_symmetric
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
        theta = GridFunction.from_callable(g, lambda x: 1.0 + x, dirichlet=True)
        rep = solve_dirichlet(theta, 3.0)
        assert rep.converged and rep.iterations > 0


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
                g = make_graded_grid(n, grading)
                assert not g.mirror_symmetric
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


class TestSolveSingular:
    def test_p_zero_reduces_to_dirichlet(self):
        spec = ProblemSpec(m=2.0, p=0.0, q=0.5)
        g = make_graded_grid(513, 2.0)
        rep = solve_singular(spec, g)
        direct = solve_dirichlet(default_k_values(spec, g), spec.m)
        assert np.max(np.abs(rep.solution.values - direct.solution.values)) <= 1e-10
        # one solve, whose scaling bracket is as wide as its residual slack
        assert rep.iterations == 1
        assert 0.0 < rep.picard_gap <= 1e-12

    def test_manufactured_singular_solution(self):
        # K built so that sin(pi x)^(2/3) is the exact discrete solution
        spec_mpq = dict(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(2049, 3.0)
        u_star = GridFunction.from_callable(
            g, lambda x: np.sin(np.pi * x) ** (2.0 / 3.0), dirichlet=True
        )
        neg_lap = apply_mlap(u_star, 2.0)
        sl = g.unknown_slice
        k_vals = np.zeros(g.n)
        k_vals[sl] = neg_lap.values[sl] * u_star.values[sl] ** 0.5
        env = k_vals[sl] * g.delta_nodes[sl]
        spec = ProblemSpec(**spec_mpq, k_low=env.min(), k_high=env.max())
        rep = solve_singular(spec, g, k_values=GridFunction(g, k_vals))
        assert np.max(np.abs(rep.solution.values - u_star.values)) <= 5e-3

    def test_supercritical_solution_positive_and_bracketed(self):
        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(1025, 3.0)
        rep = solve_singular(spec, g)
        u = rep.solution
        assert rep.converged
        assert rep.final_residual <= RESIDUAL_TOL
        assert np.all(u.interior > 0)
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
        k = default_k_values(spec, g).values
        sub = rep.sub_barrier
        lo = sub.values
        prev = lo
        for _ in range(4):
            hi = solve_dirichlet(
                _singular_theta(spec, g, k, prev, sub.values), spec.m
            ).solution.values
            nxt = solve_dirichlet(
                _singular_theta(spec, g, k, hi, sub.values), spec.m
            ).solution.values
            assert np.all(nxt >= prev - tol)
            prev = nxt

    def test_custom_k_outside_envelope_rejected(self):
        from mlap1d.errors import AdmissibilityViolation

        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(257, 3.0)
        bad = GridFunction.interior_from_callable(g, lambda x: 3.0 / g.domain.delta(x))
        with pytest.raises(AdmissibilityViolation):
            solve_singular(spec, g, k_values=bad)

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
        # the solution does not depend on the barriers
        spec = ProblemSpec(m=1.5, p=0.0, q=1.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        rep = solve_singular(spec, g)
        excess = rep.solution.values - rep.sub_barrier.values
        node = int(np.argmax(excess))
        certified_pair = barriers.certified_pair
        monkeypatch.setattr(
            barriers,
            "certified_pair",
            lambda *a, **kw: dataclasses.replace(
                certified_pair(*a, **kw), super_=rep.sub_barrier
            ),
        )
        with pytest.raises(BarrierOrderViolation) as err:
            solve_singular(spec, g)
        msg = str(err.value)
        assert f"above the supersolution of the certified pair at node {node} " in msg
        assert float(msg.rpartition(" by ")[2]) == pytest.approx(excess[node], rel=1e-5)

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
        k = default_k_values(self.SPEC, g).values
        inner = solve_dirichlet(solver._singular_theta(self.SPEC, g, k, v, sub), 2.0)
        lam_lo, lam_hi = solver._scaling_bracket(self.SPEC, sl, k, v, sub, inner)
        w = inner.solution.values
        assert 0.0 < lam_lo <= lam_hi < np.inf
        assert np.all(lam_lo * w <= ref.solution.values + ref.picard_gap)
        assert np.all(ref.solution.values <= lam_hi * w + ref.picard_gap)

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
    def test_error_reports_carry_the_certified_pair(self, domain, config, why):
        # a failed singular solve reports the barrier pair that guarded it,
        # exactly as a successful one does
        spec = ProblemSpec(m=3.0, p=1.5, q=0.3, domain=domain)
        g = make_graded_grid(1025, 3.0, domain)
        base = first_eigenpair(g, spec.m)
        pair = barriers.certified_pair(spec, g, base=base)
        with pytest.raises(NonConvergence, match=why) as err:
            solve_singular(spec, g, config, base=base)
        report = err.value.report
        assert not report.converged
        assert report.barrier_c == pair.c
        assert np.array_equal(report.sub_barrier.values, pair.sub.values)
        assert np.array_equal(report.super_barrier.values, pair.super_.values)

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


class TestSolverConfig:
    def test_positive_tolerances(self):
        with pytest.raises(InvalidConfig):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(InvalidConfig):
            SolverConfig(picard_tol=-1e-8)


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
        k = default_k_values(spec, g).values
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
        assert np.all(rep.solution.interior > 0)
        from mlap1d import fit_boundary_exponent

        fit = fit_boundary_exponent(rep.solution, (1e-4, 1e-2))
        assert fit.exponent == pytest.approx(0.8, abs=0.05)
