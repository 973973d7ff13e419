import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    INTERVAL01,
    Domain,
    Grid1D,
    GridFunction,
    ProblemSpec,
    Verdict,
    distance_integral_classify,
    fit_boundary_exponent,
    fit_log_profile,
    gradient_bound_check,
    make_graded_grid,
    sobolev_seminorm,
    solve_dirichlet,
    solve_singular,
    threshold_scan,
)
from mlap1d.analyzer import _window_samples
from mlap1d.errors import (
    DomainError,
    GridMismatch,
    InsufficientWindow,
    InvalidConfig,
    InvalidGrading,
    NonConvergence,
    NonPositiveValues,
    SolveFailed,
)

from oracles import log_profile_exponent, quad_integral


def sampled(grid, f):
    return GridFunction.interior_from_callable(grid, f)


def singular_levels(spec):
    """Scan level solver: the singular problem on the n-node grid graded 3."""
    return lambda n: solve_singular(spec, make_graded_grid(n, 3.0, spec.domain)).solution


def dirichlet_levels(theta, m):
    """Scan level solver: the Dirichlet problem for theta on the n-node grid graded 3."""
    return lambda n: solve_dirichlet(
        GridFunction.interior_from_callable(make_graded_grid(n, 3.0), theta), m
    ).solution


class TestFitBoundaryExponent:
    @given(st.floats(0.2, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_exact_power_law(self, gamma):
        g = make_graded_grid(2049, 3.0)
        u = sampled(g, lambda x: g.domain.delta(x) ** gamma)
        fit = fit_boundary_exponent(u, (1e-4, 1e-2))
        assert fit.exponent == pytest.approx(gamma, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_scaling_equivariance(self, c):
        g = make_graded_grid(1025, 3.0)
        u = sampled(g, lambda x: g.domain.delta(x) ** 0.75)
        cu = GridFunction(g, c * u.values)
        f1 = fit_boundary_exponent(u, (1e-4, 1e-2))
        f2 = fit_boundary_exponent(cu, (1e-4, 1e-2))
        assert f2.exponent == pytest.approx(f1.exponent, abs=1e-11)

    def test_supercritical_solution(self):
        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        g = make_graded_grid(8193, 3.0)
        u = solve_singular(spec, g).solution
        fit = fit_boundary_exponent(u, (1e-4, 1e-2))
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.03)

    def test_window_validation(self):
        g = make_graded_grid(1025, 3.0)
        u = sampled(g, lambda x: g.domain.delta(x))
        with pytest.raises(InsufficientWindow):
            fit_boundary_exponent(u, (1e-3, 0.3))  # beyond max delta / 4
        with pytest.raises(InsufficientWindow):
            fit_boundary_exponent(u, (1e-2, 1e-3))  # inverted

    def test_too_few_nodes(self):
        g = make_graded_grid(33, 1.0)
        u = sampled(g, lambda x: g.domain.delta(x))
        with pytest.raises(InsufficientWindow):
            fit_boundary_exponent(u, (1e-4, 1e-3))

    def test_nonpositive_values(self):
        g = make_graded_grid(1025, 3.0)
        u = GridFunction(g, np.zeros(g.n))
        with pytest.raises(NonPositiveValues):
            fit_boundary_exponent(u, (1e-3, 1e-1))

    def test_radial_side(self):
        g = make_graded_grid(2049, 3.0, __import__("mlap1d").Domain.ball(3))
        u = sampled(g, lambda r: (1.0 - r) ** 0.6)
        fit = fit_boundary_exponent(u, (1e-4, 1e-2))
        assert fit.exponent == pytest.approx(0.6, abs=1e-12)

    def test_power_fit_flags_log_suspicion(self):
        # a pure power fit of delta log^(2/3) runs just below 1 and drifts
        # upward as the window moves toward the boundary
        g = make_graded_grid(16385, 4.0)
        u = GridFunction.interior_from_callable(
            g,
            lambda x: g.domain.delta(x)
            * np.log(1.0 / g.domain.delta(x)) ** (2.0 / 3.0),
        )
        full = fit_boundary_exponent(u, (1e-14, 1e-10)).exponent
        inner = fit_boundary_exponent(u, (1e-14, 1e-12)).exponent
        outer = fit_boundary_exponent(u, (1e-12, 1e-10)).exponent
        assert 0.97 < full < 1.0
        assert inner > outer + 0.003
        w = sampled(g, lambda x: g.domain.delta(x) ** 0.7)
        assert fit_boundary_exponent(w, (1e-14, 1e-10)).exponent <= 0.97


class TestFitLogProfile:
    @pytest.mark.parametrize(
        "n,c,s,b,window",
        [(8193, 3.0, 1.0 / 3.0, -2.6, (1e-8, 1e-4)), (4097, 1.0, 2.0 / 3.0, 0.0, (1e-4, 1e-2)),
         (4097, 1.0, 3.0, 0.0, (1e-4, 1e-2))],
        ids=["offset", "no-offset", "bracket-doubled"],
    )
    def test_exact_affine_model(self, n, c, s, b, window):
        g = make_graded_grid(n, 3.0)
        d = g.domain.delta
        u = GridFunction.interior_from_callable(
            g, lambda x: d(x) * (c * np.log(1.0 / d(x)) ** s + b)
        )
        fit = fit_log_profile(u, window)
        assert fit.exponent == 1.0
        assert fit.log_exponent == pytest.approx(s, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_distinguishes_exponents(self):
        # feeding a log^(2/3) profile must not report 1/3
        spec = ProblemSpec(m=2.0, p=0.5, q=0.5)
        g = make_graded_grid(16385, 3.0)
        u = solve_singular(spec, g).solution
        fit = fit_log_profile(u, (1e-8, 1e-4))
        assert fit.log_exponent == pytest.approx(2.0 / 3.0, abs=0.1)
        assert abs(fit.log_exponent - 1.0 / 3.0) > 0.2

    @pytest.mark.parametrize(
        "n,window,a",
        [(2049, (1e-4, 1e-2), None), (16385, (1e-5, 1e-2), None), (16385, (1e-8, 1e-4), None),
         (16385, (1e-8, 1e-4), 2.0 / 3.0)],
        ids=["E2-2049", "E2-16385-outer", "E2-16385-inner", "log-rhs"],
    )
    def test_matches_levenberg_marquardt(self, n, window, a):
        # the same least-squares problem solved over (C, s, B) by scipy
        g = make_graded_grid(n, 3.0)
        if a is None:
            u = solve_singular(ProblemSpec(m=2.0, p=0.5, q=0.5), g).solution
        else:  # -u'' = delta^-1 log^-a(1/delta), whose s is 1 - a
            dist = g.domain.delta
            theta = GridFunction.interior_from_callable(
                g, lambda x: dist(x) ** -1.0 * np.log(1.0 / dist(x)) ** -a
            )
            u = solve_dirichlet(theta, 2.0).solution
        want = np.mean([log_profile_exponent(d, v) for d, v in _window_samples(u, window)])
        assert fit_log_profile(u, window).log_exponent == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize(
        "profile",
        [lambda d: d * (2.0 - 1.0 / np.log(1.0 / d)), lambda d: d, lambda d: d * (1.0 + d)],
        ids=["decaying-log", "linear", "quadratic"],
    )
    def test_no_optimum_in_s_is_refused(self, profile):
        # the residual grows from s = 0 on: no exponent in (0, 64] fits best
        g = make_graded_grid(4097, 3.0)
        u = GridFunction.interior_from_callable(g, lambda x: profile(g.domain.delta(x)))
        with pytest.raises(InsufficientWindow, match=r"no log profile optimum for s in \(0, 64\]"):
            fit_log_profile(u, (1e-4, 1e-2))


class TestSobolevSeminorm:
    def test_quadratic(self):
        g = make_graded_grid(4097, 1.0)
        u = sampled(g, lambda x: x * (1 - x))
        exact = quad_integral(lambda x: (1 - 2 * x) ** 2) ** 0.5
        assert exact == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-13)
        assert sobolev_seminorm(u, 2.0) == pytest.approx(exact, abs=1e-6)

    def test_zero_field(self):
        g = make_graded_grid(65, 1.0)
        assert sobolev_seminorm(GridFunction(g, np.zeros(g.n)), 3.0) == 0.0

    def test_an_overflowing_sum_is_refused_without_a_warning(self):
        # |Du| < 100, 100^150 = 1e300 is a double and 100^400 is not
        u = sampled(make_graded_grid(65, 1.0), lambda x: 100.0 * x * (1.0 - x))
        assert 50.0 < sobolev_seminorm(u, 150.0) < 100.0
        with pytest.raises(DomainError, match="overflows double precision at tau = 400"):
            sobolev_seminorm(u, 400.0)

    def test_sine(self):
        g = make_graded_grid(4097, 1.0)
        u = sampled(g, lambda x: np.sin(np.pi * x))
        exact = math.sqrt(np.pi**2 / 2.0)
        assert exact == pytest.approx(2.2214, abs=1e-4)
        assert sobolev_seminorm(u, 2.0) == pytest.approx(exact, abs=1e-4)

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_power_mean_monotonicity(self, seed):
        # after normalizing by total measure, the seminorm is monotone in tau
        g = make_graded_grid(129, 1.0)
        rng = np.random.default_rng(seed)
        u = GridFunction(g, np.cumsum(rng.normal(size=g.n)) * 0.01)
        total = float(g.cell_measures.sum())
        vals = [
            sobolev_seminorm(u, tau) / total ** (1.0 / tau) for tau in (1.5, 2.0, 3.0, 5.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestThresholdScan:
    def test_smooth_solution_all_convergent(self):
        scan = threshold_scan(
            dirichlet_levels(lambda x: np.full_like(x, 2.0), 2.0),
            [2.0, 3.0, 5.0],
            [257, 513, 1025, 2049],
        )
        assert all(v is Verdict.CONVERGENT for v in scan.verdicts)

    def test_supercritical_threshold(self):
        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        scan = threshold_scan(singular_levels(spec), [2.5, 3.5], [1025, 2049, 4097, 8193])
        assert scan.verdict_for(2.5) is Verdict.CONVERGENT
        assert scan.verdict_for(3.5) is Verdict.DIVERGENT

    def test_optimality_construction_dichotomy(self):
        # sharpness probe w = sin(pi x)^(2/3): tau* = (m-1)/(a-1) = 3; below
        # converges, above diverges, the critical index itself log-diverges
        def theta(x):
            s, c = np.sin(np.pi * x), np.cos(np.pi * x)
            return (2 / 3) * np.pi**2 * (s ** (2 / 3) + (1 / 3) * s ** (-4 / 3) * c**2)

        scan = threshold_scan(
            dirichlet_levels(theta, 2.0), [2.0, 2.5, 3.0, 3.5], [1025, 2049, 4097, 8193]
        )
        assert scan.verdict_for(2.0) is Verdict.CONVERGENT
        assert scan.verdict_for(2.5) is Verdict.CONVERGENT
        assert scan.verdict_for(3.0) is Verdict.DIVERGENT
        assert scan.verdict_for(3.5) is Verdict.DIVERGENT

    def test_level_validation(self):
        solve = singular_levels(ProblemSpec(m=2.0, p=0.5, q=1.0))
        with pytest.raises(InvalidConfig, match="need at least 3 refinement levels"):
            threshold_scan(solve, [2.0], [257, 513])  # too few levels
        assert threshold_scan(solve, [2.0], [257, 513, 1025]).level_ns == (257, 513, 1025)
        with pytest.raises(InvalidConfig):
            threshold_scan(solve, [2.0], [257, 513, 1025, 2000])  # not nested

    @pytest.mark.parametrize(
        "levels",
        [[257.5, 513, 1025], [257, 513, 1025.9], ["257", 513, 1025], [None, 513, 1025],
         [math.inf, 513, 1025], [257, math.nan, 1025], [True, 513, 1025]],
    )
    def test_a_level_that_is_not_a_whole_number_is_refused_before_any_solve(self, levels):
        def solve(n):
            raise AssertionError(f"solved at n = {n}")

        with pytest.raises(InvalidConfig, match="levels must be whole node counts"):
            threshold_scan(solve, [2.0], levels)

    def test_whole_float_levels_are_taken_as_ints(self):
        solve = singular_levels(ProblemSpec(m=2.0, p=0.5, q=1.0))
        floats = threshold_scan(solve, [2.0], [257.0, np.float64(513), 1025])
        ints = threshold_scan(solve, [2.0], [257, 513, 1025])
        assert floats.level_ns == (257, 513, 1025)
        assert all(type(n) is int for n in floats.level_ns)
        assert np.array_equal(floats.norms, ints.norms) and floats.rates == ints.rates

    @pytest.mark.parametrize(
        "spec, taus, levels",
        [
            (ProblemSpec(m=2.0, p=0.5, q=1.0), (2.0, 2.5, 2.9, 3.0, 3.5, 4.0),
             (1025, 2049, 4097, 8193)),
            (ProblemSpec(m=2.0, p=0.5, q=0.5), (2.0, 4.0, 8.0), (1025, 2049, 4097, 8193)),
            (ProblemSpec(m=1.5, p=0.5, q=1.0, domain=Domain.ball(3)),
             (1.5, 1.75, 2.0, 2.25, 2.5), (513, 1025, 2049, 4097)),
        ],
        ids=["supercritical", "critical", "ball-m1.5"],
    )
    def test_three_levels_are_the_last_three_of_four(self, spec, taus, levels):
        # the verdict reads the last two increments only, so dropping the
        # coarsest level changes no verdict, rate or seminorm to the last bit
        solve = singular_levels(spec)
        four = threshold_scan(solve, taus, levels)
        three = threshold_scan(solve, taus, levels[1:])
        assert three.level_ns == four.level_ns[1:]
        assert three.verdicts == four.verdicts
        assert np.array_equal(np.array(three.rates), np.array(four.rates), equal_nan=True)
        assert np.array_equal(three.norms, four.norms[1:])

    def test_empty_tau_list_refused_before_any_solve(self):
        def solve(n):
            raise AssertionError(f"level n={n} solved with no tau to scan")

        with pytest.raises(InvalidConfig, match="need at least one tau"):
            threshold_scan(solve, [], [257, 513, 1025])

    def test_grading_validated_before_any_solve(self):
        solved = []
        with pytest.raises(InvalidGrading, match="grading must be >= 1"):
            threshold_scan(solved.append, [2.0], [257, 513, 1025, 2049], grading=0.5)
        assert solved == []

    def test_small_level_validated_before_any_solve(self):
        solved = []
        with pytest.raises(InvalidConfig, match="level n=9 has fewer than 16 nodes"):
            threshold_scan(solved.append, [2.0], [9, 17, 33, 65])
        assert solved == []

    def test_tau_below_one_validated_before_any_solve(self):
        def solve(n):
            raise AssertionError(f"level n={n} solved before tau was checked")

        with pytest.raises(InvalidConfig, match="tau must be >= 1, got 0.5"):
            threshold_scan(solve, [2.0, 0.5], [257, 513, 1025, 2049])

    @pytest.mark.parametrize("tau,msg", [(math.inf, "tau must be finite, got inf"),
                                         (math.nan, "tau must be >= 1, got nan")])
    def test_non_finite_tau_refused_before_any_solve(self, tau, msg):
        def solve(n):
            raise AssertionError(f"level n={n} solved before tau was checked")

        with pytest.raises(InvalidConfig, match=msg):
            threshold_scan(solve, [2.0, tau], [257, 513, 1025, 2049])
        g = make_graded_grid(65, 1.0)
        with pytest.raises(InvalidConfig, match=msg):
            sobolev_seminorm(GridFunction(g, g.delta_nodes), tau)

    def test_failed_level_names_n_and_chains_the_cause(self):
        def solve(n):
            if n == 513:
                raise NonConvergence("budget exhausted")
            return sampled(make_graded_grid(n, 3.0), lambda x: x * (1 - x))

        msg = "solve failed at level n=513: budget exhausted"
        with pytest.raises(SolveFailed, match=msg) as info:
            threshold_scan(solve, [2.0], [257, 513, 1025, 2049])
        assert isinstance(info.value.__cause__, NonConvergence)

    def test_a_non_finite_seminorm_is_refused(self):
        def solve(n):
            g = make_graded_grid(n, 3.0)
            u = g.nodes * (1.0 - g.nodes)
            u[n // 2] = np.nan
            return GridFunction(g, u)

        with pytest.raises(SolveFailed, match="non-finite seminorm in scan"):
            threshold_scan(solve, [2.0], [257, 513, 1025])

    @pytest.mark.parametrize(
        ("nodes", "grading", "msg"),
        [(513, 3.0, "got a field on 513 nodes at grading 3"),
         (257, 2.0, "got a field on 257 nodes at grading 2")],
        ids=["node-count", "grading"],
    )
    def test_field_on_the_wrong_grid_is_refused_before_any_seminorm(
        self, monkeypatch, nodes, grading, msg
    ):
        import mlap1d.analyzer

        measured = []
        # a scan forms each field's |Du| once, before any of its seminorms
        monkeypatch.setattr(mlap1d.analyzer, "_abs_gradient", lambda u: measured.append(u))
        field = sampled(make_graded_grid(nodes, grading), lambda x: x * (1 - x))
        with pytest.raises(GridMismatch, match=f"level n=257 at grading 3 {msg}"):
            threshold_scan(lambda n: field, [2.0], [257, 513, 1025, 2049])
        assert measured == []


class TestDistanceIntegral:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.99])
    def test_finite_side(self, a):
        res = distance_integral_classify(a)
        assert res.finite
        exact = quad_integral(lambda x: min(x, 1 - x) ** (-a), 0.0, 1.0, points=[0.5])
        assert res.value == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("a", [1.0, 1.1])
    def test_infinite_side(self, a):
        assert not distance_integral_classify(a).finite

    @pytest.mark.parametrize("a", [27.0, 30.0])
    def test_an_overflowing_level_sum_reads_infinite(self, a):
        # the finer levels overflow; the exponent comes from the finite ones
        res = distance_integral_classify(a)
        assert not res.finite and res.value is None
        assert res.estimated_exponent == pytest.approx(a, rel=1e-6)
        assert all(math.isfinite(d) for d in res.increments)

    def test_too_few_finite_levels_leave_no_exponent(self):
        res = distance_integral_classify(300.0)
        assert not res.finite and math.isnan(res.estimated_exponent)

    def test_half_exponent_value(self):
        res = distance_integral_classify(0.5)
        assert res.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)

    def test_zero_exponent(self):
        res = distance_integral_classify(0.0)
        assert res.finite and res.value == pytest.approx(1.0, abs=1e-12)

    def test_level_validation(self):
        with pytest.raises(InvalidConfig, match="need at least 3 refinement levels"):
            distance_integral_classify(0.5, refinement_levels=2)

    @pytest.mark.parametrize("levels", [3.5, math.nan, math.inf, None, "4", True])
    def test_a_level_count_that_is_not_a_whole_number_is_refused(self, levels):
        with pytest.raises(InvalidConfig, match="need at least 3 refinement levels"):
            distance_integral_classify(0.5, refinement_levels=levels)

    def test_a_whole_float_level_count_is_taken_as_an_int(self):
        assert distance_integral_classify(0.5, 4.0) == distance_integral_classify(0.5, 4)

    def test_three_levels_classify(self):
        # the rate and the tail read the last two increments only
        finite = distance_integral_classify(0.5, refinement_levels=3)
        assert finite.finite and len(finite.increments) == 2
        assert finite.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-2)
        assert not distance_integral_classify(1.0, refinement_levels=3).finite


class TestGradientBound:
    def test_exact_power_law_constant(self):
        # w = delta^(2-a): |w'| delta^(a-1) = (2-a) everywhere; the first
        # checked cells carry O(1) difference-quotient distortion, the
        # interior profile matches tightly
        a = 4.0 / 3.0
        g, g2 = make_graded_grid(2049, 3.0), make_graded_grid(4097, 3.0)
        w = sampled(g, lambda x: g.domain.delta(x) ** (2.0 - a))
        w2 = sampled(g2, lambda x: g2.domain.delta(x) ** (2.0 - a))
        rep = gradient_bound_check(w, a, refined=w2)
        assert rep.constant == pytest.approx(2.0 - a, rel=0.05)
        assert rep.refined_constant == pytest.approx(2.0 - a, rel=0.05)
        assert 0.5 <= rep.ratio <= 2.0
        du = np.abs(np.diff(w.values)) / g.h
        profile = du * g.delta_mid ** (a - 1.0)
        mid = g.n // 2
        assert profile[mid - 5 : mid + 5] == pytest.approx(2.0 - a, rel=1e-6)

    def test_skip_zone_wider_than_the_grid_is_a_domain_error(self):
        # 4 cells, 2 skipped at each boundary: none left to check
        g = Grid1D(nodes=np.linspace(0.0, 1.0, 5), grading_exponent=1.0)
        w = sampled(g, lambda x: x * (1 - x))
        fine = sampled(make_graded_grid(33, 1.0), lambda x: x * (1 - x))
        with pytest.raises(DomainError, match="grid too coarse"):
            gradient_bound_check(w, 1.0, refined=fine)

    def test_quadratic_bounded_by_one(self):
        g, g2 = make_graded_grid(1025, 1.0), make_graded_grid(2049, 1.0)
        w = sampled(g, lambda x: x * (1 - x))
        w2 = sampled(g2, lambda x: x * (1 - x))
        rep = gradient_bound_check(w, 1.0, refined=w2)
        assert rep.constant <= 1.0 + 1e-12
        assert rep.refined_constant <= 1.0 + 1e-12

    def test_solved_field_stable_across_refinement(self):
        def theta(g):
            return GridFunction.interior_from_callable(
                g, lambda x: g.domain.delta(x) ** (-4.0 / 3.0)
            )

        g1, g2 = make_graded_grid(1025, 3.0), make_graded_grid(4097, 3.0)
        w1 = solve_dirichlet(theta(g1), 2.0).solution
        w2 = solve_dirichlet(theta(g2), 2.0).solution
        rep = gradient_bound_check(w1, 4.0 / 3.0, refined=w2)
        assert 0.5 <= rep.ratio <= 2.0


class TestIncrementRateRule:
    """The one rule behind scan verdicts and the distance-integral verdict."""

    @staticmethod
    def verdict(values, grading=3.0):
        from mlap1d.analyzer import _increment_rate, _rate_verdict

        e = _increment_rate(np.asarray(values, dtype=float), grading)
        return e, _rate_verdict(e)

    def test_geometric_increments_converge(self):
        # d_l = 2^(-3 * 0.1 l): the rate the limit of a tau = 0.9 tau* scan has
        e, v = self.verdict(5.0 + np.cumsum(2.0 ** (-0.3 * np.arange(5))))
        assert e == pytest.approx(0.1, rel=1e-12)
        assert v is Verdict.CONVERGENT

    def test_constant_increments_diverge(self):
        # a logarithmically divergent integral gains the same amount per level
        e, v = self.verdict([1.0, 1.5, 2.0, 2.5])
        assert e == 0.0 and v is Verdict.DIVERGENT
        # rounding level is relative: a tiny field's divergence still shows
        e, v = self.verdict(1e-20 * np.array([1.0, 1.5, 2.0, 2.5]))
        assert e == pytest.approx(0.0, abs=1e-12) and v is Verdict.DIVERGENT

    def test_growing_increments_diverge(self):
        e, v = self.verdict([1.0, 1.1, 1.3, 1.7])
        assert e == pytest.approx(-1.0 / 3.0) and v is Verdict.DIVERGENT

    def test_sign_change_is_marginal(self):
        e, v = self.verdict([1.0, 1.2, 1.3, 1.25])
        assert math.isnan(e) and v is Verdict.MARGINAL
        e, v = self.verdict([1.0, 1.2, 1.2, 1.3])  # earlier increment zero
        assert math.isnan(e) and v is Verdict.MARGINAL

    def test_rounding_level_increments_converge(self):
        e, v = self.verdict([3.0, 3.0 + 4e-16, 3.0 - 4e-16, 3.0 + 8e-16])
        assert e == math.inf and v is Verdict.CONVERGENT

    def test_rounding_level_reads_only_the_last_two_increments(self):
        # an earlier increment the rate never reads must not decide: four
        # levels read as their last three do
        ulp = np.spacing(2.0)
        values = [1.0, 2.0, 2.0 + ulp, 2.0 + 2.0 * ulp]
        assert self.verdict(values) == self.verdict(values[1:]) == (math.inf, Verdict.CONVERGENT)

    def test_rate_band_edge(self):
        from mlap1d.analyzer import RATE_BAND

        # increment ratio 2^(-3 RATE_BAND) at grading 3 is the flip point
        band = 2.0 ** (-3.0 * RATE_BAND)
        assert self.verdict([0.0, 1.0, 1.0 + 0.999 * band])[1] is Verdict.CONVERGENT
        assert self.verdict([0.0, 1.0, 1.0 + 1.001 * band])[1] is Verdict.DIVERGENT

    @pytest.mark.parametrize("a", [0.5, 0.9, 0.995, 1.0, 1.1])
    def test_scan_and_distance_integral_classify_alike(self, a):
        # a scan at tau = 1 of the tent u = q_l min(x, 1 - x) has ||Du||_1 =
        # q_l, the quadrature sum distance_integral_classify refines
        grids = {256 * 2**l + 1: make_graded_grid(256 * 2**l + 1, 3.0) for l in range(6)}
        sums = {n: float(np.dot(g.h, g.delta_mid ** (-a))) for n, g in grids.items()}
        scan = threshold_scan(
            lambda n: GridFunction(grids[n], sums[n] * grids[n].delta_nodes), [1.0], list(grids)
        )
        res = distance_integral_classify(a)
        assert np.diff(scan.norms[:, 0]) == pytest.approx(res.increments, rel=1e-9)
        assert scan.verdicts[0] is (Verdict.CONVERGENT if res.finite else Verdict.DIVERGENT)
        assert 1.0 - scan.rates[0] == pytest.approx(res.estimated_exponent, abs=1e-6)


THRESHOLD_CASES = [
    ((3.0, 0.5, 1.0), "interval"),
    ((3.0, 0.5, 1.0), "ball"),
    ((5.0, 0.2, 1.5), "interval"),
    ((1.5, 0.5, 1.0), "interval"),
    ((1.5, 0.5, 1.0), "ball"),
    ((2.0, 0.5, 1.0), "ball"),
]


@pytest.mark.parametrize(
    ("mpq", "domain"), THRESHOLD_CASES,
    ids=[f"{m:g},{p:g},{q:g}-{d}" for (m, p, q), d in THRESHOLD_CASES],
)
def test_scan_rate_tracks_the_sharp_index_for_every_m(mpq, domain):
    # I_l = ||Du||_tau^tau converges like delta_min^(1 - tau/tau*), so the
    # rate reads 1 - tau/tau*: Convergent below tau*, Divergent from tau* on
    # (logarithmically at tau* itself)
    m, p, q = mpq
    spec = ProblemSpec(m=m, p=p, q=q, domain=Domain.ball(3) if domain == "ball" else INTERVAL01)
    tstar = (m + p - 1.0) / (p + q - 1.0)
    factors = (0.8, 0.95, 1.0, 1.05, 1.2)
    scan = threshold_scan(
        singular_levels(spec), [tstar * f for f in factors], [1025, 2049, 4097, 8193]
    )
    assert [v.value[0] for v in scan.verdicts] == ["C", "C", "D", "D", "D"]
    for f, e in zip(factors, scan.rates):
        assert abs(e - (1.0 - f)) <= 2e-3, (f, e)


def test_radial_supercritical_exponent():
    # the boundary exponent prediction holds in the radial reduction too;
    # the curvature term adds an O(delta) correction, so fit deeper
    from mlap1d import Domain, ProblemSpec, solve_singular

    spec = ProblemSpec(m=2.0, p=0.5, q=1.0, domain=Domain.ball(3))
    g = make_graded_grid(8193, 3.0, spec.domain)
    rep = solve_singular(spec, g)
    fit = fit_boundary_exponent(rep.solution, (1e-6, 1e-4))
    assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.03)
