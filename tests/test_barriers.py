import math

import numpy as np
import pytest

import mlap1d
from mlap1d import (
    BarrierSpec,
    Domain,
    GridFunction,
    LogPowerOfEigen,
    PowerOfEigen,
    ProblemSpec,
    SUB,
    SUPER,
    SolverConfig,
    auto_scale,
    build_barrier,
    certified_pair,
    check_barrier,
    first_eigenpair,
    make_graded_grid,
    regime_families,
    solve_dirichlet,
    solve_singular,
)
from mlap1d.barriers import default_log_scale
from mlap1d.errors import DomainError, NoCertifiableScale, NonPositiveCandidate

E3 = ProblemSpec(m=2.0, p=0.5, q=1.0)


@pytest.fixture(scope="module")
def eig_1025():
    return first_eigenpair(make_graded_grid(1025, 3.0), 2.0, tol=1e-10)


def assert_between_paper_barriers(spec, grid, rep):
    """The singular solve's answer lies within picard_tol of the paper's
    certified phi-barrier pair on the same grid."""
    pair = certified_pair(spec, grid)
    assert pair.sub_cert.certified and pair.super_cert.certified
    u, tol = rep.solution.values, SolverConfig().picard_tol
    assert np.all(u >= pair.sub.values - tol)
    assert np.all(u <= pair.super_.values + tol)


def synthetic_sine_pair(n=13):
    """An exact analytic stand-in base: sin(pi x) with lambda = pi^2."""
    g = make_graded_grid(n, 1.0)
    phi = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x), dirichlet=True)
    from mlap1d.eigen import EigenPair

    return EigenPair(eigenfunction=phi, eigenvalue=np.pi**2, m=2.0, residual=0.0)


class TestBuildBarrier:
    def test_identity_scaling(self):
        base = synthetic_sine_pair(33)
        spec = BarrierSpec(family=PowerOfEigen(1.0), c=1.0, side=SUPER, base=base)
        w = build_barrier(spec, base.grid)
        assert np.allclose(w.values, base.eigenfunction.values, atol=0)

    def test_power_two_thirds(self):
        base = synthetic_sine_pair(33)  # odd n: node at x = 1/2
        spec = BarrierSpec(family=PowerOfEigen(2.0 / 3.0), c=2.0, side=SUPER, base=base)
        w = build_barrier(spec, base.grid)
        mid = base.grid.n // 2
        assert w.values[mid] == pytest.approx(2.0, abs=1e-12)
        expected = 2.0 * np.sin(np.pi * base.grid.nodes[1]) ** (2.0 / 3.0)
        assert w.values[1] == pytest.approx(expected, rel=1e-13)

    def test_log_power_value(self):
        # at the node where phi = 1/2: (1/2) log^(1/3)(4) = 0.5575 (about 0.5567)
        base = synthetic_sine_pair(25)  # x = 1/6 gives sin = 1/2
        spec = BarrierSpec(
            family=LogPowerOfEigen(s=1.0 / 3.0, big_a=2.0), c=1.0, side=SUPER, base=base
        )
        w = build_barrier(spec, base.grid)
        i = 4  # x = 4/24 = 1/6
        phi_i = base.eigenfunction.values[i]
        assert phi_i == pytest.approx(0.5, abs=1e-12)
        exact = 0.5 * math.log(4.0) ** (1.0 / 3.0)
        assert w.values[i] == pytest.approx(exact, rel=1e-12)
        assert abs(w.values[i] - 0.5567) <= 2e-3

    def test_dirichlet_zeros_exact(self):
        base = synthetic_sine_pair(33)
        spec = BarrierSpec(
            family=LogPowerOfEigen(s=0.5, big_a=3.0), c=4.0, side=SUB, base=base
        )
        w = build_barrier(spec, base.grid)
        assert w.values[0] == 0.0 and w.values[-1] == 0.0

    def test_log_scale_must_exceed_max_phi(self):
        base = synthetic_sine_pair(33)
        with pytest.raises(DomainError):
            LogPowerOfEigen(s=0.5, big_a=1.0 - 1e-9)
        # A above 1 but at or below max phi is caught at build time
        tall = GridFunction(base.grid, 1.5 * base.eigenfunction.values)
        from mlap1d.eigen import EigenPair

        tall_base = EigenPair(eigenfunction=tall, eigenvalue=np.pi**2, m=2.0, residual=0.0)
        spec = BarrierSpec(
            family=LogPowerOfEigen(s=0.5, big_a=1.2), c=2.0, side=SUB, base=tall_base
        )
        with pytest.raises(DomainError):
            build_barrier(spec, base.grid)

    def test_family_parameter_validation(self):
        with pytest.raises(DomainError):
            PowerOfEigen(0.0)
        with pytest.raises(DomainError):
            PowerOfEigen(1.2)
        with pytest.raises(DomainError):
            LogPowerOfEigen(s=-0.1, big_a=3.0)

    def test_default_log_scale_exceeds_one_plus_diameter(self):
        from mlap1d import Domain, INTERVAL01

        assert default_log_scale(INTERVAL01, 0.5) > 2.0
        assert default_log_scale(Domain.ball(3), 0.5) > 3.0


class TestCheckBarrier:
    def test_zero_candidate_is_subsolution_for_fixed_theta(self):
        g = make_graded_grid(65, 2.0)
        theta = GridFunction(g, np.full(g.n, 1.0))
        cert = check_barrier(GridFunction(g, np.zeros(g.n)), SUB, theta, 2.0)
        assert cert.certified

    def test_zero_candidate_rejected_for_singular_rhs(self):
        g = make_graded_grid(65, 2.0)
        with pytest.raises(NonPositiveCandidate):
            check_barrier(GridFunction(g, np.zeros(g.n)), SUB, E3, 2.0)

    def test_power_law_rhs_construction_certifies(self):
        # theta = delta^(-4/3), candidate c * phi^(2/3): both sides certify
        eig = first_eigenpair(make_graded_grid(513, 3.0), 2.0, tol=1e-10)
        g = eig.grid
        theta = GridFunction.interior_from_callable(
            g, lambda x: g.domain.delta(x) ** (-4.0 / 3.0)
        )
        fam = PowerOfEigen(2.0 / 3.0)
        c_sup, cert_sup = auto_scale(fam, SUPER, theta, 2.0, eig, c_max=2.0**10)
        c_sub, cert_sub = auto_scale(fam, SUB, theta, 2.0, eig, c_max=2.0**10)
        assert cert_sup.certified and cert_sub.certified
        assert c_sup <= 2.0**10 and c_sub <= 2.0**10

    def test_solution_is_both_sides_within_slack(self):
        # a solved field is simultaneously sub- and supersolution up to
        # solver tolerance (absolute slack sized to the coarse-grid theta)
        spec = E3
        g = make_graded_grid(257, 2.0)
        rep = solve_singular(spec, g)
        for side in (SUB, SUPER):
            cert = check_barrier(rep.solution, side, spec, spec.m, slack=1e-3)
            assert cert.certified, (side, cert.worst_margin)

    def test_worst_node_reported(self):
        g = make_graded_grid(65, 2.0)
        theta = GridFunction(g, np.full(g.n, 1.0))
        u = GridFunction.from_callable(g, lambda x: x * (1 - x), dirichlet=True)
        cert = check_barrier(u, SUPER, theta, 2.0)
        assert cert.certified  # -lap = 2 >= 1
        assert 0 < cert.worst_node < g.n - 1
        assert cert.checked_nodes > 0


class TestAutoScale:
    def test_regime_family_certifies_both_sides(self, eig_1025):
        for side in (SUB, SUPER):
            c, cert = auto_scale(
                PowerOfEigen(2.0 / 3.0), side, E3, 2.0, eig_1025, c_max=2.0**10
            )
            assert cert.certified and c <= 2.0**10

    def test_certification_monotone_on_c_ladder(self):
        # fixed theta: once certified, larger c stays certified
        eig = synthetic_sine_pair(129)
        g = eig.grid
        theta = GridFunction(g, np.full(g.n, 5.0))
        c_star, _ = auto_scale(PowerOfEigen(1.0), SUPER, theta, 2.0, eig)
        for c in (c_star, 2 * c_star, 8 * c_star, 64 * c_star):
            bspec = BarrierSpec(family=PowerOfEigen(1.0), c=c, side=SUPER, base=eig)
            cert = check_barrier(build_barrier(bspec, g), SUPER, theta, 2.0)
            assert cert.certified

    def test_wrong_exponent_fails_under_refinement(self):
        # gamma = 0.3 instead of 2/3 for E3: a coarse-grid certificate is
        # destroyed by refinement, and with a fixed modest ladder the scale
        # search itself fails on the fine grid
        wrong = PowerOfEigen(0.3)
        c_by_n = {}
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0, tol=1e-10)
            try:
                c, _ = auto_scale(wrong, SUB, E3, 2.0, eig, c_max=2.0**6)
                c_by_n[n] = c
            except NoCertifiableScale:
                c_by_n[n] = None
        assert c_by_n[257] is not None  # spuriously certified when coarse
        assert c_by_n[4097] is None  # exposed by refinement
        # and the coarse-certified constant fails the fine-grid check
        eig4 = first_eigenpair(make_graded_grid(4097, 3.0), 2.0, tol=1e-10)
        bspec = BarrierSpec(family=wrong, c=c_by_n[257], side=SUB, base=eig4)
        cert = check_barrier(build_barrier(bspec, eig4.grid), SUB, E3, 2.0)
        assert not cert.certified

    def test_correct_exponent_stable_under_refinement(self):
        cs = []
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0, tol=1e-10)
            c, _ = auto_scale(PowerOfEigen(2.0 / 3.0), SUB, E3, 2.0, eig, c_max=2.0**6)
            cs.append(c)
        assert len(set(cs)) == 1


class TestCertifiedPair:
    @pytest.mark.parametrize(
        "spec",
        [
            ProblemSpec(m=2.0, p=0.3, q=0.3),
            ProblemSpec(m=2.0, p=0.5, q=0.5),
            E3,
        ],
        ids=["subcritical", "critical", "supercritical"],
    )
    def test_ordered_and_certified(self, spec):
        g = make_graded_grid(1025, 3.0)
        pair = certified_pair(spec, g)
        assert pair.sub_cert.certified and pair.super_cert.certified
        # every unknown node is checked, the cells next to the boundary too
        assert pair.sub_cert.checked_nodes == pair.super_cert.checked_nodes == g.n - 2
        assert np.all(pair.sub.values <= pair.super_.values + 1e-15)
        assert pair.c > 1.0

    def test_sandwich_for_all_regimes(self):
        # the solve certifies its own pair; the paper's phi-barriers, built
        # independently, must bracket its answer too
        for spec in (
            ProblemSpec(m=2.0, p=0.3, q=0.3),
            ProblemSpec(m=2.0, p=0.5, q=0.5),
            E3,
        ):
            g = make_graded_grid(1025, 3.0)
            assert_between_paper_barriers(spec, g, solve_singular(spec, g))

    @pytest.mark.parametrize(
        "spec, n",
        [
            (ProblemSpec(m=2.0, p=0.3, q=0.3), 4097),
            (ProblemSpec(m=2.0, p=0.3, q=0.3), 8193),
            (ProblemSpec(m=2.0, p=0.5, q=0.5), 16385),
            (E3, 8193),
        ],
        ids=["E1-4097", "E1-8193", "E2-16385", "E3-8193"],
    )
    def test_reference_solves_lie_between_the_paper_barriers(self, spec, n):
        # the E1-E3 solves of the acceptance suite, on their own grids
        g = make_graded_grid(n, 3.0)
        assert_between_paper_barriers(spec, g, solve_singular(spec, g))

    def test_regime_families_shapes(self):
        sub, sup = regime_families(E3)
        assert isinstance(sub, PowerOfEigen) and sub.gamma == pytest.approx(2 / 3)
        assert isinstance(sup, PowerOfEigen)
        sub, sup = regime_families(ProblemSpec(m=2.0, p=0.5, q=0.5))
        assert isinstance(sub, LogPowerOfEigen)
        assert sub.s == pytest.approx(2 / 3)
        sub, sup = regime_families(ProblemSpec(m=2.0, p=0.3, q=0.3))
        assert isinstance(sub, PowerOfEigen) and sub.gamma == 1.0
        assert isinstance(sup, LogPowerOfEigen)

    def test_fitted_exponent_matches_barrier_exponent(self):
        # the two-sided bracket pins the boundary exponent of the solution
        # of the fixed-theta problem to the barrier's own exponent
        from mlap1d import fit_boundary_exponent

        g = make_graded_grid(8193, 3.0)
        theta = GridFunction.interior_from_callable(
            g, lambda x: g.domain.delta(x) ** (-4.0 / 3.0)
        )
        u = solve_dirichlet(theta, 2.0).solution
        # window deep enough that the O(delta) matching correction to the
        # C delta^(2/3) profile stops polluting the slope
        fit = fit_boundary_exponent(u, (1e-6, 1e-4))
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.03)



def _reference_pair(spec, base, c_max=2.0**20):
    """Each side's smallest certifying power of two, found on its own ladder,
    then both sides built and checked at the larger of the two constants.

    Returns (c, [(candidate, certificate) for sub, super], [R_sub, R_super])
    with each side first certifying at 2^R.
    """
    sides = list(zip(regime_families(spec), (SUB, SUPER)))

    def build(family, side, c):
        return build_barrier(BarrierSpec(family=family, c=c, side=side, base=base), base.grid)

    def check(family, side, c):
        return check_barrier(
            build(family, side, c), side, spec, spec.m, skip_cells=0,
            description=f"{family.describe()} c={c:g} {side}",
        )

    rungs = []
    for family, side in sides:
        r = 1
        while not check(family, side, 2.0**r).certified:
            r += 1
            assert 2.0**r <= c_max
        rungs.append(r)
    c = 2.0 ** max(rungs)
    return c, [(build(f, s, c), check(f, s, c)) for f, s in sides], rungs


WALK_CASES = {
    "E3": E3,
    "interval-1.2": ProblemSpec(m=1.2, p=0.2, q=1.0),
    "ball-1.2": ProblemSpec(m=1.2, p=0.2, q=1.0, domain=Domain.ball(3)),
}


@pytest.fixture(scope="module")
def walk_bases():
    return {
        name: first_eigenpair(make_graded_grid(1025, 3.0, spec.domain), spec.m)
        for name, spec in WALK_CASES.items()
    }


class TestLadderWalk:
    """certified_pair walks one ladder for both sides."""

    @pytest.mark.parametrize("name", WALK_CASES)
    def test_matches_two_ladders_and_a_shared_check(self, walk_bases, name):
        spec, base = WALK_CASES[name], walk_bases[name]
        c, [(sub, sub_cert), (sup, super_cert)], _ = _reference_pair(spec, base)
        pair = certified_pair(spec, base.grid, base=base)
        assert pair.c == c
        assert pair.sub.values.tobytes() == sub.values.tobytes()
        assert pair.super_.values.tobytes() == sup.values.tobytes()
        for got, want in ((pair.sub_cert, sub_cert), (pair.super_cert, super_cert)):
            assert got.certified
            assert got.worst_margin == want.worst_margin
            assert got.report_items() == want.report_items()

    @pytest.mark.parametrize("name", WALK_CASES)
    def test_checks_at_most_one_per_rung_plus_two(self, walk_bases, monkeypatch, name):
        spec, base = WALK_CASES[name], walk_bases[name]
        _, _, rungs = _reference_pair(spec, base)
        calls = []
        check = mlap1d.barriers.check_barrier

        def counted(*args, **kwargs):
            calls.append(args[1])
            return check(*args, **kwargs)

        monkeypatch.setattr(mlap1d.barriers, "check_barrier", counted)
        certified_pair(spec, base.grid, base=base)
        assert len(calls) <= max(rungs) + 2
        if name == "interval-1.2":
            # the sub side certifies at 4, the super side at 512: two
            # ladders and a shared re-check take 2 + 9 + 2 = 13 checks
            assert rungs == [2, 9] and len(calls) == 11
