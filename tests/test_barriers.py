import dataclasses
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
    apply_mlap,
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
from mlap1d.barriers import check_scaled, default_log_scale
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
        c_sup, cert_sup = auto_scale(fam, SUPER, theta, 2.0, eig)
        c_sub, cert_sub = auto_scale(fam, SUB, theta, 2.0, eig)
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
            c, cert = auto_scale(PowerOfEigen(2.0 / 3.0), side, E3, 2.0, eig_1025)
            assert cert.certified and c <= 2.0**10

    def test_certification_monotone_in_c(self):
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
        # destroyed by refinement, and no c <= 2^6 certifies on the fine grid
        wrong = PowerOfEigen(0.3)
        c_by_n = {}
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0, tol=1e-10)
            try:
                c_by_n[n], _ = auto_scale(wrong, SUB, E3, 2.0, eig)
            except NoCertifiableScale:
                c_by_n[n] = math.inf
        assert c_by_n[257] <= 2.0**6  # spuriously certified when coarse
        assert c_by_n[4097] > 2.0**6  # exposed by refinement
        # and the coarse-certified constant fails the fine-grid check
        eig4 = first_eigenpair(make_graded_grid(4097, 3.0), 2.0, tol=1e-10)
        bspec = BarrierSpec(family=wrong, c=c_by_n[257], side=SUB, base=eig4)
        cert = check_barrier(build_barrier(bspec, eig4.grid), SUB, E3, 2.0)
        assert not cert.certified

    def test_correct_exponent_stable_under_refinement(self):
        cs = []
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0, tol=1e-10)
            c, _ = auto_scale(PowerOfEigen(2.0 / 3.0), SUB, E3, 2.0, eig)
            cs.append(c)
        assert max(cs) - min(cs) <= 1e-3 * min(cs)


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


def _check_at(family, side, c, spec, base, skip_cells):
    _, cert = check_scaled(family, side, c, spec, spec.m, base, base.grid, 0.0, skip_cells)
    return cert.certified


# The supercritical point (m, 0.2, 1) on the interval and the N = 3 ball.  At
# m = 1.2 the sub side's homogeneous scale fails its check at the flat top
# of the eigenfunction (see auto_scale) and certifies at the next power of
# two, where the ladder of powers of two certified it too.
SCALE_CASES = {
    f"{dom}-{m:g}": ProblemSpec(m=m, p=0.2, q=1.0, domain=domain)
    for m in (1.2, 1.5, 2.0, 3.0, 5.0)
    for dom, domain in (("interval", Domain.interval()), ("ball", Domain.ball(3)))
}
FLAT_TOP_SCALES = {"interval-1.2": 4.0, "ball-1.2": 64.0}


@pytest.fixture(scope="module")
def scale_bases():
    return {
        name: first_eigenpair(make_graded_grid(1025, 3.0, spec.domain), spec.m)
        for name, spec in SCALE_CASES.items()
    }


class TestExactScale:
    """auto_scale returns the smallest certifying c, to a relative 1e-6, unless
    rounding noise at the flat top sets it (then an upper bound)."""

    @pytest.mark.parametrize("skip_cells", [0, 2])
    @pytest.mark.parametrize("side", [SUB, SUPER])
    @pytest.mark.parametrize("name", SCALE_CASES)
    def test_scale_certifies_and_just_below_does_not(self, scale_bases, name, side, skip_cells):
        spec, base = SCALE_CASES[name], scale_bases[name]
        family = dict(zip((SUB, SUPER), regime_families(spec)))[side]
        c, cert = auto_scale(family, side, spec, spec.m, base, skip_cells=skip_cells)
        assert cert.certified and cert.skip_cells == skip_cells
        assert _check_at(family, side, c, spec, base, skip_cells)
        if side == SUB and name in FLAT_TOP_SCALES:
            # an upper bound: the flat top's noise certifies or fails at random
            assert c == FLAT_TOP_SCALES[name]
        else:
            assert c == 1.0 or not _check_at(family, side, c * (1 - 1e-6), spec, base, skip_cells)
        # the ladder c = 2, 4, 8, ... stopped at the next power of two above c
        k = max(1, math.ceil(math.log2(c)))
        assert _check_at(family, side, 2.0**k, spec, base, skip_cells)
        assert k == 1 or not _check_at(family, side, 2.0 ** (k - 1), spec, base, skip_cells)

    @pytest.mark.parametrize("name", SCALE_CASES)
    def test_pair_shares_the_larger_scale(self, scale_bases, name):
        spec, base = SCALE_CASES[name], scale_bases[name]
        scales = [
            auto_scale(family, side, spec, spec.m, base, skip_cells=0)[0]
            for family, side in zip(regime_families(spec), (SUB, SUPER))
        ]
        pair = certified_pair(spec, base.grid, base=base)
        assert pair.c == max(scales)
        assert pair.sub_cert.certified and pair.super_cert.certified
        assert pair.sub_cert.description == regime_families(spec)[0].describe()

    @pytest.mark.parametrize("name", ["interval-2", "ball-1.2"])
    def test_pair_checks_only_the_smaller_side_again(self, scale_bases, monkeypatch, name):
        spec, base = SCALE_CASES[name], scale_bases[name]
        calls = []
        check = mlap1d.barriers.check_scaled

        def counted(family, side, c, *args):
            calls.append((side, c))
            return check(family, side, c, *args)

        monkeypatch.setattr(mlap1d.barriers, "check_scaled", counted)
        pair = certified_pair(spec, base.grid, base=base)
        # the side that set the shared scale confirmed it in auto_scale
        assert sorted(side for side, c in calls if c == pair.c) == [SUB, SUPER]

    def test_a_scale_set_by_rounding_noise_is_an_upper_bound(self):
        # on the ball's flat top w_0 = w_1, so node 0's residual is noise
        spec = ProblemSpec(m=1.2, p=0.2, q=0.3, domain=Domain.ball(3))
        base = first_eigenpair(make_graded_grid(1025, 3.0, spec.domain), spec.m)
        sub, _ = regime_families(spec)
        c, cert = auto_scale(sub, SUB, spec, spec.m, base, skip_cells=0)
        assert cert.certified and c == pytest.approx(52.4091, rel=1e-5)
        assert _check_at(sub, SUB, 0.9 * c, spec, base, 0)
        assert not _check_at(sub, SUB, 0.8 * c, spec, base, 0)

    def test_e3_scales(self, eig_1025):
        sub, sup = regime_families(E3)
        c_sub, _ = auto_scale(sub, SUB, E3, 2.0, eig_1025)
        c_super, _ = auto_scale(sup, SUPER, E3, 2.0, eig_1025)
        c_super_0, _ = auto_scale(sup, SUPER, E3, 2.0, eig_1025, skip_cells=0)
        assert c_sub == pytest.approx(2.21201, rel=2e-6)
        assert c_super == pytest.approx(1.30312, rel=2e-6)
        assert c_super_0 == pytest.approx(1.70595, rel=2e-6)
        assert certified_pair(E3, eig_1025.grid, base=eig_1025).c == c_sub

    def test_flat_top_at_m_1_05(self):
        spec = ProblemSpec(m=1.05, p=0.0, q=0.0)
        base = first_eigenpair(make_graded_grid(1025, 3.0), spec.m)
        sub, sup = regime_families(spec)
        # the super side has A <= 0 on the flat top (nodes 401 to 623), so no
        # c serves; the refusal names the node where A is most negative
        with pytest.raises(NoCertifiableScale, match="-div.Phi. = -5298.25 .* at node 416$"):
            auto_scale(sup, SUPER, spec, spec.m, base, skip_cells=0)
        # the sub side's homogeneous scale 2.41e38 fails its check at node
        # 481; the next power of two keeps the unit barrier's rounding
        c, cert = auto_scale(sub, SUB, spec, spec.m, base, skip_cells=0)
        assert c == 2.0**128 and cert.certified
        _, near = check_scaled(sub, SUB, 2.41e38, spec, spec.m, base, base.grid, 0.0, 0)
        assert not near.certified and near.worst_node == 481

    def test_a_scale_the_check_refuses_is_not_returned(self, eig_1025, monkeypatch):
        check = mlap1d.barriers.check_barrier

        def refusing(*args):
            return dataclasses.replace(check(*args), certified=False)

        monkeypatch.setattr(mlap1d.barriers, "check_barrier", refusing)
        sub, _ = regime_families(E3)
        with pytest.raises(NoCertifiableScale, match="fails its check .* at node \\d+$"):
            auto_scale(sub, SUB, E3, 2.0, eig_1025)

    def test_pair_refuses_a_side_failing_at_the_shared_scale(self, eig_1025, monkeypatch):
        check = mlap1d.barriers.check_scaled

        def super_fails_above_2(family, side, c, *args):
            cand, cert = check(family, side, c, *args)
            refused = side == SUPER and c > 2.0
            return cand, dataclasses.replace(cert, certified=cert.certified and not refused)

        monkeypatch.setattr(mlap1d.barriers, "check_scaled", super_fails_above_2)
        # the super scale 1.706 confirms; the shared sub scale 2.212 does not
        with pytest.raises(NoCertifiableScale, match=r"^super fails at c = 2.21201 at node \d+$"):
            certified_pair(E3, eig_1025.grid, base=eig_1025)

    def test_a_node_capping_c_from_above_is_named(self, eig_1025):
        # the profile dips at the top (log(1.5) < s), so A < 0 there; a theta
        # of 16 A where A > 0 and 2 A where A < 0 asks c >= 16 and c <= 2
        family = LogPowerOfEigen(s=1.0, big_a=1.5)
        unit = build_barrier(BarrierSpec(family, 1.0, SUPER, eig_1025), eig_1025.grid)
        a = apply_mlap(unit, 2.0).values
        theta = GridFunction(eig_1025.grid, np.where(a > 0.0, 16.0, 2.0) * a)
        with pytest.raises(NoCertifiableScale, match=r"-div\(Phi\) = -[\d.]+ .* at node \d+$"):
            auto_scale(family, SUPER, theta, 2.0, eig_1025)

    def test_slack_bisects_to_the_smallest_scale(self, eig_1025):
        sub, _ = regime_families(E3)
        c0, _ = auto_scale(sub, SUB, E3, 2.0, eig_1025)
        for slack in (1e-3, -1e-3):
            c, cert = auto_scale(sub, SUB, E3, 2.0, eig_1025, slack=slack)
            assert cert.certified and cert.slack == slack
            assert (c < c0) if slack > 0 else (c > c0)
            _, below = check_scaled(
                sub, SUB, c * (1 - 1e-6), E3, 2.0, eig_1025, eig_1025.grid, slack, 2
            )
            assert not below.certified
        # -div(Phi(phi/c)) > 0 is never <= theta + slack = -1
        theta = GridFunction(eig_1025.grid, np.full(eig_1025.grid.n, 1.0))
        with pytest.raises(NoCertifiableScale, match="no finite c .* at node"):
            auto_scale(PowerOfEigen(1.0), SUB, theta, 2.0, eig_1025, slack=-2.0)

    @pytest.mark.parametrize("skip_cells", [-1, -5])
    def test_negative_skip_cells_is_refused(self, eig_1025, skip_cells):
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        with pytest.raises(DomainError, match=f"skip_cells must be >= 0, got {skip_cells}"):
            check_barrier(cand, SUPER, E3, 2.0, skip_cells=skip_cells)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.5])
    def test_scale_must_be_finite_and_at_least_one(self, eig_1025, c):
        with pytest.raises(DomainError, match="scaling constant must be >= 1 and finite"):
            BarrierSpec(family=PowerOfEigen(1.0), c=c, side=SUB, base=eig_1025)
