import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest

import mlap1d
from mlap1d import (
    Domain,
    BoundaryProfile,
    GridFunction,
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
    regime_profiles,
    solve_dirichlet,
    solve_singular,
)
from mlap1d.barriers import check_scaled
from mlap1d.core import default_log_scale
from mlap1d.errors import DomainError, GridMismatch, NoCertifiableScale, NonPositiveCandidate

E3 = ProblemSpec(m=2.0, p=0.5, q=1.0)


@pytest.fixture(scope="module")
def eig_1025():
    return first_eigenpair(make_graded_grid(1025, 3.0), 2.0)


@pytest.fixture(scope="module")
def eig3_1025():
    return first_eigenpair(make_graded_grid(1025, 3.0), 3.0)


def assert_between_paper_barriers(spec, grid, rep):
    """The singular solve's answer lies within picard_tol of the paper's
    certified phi-barrier pair on the same grid."""
    pair = certified_pair(spec, first_eigenpair(grid, spec.m))
    assert pair.sub_cert.certified and pair.super_cert.certified
    u, tol = rep.solution.values, SolverConfig().picard_tol
    assert np.all(u >= pair.sub.values - tol)
    assert np.all(u <= pair.super_.values + tol)


def synthetic_sine_pair(n=13):
    """An exact analytic stand-in base: sin(pi x) with lambda = pi^2."""
    g = make_graded_grid(n, 1.0)
    phi = GridFunction.interior_from_callable(g, lambda x: np.sin(np.pi * x))
    from mlap1d.eigen import EigenPair

    return EigenPair(eigenfunction=phi, eigenvalue=np.pi**2, m=2.0, residual=0.0)


class TestBuildBarrier:
    def test_identity_scaling(self):
        base = synthetic_sine_pair(33)
        w = build_barrier(BoundaryProfile.power(1.0), SUPER, 1.0, base)
        assert np.allclose(w.values, base.eigenfunction.values, atol=0)

    def test_power_two_thirds(self):
        base = synthetic_sine_pair(33)  # odd n: node at x = 1/2
        w = build_barrier(BoundaryProfile.power(2.0 / 3.0), SUPER, 2.0, base)
        mid = base.grid.n // 2
        assert w.values[mid] == pytest.approx(2.0, abs=1e-12)
        expected = 2.0 * np.sin(np.pi * base.grid.nodes[1]) ** (2.0 / 3.0)
        assert w.values[1] == pytest.approx(expected, rel=1e-13)

    def test_log_power_value(self):
        # at the node where phi = 1/2: (1/2) log^(1/3)(4) = 0.5575 (about 0.5567)
        base = synthetic_sine_pair(25)  # x = 1/6 gives sin = 1/2
        w = build_barrier(BoundaryProfile.logpower(s=1.0 / 3.0, A=2.0), SUPER, 1.0, base)
        i = 4  # x = 4/24 = 1/6
        phi_i = base.eigenfunction.values[i]
        assert phi_i == pytest.approx(0.5, abs=1e-12)
        exact = 0.5 * math.log(4.0) ** (1.0 / 3.0)
        assert w.values[i] == pytest.approx(exact, rel=1e-12)
        assert abs(w.values[i] - 0.5567) <= 2e-3

    def test_dirichlet_zeros_exact(self):
        base = synthetic_sine_pair(33)
        w = build_barrier(BoundaryProfile.logpower(s=0.5, A=3.0), SUB, 4.0, base)
        assert w.values[0] == 0.0 and w.values[-1] == 0.0

    def test_log_scale_must_exceed_max_phi(self):
        base = synthetic_sine_pair(33)
        with pytest.raises(DomainError):
            BoundaryProfile.logpower(s=0.5, A=1.0 - 1e-9)
        # A above 1 but at or below max phi is caught at build time
        tall = GridFunction(base.grid, 1.5 * base.eigenfunction.values)
        from mlap1d.eigen import EigenPair

        tall_base = EigenPair(eigenfunction=tall, eigenvalue=np.pi**2, m=2.0, residual=0.0)
        with pytest.raises(DomainError):
            build_barrier(BoundaryProfile.logpower(s=0.5, A=1.2), SUB, 2.0, tall_base)

    def test_family_parameter_validation(self):
        with pytest.raises(DomainError):
            BoundaryProfile.power(0.0)
        with pytest.raises(DomainError):
            BoundaryProfile.power(1.2)
        with pytest.raises(DomainError):
            BoundaryProfile.logpower(s=-0.1, A=3.0)

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
        eig = first_eigenpair(make_graded_grid(513, 3.0), 2.0)
        g = eig.grid
        theta = GridFunction.interior_from_callable(
            g, lambda x: g.domain.delta(x) ** (-4.0 / 3.0)
        )
        fam = BoundaryProfile.power(2.0 / 3.0)
        c_sup, cert_sup = auto_scale(fam, SUPER, theta, eig)
        c_sub, cert_sub = auto_scale(fam, SUB, theta, eig)
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
        u = GridFunction.interior_from_callable(g, lambda x: x * (1 - x))
        cert = check_barrier(u, SUPER, theta, 2.0)
        assert cert.certified  # -lap = 2 >= 1
        assert 0 < cert.worst_node < g.n - 1
        assert cert.checked_nodes > 0


class TestAutoScale:
    def test_regime_family_certifies_both_sides(self, eig_1025):
        for side in (SUB, SUPER):
            c, cert = auto_scale(BoundaryProfile.power(2.0 / 3.0), side, E3, eig_1025)
            assert cert.certified and c <= 2.0**10

    def test_certification_monotone_in_c(self):
        # fixed theta: once certified, larger c stays certified
        eig = synthetic_sine_pair(129)
        g = eig.grid
        theta = GridFunction(g, np.full(g.n, 5.0))
        c_star, _ = auto_scale(BoundaryProfile.power(1.0), SUPER, theta, eig)
        for c in (c_star, 2 * c_star, 8 * c_star, 64 * c_star):
            w = build_barrier(BoundaryProfile.power(1.0), SUPER, c, eig)
            cert = check_barrier(w, SUPER, theta, 2.0)
            assert cert.certified

    def test_wrong_exponent_fails_under_refinement(self):
        # gamma = 0.3 instead of 2/3 for E3: a coarse-grid certificate is
        # destroyed by refinement, and no c <= 2^6 certifies on the fine grid
        wrong = BoundaryProfile.power(0.3)
        c_by_n = {}
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0)
            try:
                c_by_n[n], _ = auto_scale(wrong, SUB, E3, eig)
            except NoCertifiableScale:
                c_by_n[n] = math.inf
        assert c_by_n[257] <= 2.0**6  # spuriously certified when coarse
        assert c_by_n[4097] > 2.0**6  # exposed by refinement
        # and the coarse-certified constant fails the fine-grid check
        eig4 = first_eigenpair(make_graded_grid(4097, 3.0), 2.0)
        cert = check_barrier(build_barrier(wrong, SUB, c_by_n[257], eig4), SUB, E3, 2.0)
        assert not cert.certified

    def test_correct_exponent_stable_under_refinement(self):
        cs = []
        for n in (257, 1025, 4097):
            eig = first_eigenpair(make_graded_grid(n, 3.0), 2.0)
            c, _ = auto_scale(BoundaryProfile.power(2.0 / 3.0), SUB, E3, eig)
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
        pair = certified_pair(spec, first_eigenpair(g, spec.m))
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

    def test_regime_profiles_shapes(self):
        sub, sup = regime_profiles(E3)
        assert sub.log_exponent is None and sub.exponent == pytest.approx(2 / 3)
        assert sup.log_exponent is None
        sub, sup = regime_profiles(ProblemSpec(m=2.0, p=0.5, q=0.5))
        assert sub.log_exponent is not None
        assert sub.log_exponent == pytest.approx(2 / 3)
        sub, sup = regime_profiles(ProblemSpec(m=2.0, p=0.3, q=0.3))
        assert sub.log_exponent is None and sub.exponent == 1.0
        assert sup.log_exponent is not None

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
    _, cert = check_scaled(family, side, c, spec, base, 0.0, skip_cells)
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
        family = dict(zip((SUB, SUPER), regime_profiles(spec)))[side]
        c, cert = auto_scale(family, side, spec, base, skip_cells=skip_cells)
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
            auto_scale(family, side, spec, base, skip_cells=0)[0]
            for family, side in zip(regime_profiles(spec), (SUB, SUPER))
        ]
        pair = certified_pair(spec, base)
        assert pair.c == max(scales)
        assert pair.sub_cert.certified and pair.super_cert.certified
        sub = build_barrier(regime_profiles(spec)[0], SUB, pair.c, base)
        assert pair.sub.values.tobytes() == sub.values.tobytes()

    def test_an_overflowing_flux_is_refused(self):
        # the m = 3 fluxes of this super barrier overflow, and -div(Phi) reads
        # inf - inf: no certificate can be judged there
        spec = ProblemSpec(3.0, 0.5, 1.0)
        base = first_eigenpair(make_graded_grid(65, 3.0), spec.m)
        cand = build_barrier(regime_profiles(spec)[1], SUPER, 1e300, base)
        with pytest.raises(DomainError, match="^the super residual is NaN at node 3: a flux"):
            check_barrier(cand, SUPER, spec, spec.m)

    def test_an_overflowing_rhs_decides_both_sides_quietly(self):
        # K w^(-p) overflows where the sub barrier at c ~ 5e215 is tiny: an
        # infinite rhs fails the super side and holds the sub side, with no
        # RuntimeWarning on the way
        ball = Domain.ball(3)
        spec = ProblemSpec(1.2, 1.5, 0.3, domain=ball)
        pair = certified_pair(spec, first_eigenpair(make_graded_grid(1026, 3.0, ball), spec.m))
        assert pair.c > 1e215 and pair.sub_cert.certified and pair.super_cert.certified

    @pytest.mark.parametrize("name", ["interval-2", "ball-1.2"])
    def test_pair_checks_only_the_smaller_side_again(self, scale_bases, monkeypatch, name):
        spec, base = SCALE_CASES[name], scale_bases[name]
        calls = []
        check = mlap1d.barriers.check_scaled

        def counted(family, side, c, *args):
            calls.append((side, c))
            return check(family, side, c, *args)

        monkeypatch.setattr(mlap1d.barriers, "check_scaled", counted)
        pair = certified_pair(spec, base)
        # the side that set the shared scale confirmed it in auto_scale
        assert sorted(side for side, c in calls if c == pair.c) == [SUB, SUPER]

    def test_a_scale_set_by_rounding_noise_is_an_upper_bound(self):
        # on the ball's flat top w_0 = w_1, so node 0's residual is noise
        spec = ProblemSpec(m=1.2, p=0.2, q=0.3, domain=Domain.ball(3))
        base = first_eigenpair(make_graded_grid(1025, 3.0, spec.domain), spec.m)
        sub, _ = regime_profiles(spec)
        c, cert = auto_scale(sub, SUB, spec, base, skip_cells=0)
        assert cert.certified and c == pytest.approx(52.4091, rel=1e-5)
        assert _check_at(sub, SUB, 0.9 * c, spec, base, 0)
        assert not _check_at(sub, SUB, 0.8 * c, spec, base, 0)

    def test_e3_scales(self, eig_1025):
        sub, sup = regime_profiles(E3)
        c_sub, _ = auto_scale(sub, SUB, E3, eig_1025)
        c_super, _ = auto_scale(sup, SUPER, E3, eig_1025)
        c_super_0, _ = auto_scale(sup, SUPER, E3, eig_1025, skip_cells=0)
        assert c_sub == pytest.approx(2.21201, rel=2e-6)
        assert c_super == pytest.approx(1.30312, rel=2e-6)
        assert c_super_0 == pytest.approx(1.70595, rel=2e-6)
        assert certified_pair(E3, eig_1025).c == c_sub

    def test_flat_top_at_m_1_05(self):
        spec = ProblemSpec(m=1.05, p=0.0, q=0.0)
        base = first_eigenpair(make_graded_grid(1025, 3.0), spec.m)
        sub, sup = regime_profiles(spec)
        # the super side has A <= 0 on the flat top (nodes 401 to 623), so no
        # c serves; the refusal names the node where A is most negative
        with pytest.raises(NoCertifiableScale, match="-div.Phi. = -5298.25 .* at node 416$"):
            auto_scale(sup, SUPER, spec, base, skip_cells=0)
        # the sub side's homogeneous scale 2.41e38 fails its check at node
        # 481; the next power of two keeps the unit barrier's rounding
        c, cert = auto_scale(sub, SUB, spec, base, skip_cells=0)
        assert c == 2.0**128 and cert.certified
        _, near = check_scaled(sub, SUB, 2.41e38, spec, base, 0.0, 0)
        assert not near.certified and near.worst_node == 481

    def test_a_scale_the_check_refuses_is_not_returned(self, eig_1025, monkeypatch):
        check = mlap1d.barriers.check_barrier

        def refusing(*args):
            return dataclasses.replace(check(*args), certified=False)

        monkeypatch.setattr(mlap1d.barriers, "check_barrier", refusing)
        sub, _ = regime_profiles(E3)
        with pytest.raises(NoCertifiableScale, match="fails its check .* at node \\d+$"):
            auto_scale(sub, SUB, E3, eig_1025)

    def test_pair_refuses_a_side_failing_at_the_shared_scale(self, eig_1025, monkeypatch):
        check = mlap1d.barriers.check_scaled

        def super_fails_above_2(family, side, c, *args):
            cand, cert = check(family, side, c, *args)
            refused = side == SUPER and c > 2.0
            return cand, dataclasses.replace(cert, certified=cert.certified and not refused)

        monkeypatch.setattr(mlap1d.barriers, "check_scaled", super_fails_above_2)
        # the super scale 1.706 confirms; the shared sub scale 2.212 does not
        with pytest.raises(NoCertifiableScale, match=r"^super fails at c = 2.21201 at node \d+$"):
            certified_pair(E3, eig_1025)

    @staticmethod
    def _capped_theta(base, cap):
        """The logpower profile dips at the top (log(1.5) < s), so A < 0 at
        145 checked nodes; a theta of 16 A where A > 0 and ``cap`` A where
        A < 0 asks c >= 16 and c <= cap."""
        family = BoundaryProfile.logpower(s=1.0, A=1.5)
        unit = build_barrier(family, SUPER, 1.0, base)
        a = apply_mlap(unit, 2.0).values
        return family, GridFunction(base.grid, np.where(a > 0.0, 16.0, cap) * a)

    @pytest.mark.parametrize("cap", [2.0, 8.0])
    def test_a_node_capping_c_from_above_is_named(self, eig_1025, cap):
        family, theta = self._capped_theta(eig_1025, cap)
        with pytest.raises(NoCertifiableScale, match=r"-div\(Phi\) = -[\d.]+ .* at node \d+$"):
            auto_scale(family, SUPER, theta, eig_1025)

    def test_a_window_of_scales_gives_its_lower_end(self, eig_1025):
        # c = 16, 20 and 32 certify, 8 and 40 do not
        family, theta = self._capped_theta(eig_1025, 32.0)
        c, cert = auto_scale(family, SUPER, theta, eig_1025)
        assert cert.certified and 16.0 <= c <= 16.0 * (1 + 1e-6)
        for c in (8.0, 40.0):
            assert not check_scaled(family, SUPER, c, theta, eig_1025, 0.0, 2)[1].certified

    def test_slack_bisects_to_the_smallest_scale(self, eig_1025):
        sub, _ = regime_profiles(E3)
        c0, _ = auto_scale(sub, SUB, E3, eig_1025)
        for slack in (1e-3, -1e-3):
            c, cert = auto_scale(sub, SUB, E3, eig_1025, slack=slack)
            assert cert.certified and cert.slack == slack
            assert (c < c0) if slack > 0 else (c > c0)
            _, below = check_scaled(
                sub, SUB, c * (1 - 1e-6), E3, eig_1025, slack, 2
            )
            assert not below.certified
        # -div(Phi(phi/c)) > 0 is never <= theta + slack = -1
        theta = GridFunction(eig_1025.grid, np.full(eig_1025.grid.n, 1.0))
        with pytest.raises(NoCertifiableScale, match="no finite c .* at node"):
            auto_scale(BoundaryProfile.power(1.0), SUB, theta, eig_1025, slack=-2.0)

    @pytest.mark.parametrize("skip_cells", [-1, -5])
    def test_negative_skip_cells_is_refused(self, eig_1025, skip_cells):
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        with pytest.raises(DomainError, match=f"skip_cells must be >= 0, got {skip_cells}"):
            check_barrier(cand, SUPER, E3, 2.0, skip_cells=skip_cells)

    @pytest.mark.parametrize("skip_cells", [1.5, math.nan, math.inf, None, "2", True])
    def test_skip_cells_that_is_not_a_whole_number_is_refused(self, eig_1025, skip_cells):
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        match = "skip_cells must be a whole number"
        with pytest.raises(DomainError, match=match):
            check_barrier(cand, SUPER, E3, 2.0, skip_cells=skip_cells)
        with pytest.raises(DomainError, match=match):
            auto_scale(BoundaryProfile.power(1.0), SUPER, E3, eig_1025, skip_cells=skip_cells)

    def test_a_whole_float_skip_cells_is_taken_as_an_int(self, eig_1025):
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        as_float = check_barrier(cand, SUPER, E3, 2.0, skip_cells=2.0)
        as_int = check_barrier(cand, SUPER, E3, 2.0, skip_cells=2)
        assert as_float.report_items() == as_int.report_items()
        assert type(as_float.skip_cells) is int

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.5])
    def test_scale_must_be_finite_and_at_least_one(self, eig_1025, c):
        with pytest.raises(DomainError, match="scaling constant must be >= 1 and finite"):
            build_barrier(BoundaryProfile.power(1.0), SUB, c, eig_1025)


class TestRefusals:
    def test_the_largest_finite_samples_are_built(self, eig_1025):
        # the largest double still scales phi <= 1 finitely
        top = build_barrier(BoundaryProfile.power(1.0), SUPER, sys.float_info.max, eig_1025)
        assert top.values.max() == sys.float_info.max
        tall = build_barrier(BoundaryProfile.logpower(100.0, 3.0), SUPER, 1.0, eig_1025)
        assert np.isfinite(tall.values).all()

    @pytest.mark.parametrize(
        "s, a, side, c, msg",
        [
            (700.0, 3.0, SUPER, 1.0,
             "the super barrier logpower(s=700, A=3) at c = 1 overflows a double"),
            (0.5, 1e308, SUB, 1.0,
             "the sub barrier logpower(s=0.5, A=1e+308) at c = 1 overflows a double"),
            (0.5, 3.0, SUPER, sys.float_info.max,
             "the super barrier logpower(s=0.5, A=3) at c = 1.79769e+308 overflows a double"),
        ],
        ids=["log-power", "log-quotient", "scale"],
    )
    def test_a_barrier_whose_samples_overflow_is_refused(self, eig_1025, s, a, side, c, msg):
        with pytest.raises(DomainError) as err:
            build_barrier(BoundaryProfile.logpower(s, a), side, c, eig_1025)
        assert str(err.value) == msg

    def test_unknown_side_is_refused(self, eig_1025):
        with pytest.raises(DomainError, match="side must be 'sub' or 'super'"):
            build_barrier(BoundaryProfile.power(1.0), "both", 1.0, eig_1025)
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        with pytest.raises(DomainError, match="side must be 'sub' or 'super'"):
            check_barrier(cand, "both", E3, 2.0)

    def test_fixed_theta_from_another_grid_is_refused(self, eig_1025):
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        theta = GridFunction(make_graded_grid(1025, 2.0), np.ones(1025))
        with pytest.raises(GridMismatch, match="fixed theta lives on a different grid"):
            check_barrier(cand, SUB, theta, 2.0)

    def test_a_spec_on_another_domain_is_refused(self, eig_1025):
        # the interval's barriers were once certified for a ball problem
        spec = dataclasses.replace(E3, domain=Domain.ball(3))
        cand = GridFunction(eig_1025.grid, eig_1025.eigenfunction.values)
        match = "posed on Domain\\(ball_dim=3\\), the grid on Domain\\(ball_dim=1\\)"
        with pytest.raises(GridMismatch, match=match):
            check_barrier(cand, SUPER, spec, 2.0)
        with pytest.raises(GridMismatch, match=match):
            auto_scale(BoundaryProfile.power(2.0 / 3.0), SUB, spec, eig_1025)
        with pytest.raises(GridMismatch, match=match):
            certified_pair(spec, eig_1025)

    @pytest.mark.parametrize("entry", ["check_barrier", "auto_scale", "certified_pair"])
    def test_a_spec_at_another_m_is_refused(self, eig3_1025, entry):
        # E3 (m = 2) was once checked with the m = 3 operator: auto_scale
        # certified c = 11.2103, certified_pair a pair at c = 12.9074
        sub, _ = regime_profiles(E3)
        calls = {
            "check_barrier": lambda: check_barrier(eig3_1025.eigenfunction, SUB, E3, 3.0),
            "auto_scale": lambda: auto_scale(sub, SUB, E3, eig3_1025),
            "certified_pair": lambda: certified_pair(E3, eig3_1025),
        }
        match = "^the problem is posed at m = 2.0, the operator at m = 3.0$"
        with pytest.raises(DomainError, match=match):
            calls[entry]()

    def test_a_barrier_lives_on_its_base_grid(self, eig_1025):
        w = build_barrier(BoundaryProfile.power(0.5), SUB, 2.0, eig_1025)
        assert w.grid is eig_1025.grid
        phi = eig_1025.eigenfunction.values
        assert np.array_equal(w.values[1:-1], 0.5 * phi[1:-1] ** 0.5)


def test_no_barrier_entry_point_takes_an_m_beside_an_eigenpair():
    """A check samples one eigenpair and takes its m; check_barrier, whose
    bare candidate carries none, is the one entry point that takes m."""
    takes_m = set()
    for name, obj in vars(mlap1d.barriers).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != "mlap1d.barriers":
            continue
        params = inspect.signature(obj).parameters
        base = [p for p in params.values() if p.name == "base" or "EigenPair" in str(p.annotation)]
        assert not (base and "m" in params), name
        if "m" in params:
            takes_m.add(name)
    assert takes_m == {"check_barrier"}
