import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    BoundaryProfile,
    Domain,
    Grid1D,
    GridFunction,
    ProblemSpec,
    Regime,
    classify_regime,
    first_eigenpair,
    k_values,
    make_graded_grid,
    regime_profiles,
    solve_dirichlet,
    solve_singular,
)
from mlap1d import solver
from mlap1d.core import INTERVAL01, default_log_scale, same_grid
from mlap1d.errors import (
    AdmissibilityViolation,
    DomainError,
    GridMismatch,
    InvalidConfig,
    InvalidGrading,
    InvalidGrid,
    NonFiniteTheta,
    NonPositiveK,
    TooFewNodes,
)

from oracles import node_graded_nodes


def admissible(m, p, q):
    # strictly interior to the admissible set so float rounding of derived
    # quantities cannot straddle the open bounds under test
    return m > 1 and p >= 0 and q >= 0 and p + q < 2 - (1 - p) / m - 1e-9


admissible_specs = (
    st.tuples(
        st.floats(1.05, 4.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 2.0),
    )
    .filter(lambda t: admissible(*t))
    .map(lambda t: ProblemSpec(m=t[0], p=t[1], q=t[2]))
)


class TestValidateSpec:
    def test_supercritical_example_valid(self):
        ProblemSpec(m=2, p=0.5, q=1.0)  # 1.5 < 2 - 0.5/2 = 1.75

    def test_poisson_case_valid(self):
        ProblemSpec(m=2, p=0.0, q=0.0)

    def test_admissibility_violation(self):
        with pytest.raises(AdmissibilityViolation) as err:
            ProblemSpec(m=2, p=0.0, q=1.6)  # 1.6 >= 1.5
        assert "p + q" in str(err.value)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(m=1.0, p=0.0, q=0.0), "m"),
            (dict(m=2.0, p=-0.1, q=0.0), "p"),
            (dict(m=2.0, p=0.0, q=-0.1), "q"),
            (dict(m=2.0, p=0.0, q=0.0, k_low=2.0, k_high=1.0), "k_low"),
        ],
    )
    def test_each_inequality_identified(self, kwargs, name):
        with pytest.raises(AdmissibilityViolation) as err:
            ProblemSpec(**kwargs)
        assert name in str(err.value)

    def test_nonpositive_k(self):
        with pytest.raises(NonPositiveK):
            ProblemSpec(m=2, p=0.0, q=0.0, k_low=0.0)

    @pytest.mark.parametrize("k_low", [1.0, math.inf])
    def test_an_infinite_k_envelope_is_refused(self, k_low):
        # k_low <= k_high, so a finite k_high bounds k_low too
        with pytest.raises(AdmissibilityViolation, match=r"^k_high < inf fails: k_high = inf$"):
            ProblemSpec(m=2, p=0.5, q=1.0, k_low=k_low, k_high=math.inf)

    def test_a_nan_k_high_is_refused(self):
        with pytest.raises(AdmissibilityViolation, match="k_low <= k_high fails"):
            ProblemSpec(m=2, p=0.5, q=1.0, k_high=math.nan)

    @pytest.mark.parametrize("k", [1.0, "delta^-q", np.ones(3)], ids=["float", "str", "array"])
    def test_a_k_that_is_not_callable_is_refused(self, k):
        with pytest.raises(InvalidConfig, match="K must be None or a callable k"):
            ProblemSpec(m=2, p=0.5, q=1.0, k=k)

    def test_specs_compare_and_hash_their_k(self):
        # the benchmark's tracer keys singular solves by their spec
        def k(x, d):
            return d**-1.0

        spec = ProblemSpec(m=2, p=0.5, q=1.0, k=k)
        assert spec == spec and hash(spec) == hash(ProblemSpec(m=2, p=0.5, q=1.0, k=k))
        assert len({spec, ProblemSpec(m=2, p=0.5, q=1.0, k=k)}) == 1
        other = ProblemSpec(m=2, p=0.5, q=1.0, k=lambda x, d: d**-1.0)
        assert spec != other and spec != ProblemSpec(m=2, p=0.5, q=1.0)

    def test_the_largest_finite_k_envelope_is_accepted(self):
        big = np.finfo(float).max
        assert ProblemSpec(m=2, p=0.5, q=1.0, k_low=big, k_high=big).k_high == big

    @pytest.mark.parametrize(
        "m,msg",
        [(math.inf, "m < inf fails: m = inf"), (math.nan, "m > 1 fails: m = nan"),
         (1.0, "m > 1 fails: m = 1.0")],
        ids=["inf", "nan", "one"],
    )
    def test_m_outside_one_to_inf_is_refused_by_every_entry(self, m, msg):
        # one check serves the spec, the Dirichlet solve and the eigenpair;
        # an infinite m once passed a guard written m <= 1 and solved to
        # u = delta, a NaN one failed later with an unrelated message
        g = make_graded_grid(33, 1.0)
        theta = GridFunction(g, np.ones(g.n))
        for call in (
            lambda: ProblemSpec(m=m, p=0.5, q=0.5),
            lambda: solve_dirichlet(theta, m),
            lambda: first_eigenpair(g, m),
        ):
            with pytest.raises(AdmissibilityViolation) as err:
                call()
            assert str(err.value) == msg


class TestClassifyRegime:
    def test_supercritical_m2(self):
        r = classify_regime(ProblemSpec(m=2, p=0.5, q=1.0))
        assert r.regime is Regime.SUPERCRITICAL
        assert r.boundary_exponent == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert r.tau_sup == pytest.approx(3.0, abs=1e-12)
        assert r.theta_exponent == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_supercritical_m3(self):
        r = classify_regime(ProblemSpec(m=3, p=0.5, q=1.0))
        assert r.boundary_exponent == pytest.approx(0.8, abs=1e-15)
        assert r.tau_sup == pytest.approx(5.0, abs=1e-12)

    def test_critical(self):
        r = classify_regime(ProblemSpec(m=2, p=0.5, q=0.5))
        assert r.regime is Regime.CRITICAL
        assert r.boundary_exponent == 1.0
        assert r.log_exponent == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert math.isinf(r.tau_sup)

    def test_subcritical(self):
        r = classify_regime(ProblemSpec(m=2, p=0.3, q=0.3))
        assert r.regime is Regime.SUBCRITICAL
        assert math.isinf(r.tau_sup)
        assert r.log_exponent is None

    def test_critical_equality_tolerance(self):
        # p + q = 1 decided with absolute tolerance 1e-12
        r = classify_regime(ProblemSpec(m=2, p=0.5, q=0.5 + 1e-13))
        assert r.regime is Regime.CRITICAL
        r = classify_regime(ProblemSpec(m=2, p=0.5, q=0.5 + 1e-9))
        assert r.regime is Regime.SUPERCRITICAL

    @given(admissible_specs)
    @settings(max_examples=60, deadline=None)
    def test_scale_free_in_k(self, spec):
        scaled = ProblemSpec(
            m=spec.m, p=spec.p, q=spec.q, k_low=0.125, k_high=17.0
        )
        a, b = classify_regime(spec), classify_regime(scaled)
        assert a.regime is b.regime
        assert a.boundary_exponent == b.boundary_exponent
        assert a.tau_sup == b.tau_sup

    @given(admissible_specs.filter(lambda s: s.p + s.q > 1 + 1e-9))
    @settings(max_examples=80, deadline=None)
    def test_supercritical_theta_exponent_range(self, spec):
        r = classify_regime(spec)
        assert 1.0 < r.theta_exponent < 2.0 - 1.0 / spec.m
        assert 0.0 < r.boundary_exponent < 1.0

    @given(admissible_specs.filter(lambda s: s.p + s.q > 1 + 1e-9))
    @settings(max_examples=80, deadline=None)
    def test_tau_sup_exceeds_m(self, spec):
        assert classify_regime(spec).tau_sup > spec.m


class TestBoundaryProfile:
    @pytest.mark.parametrize(
        "make, msg",
        [
            (lambda: BoundaryProfile.power(gamma=0.0),
             "power barrier exponent must be in (0, 1], got 0.0"),
            (lambda: BoundaryProfile.power(gamma=1.2),
             "power barrier exponent must be in (0, 1], got 1.2"),
            (lambda: BoundaryProfile.logpower(s=0.0, A=3.0),
             "log barrier exponent must be positive, got 0.0"),
            (lambda: BoundaryProfile.logpower(s=math.nan, A=3.0),
             "log barrier exponent must be positive, got nan"),
            (lambda: BoundaryProfile.logpower(s=0.5, A=1.0), "log scale A must exceed 1, got 1.0"),
            (lambda: BoundaryProfile(0.5, 1.0, 3.0), "a log profile has exponent 1, got 0.5"),
            (lambda: BoundaryProfile.logpower(s=math.inf, A=3.0),
             "a log profile needs a finite s and A, got s = inf, A = 3.0"),
            (lambda: BoundaryProfile.logpower(s=0.5, A=math.inf),
             "a log profile needs a finite s and A, got s = 0.5, A = inf"),
        ],
        ids=["gamma-0", "gamma-1.2", "s-0", "s-nan", "A-1", "log-exponent-0.5", "s-inf", "A-inf"],
    )
    def test_values_are_checked_at_construction(self, make, msg):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == msg

    def test_the_largest_finite_s_and_a_are_accepted(self):
        big = BoundaryProfile.logpower(s=sys.float_info.max, A=sys.float_info.max)
        assert big.log_exponent == big.log_scale == sys.float_info.max

    def test_a_default_log_scale_past_the_double_range_is_refused(self):
        # e^s overflows past s = 709.78
        assert math.isfinite(default_log_scale(Domain(), 709.0))
        match = r"^the default log scale e\^s \+ 1 overflows at s = 710$"
        with pytest.raises(DomainError, match=match):
            default_log_scale(Domain(), 710.0)

    def test_describe(self):
        assert BoundaryProfile.power(gamma=2.0 / 3.0).describe() == "power(gamma=0.666667)"
        assert BoundaryProfile.logpower(s=0.5, A=3.0).describe() == "logpower(s=0.5, A=3)"

    @pytest.mark.parametrize(
        "profile",
        [BoundaryProfile.power(gamma=0.3), BoundaryProfile.power(gamma=1.0),
         BoundaryProfile.logpower(s=2.0 / 3.0, A=4.0)],
        ids=["power-0.3", "power-1", "logpower"],
    )
    def test_log_space_is_the_log_of_value_space(self, profile):
        f = np.geomspace(1e-12, 1.0, 97)
        log_f = np.log(f)
        assert profile.log_of(log_f) is log_f
        assert np.allclose(log_f, np.log(profile.scaled(f, 1.0)), rtol=1e-14, atol=1e-14)
        assert np.allclose(profile.scaled(f, 3.0), 3.0 * np.exp(log_f), rtol=1e-13)


class TestTheLogExponentNearMEqualsOne:
    """s = 1/(m+p-1) grows without bound as m + p nears 1; past s = 709.78
    the default log scale e^s + 1 of the critical and subcritical profiles
    overflows."""

    @pytest.mark.parametrize("q", [1.0, 0.5, 0.0], ids=["critical", "subcritical", "q0"])
    def test_a_spec_whose_log_scale_overflows_is_refused(self, q):
        spec = ProblemSpec(1.001, 0.0, q)
        assert admissible(spec.m, spec.p, spec.q)
        match = r"^the default log scale e\^s \+ 1 overflows at s = 1000$"
        with pytest.raises(DomainError, match=match):
            regime_profiles(spec)
        with pytest.raises(DomainError, match=match):
            solve_singular(spec, make_graded_grid(65, 3.0))

    def test_a_spec_just_inside_the_double_range_solves(self):
        # s = 666.7, e^s = 3.4e289
        assert solve_singular(ProblemSpec(1.0015, 0.0, 0.2), make_graded_grid(257, 3.0)).converged


class TestGradedGrid:
    def test_uniform(self):
        g = make_graded_grid(17, 1.0)
        assert np.allclose(g.nodes, np.arange(17) / 16.0, atol=1e-15)

    def test_graded_mapping_value(self):
        # first node of the n=17, grading=2 grid sits at 0.5 * (2/16)^2
        g = make_graded_grid(17, 2.0)
        assert g.nodes[1] == pytest.approx(0.5 * (2.0 / 16.0) ** 2, abs=1e-17)

    @given(st.integers(16, 400), st.floats(1.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing_exact_endpoints(self, n, grading):
        g = make_graded_grid(n, grading)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)

    @given(st.integers(16, 400), st.floats(1.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_interval_symmetry(self, n, grading):
        g = make_graded_grid(n, grading)
        assert np.allclose(g.nodes + g.nodes[::-1], 1.0, atol=1e-14)

    @pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
    def test_dyadic_grids_are_exact_mirrors(self, grading):
        # the solver's chain over the right half needs exact mirror images
        for k in range(4, 15):
            g = make_graded_grid(2**k + 1, grading)
            for a in (g.h, g.cell_volumes, g.delta_nodes):
                assert np.array_equal(a, a[::-1])
            assert g.chain_start == 2 ** (k - 1)

    @pytest.mark.parametrize("grading", [1.0, 2.0, 3.0])
    def test_dyadic_grids_match_the_node_formula(self, grading):
        # at n = 2^k + 1 the grid built from delta is the one built from x,
        # with widths, volumes and distances taken from the nodes, bit for bit
        for k in range(4, 15):
            g = make_graded_grid(2**k + 1, grading)
            x = node_graded_nodes(2**k + 1, grading)
            mid = 0.5 * (x[1:] + x[:-1])
            assert np.array_equal(g.nodes, x)
            assert np.array_equal(g.h, np.diff(x))
            assert np.array_equal(g.cell_volumes, np.diff(np.concatenate(([0.0], mid, [1.0]))))
            assert np.array_equal(g.delta_nodes, np.minimum(x, 1.0 - x))

    @pytest.mark.parametrize("grading", [1.0, 1.5, 2.5, 3.0])
    @pytest.mark.parametrize("n", [1026, 1027, 4098, 16390])
    def test_every_graded_interval_grid_is_a_mirror(self, n, grading):
        g = make_graded_grid(n, grading)
        assert g.chain_start == (n - 1) // 2
        for a in (g.delta_nodes, g.delta_mid):
            assert np.array_equal(a, a[::-1])
        # the nodes are the distances on the left and 1 - delta on the right
        left = (n + 1) // 2
        assert np.array_equal(g.nodes[:left], g.delta_nodes[:left])
        assert np.array_equal(g.nodes[left:], 1.0 - g.delta_nodes[left:])

    @pytest.mark.parametrize(
        "grid,start",
        [
            (lambda: make_graded_grid(1025, 3.0, Domain.ball(3)), 0),
            (lambda: Grid1D(nodes=node_graded_nodes(1026, 3.0), grading_exponent=3.0), None),
        ],
        ids=["ball", "asymmetric-nodes"],
    )
    def test_chain_start_of_the_ball_and_of_an_asymmetric_grid(self, grid, start):
        # the ball's chain starts at r = 0; an interval grid that is not an
        # exact mirror has no chain
        assert grid().chain_start == start

    @given(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_given_nodes_keep_their_node_geometry(self, inner):
        # for nodes given directly the distances are min(x, 1 - x), exact,
        # so the widths are the node differences bit for bit and the
        # midpoint distances and volumes the node-based ones to rounding
        x = np.concatenate(([0.0], np.sort(inner), [1.0]))
        g = Grid1D(nodes=x, grading_exponent=1.0)
        mid = 0.5 * (x[1:] + x[:-1])
        eps = np.finfo(float).eps
        assert np.array_equal(g.h, np.diff(x))
        assert np.allclose(g.delta_mid, np.minimum(mid, 1.0 - mid), rtol=0.0, atol=eps)
        volumes = np.diff(np.concatenate(([0.0], mid, [1.0])))
        assert np.allclose(g.cell_volumes, volumes, rtol=0.0, atol=2.0 * eps)

    def test_same_nodes_with_other_distances_are_another_grid(self):
        # off n = 2^k + 1 the nodes 1 - delta round away the right half's
        # distances, which a grid rebuilt from those nodes does not have
        for n, same in ((1025, True), (1026, False)):
            g = make_graded_grid(n, 3.0)
            assert same_grid(g, Grid1D(nodes=g.nodes, grading_exponent=3.0)) is same

    def test_invalid_grading(self):
        with pytest.raises(InvalidGrading):
            make_graded_grid(33, 0.9)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes, match="need at least 16 nodes, got 8"):
            make_graded_grid(8, 2.0)

    @pytest.mark.parametrize("n", [17.5, math.nan, math.inf, True, None, "17"])
    def test_a_node_count_that_is_not_a_whole_number_is_refused(self, n):
        # 17.5, nan and inf once raised a bare TypeError from np.linspace,
        # and True was counted as one node
        match = re.escape(f"node count n must be a whole number, got n = {n!r}")
        with pytest.raises(InvalidConfig, match=f"{match}$"):
            make_graded_grid(n, 3.0)

    @pytest.mark.parametrize("domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"])
    def test_a_whole_float_node_count_is_taken_as_an_int(self, domain):
        g = make_graded_grid(17.0, 3.0, domain)
        assert type(g.n) is int
        assert same_grid(g, make_graded_grid(17, 3.0, domain))

    @pytest.mark.parametrize(
        "nodes,domain,error,msg",
        [
            ([0.0], INTERVAL01, TooFewNodes, "at least three nodes"),
            ([0.0, 1.0], INTERVAL01, TooFewNodes, "at least three nodes"),
            ([0.0, 1.0], Domain.ball(3), TooFewNodes, "at least three nodes"),
            ([0.0, 0.5, 0.9], INTERVAL01, InvalidGrid, "endpoints must be exactly 0 and 1"),
            ([0.0, 0.5, 0.5, 1.0], INTERVAL01, InvalidGrid, "strictly increasing"),
            ([0.0, 1e-10, 1.0], Domain.ball(40), InvalidGrid, "N = 40 ball has no volume"),
        ],
        ids=["one-node", "two-node", "two-node-ball", "endpoint", "repeated-node",
             "ball-centre-without-volume"],
    )
    def test_direct_construction_is_validated(self, nodes, domain, error, msg):
        with pytest.raises(error, match=msg):
            Grid1D(nodes=np.array(nodes), grading_exponent=1.0, domain=domain)

    @pytest.mark.parametrize("n,dim", [(16385, 80), (1025, 150)])
    def test_a_ball_centre_cell_without_volume_is_refused(self, n, dim):
        # (r_1/2)^N/N rounds to 0.0, and the residual check at r = 0 would
        # divide 0 by 0 and fail every solve with a NaN residual
        with pytest.raises(InvalidGrid, match=rf"N = {dim} ball .* at r_1 = "):
            make_graded_grid(n, 3.0, Domain.ball(dim))

    @pytest.mark.parametrize("n,dim", [(16385, 79), (1025, 100)])
    def test_a_ball_centre_cell_of_tiny_volume_solves(self, n, dim):
        # subnormal, 1.2e-321, at N = 79 and n = 16385
        g = make_graded_grid(n, 3.0, Domain.ball(dim))
        assert g.cell_volumes[0] > 0.0
        rep = solve_singular(ProblemSpec(m=2.0, p=0.5, q=1.0, domain=g.domain), g)
        assert rep.converged and rep.final_residual <= 1e-10

    @pytest.mark.parametrize("domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"])
    def test_the_flux_weights_are_cached(self, domain):
        g = make_graded_grid(65, 3.0, domain)
        assert g.flux_weights is g.flux_weights
        assert not g.flux_weights.flags.writeable

    @pytest.mark.parametrize(
        "n,grading,domain,node",
        [
            (8193, 4.65, Domain.interval(), 8192),
            (2049, 6.0, Domain.interval(), 2047),
            (16385, 4.3, Domain.interval(), 16384),
            (1025, 8.0, Domain.ball(3), 1016),
        ],
    )
    def test_collapsing_grading_is_named(self, n, grading, domain, node):
        # the cells next to the graded boundary fall below ulp(1), so nodes
        # coincide there
        with pytest.raises(InvalidGrading) as err:
            make_graded_grid(n, grading, domain)
        msg = str(err.value)
        assert f"grading {grading} collapses" in msg
        assert f"n = {n}" in msg
        assert f"node {node} (x = 1.0) is not above node {node - 1}" in msg

    def test_ball_grid(self):
        g = make_graded_grid(33, 2.0, Domain.ball(3))
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        # clustered toward r = 1
        assert g.h[-1] < g.h[0]
        assert np.allclose(g.delta_nodes, 1.0 - g.nodes)

    def test_ball_delta_mid(self):
        # the distance of each cell's midpoint to the sphere r = 1
        g = make_graded_grid(33, 2.0, Domain.ball(3))
        assert np.array_equal(g.delta_mid, 1.0 - g.midpoints)

    def test_interval_delta(self):
        g = make_graded_grid(33, 1.0)
        assert np.allclose(g.delta_nodes, np.minimum(g.nodes, 1 - g.nodes))

    @pytest.mark.parametrize("n,grading", [(33, 1.0), (1026, 3.0), (4097, 2.5)])
    def test_cell_measures_are_the_radial_ones_at_n_1(self, n, grading):
        g = make_graded_grid(n, grading)
        assert g.domain.ball_dim == 1
        assert np.array_equal(g.flux_weights, np.ones(n - 1))
        # a read-only view of one 1.0, not an array of n - 1 ones
        assert g.flux_weights.strides == (0,) and not g.flux_weights.flags.writeable
        assert g.cell_measures is g.h
        # half-sums of the adjacent widths (half a width at each end), to rounding
        half_sums = 0.5 * (np.append(g.h, 0.0) + np.insert(g.h, 0, 0.0))
        assert np.allclose(g.cell_volumes, half_sums, rtol=0.0, atol=np.finfo(float).eps)
        # the dual cells end at the midpoints, exactly on the left half,
        # where the nodes are the distances to the boundary; the right half
        # is its exact mirror
        k = (n - 1) // 2  # nodes left of the centre, both midpoints below 1/2
        mid = np.concatenate(([0.0], g.midpoints, [1.0]))
        assert np.array_equal(g.cell_volumes[:k], (mid[1:] - mid[:-1])[:k])
        assert np.array_equal(g.cell_volumes, g.cell_volumes[::-1])

    @pytest.mark.parametrize(
        "domain,sides",
        [(Domain.interval(), ((0, 17), (17, 33))), (Domain.ball(3), ((0, 33),))],
        ids=["interval", "ball"],
    )
    def test_boundary_sides(self, domain, sides):
        g = make_graded_grid(33, 2.0, domain)
        assert tuple((s.start, s.stop) for s in g.boundary_sides) == sides
        # each side holds the nodes nearest its boundary, x = 1/2 on the left
        for s, end in zip(g.boundary_sides, g.dirichlet_indices()):
            assert np.array_equal(g.delta_nodes[s], np.abs(g.nodes[s] - g.nodes[end]))

    def test_nodes_immutable(self):
        g = make_graded_grid(33, 1.0)
        with pytest.raises(ValueError):
            g.nodes[3] = 0.5

    @pytest.mark.parametrize("domain", [Domain.interval(), Domain.ball(3)], ids=["interval", "ball"])
    def test_a_solved_grid_stores_only_what_a_sweep_reads(self, domain):
        # 7n doubles on the interval and 6n on the ball while grids also
        # cached their midpoints, the midpoint distances and the interval's
        # flux weights as an array of ones
        g = make_graded_grid(1025, 3.0, domain)
        solve_singular(ProblemSpec(m=2.0, p=0.5, q=0.5, domain=domain), g)

        def stored():
            return {id(v) for v in vars(g).values() if isinstance(v, np.ndarray)}

        kept = [g.nodes, g.delta_nodes, g.h, g.cell_volumes, g.flux_weights]
        assert stored() == {id(v) for v in kept}
        held = kept
        if not domain.is_ball:  # the flux weights: a read-only view of one double
            *held, w = kept
            assert w.strides == (0,) and not w.flags.writeable and w.base.size == 1
        assert sum(v.nbytes for v in held) == 8 * (5 * g.n - 2 if domain.is_ball else 4 * g.n - 1)
        # computed where they are read, and never cached
        for a in (g.midpoints, g.delta_mid, g.cell_measures):
            assert not a.flags.writeable
        assert "midpoints" not in vars(g) and "delta_mid" not in vars(g)
        assert stored() == {id(v) for v in kept}


class TestGridFunction:
    def test_length_mismatch(self):
        g = make_graded_grid(33, 1.0)
        with pytest.raises(GridMismatch):
            GridFunction(g, np.zeros(32))

    def test_dirichlet_sampling(self):
        g = make_graded_grid(33, 1.0)
        u = GridFunction.interior_from_callable(g, lambda x: np.sin(np.pi * x))
        assert u.values[0] == 0.0 and u.values[-1] == 0.0

    def test_ball_dirichlet_only_right(self):
        g = make_graded_grid(33, 1.0, Domain.ball(2))
        u = GridFunction.interior_from_callable(g, lambda r: 1.0 - r**2)
        assert u.values[-1] == 0.0
        assert u.values[0] == 1.0  # the center is not a boundary node

    def test_interior_sampling_avoids_endpoints(self):
        g = make_graded_grid(33, 2.0)
        # delta^-1 would be infinite at the endpoints; interior sampling never
        # evaluates there
        theta = GridFunction.interior_from_callable(g, lambda x: 1.0 / g.domain.delta(x))
        assert np.all(np.isfinite(theta.values))
        assert theta.values[0] == 0.0 and theta.values[-1] == 0.0

    def test_default_k_envelope(self):
        g = make_graded_grid(33, 1.0)
        spec = ProblemSpec(m=2, p=0.5, q=1.0)
        k = k_values(spec, g)
        d = g.delta_nodes[1:-1]
        assert np.allclose(k.values[1:-1] * d, 1.0)
        with pytest.raises(AdmissibilityViolation, match="envelope"):
            # K delta^q = 1 lies outside [2, 3]
            k_values(ProblemSpec(m=2, p=0.5, q=1.0, k_low=2.0, k_high=3.0), g)


class TestCustomK:
    """A spec's own K(x, delta), sampled by core.k_values on any grid."""

    @staticmethod
    def spec(k, **kw):
        return ProblemSpec(m=2.0, p=0.5, q=1.0, k_low=0.6, k_high=1.4, k=k, **kw)

    @pytest.mark.parametrize("n", [1025, 1030, 4099])
    def test_k_reads_the_exact_distances(self, n):
        # off n = 2^k + 1 the right half's nodes 1 - delta are rounded, but
        # a K written in delta is sampled from the exact distances, so it is
        # a mirror on every graded interval grid
        g = make_graded_grid(n, 3.0)
        seen = []

        def k(x, d):
            seen.append((x, d))
            return d**-1.0 * (1.0 + 0.4 * np.cos(1.0 / d))

        values = k_values(self.spec(k), g).values
        [(x, d)] = seen
        sl = g.unknown_slice
        assert np.array_equal(x, g.nodes[sl]) and np.array_equal(d, g.delta_nodes[sl])
        assert values[0] == values[-1] == 0.0 and np.array_equal(values, values[::-1])

    @pytest.mark.parametrize(
        "k, shape",
        [(lambda x, d: (1.0 / d)[:-1], (254,)), (lambda x, d: 1.0 / d[:, None], (255, 1)),
         (lambda x, d: 2.0, ())],
        ids=["short", "column", "scalar"],
    )
    def test_k_must_give_one_value_per_unknown_node(self, k, shape, monkeypatch):
        # numpy once refused the short and column shapes with its own
        # ValueError, inside the solve
        solves = []
        monkeypatch.setattr(solver, "_solve_into", lambda *a: solves.append(a))
        with pytest.raises(GridMismatch, match=re.escape(f"shape {shape} at 255 unknown nodes")):
            solve_singular(self.spec(k), make_graded_grid(257, 3.0))
        assert solves == []

    def test_an_infinite_k_leaves_the_envelope(self):
        g = make_graded_grid(257, 3.0)
        spec = self.spec(lambda x, d: np.where(x == x[7], np.inf, 1.0 / d))
        with pytest.raises(AdmissibilityViolation, match="envelope: K delta\\^q in \\[1, inf\\]"):
            solve_singular(spec, g)

    def test_a_nan_k_fails_the_first_solve(self):
        g = make_graded_grid(257, 3.0)
        spec = self.spec(lambda x, d: np.where(x == x[7], np.nan, 1.0 / d))
        with pytest.raises(NonFiniteTheta, match="theta must be finite"):
            solve_singular(spec, g)


def test_grid_function_values_immutable():
    g = make_graded_grid(33, 1.0)
    u = GridFunction(g, np.zeros(g.n))
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_ball_of_dimension_one_is_refused():
    with pytest.raises(AdmissibilityViolation, match="ball domain requires dimension N >= 2"):
        Domain.ball(1)


@pytest.mark.parametrize("n", [0, -1])
def test_a_dimension_below_one_is_refused(n):
    match = f"dimension N must be at least 1, got N = {n}$"
    with pytest.raises(AdmissibilityViolation, match=match):
        Domain(n)


def test_dimension_one_is_the_interval():
    assert Domain(1) == Domain() == Domain.interval() and not Domain(1).is_ball
    assert Domain(2).is_ball


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, None])
def test_a_dimension_that_is_not_a_whole_number_is_refused(n):
    # Domain(2.5) once solved with flux weights r^1.5, and
    # Domain.ball(2.5) quietly truncated to N = 2
    match = f"dimension N must be a whole number, got N = {n}$"
    with pytest.raises(AdmissibilityViolation, match=match):
        Domain(n)
    with pytest.raises(AdmissibilityViolation, match=match):
        Domain.ball(n)


@pytest.mark.parametrize(
    "n,bits",
    [(10**400, 1328), (2**1024, 1024), (2**1024 - 1, 1023)],
    ids=["1e400", "2^1024", "2^1024-1"],
)
def test_a_dimension_past_the_double_range_is_refused(n, bits):
    # a whole N that float() cannot hold once crashed the grid's r^N with
    # OverflowError; 2^1024 - 1 rounds up to 2^1024 and overflows too
    match = rf"^dimension N overflows a double: N >= 2\^{bits}$"
    with pytest.raises(AdmissibilityViolation, match=match):
        Domain(n)
    with pytest.raises(AdmissibilityViolation, match=match):
        Domain.ball(n)


def test_the_largest_dimension_a_double_holds_is_a_domain():
    n = int(np.finfo(float).max)
    assert Domain(n).ball_dim == n


def test_a_whole_float_dimension_is_stored_as_an_int():
    d = Domain(3.0)
    assert d == Domain.ball(3) and type(d.ball_dim) is int


def test_only_core_reads_the_domain_shape():
    """The domain's shape is decided in core: outside it, ``is_ball`` appears
    only in the one place that builds a different field on the ball, and
    no module computes the distance to the boundary itself."""
    allowed = {("eigen.py", "_initial_field")}
    found = []
    for path in sorted(Path(__file__).resolve().parents[1].joinpath("src", "mlap1d").glob("*.py")):
        if path.name == "core.py":
            continue

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.Attribute) and node.attr == "is_ball":
                if (path.name, func) not in allowed:
                    found.append(f"{path.name}:{node.lineno} reads is_ball in {func}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "delta":
                found.append(f"{path.name}:{node.lineno} calls Domain.delta")
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert found == []
