import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlap1d import (
    Domain,
    Grid1D,
    GridFunction,
    ProblemSpec,
    Regime,
    classify_regime,
    default_k_values,
    make_graded_grid,
    validate_spec,
)
from mlap1d.errors import (
    AdmissibilityViolation,
    GridMismatch,
    InvalidConfig,
    InvalidGrading,
    InvalidGrid,
    NonPositiveK,
    TooFewNodes,
)


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
        spec = ProblemSpec(m=2, p=0.5, q=1.0)
        assert validate_spec(spec) is spec  # 1.5 < 2 - 0.5/2 = 1.75

    def test_poisson_case_valid(self):
        validate_spec(ProblemSpec(m=2, p=0.0, q=0.0))

    def test_admissibility_violation(self):
        with pytest.raises(AdmissibilityViolation) as err:
            validate_spec(ProblemSpec(m=2, p=0.0, q=1.6))  # 1.6 >= 1.5
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
            validate_spec(ProblemSpec(**kwargs))
        assert name in str(err.value)

    def test_nonpositive_k(self):
        with pytest.raises(NonPositiveK):
            validate_spec(ProblemSpec(m=2, p=0.0, q=0.0, k_low=0.0))


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
        # the solver's half-domain path triggers only on exact mirror images
        for k in range(4, 15):
            g = make_graded_grid(2**k + 1, grading)
            for a in (g.h, g.cell_volumes, g.delta_nodes):
                assert np.array_equal(a, a[::-1])
            assert g.mirror_symmetric

    @pytest.mark.parametrize(
        "n,grading,domain",
        [
            (1026, 3.0, Domain.interval()),
            (1025, 1.5, Domain.interval()),
            (1025, 3.0, Domain.ball(3)),
        ],
        ids=["n1026", "grading1.5", "ball"],
    )
    def test_asymmetric_grids_are_not_flagged(self, n, grading, domain):
        assert not make_graded_grid(n, grading, domain).mirror_symmetric

    def test_invalid_grading(self):
        with pytest.raises(InvalidGrading):
            make_graded_grid(33, 0.9)

    def test_too_few_nodes(self):
        with pytest.raises(TooFewNodes, match="need at least 16 nodes, got 8"):
            make_graded_grid(8, 2.0)

    @pytest.mark.parametrize(
        "nodes,error,msg",
        [
            ([0.0], TooFewNodes, "at least two nodes"),
            ([0.0, 0.5, 0.9], InvalidGrid, "endpoints must be exactly 0 and 1"),
            ([0.0, 0.5, 0.5, 1.0], InvalidGrid, "strictly increasing"),
        ],
        ids=["one-node", "endpoint", "repeated-node"],
    )
    def test_direct_construction_is_validated(self, nodes, error, msg):
        with pytest.raises(error, match=msg):
            Grid1D(nodes=np.array(nodes), grading_exponent=1.0)

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

    def test_interval_delta(self):
        g = make_graded_grid(33, 1.0)
        assert np.allclose(g.delta_nodes, np.minimum(g.nodes, 1 - g.nodes))

    def test_nodes_immutable(self):
        g = make_graded_grid(33, 1.0)
        with pytest.raises(ValueError):
            g.nodes[3] = 0.5


class TestGridFunction:
    def test_length_mismatch(self):
        g = make_graded_grid(33, 1.0)
        with pytest.raises(GridMismatch):
            GridFunction(g, np.zeros(32))

    def test_dirichlet_sampling(self):
        g = make_graded_grid(33, 1.0)
        u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x), dirichlet=True)
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        assert u.is_dirichlet()

    def test_ball_dirichlet_only_right(self):
        g = make_graded_grid(33, 1.0, Domain.ball(2))
        u = GridFunction.from_callable(g, lambda r: 1.0 - r**2, dirichlet=True)
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
        k = default_k_values(spec, g)
        d = g.delta_nodes[1:-1]
        assert np.allclose(k.values[1:-1] * d, 1.0)
        with pytest.raises(AdmissibilityViolation, match="envelope"):
            # K delta^q = 1 lies outside [2, 3]
            default_k_values(ProblemSpec(m=2, p=0.5, q=1.0, k_low=2.0, k_high=3.0), g)


def test_grid_function_values_immutable():
    g = make_graded_grid(33, 1.0)
    u = GridFunction.zeros(g)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_unknown_domain_kind_is_invalid_config():
    with pytest.raises(InvalidConfig, match="unknown domain kind 'bal'"):
        Domain("bal")
