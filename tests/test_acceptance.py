"""Acceptance suite: the quantitative claims the package must reproduce.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
the assertion carries the same tolerance, so test outcome and printed verdict
agree.  Heavy solves are shared through session fixtures; the stated runtime
budgets are asserted on fresh, untimed-by-fixture computations.
"""

import math
import time

import numpy as np
import pytest

from mlap1d import (
    GridFunction,
    ProblemSpec,
    SUB,
    Verdict,
    auto_scale,
    certified_pair,
    distance_integral_classify,
    first_eigenpair,
    fit_boundary_exponent,
    fit_log_profile,
    gradient_bound_check,
    make_graded_grid,
    solve_dirichlet,
    solve_singular,
    threshold_scan,
)
from mlap1d.core import BoundaryProfile
from mlap1d.cli import main
from mlap1d.errors import NoCertifiableScale
from mlap1d.solver import SolverConfig

from oracles import (
    eigenvalue_closed_form,
    eigenvalue_shooting,
    generalized_pi,
    torsion_exact,
)

E1 = ProblemSpec(m=2.0, p=0.3, q=0.3)
E2 = ProblemSpec(m=2.0, p=0.5, q=0.5)
E3 = ProblemSpec(m=2.0, p=0.5, q=1.0)

PICARD_TOL = SolverConfig().picard_tol


def singular_levels(spec):
    """Scan level solver: the singular problem on the n-node grid graded 3."""
    return lambda n: solve_singular(spec, make_graded_grid(n, 3.0)).solution


def fixed_rhs_levels(theta, m):
    """Scan level solver: the Dirichlet problem for theta on the n-node grid graded 3."""
    return lambda n: solve_dirichlet(
        GridFunction.interior_from_callable(make_graded_grid(n, 3.0), theta), m
    ).solution


def report(num, passed, detail):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def e3_solve():
    return solve_singular(E3, make_graded_grid(8193, 3.0))


@pytest.fixture(scope="session")
def e2_solve():
    return solve_singular(E2, make_graded_grid(16385, 3.0))


@pytest.fixture(scope="session")
def e1_solves():
    return (
        solve_singular(E1, make_graded_grid(4097, 3.0)),
        solve_singular(E1, make_graded_grid(8193, 3.0)),
    )


def test_criterion_1_supercritical_exponent():
    # fitted boundary exponent 2/3 +- 0.03 at n=8193, grading 3, within 30 s
    t0 = time.monotonic()
    rep = solve_singular(E3, make_graded_grid(8193, 3.0))
    fit = fit_boundary_exponent(rep.solution, (1e-4, 1e-2))
    elapsed = time.monotonic() - t0
    ok = abs(fit.exponent - 2.0 / 3.0) <= 0.03 and elapsed <= 30.0
    report(
        1,
        ok,
        f"fitted gamma {fit.exponent:.5f} vs 2/3 +- 0.03 in {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_2_supercritical_threshold():
    t0 = time.monotonic()
    scan = threshold_scan(
        singular_levels(E3), [2.0, 2.5, 2.9, 3.0, 3.5, 4.0], [1025, 2049, 4097, 8193],
        grading=3.0,
    )
    elapsed = time.monotonic() - t0
    expectations = {
        2.0: {Verdict.CONVERGENT},
        2.5: {Verdict.CONVERGENT},
        2.9: {Verdict.CONVERGENT},
        3.0: {Verdict.MARGINAL, Verdict.DIVERGENT},
        3.5: {Verdict.DIVERGENT},
        4.0: {Verdict.DIVERGENT},
    }
    fails = [
        f"tau={t}: {scan.verdict_for(t).value}"
        for t, want in expectations.items()
        if scan.verdict_for(t) not in want
    ]
    ok = not fails and elapsed <= 120.0
    detail = (
        f"verdicts {[v.value for v in scan.verdicts]} in {elapsed:.1f}s (<= 120s)"
        + (f"; mismatches: {fails}" if fails else "")
    )
    report(2, ok, detail)


def test_criterion_3_critical_regime():
    t0 = time.monotonic()
    rep = solve_singular(E2, make_graded_grid(16385, 3.0))
    fit = fit_log_profile(rep.solution, (1e-5, 1e-2))
    scan = threshold_scan(
        singular_levels(E2), [2.0, 4.0, 8.0], [2049, 4097, 8193, 16385], grading=3.0
    )
    elapsed = time.monotonic() - t0
    all_conv = all(v is Verdict.CONVERGENT for v in scan.verdicts)
    ok = abs(fit.log_exponent - 2.0 / 3.0) <= 0.03 and all_conv and elapsed <= 120.0
    report(
        3,
        ok,
        f"log exponent {fit.log_exponent:.4f} vs 2/3 +- 0.03; "
        f"tau verdicts {[v.value for v in scan.verdicts]}; {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_4_subcritical_regime(e1_solves):
    coarse, fine = e1_solves
    fit = fit_boundary_exponent(fine.solution, (1e-5, 1e-3))
    gb = gradient_bound_check(coarse.solution, a=1.0, refined=fine.solution)
    factor = max(gb.ratio, 1.0 / gb.ratio)
    ok = abs(fit.exponent - 1.0) <= 0.03 and factor <= 1.5
    report(
        4,
        ok,
        f"fitted gamma {fit.exponent:.4f} vs 1 +- 0.03; "
        f"gradient sup-norm factor {factor:.4f} (<= 1.5)",
    )


def _optimality_theta(x):
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    return (2.0 / 3.0) * np.pi**2 * (s ** (2.0 / 3.0) + (1.0 / 3.0) * s ** (-4.0 / 3.0) * c**2)


def test_criterion_5_power_rhs_optimality():
    grid = make_graded_grid(4097, 3.0)
    theta = GridFunction.interior_from_callable(grid, _optimality_theta)
    rep = solve_dirichlet(theta, 2.0)
    w_exact = np.sin(np.pi * grid.nodes) ** (2.0 / 3.0)
    err = float(np.max(np.abs(rep.solution.values - w_exact)))
    scan = threshold_scan(
        fixed_rhs_levels(_optimality_theta, 2.0),
        [2.0, 2.5, 3.0, 3.5],
        [1025, 2049, 4097, 8193],
        grading=3.0,
    )
    want = {
        2.0: Verdict.CONVERGENT,
        2.5: Verdict.CONVERGENT,
        3.0: Verdict.DIVERGENT,
        3.5: Verdict.DIVERGENT,
    }
    verdicts_ok = all(scan.verdict_for(t) is v for t, v in want.items())
    ok = err <= 5e-3 and verdicts_ok
    report(
        5,
        ok,
        f"recovery err {err:.2e} (<= 5e-3); "
        f"verdicts {[v.value for v in scan.verdicts]} expect [C,C,D,D]",
    )


def _prop_ii_theta(x):
    d = np.minimum(x, 1.0 - x)
    return d**-1.0 * np.log(1.0 / d) ** (-2.0 / 3.0)


def test_criterion_6_log_rhs_profile():
    grid = make_graded_grid(16385, 3.0)
    theta = GridFunction.interior_from_callable(grid, _prop_ii_theta)
    rep = solve_dirichlet(theta, 2.0)
    fit = fit_log_profile(rep.solution, (1e-8, 1e-4))
    scan = threshold_scan(
        fixed_rhs_levels(_prop_ii_theta, 2.0), [2.0, 5.0, 10.0], [1025, 2049, 4097, 8193],
        grading=3.0,
    )
    all_conv = all(v is Verdict.CONVERGENT for v in scan.verdicts)
    ok = abs(fit.log_exponent - 1.0 / 3.0) <= 0.1 and all_conv
    report(
        6,
        ok,
        f"log exponent {fit.log_exponent:.4f} vs 1/3 +- 0.1; "
        f"tau verdicts {[v.value for v in scan.verdicts]}",
    )


def test_criterion_7_distance_integral_dichotomy():
    finite = {a: distance_integral_classify(a) for a in (0.0, 0.5, 0.9, 0.99)}
    infinite = {a: distance_integral_classify(a) for a in (1.0, 1.1)}
    value_ok = abs(finite[0.5].value - 2.0 * math.sqrt(2.0)) <= 1e-3
    ok = (
        all(r.finite for r in finite.values())
        and not any(r.finite for r in infinite.values())
        and value_ok
    )
    report(
        7,
        ok,
        "Finite for a in {0, 0.5, 0.9, 0.99}, Infinite for {1.0, 1.1}; "
        f"value(0.5) = {finite[0.5].value:.6f} vs 2*sqrt(2) +- 1e-3",
    )


def test_criterion_8_eigen_oracles():
    pair2 = first_eigenpair(make_graded_grid(2049, 1.0), 2.0)
    rel2 = abs(pair2.eigenvalue - math.pi**2) / math.pi**2
    lam3_closed = eigenvalue_closed_form(3.0)
    lam3_shoot = eigenvalue_shooting(3.0)
    oracle_agree = abs(lam3_closed - lam3_shoot) / lam3_closed <= 1e-8
    pair3 = first_eigenpair(make_graded_grid(2049, 2.0), 3.0)
    rel3 = abs(pair3.eigenvalue - lam3_closed) / lam3_closed
    pi3 = generalized_pi(3.0)
    ok = rel2 <= 1e-4 and rel3 <= 1e-2 and oracle_agree and abs(pi3 - 2.4184) <= 1e-4
    report(
        8,
        ok,
        f"m=2 lambda rel err {rel2:.2e} (<= 1e-4); "
        f"m=3 lambda {pair3.eigenvalue:.4f} vs (m-1)pi_m^m = {lam3_closed:.4f} "
        f"rel {rel3:.2e} (<= 1e-2), shooting oracle agrees",
    )


def test_criterion_9_solver_oracles():
    g = make_graded_grid(1025, 2.0)
    rep = solve_dirichlet(GridFunction(g, np.ones(g.n)), 3.0)
    err_torsion = float(np.max(np.abs(rep.solution.values - torsion_exact(3.0, g.nodes))))
    orders = {}
    for m in (1.5, 2.0, 3.0, 4.0):
        errs = []
        for n in (257, 513, 1025):
            gg = make_graded_grid(n, 2.0)
            if m == 2.0:
                # the m = 2 torsion solution is quadratic, hence exact on any
                # grid; use the sine manufactured solution instead
                theta = GridFunction.interior_from_callable(
                    gg, lambda x: np.pi**2 * np.sin(np.pi * x)
                )
                exact = np.sin(np.pi * gg.nodes)
            else:
                theta = GridFunction(gg, np.ones(gg.n))
                exact = torsion_exact(m, gg.nodes)
            r = solve_dirichlet(theta, m)
            errs.append(np.max(np.abs(r.solution.values - exact)))
        orders[m] = min(
            math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        )
    ok = err_torsion <= 5e-4 and all(o >= 1.0 for o in orders.values())
    report(
        9,
        ok,
        f"m=3 torsion err {err_torsion:.2e} (<= 5e-4); empirical orders "
        + ", ".join(f"m={m}: {o:.2f}" for m, o in orders.items())
        + " (all >= 1.0)",
    )


def test_criterion_10_barrier_certification(e1_solves, e2_solve, e3_solve):
    details = []
    ok = True
    for spec, solve in (
        (E1, e1_solves[1]),
        (E2, e2_solve),
        (E3, e3_solve),
    ):
        pair = certified_pair(spec, make_graded_grid(4097, 3.0))
        certified = pair.sub_cert.certified and pair.super_cert.certified
        u = solve.solution.values
        inside = bool(
            np.all(u >= solve.sub_barrier.values - PICARD_TOL)
            and np.all(u <= solve.super_barrier.values + PICARD_TOL)
        )
        ok = ok and certified and pair.c <= 2.0**20 and inside
        details.append(
            f"(m={spec.m:g},p={spec.p:g},q={spec.q:g}): c={pair.c:g} "
            f"certified={certified} sandwiched={inside}"
        )
    report(10, ok, "; ".join(details))


def test_criterion_11_negative_controls(tmp_path):
    # wrong exponent gamma = 0.3 for E3 fails subsolution certification under
    # refinement: the coarse-grid scale is destroyed on the fine grid, where
    # no c <= 2^6 certifies
    eig_coarse = first_eigenpair(make_graded_grid(257, 3.0), 2.0)
    c_coarse, _ = auto_scale(BoundaryProfile.power(0.3), SUB, E3, eig_coarse)
    assert c_coarse <= 2.0**6
    eig_fine = first_eigenpair(make_graded_grid(4097, 3.0), 2.0)
    try:
        c_fine, _ = auto_scale(BoundaryProfile.power(0.3), SUB, E3, eig_fine)
    except NoCertifiableScale:
        c_fine = math.inf
    assert c_fine > 2.0**6
    from mlap1d.barriers import BarrierSpec, build_barrier, check_barrier

    stale = build_barrier(
        BarrierSpec(family=BoundaryProfile.power(0.3), c=c_coarse, side=SUB, base=eig_fine),
    )
    refinement_kills_it = not check_barrier(stale, SUB, E3, 2.0).certified

    # a falsified prediction makes the reproduction runner exit 1
    code = main(
        [
            "reproduce-theorem1",
            "--set", "matrix=E3",
            "--set", "e3.boundary_exponent=0.5",
            "--output-dir", str(tmp_path / "repro"),
        ]
    )
    ok = refinement_kills_it and code == 1
    report(
        11,
        ok,
        f"wrong gamma=0.3 certificate destroyed by refinement={refinement_kills_it}; "
        f"falsified reproduce exit code {code} (expect 1)",
    )


def test_flagship_reproduce_default_matrix(tmp_path):
    # the end-to-end runner with the default three-regime matrix passes
    code = main(["reproduce-theorem1", "--output-dir", str(tmp_path / "repro")])
    report("flagship", code == 0, f"reproduce-theorem1 default matrix exit {code}")
