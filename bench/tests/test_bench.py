"""Tests of the benchmark itself: the tracer, its counts and the workload inputs.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, program_modules  # noqa: E402


@pytest.fixture
def pkg():
    return run.load_program()


def snapshot(pkg):
    """Every attribute of every mlap1d module, every value of its module-level
    dicts and every attribute of every class defined there."""
    state = {}
    for mod in program_modules(pkg):
        for name, value in vars(mod).items():
            state[(mod.__name__, name)] = value
            if type(value) is dict and not name.startswith("__"):
                for key, item in value.items():
                    state[(mod.__name__, name, key)] = item
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    state[(mod.__name__, name, attr)] = member
    return state


def test_tracer_wraps_every_import_site_and_restores_the_program(pkg):
    before = snapshot(pkg)
    original = pkg.solver.solve_dirichlet
    grid = pkg.make_graded_grid(65, 1.0)
    bad = pkg.GridFunction(grid, np.full(grid.n, np.nan))
    with Tracer(pkg) as tracer:
        wrapped = pkg.solver.solve_dirichlet
        assert wrapped is not original
        assert pkg.eigen.solve_dirichlet is wrapped
        assert pkg.analyzer.solve_dirichlet is wrapped
        assert pkg.solve_dirichlet is wrapped
        assert pkg.barriers.first_eigenpair is pkg.eigen.first_eigenpair
        assert pkg.cli.COMMANDS["solve"] is pkg.cli.cmd_solve
        assert pkg.cli.COMMANDS["solve"] is not before[("mlap1d.cli", "cmd_solve")]
        with pytest.raises(ValueError):
            pkg.solve_dirichlet(bad, 2.0)
    after = snapshot(pkg)
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []
    assert tracer.metrics()["solver.failed"] == 1


def test_layer_self_times_sum_to_at_most_the_wall_time(pkg):
    spec = pkg.ProblemSpec(m=2.0, p=0.5, q=0.5)
    with Tracer(pkg) as tracer:
        t0 = perf_counter()
        for label in ("a", "b"):
            with tracer.op(label):
                pkg.solve_singular(spec, pkg.make_graded_grid(257, 3.0))
        wall = perf_counter() - t0
    m = tracer.metrics()
    self_times = [m[f"{layer}.self_s"] for layer in LAYERS]
    assert min(self_times) >= 0.0
    assert 0.0 < sum(self_times) <= wall
    assert {s.op for s in tracer.spans} == {1, 2}
    # two equal inputs on grids built separately count as one distinct input
    assert m["solver.solve_singular.calls"] == 2
    assert m["solver.singular_distinct_ratio"] == 0.5
    assert m["eigen.first_eigenpair.calls"] == 2
    assert m["eigen.distinct_ratio"] == 0.5


def test_linear_dirichlet_solve_exact_counts(pkg):
    grid = pkg.make_graded_grid(65, 1.0)
    theta = pkg.GridFunction.interior_from_callable(grid, np.ones_like)
    cfg = pkg.SolverConfig()
    with Tracer(pkg) as tracer:
        report = pkg.solve_dirichlet(theta, 2.0, cfg)
        with tracer.paused():
            pkg.solve_dirichlet(theta, 2.0, cfg)
    m = tracer.metrics()
    stages = len(cfg.eps_schedule)
    # m = 2 is linear: one Newton step solves it, and every later stage
    # only evaluates its entry state
    assert report.iterations == 1
    assert m["solver.solve_dirichlet.calls"] == 1
    assert m["solver.newton_stages"] == stages
    assert m["solver.newton_steps"] == 1
    assert m["operator.energy.calls"] == stages + 1
    assert m["operator.flux.calls"] == 2 * (stages + 1)


def test_metric_names_match_benchmark_json(pkg):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    with Tracer(pkg) as tracer:
        pass
    traced = workloads.PassResult(program_s=1.0, layers=tracer.metrics())
    plain = workloads.PassResult([workloads.OpRecord("op", 1.0, workloads.OK)], 1.0)
    assert set(run.per_layer([plain], [traced])) == {m["name"] for m in spec["per_layer"]}
    values, _ = run.end_to_end([plain], 1.0)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7, 3).passes == make(7, 3).passes
    assert make(7, 3).passes != make(8, 3).passes
    assert len(make(7, 3).passes) == 3


def test_nonlinear_inputs_are_distinct_and_on_both_loops():
    ops = [op for p in workloads.Nonlinear(3, 8).passes for op in p]
    assert len({op.n for op in ops}) == len(ops)
    solves = [op for op in ops if op.command == "solve"]
    assert any(op.p >= 0.7 * (op.m - 1.0) for op in solves)
    assert any(op.p < 0.7 * (op.m - 1.0) for op in solves)
    assert {op.domain for op in solves} == {"interval", "ball"}


def test_sweep_lattice_is_the_admissible_set():
    lattice = workloads.admissible_lattice()
    assert len(lattice) == 204
    assert len(set(lattice)) == 204


def test_tail_has_ten_samples_beyond_or_is_the_median():
    assert run.tail(range(100)) == (89, 90.0, 10)
    assert run.tail(range(6)) == (2, 50.0, 3)
