"""Outside-in tracing of mlap1d: spans and counts around each layer's public calls.

The tracer lives entirely in the benchmark.  It wraps every public function
(and every public method of a public class) of each layer module at every
module namespace that holds it -- the defining module, every module that
imported it by name, the package ``__init__`` and any module-level dict that
dispatches to it -- and puts the originals back when it exits.  No code
under ``src/`` is touched.

A span records its name, layer, start, end, parent and the op it belongs to.
Spans stay in memory; ``metrics()`` reduces them to per-layer counts and self
times, and ``span_records()`` gives them out for writing when the run ends.
A layer's self time is its spans' durations minus the time covered by their
child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "operator", "solver", "eigen", "barriers", "analyzer", "cli")

# Layer of the benchmark's own op spans; it is not a program layer.
OP_LAYER = "op"


class Patcher:
    """Replaces attributes and dict items and restores every original, last
    patch first."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def program_modules(pkg):
    """The loaded modules of package ``pkg``, the package itself first."""
    prefix = pkg.__name__ + "."
    return [pkg] + [
        mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    ]


def patch_everywhere(patcher, pkg, obj, replacement):
    """Replace ``obj`` by ``replacement`` at every place in the package that
    holds it: each module attribute, and each value of a module-level dict,
    such as the command table ``cli.COMMANDS`` that ``cli.main`` dispatches
    through.  Returns the number of places."""
    attrs, items = [], []
    for mod in program_modules(pkg):
        for attr, value in vars(mod).items():
            if value is obj:
                attrs.append((mod, attr))
            elif type(value) is dict:
                items += [(value, key) for key, item in value.items() if item is obj]
    for mod, attr in attrs:
        patcher.set(mod, attr, replacement)
    for mapping, key in items:
        patcher.set_item(mapping, key, replacement)
    return len(attrs) + len(items)


def public_callables(mod):
    """(owner, attribute, function, span name) for a layer's public surface.

    Module-level functions defined in ``mod`` and plain or static methods of
    the classes defined in it; private names and properties are left alone.
    """
    layer = mod.__name__.rpartition(".")[2]
    found = []
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            found.append((mod, name, value, f"{layer}.{name}"))
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod) or inspect.isfunction(member):
                    found.append((value, attr, member, f"{layer}.{name}.{attr}"))
    return found


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _values_key(gf):
    return None if gf is None else gf.values.tobytes()


def _grid_key(grid):
    return (grid.domain, grid.grading_exponent, grid.nodes.tobytes())


class _Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "child_s", "child_exc", "failed")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.start = None
        self.end = None
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.child_exc = None
        self.failed = False

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class NullTracer:
    """Stands in for Tracer in untraced runs: op spans cost nothing."""

    @contextmanager
    def op(self, label):
        yield

    @contextmanager
    def paused(self):
        yield


class Tracer:
    """Spans and counts around the public calls of every layer of ``pkg``.

    Use as a context manager: entering wraps the program, leaving restores
    it.  ``op(label)`` opens the span that ties one op's spans together.
    """

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []
        self.counts = Counter()
        self.keys = {"solver.solve_singular": [], "eigen.first_eigenpair": []}
        self._stack = []
        self._ops = 0
        self._patcher = Patcher()
        self._paused = False

    # -- installation -----------------------------------------------------

    def __enter__(self):
        try:
            for layer in LAYERS:
                mod = sys.modules.get(f"{self.pkg.__name__}.{layer}")
                if mod is None:  # a layer the program no longer has
                    continue
                for owner, attr, member, name in public_callables(mod):
                    self._install(owner, attr, member, name, layer)
            self._install_stage_probe()
        except BaseException:
            self._patcher.restore()
            raise
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    def _install(self, owner, attr, member, name, layer):
        if inspect.ismodule(owner):
            patch_everywhere(self._patcher, self.pkg, member, self._wrap(member, name, layer))
        elif isinstance(member, staticmethod):
            self._patcher.set(owner, attr, staticmethod(self._wrap(member.__func__, name, layer)))
        else:
            self._patcher.set(owner, attr, self._wrap(member, name, layer))

    def _install_stage_probe(self):
        # Newton stages are entries of the solver's private per-eps stage
        # function; count them without a span.  A solver without stages
        # reports zero.
        solver = sys.modules.get(f"{self.pkg.__name__}.solver")
        stage = getattr(solver, "_newton_stage", None)
        if stage is None:
            return
        tracer = self

        @functools.wraps(stage)
        def counted(*args, **kwargs):
            if not tracer._paused:
                tracer.counts["solver.newton_stages"] += 1
            return stage(*args, **kwargs)

        patch_everywhere(self._patcher, self.pkg, stage, counted)

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, exc)
                raise
            tracer._close(span, None)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, layer, parent, parent.op if parent else None)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span, exc):
        span.end = perf_counter()
        self._stack.pop()
        if exc is not None:
            # failed counts where an error starts, not every span it crosses
            span.failed = exc is not span.child_exc
        parent = span.parent
        if parent is not None:
            parent.child_s += span.end - span.start
            parent.child_exc = exc
        self.spans.append(span)

    @contextmanager
    def paused(self):
        """Calls made inside, such as the benchmark's output checks, are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def op(self, label):
        """Root span of one op; every span opened inside carries its id."""
        self._ops += 1
        span = self._open(f"op.{label}", OP_LAYER)
        span.op = self._ops
        try:
            yield
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    # -- reduction --------------------------------------------------------

    def metrics(self):
        """Per-layer counts, ratios and self times of every span so far."""
        calls = Counter(s.name for s in self.spans)
        self_s = Counter()
        failed = Counter()
        inner = Counter()
        for s in self.spans:
            self_s[s.layer] += s.self_s
            failed[s.layer] += s.failed
            if s.name == "solver.solve_dirichlet" and s.parent is not None:
                inner[s.parent.name] += 1
        c = self.counts
        stages = c["solver.newton_stages"]
        sing = self.keys["solver.solve_singular"]
        eig = self.keys["eigen.first_eigenpair"]
        out = {
            "operator.energy.calls": calls["operator.energy"],
            "operator.flux.calls": calls["operator.flux_of_gradient"]
            + calls["operator.dflux_of_gradient"],
            "operator.apply_mlap.calls": calls["operator.apply_mlap"],
            "solver.solve_dirichlet.calls": calls["solver.solve_dirichlet"],
            "solver.newton_stages": stages,
            "solver.newton_steps": c["solver.newton_steps"],
            "solver.step_ratio": c["solver.newton_steps"] / stages if stages else 0.0,
            "solver.solve_singular.calls": calls["solver.solve_singular"],
            "solver.singular_distinct_ratio": _distinct_ratio(sing),
            "solver.picard_sweeps": inner["solver.solve_singular"],
            "solver.failed": failed["solver"],
            "eigen.first_eigenpair.calls": calls["eigen.first_eigenpair"],
            "eigen.distinct_ratio": _distinct_ratio(eig),
            "eigen.inner_solves": inner["eigen.first_eigenpair"],
            "barriers.check_barrier.calls": calls["barriers.check_barrier"],
            "barriers.widenings": calls["barriers.BarrierPair.widened"],
            "barriers.failed": failed["barriers"],
            "analyzer.threshold_scan.levels": c["analyzer.threshold_scan.levels"],
            "analyzer.fit.calls": calls["analyzer.fit_boundary_exponent"]
            + calls["analyzer.fit_log_correction"]
            + calls["analyzer.fit_log_profile"],
            "core.make_graded_grid.calls": calls["core.make_graded_grid"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def span_records(self):
        """Finished spans as plain dicts, in the order they ended."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": s.name,
                "op": s.op,
                "parent": index.get(id(s.parent)),
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "failed": s.failed,
            }
            for i, s in enumerate(self.spans)
        ]


def _distinct_ratio(keys):
    return len(set(keys)) / len(keys) if keys else 0.0


# -- hooks: counts read from the arguments and results of one call ---------


def _solve_dirichlet(tracer, fn, args, kwargs, result):
    tracer.counts["solver.newton_steps"] += result.iterations


# Two calls are the same input when every argument is; the grid enters
# through its nodes, so equal grids built separately count as one input.


def _solve_singular(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    key = (a["spec"], _grid_key(a["grid"]), a.get("config"), _values_key(a.get("k_values")), a.get("k0"))
    tracer.keys["solver.solve_singular"].append(key)


def _first_eigenpair(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    key = (
        _grid_key(a["grid"]),
        a["m"],
        a.get("tol"),
        a.get("config"),
        a.get("max_iters"),
        _values_key(a.get("initial")),
    )
    tracer.keys["eigen.first_eigenpair"].append(key)


def _threshold_scan(tracer, fn, args, kwargs, result):
    tracer.counts["analyzer.threshold_scan.levels"] += len(result.level_ns)


_HOOKS = {
    "solver.solve_dirichlet": _solve_dirichlet,
    "solver.solve_singular": _solve_singular,
    "eigen.first_eigenpair": _first_eigenpair,
    "analyzer.threshold_scan": _threshold_scan,
}
