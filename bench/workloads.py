"""The benchmark's workloads: inputs made from a seed, the ops, and output checks.

Each workload turns ``--seed`` into a list of passes before anything is
timed; the program sees only those generated inputs.  ``nominal_pass_s``
is a workload's program time per pass at the seed commit on a 2-CPU Intel
Xeon; run.py sizes a run with it.  A pass runs its ops
one after another in one client (a closed loop) and returns one record per
op.  Only calls into the program are timed; checking the outputs is not.

Outcomes of an op:

* ``ok``      -- returned a result that passed its checks;
* ``refused`` -- raised a typed ``MlapError`` subclass where the workload
  accepts one (only ``sweep``, whose lattice holds points the solver
  refuses); counts against ``ok_ratio`` but is not a wrong answer;
* ``failed``  -- did not return a result where one is expected;
* ``wrong``   -- a result that fails a check, or an untyped exception.
  Any wrong answer makes the benchmark exit non-zero.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Patcher, patch_everywhere

OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"


class BenchError(Exception):
    """The benchmark cannot drive the program as built."""


@dataclass
class OpRecord:
    label: str
    seconds: float
    outcome: str
    detail: str = ""


@dataclass
class PassResult:
    """Ops of one pass, the time spent inside the program, the bytes it wrote
    and, for a traced pass, the tracer's per-layer metrics."""

    records: list[OpRecord] = field(default_factory=list)
    program_s: float = 0.0
    bytes_written: int = 0
    layers: dict | None = None


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_cli(cli, argv):
    """Run the command line in-process; returns (exit code, seconds)."""
    sink = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(argv)
    return code, perf_counter() - t0


def read_report(cli, path: Path) -> dict[str, str]:
    blocks = cli.parse_report(path.read_text(encoding="utf-8"))
    if len(blocks) != 1:
        raise AssertionError(f"{path.name}: expected one block, got {len(blocks)}")
    return blocks[0]


def read_field_csv(path: Path, n: int) -> np.ndarray:
    """The ``u`` column of a field CSV, checked to have one row per node."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n, 4):
        raise AssertionError(f"{path.name}: shape {table.shape}, expected ({n}, 4)")
    return table[:, 2]


def check_certified(report, tol: float) -> None:
    """A singular solve is certified: converged, finite, gap and sandwich within tol."""
    u = report.solution.values
    if not report.converged:
        raise AssertionError("returned a report that is not converged")
    if not np.all(np.isfinite(u)):
        raise AssertionError("non-finite solution values")
    if not report.picard_gap <= tol:
        raise AssertionError(f"picard gap {report.picard_gap:g} above {tol:g}")
    below = float(np.max(report.sub_barrier.values - u))
    above = float(np.max(u - report.super_barrier.values))
    if max(below, above) > tol:
        raise AssertionError(f"sandwich violated by {max(below, above):g} (tol {tol:g})")


def closed_form_eigenvalue(m: float) -> float:
    """(m - 1) pi_m^m, the first eigenvalue of the m-Laplacian on (0, 1)."""
    pi_m = 2.0 * math.pi / (m * math.sin(math.pi / m))
    return (m - 1.0) * pi_m**m


# ---------------------------------------------------------------------------
# theorem1: the flagship reproduction run
# ---------------------------------------------------------------------------


class Theorem1:
    """``mlap1d reproduce-theorem1`` over the full E1-E3 matrix; one op per entry.

    The matrix is fixed; the seed picks the order of the entries in each pass.
    Entries are timed around the CLI's per-entry runner, so one pass is one
    invocation and the entries share whatever that invocation shares.
    """

    name = "theorem1"
    nominal_pass_s = 1.6
    entries = ("E1", "E2", "E3")

    def __init__(self, seed: int, passes: int):
        rng = random.Random(seed)
        self.passes = [tuple(rng.sample(self.entries, len(self.entries))) for _ in range(passes)]

    def run_pass(self, pkg, order, tracer, workdir: Path) -> PassResult:
        cli = pkg.cli
        result = PassResult()
        runner = getattr(cli, "_entry_claims", None)

        def timed_entry(entry, *args, **kwargs):
            t0 = perf_counter()
            try:
                with tracer.op(entry.entry_id):
                    claims = runner(entry, *args, **kwargs)
            except Exception as exc:
                outcome = FAILED if isinstance(exc, cli.MlapError) else WRONG
                result.records.append(OpRecord(entry.entry_id, perf_counter() - t0, outcome, repr(exc)))
                raise
            result.records.append(OpRecord(entry.entry_id, perf_counter() - t0, OK))
            return claims

        argv = ["reproduce-theorem1", "--matrix", ",".join(order), "--output-dir", str(workdir)]
        with Patcher() as patcher:
            if runner is None or not patch_everywhere(patcher, pkg, runner, timed_entry):
                raise BenchError("theorem1 times entries at mlap1d.cli._entry_claims")
            try:
                code, result.program_s = run_cli(cli, argv)
            except Exception as exc:
                _mark(result.records, WRONG, f"untyped exception {exc!r}")
                return result
        result.bytes_written = dir_bytes(workdir)
        if any(r.outcome != OK for r in result.records):
            return result
        try:
            with tracer.paused():
                self._check(cli, code, order, workdir)
        except AssertionError as exc:
            _mark(result.records, WRONG, str(exc))
        return result

    @staticmethod
    def _check(cli, code, order, workdir):
        if code != 0:
            raise AssertionError(f"reproduce-theorem1 exited {code}")
        path = workdir / "reproduce.report"
        try:
            report = cli.parse_repro_report(path.read_text(encoding="utf-8"))
        except (cli.MlapError, KeyError, ValueError) as exc:
            raise AssertionError(f"reproduce.report does not parse: {exc}") from exc
        failing = [c.claim_id for c in report.claims if not c.passed]
        if failing or not report.overall:
            raise AssertionError(f"claims failed: {failing}")
        for entry in order:
            if not any(c.claim_id.startswith(entry + ".") for c in report.claims):
                raise AssertionError(f"no claims for {entry}")
        again = workdir / "roundtrip" / "reproduce.report"
        again.parent.mkdir()
        cli.write_report(again, report.blocks())
        if again.read_bytes() != path.read_bytes():
            raise AssertionError("reproduce.report does not round-trip through parse_repro_report")


def _mark(records, outcome, detail):
    """Give every ok entry this outcome; with no entries, record the run itself."""
    if not records:
        records.append(OpRecord("reproduce-theorem1", 0.0, outcome, detail))
    for r in records:
        if r.outcome == OK:
            r.outcome, r.detail = outcome, detail


# ---------------------------------------------------------------------------
# nonlinear: m != 2 solves and eigenpairs through the command line
# ---------------------------------------------------------------------------


# (command, m, p, q, domain); the seed moves p and q by at most JITTER.
# fit-exponent repeats the damped interval solve and fits its boundary
# exponent, so the median op falls in the middle of one class of ops, not on
# the edge between two, and the analyzer does work in every pass.
NONLINEAR_OPS = (
    ("eigen", 1.5, None, None, "interval"),
    ("eigen", 3.0, None, None, "interval"),
    # damped singular loop: p >= 0.7 (m - 1)
    ("solve", 3.0, 1.5, 0.3, "interval"),
    ("fit-exponent", 3.0, 1.5, 0.3, "interval"),
    ("solve", 3.0, 1.5, 0.3, "ball"),
    # bracketed singular loop: p < 0.7 (m - 1)
    ("solve", 1.5, 0.2, 0.7, "interval"),
)
NONLINEAR_N = 16385
# The work of a singular solve follows its iteration counts, which move with
# (p, q); small moves keep every input distinct and the work per pass the
# same from seed to seed.
JITTER = 0.002


# Tolerance on a fitted boundary exponent, as in reproduce-theorem1.
FIT_TOL = 0.03


@dataclass(frozen=True)
class CliOp:
    command: str
    m: float
    p: float | None
    q: float | None
    domain: str
    n: int

    @property
    def label(self) -> str:
        if self.command == "eigen":
            return f"eigen m={self.m:g} {self.domain} n={self.n}"
        return f"{self.command} m={self.m:g} p={self.p:.4f} q={self.q:.4f} {self.domain} n={self.n}"

    @property
    def predicted_exponent(self) -> float:
        """Boundary exponent (m - q)/(m + p - 1) of a supercritical solution."""
        return (self.m - self.q) / (self.m + self.p - 1.0)

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.command, "--m", repr(self.m), "--n", str(self.n), "--grading", "3",
                "--domain", self.domain, "--ball-dim", "3", "--output-dir", str(outdir)]
        if self.command != "eigen":
            argv += ["--rhs", "singular", "--p", repr(self.p), "--q", repr(self.q)]
        if self.command == "fit-exponent":
            argv += ["--expect", repr(self.predicted_exponent), "--expect-tol", repr(FIT_TOL)]
        return argv


class Nonlinear:
    """CLI ``solve --rhs singular``, ``fit-exponent`` and ``eigen`` at m in {1.5, 3},
    n near 16385.

    Every op has its own node count (16385 plus a distinct seed-drawn offset
    no larger than the number of ops), so no two ops in a run share a grid,
    an eigenpair or a solve: a cache has nothing to reuse here.
    """

    name = "nonlinear"
    nominal_pass_s = 8.6

    def __init__(self, seed: int, passes: int):
        rng = random.Random(seed)
        count = passes * len(NONLINEAR_OPS)
        offsets = iter(rng.sample(range(-count, count + 1), count))
        self.passes = []
        for _ in range(passes):
            ops = []
            for command, m, p, q, domain in NONLINEAR_OPS:
                if p is not None:
                    p = p + rng.uniform(-JITTER, JITTER)
                    q = q + rng.uniform(-JITTER, JITTER)
                ops.append(CliOp(command, m, p, q, domain, NONLINEAR_N + next(offsets)))
            rng.shuffle(ops)
            self.passes.append(tuple(ops))

    def run_pass(self, pkg, ops, tracer, workdir: Path) -> PassResult:
        cli = pkg.cli
        tol = pkg.SolverConfig().picard_tol
        result = PassResult()
        captured = []
        target = cli.solve_singular

        def capture(*args, **kwargs):
            report = target(*args, **kwargs)
            captured.append(report)
            return report

        with Patcher() as patcher:
            patch_everywhere(patcher, pkg, target, capture)
            for i, op in enumerate(ops):
                captured.clear()
                outdir = workdir / str(i)
                try:
                    with tracer.op(op.label):
                        code, seconds = run_cli(cli, op.argv(outdir))
                except Exception as exc:
                    result.records.append(OpRecord(op.label, 0.0, WRONG, f"untyped exception {exc!r}"))
                    continue
                result.program_s += seconds
                result.bytes_written += dir_bytes(outdir)
                rec = OpRecord(op.label, seconds, OK)
                result.records.append(rec)
                # fit-exponent exits 1 with its report written when the fit
                # misses the prediction: that is a wrong answer, not a failure
                judged = op.command == "fit-exponent" and (outdir / "fit.report").is_file()
                if code != 0 and not judged:
                    rec.outcome, rec.detail = FAILED, f"exit code {code}"
                    continue
                try:
                    with tracer.paused():
                        if op.command == "eigen":
                            self._check_eigen(pkg, op, outdir)
                        else:
                            self._check_solve(cli, op, outdir, captured, tol)
                except AssertionError as exc:
                    rec.outcome, rec.detail = WRONG, str(exc)
                shutil.rmtree(outdir)
        return result

    @staticmethod
    def _check_solve(cli, op, outdir, captured, tol):
        if len(captured) != 1:
            raise AssertionError(f"expected one singular solve, saw {len(captured)}")
        report = captured[0]
        check_certified(report, tol)
        if op.command == "fit-exponent":
            fit = read_report(cli, outdir / "fit.report")
            exponent = float(fit["exponent"])
            if fit.get("pass") != "true" or not abs(exponent - op.predicted_exponent) <= FIT_TOL:
                raise AssertionError(
                    f"fitted exponent {exponent!r} vs predicted {op.predicted_exponent!r}"
                )
            return
        block = read_report(cli, outdir / "solve.report")
        if block.get("converged") != "true":
            raise AssertionError("solve.report: converged is not true")
        u = read_field_csv(outdir / "solution.csv", op.n)
        if not np.array_equal(u, report.solution.values):
            raise AssertionError("solution.csv differs from the returned solution")

    @staticmethod
    def _check_eigen(pkg, op, outdir):
        lam = float(read_report(pkg.cli, outdir / "eigen.report")["lambda"])
        exact = closed_form_eigenvalue(op.m)
        if not abs(lam - exact) <= 1e-2 * exact:
            raise AssertionError(f"lambda {lam!r} vs closed form {exact!r} (rel > 1e-2)")
        phi = read_field_csv(outdir / "eigenfunction.csv", op.n)
        if phi[0] != 0.0 or phi[-1] != 0.0 or not np.all(phi[1:-1] > 0.0):
            raise AssertionError("eigenfunction not positive inside with zero boundary values")
        if phi.max() != 1.0:
            raise AssertionError(f"eigenfunction sup-norm {phi.max()!r}, expected 1")


# ---------------------------------------------------------------------------
# sweep: many small singular solves over the admissible lattice
# ---------------------------------------------------------------------------

SWEEP_M = (1.2, 1.5, 2.0, 3.0, 5.0)
SWEEP_P = (0.0, 0.2, 0.5, 0.9, 1.5)
SWEEP_Q = (0.0, 0.3, 0.7, 1.0, 1.3)
SWEEP_DOMAINS = ("interval", "ball")
SWEEP_N = 1025


def admissible_lattice():
    """(m, p, q, domain) of the lattice with p + q < 2 - (1 - p)/m."""
    return [
        (m, p, q, d)
        for d, m, p, q in itertools.product(SWEEP_DOMAINS, SWEEP_M, SWEEP_P, SWEEP_Q)
        if p + q < 2.0 - (1.0 - p) / m
    ]


class Sweep:
    """``solve_singular`` at n = 1025 on every admissible lattice point.

    One pass is the whole lattice (interval and N = 3 ball) in a seed-drawn
    order.  Some points are refused with a typed error; that is the outcome
    ``ok_ratio`` counts, so the whole lattice runs in every pass.
    """

    name = "sweep"
    nominal_pass_s = 23.0

    def __init__(self, seed: int, passes: int):
        rng = random.Random(seed)
        lattice = admissible_lattice()
        self.passes = [tuple(rng.sample(lattice, len(lattice))) for _ in range(passes)]

    def run_pass(self, pkg, points, tracer, workdir: Path) -> PassResult:
        tol = pkg.SolverConfig().picard_tol
        base = pkg.errors.MlapError
        result = PassResult()
        for m, p, q, domain in points:
            label = f"m={m:g} p={p:g} q={q:g} {domain}"
            dom = pkg.Domain.ball(3) if domain == "ball" else pkg.Domain.interval()
            spec = pkg.ProblemSpec(m=m, p=p, q=q, domain=dom)
            t0 = perf_counter()
            report = None
            try:
                with tracer.op(label):
                    grid = pkg.make_graded_grid(SWEEP_N, 3.0, dom)
                    report = pkg.solve_singular(spec, grid)
                outcome, detail = OK, ""
            except base as exc:
                outcome = WRONG if type(exc) is base else REFUSED
                detail = type(exc).__name__
            except Exception as exc:
                outcome, detail = WRONG, f"untyped exception {exc!r}"
            seconds = perf_counter() - t0
            result.program_s += seconds
            if report is not None:
                try:
                    check_certified(report, tol)
                except AssertionError as exc:
                    outcome, detail = WRONG, str(exc)
            result.records.append(OpRecord(label, seconds, outcome, detail))
        return result


WORKLOADS = {w.name: w for w in (Theorem1, Nonlinear, Sweep)}
