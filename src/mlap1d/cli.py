"""Command-line interface: configuration, report and scan CSV serialization,
and the end-to-end three-regime reproduction runner.  Field CSVs are written
by ``fieldcsv``.

Configuration is flat ``key = value`` text (diff-friendly experiment records)
with three override layers, in increasing precedence: config file, environment
variables prefixed ``MLAP1D_``, and command-line flags (including generic
``--set key=value``).  Unknown keys are rejected.  All outputs are
deterministic: identical configuration yields bit-identical files.

Subcommands: classify, solve, eigen, barrier-check, fit-exponent,
scan-threshold, lemma-integral, reproduce-theorem1.  Exit codes: 0 success,
1 failed verification, 2 invalid input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import barriers
from .analyzer import (
    FixedRHS,
    Verdict,
    VERDICT_CODE,
    distance_integral_classify,
    fit_boundary_exponent,
    fit_log_correction,
    fit_log_profile,
    gradient_bound_check,
    threshold_scan,
)
from .core import (
    Domain,
    GridFunction,
    ProblemSpec,
    Regime,
    classify_regime,
    make_graded_grid,
    validate_spec,
)
from .eigen import EigenPair, first_eigenpair
from .errors import (
    BarrierOrderViolation,
    InvalidConfig,
    MlapError,
    NoCertifiableScale,
    NonConvergence,
    SolveFailed,
)
from .fieldcsv import field_csv_text, write_field_csv  # noqa: F401 (cli API)
from .solver import SolveReport, SolverConfig, solve_dirichlet, solve_singular

ENV_PREFIX = "MLAP1D_"

REGIME_CODE = {Regime.SUBCRITICAL: 0, Regime.CRITICAL: 1, Regime.SUPERCRITICAL: 2}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(t) for t in s.split(",") if t.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in s.split(",") if t.strip())


def _parse_strs(s: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in s.split(",") if t.strip())


# key -> (parser, default).  Every key can come from config file, environment
# (MLAP1D_<KEY>), or flags; unknown keys are rejected.
KNOWN_KEYS: dict[str, tuple] = {
    # problem
    "m": (float, 2.0),
    "p": (float, 0.0),
    "q": (float, 0.0),
    "k_low": (float, 1.0),
    "k_high": (float, 1.0),
    "domain": (str, "interval"),
    "ball_dim": (int, 3),
    # grid
    "n": (int, 1025),
    "grading": (float, 3.0),
    # solver
    "picard_tol": (float, 1e-8),
    "max_picard_iters": (int, 100),
    # right-hand side selection for solve/fit/scan/barrier-check
    "rhs": (str, "singular"),  # singular | const | power | logpower
    "theta_const": (float, 1.0),
    "a": (float, 0.5),  # exponent of delta^-a (power) / log^-a (logpower)
    # analyzer
    "window_lo": (float, 1e-4),
    "window_hi": (float, 1e-2),
    "taus": (_parse_floats, (2.0, 2.5, 3.0, 3.5, 4.0)),
    "levels": (_parse_ints, (257, 513, 1025, 2049)),
    "int_levels": (int, 6),
    "fit_kind": (str, "power"),  # power | log | logaffine
    "expect": (str, ""),
    "expect_tol": (float, 0.05),
    "verify": (_parse_bool, False),
    # barriers
    "family": (str, "regime"),  # regime | power | logpower
    "gamma": (float, 1.0),
    "log_s": (float, 0.5),
    "log_a": (float, 0.0),  # 0 = default scale
    "side": (str, "super"),
    "c": (str, "auto"),
    "c_max": (float, 2.0**20),
    "slack": (float, 0.0),
    "skip_cells": (int, 2),
    # output
    "output_dir": (str, "mlap1d-out"),
    "formats": (_parse_strs, ("csv", "report")),
    # reproduce
    "matrix": (_parse_strs, ("E1", "E2", "E3")),
}


@dataclass
class RunConfig:
    """Validated flat configuration plus dotted per-claim overrides."""

    values: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)

    def __getitem__(self, key):
        if key in self.values:
            return self.values[key]
        return KNOWN_KEYS[key][1]

    def set(self, key: str, raw: str) -> None:
        key = key.strip()
        if "." in key:
            entry, _, fld = key.partition(".")
            if not entry or not fld:
                raise InvalidConfig(f"malformed override key {key!r}")
            self.overrides[key.lower()] = raw.strip()
            return
        if key not in KNOWN_KEYS:
            raise InvalidConfig(f"unknown configuration key {key!r}")
        parser = KNOWN_KEYS[key][0]
        try:
            self.values[key] = parser(raw.strip())
        except (ValueError, TypeError) as exc:
            raise InvalidConfig(f"bad value for {key!r}: {raw!r} ({exc})") from exc

    def problem_spec(self) -> ProblemSpec:
        dom = (
            Domain.ball(self["ball_dim"])
            if self["domain"] == "ball"
            else Domain.interval()
        )
        spec = ProblemSpec(
            m=self["m"],
            p=self["p"],
            q=self["q"],
            k_low=self["k_low"],
            k_high=self["k_high"],
            domain=dom,
        )
        return validate_spec(spec)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            picard_tol=self["picard_tol"],
            max_picard_iters=self["max_picard_iters"],
        )

    def grid(self):
        dom = (
            Domain.ball(self["ball_dim"])
            if self["domain"] == "ball"
            else Domain.interval()
        )
        return make_graded_grid(self["n"], self["grading"], dom)

    def window(self) -> tuple[float, float]:
        return (self["window_lo"], self["window_hi"])


def load_config_file(cfg: RunConfig, path: str) -> None:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        cfg.set(key, raw)


def load_env(cfg: RunConfig, environ=None) -> None:
    env = os.environ if environ is None else environ
    for key in KNOWN_KEYS:
        var = ENV_PREFIX + key.upper()
        if var in env:
            cfg.set(key, env[var])


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        load_config_file(cfg, args.config)
    load_env(cfg)
    for key in KNOWN_KEYS:
        flag = key
        if hasattr(args, flag) and getattr(args, flag) is not None:
            cfg.set(key, getattr(args, flag))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise InvalidConfig(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg.set(key, raw)
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def write_report(path: Path, blocks: list[list[tuple[str, object]]]) -> None:
    chunks = []
    for block in blocks:
        chunks.append("\n".join(f"{k} = {_fmt(v)}" for k, v in block))
    path.write_text("\n\n".join(chunks) + "\n", encoding="utf-8")


def parse_report(text: str) -> list[dict[str, str]]:
    """Inverse of write_report: blocks of ``key = value`` lines."""
    blocks = []
    for chunk in text.strip().split("\n\n"):
        block: dict[str, str] = {}
        for line in chunk.splitlines():
            if not line.strip():
                continue
            key, sep, raw = line.partition("=")
            if not sep:
                raise InvalidConfig(f"malformed report line: {line!r}")
            block[key.strip()] = raw.strip()
        if block:
            blocks.append(block)
    return blocks


def scan_csv_text(report) -> str:
    lines = ["tau,n,seminorm,ratio,verdict"]
    for tau, n, norm, ratio, verdict in report.csv_rows():
        ratio_s = "" if math.isnan(ratio) else f"{ratio:.17g}"
        lines.append(f"{tau:.17g},{n},{norm:.17g},{ratio_s},{verdict}")
    return "\n".join(lines) + "\n"


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wants(cfg: RunConfig, kind: str) -> bool:
    return kind in cfg["formats"]


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def _theta_callable(cfg: RunConfig, spec: ProblemSpec | None):
    kind = cfg["rhs"]
    if kind == "const":
        const = cfg["theta_const"]
        return lambda x: np.full_like(np.asarray(x, dtype=float), const)
    dom = spec.domain if spec is not None else Domain.interval()
    a = cfg["a"]
    if kind == "power":
        return lambda x: dom.delta(x) ** (-a)
    if kind == "logpower":
        return lambda x: dom.delta(x) ** (-1.0) * np.log(1.0 / dom.delta(x)) ** (-a)
    raise InvalidConfig(f"unknown rhs kind {cfg['rhs']!r}")


def _solve_from_config(cfg: RunConfig):
    """Solve per the rhs selection; returns (report, spec-or-None)."""
    if cfg["rhs"] == "singular":
        spec = cfg.problem_spec()
        grid = make_graded_grid(cfg["n"], cfg["grading"], spec.domain)
        return solve_singular(spec, grid, cfg.solver_config()), spec
    grid = cfg.grid()
    theta = GridFunction.interior_from_callable(grid, _theta_callable(cfg, None))
    return solve_dirichlet(theta, cfg["m"]), None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(cfg: RunConfig) -> int:
    spec = cfg.problem_spec()
    rep = classify_regime(spec)
    print(f"regime = {rep.regime.value}")
    print(f"boundary_exponent = {rep.boundary_exponent:.6f}")
    if rep.log_exponent is not None:
        print(f"log_exponent = {rep.log_exponent:.6f}")
    tau = "inf" if math.isinf(rep.tau_sup) else f"{rep.tau_sup:.6f}"
    print(f"tau_sup = {tau}")
    print(f"theta_exponent = {rep.theta_exponent:.6f}")
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    try:
        report, spec = _solve_from_config(cfg)
    except NonConvergence as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    u = report.solution
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        write_field_csv(out / "solution.csv", u)
    peak = int(np.argmax(u.values))
    block = [
        ("command", "solve"),
        ("rhs", cfg["rhs"]),
        ("m", cfg["m"]),
        ("n", cfg["n"]),
        ("grading", cfg["grading"]),
        ("converged", report.converged),
        ("iterations", report.iterations),
        ("final_residual", report.final_residual),
        ("peak_x", float(u.grid.nodes[peak])),
        ("peak_u", float(u.values[peak])),
    ]
    if report.picard_gap is not None:
        block.append(("picard_gap", report.picard_gap))
        block.append(("barrier_c", report.barrier_c))
    if _wants(cfg, "report"):
        write_report(out / "solve.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")
    return 0 if report.converged else 1


def cmd_eigen(cfg: RunConfig) -> int:
    grid = cfg.grid()
    pair = first_eigenpair(grid, cfg["m"])
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        write_field_csv(out / "eigenfunction.csv", pair.eigenfunction)
    block = [
        ("command", "eigen"),
        ("m", cfg["m"]),
        ("n", cfg["n"]),
        ("grading", cfg["grading"]),
        ("lambda", pair.eigenvalue),
        ("residual", pair.residual),
    ]
    if _wants(cfg, "report"):
        write_report(out / "eigen.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")
    return 0


def _barrier_family(cfg: RunConfig, spec: ProblemSpec | None):
    kind = cfg["family"]
    if kind == "power":
        return barriers.PowerOfEigen(cfg["gamma"])
    if kind == "logpower":
        dom = spec.domain if spec is not None else Domain.interval()
        big_a = cfg["log_a"] or barriers.default_log_scale(dom, cfg["log_s"])
        return barriers.LogPowerOfEigen(cfg["log_s"], big_a)
    if kind == "regime":
        if spec is None:
            raise InvalidConfig("family=regime requires a singular rhs")
        sub_fam, super_fam = barriers.regime_families(spec)
        return sub_fam if cfg["side"] == "sub" else super_fam
    raise InvalidConfig(f"unknown barrier family {kind!r}")


def cmd_barrier_check(cfg: RunConfig) -> int:
    side = cfg["side"]
    if side not in (barriers.SUB, barriers.SUPER):
        raise InvalidConfig(f"side must be sub or super, got {side!r}")
    if cfg["rhs"] == "singular":
        spec = cfg.problem_spec()
        grid = make_graded_grid(cfg["n"], cfg["grading"], spec.domain)
        rhs = spec
    else:
        spec = None
        grid = cfg.grid()
        rhs = GridFunction.interior_from_callable(grid, _theta_callable(cfg, None))
    base = first_eigenpair(grid, cfg["m"])
    family = _barrier_family(cfg, spec)
    if cfg["c"] == "auto":
        try:
            c, cert = barriers.auto_scale(
                family, side, rhs, cfg["m"], base,
                c_max=cfg["c_max"], slack=cfg["slack"], skip_cells=cfg["skip_cells"],
            )
        except NoCertifiableScale as exc:
            print(f"barrier-check: {exc}", file=sys.stderr)
            return 1
    else:
        c = float(cfg["c"])
        bspec = barriers.BarrierSpec(family=family, c=c, side=side, base=base)
        cand = barriers.build_barrier(bspec, grid)
        cert = barriers.check_barrier(
            cand, side, rhs, cfg["m"], slack=cfg["slack"],
            skip_cells=cfg["skip_cells"], description=family.describe(),
        )
    block = [("command", "barrier-check"), ("family", family.describe()), ("c", c)]
    block += cert.report_items()
    out = _outdir(cfg)
    if _wants(cfg, "report"):
        write_report(out / "barrier.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")
    return 0 if cert.certified else 1


def cmd_fit_exponent(cfg: RunConfig) -> int:
    try:
        report, _spec = _solve_from_config(cfg)
    except NonConvergence as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    kind = cfg["fit_kind"]
    if kind == "power":
        fit = fit_boundary_exponent(report.solution, cfg.window())
        measured = fit.exponent
    elif kind == "log":
        fit = fit_log_correction(report.solution, cfg.window())
        measured = fit.log_exponent
    elif kind == "logaffine":
        fit = fit_log_profile(report.solution, cfg.window())
        measured = fit.log_exponent
    else:
        raise InvalidConfig(f"unknown fit kind {kind!r}")
    block = [
        ("command", "fit-exponent"),
        ("fit_kind", kind),
        ("exponent", fit.exponent),
        ("log_exponent", "" if fit.log_exponent is None else fit.log_exponent),
        ("r_squared", fit.r_squared),
        ("window_lo", fit.window[0]),
        ("window_hi", fit.window[1]),
    ]
    code = 0
    if cfg["expect"]:
        expected = float(cfg["expect"])
        ok = abs(measured - expected) <= cfg["expect_tol"]
        block += [
            ("expected", expected),
            ("tolerance", cfg["expect_tol"]),
            ("pass", ok),
        ]
        code = 0 if ok else 1
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        log_exp = "" if fit.log_exponent is None else f"{fit.log_exponent:.17g}"
        (out / "fit.csv").write_text(
            "exponent,log_exponent,r_squared,window_lo,window_hi\n"
            f"{fit.exponent:.17g},{log_exp},{fit.r_squared:.17g},"
            f"{fit.window[0]:.17g},{fit.window[1]:.17g}\n",
            encoding="utf-8",
        )
    if _wants(cfg, "report"):
        write_report(out / "fit.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")
    return code


def cmd_scan_threshold(cfg: RunConfig) -> int:
    if cfg["rhs"] == "singular":
        target = cfg.problem_spec()
    else:
        target = FixedRHS(_theta_callable(cfg, None), cfg["m"])
    scan = threshold_scan(
        target, cfg["taus"], cfg["levels"], grading=cfg["grading"],
        config=cfg.solver_config(),
    )
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        (out / "scan.csv").write_text(scan_csv_text(scan), encoding="utf-8")
    blocks = [[("command", "scan-threshold"),
               ("predicted_threshold",
                "inf" if scan.predicted_threshold is None
                or math.isinf(scan.predicted_threshold)
                else scan.predicted_threshold)]]
    for j, tau in enumerate(scan.tau_values):
        blocks.append([("tau", tau), ("verdict", scan.verdicts[j].value)])
    if _wants(cfg, "report"):
        write_report(out / "scan.report", blocks)
    for j, tau in enumerate(scan.tau_values):
        print(f"tau = {_fmt(tau)}: {scan.verdicts[j].value}")
    code = 0
    if cfg["verify"] and scan.predicted_threshold is not None:
        tstar = scan.predicted_threshold
        for j, tau in enumerate(scan.tau_values):
            v = scan.verdicts[j]
            if tau < tstar - 0.05 and v is not Verdict.CONVERGENT:
                code = 1
            if tau > tstar + 0.05 and v is not Verdict.DIVERGENT:
                code = 1
    return code


def cmd_lemma_integral(cfg: RunConfig) -> int:
    res = distance_integral_classify(cfg["a"], cfg["int_levels"], cfg["grading"])
    block = [
        ("command", "lemma-integral"),
        ("a", cfg["a"]),
        ("verdict", res.verdict()),
        ("estimated_exponent", res.estimated_exponent),
    ]
    if res.finite:
        block.append(("value", res.value))
    out = _outdir(cfg)
    if _wants(cfg, "report"):
        write_report(out / "lemma-integral.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")
    return 0


# ---------------------------------------------------------------------------
# reproduce-theorem1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    predicted: float
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.measured - self.predicted) <= self.tolerance


@dataclass(frozen=True)
class ReproReport:
    claims: tuple[ClaimRecord, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.claims)

    def blocks(self) -> list[list[tuple[str, object]]]:
        head = [
            ("report", "reproduce-theorem1"),
            ("overall", "pass" if self.overall else "fail"),
            ("claims", len(self.claims)),
        ]
        out = [head]
        for c in sorted(self.claims, key=lambda c: c.claim_id):
            out.append(
                [
                    ("claim", c.claim_id),
                    ("predicted", c.predicted),
                    ("measured", c.measured),
                    ("tolerance", c.tolerance),
                    ("pass", c.passed),
                ]
            )
        return out


def parse_repro_report(text: str) -> ReproReport:
    blocks = parse_report(text)
    if not blocks or blocks[0].get("report") != "reproduce-theorem1":
        raise InvalidConfig("not a reproduce-theorem1 report")
    claims = []
    for block in blocks[1:]:
        claims.append(
            ClaimRecord(
                claim_id=block["claim"],
                predicted=float(block["predicted"]),
                measured=float(block["measured"]),
                tolerance=float(block["tolerance"]),
            )
        )
    rep = ReproReport(tuple(claims))
    head = blocks[0]
    if int(head["claims"]) != len(claims):
        raise InvalidConfig("claim count mismatch in report")
    if (head["overall"] == "pass") != rep.overall:
        raise InvalidConfig("overall verdict mismatch in report")
    return rep


@dataclass(frozen=True)
class MatrixEntry:
    """One row of the regime test matrix with its measurement resolutions."""

    entry_id: str
    spec: ProblemSpec
    fit_n: int
    grading: float
    window: tuple[float, float]
    scan_taus: tuple[float, ...]
    scan_levels: tuple[int, ...]
    gradient_ns: tuple[int, int] | None


def default_matrix() -> dict[str, MatrixEntry]:
    return {
        "E1": MatrixEntry(
            entry_id="E1",
            spec=ProblemSpec(m=2.0, p=0.3, q=0.3),
            fit_n=8193,
            grading=3.0,
            window=(1e-5, 1e-3),
            scan_taus=(),
            scan_levels=(),
            gradient_ns=(4097, 8193),
        ),
        "E2": MatrixEntry(
            entry_id="E2",
            spec=ProblemSpec(m=2.0, p=0.5, q=0.5),
            fit_n=16385,
            grading=3.0,
            window=(1e-5, 1e-2),
            scan_taus=(2.0, 4.0, 8.0),
            scan_levels=(2049, 4097, 8193, 16385),
            gradient_ns=None,
        ),
        "E3": MatrixEntry(
            entry_id="E3",
            spec=ProblemSpec(m=2.0, p=0.5, q=1.0),
            fit_n=8193,
            grading=3.0,
            window=(1e-4, 1e-2),
            scan_taus=(2.0, 2.5, 2.9, 3.0, 3.5, 4.0),
            scan_levels=(1025, 2049, 4097, 8193),
            gradient_ns=None,
        ),
    }


def _entry_claims(
    entry: MatrixEntry, cfg: RunConfig, eigenpairs: dict[tuple, EigenPair]
) -> list[ClaimRecord]:
    """Run one matrix entry end to end and emit its claim records.

    Every singular solve of the entry goes through one memo keyed on n, so
    the fit solve, the gradient check and the scan levels share their grids;
    the barriers' eigenpairs come from the run-wide store ``eigenpairs``,
    keyed on (domain, n, grading, m).
    """
    eid = entry.entry_id.lower()
    spec = entry.spec
    regime = classify_regime(spec)
    scfg = cfg.solver_config()
    solves: dict[int, SolveReport] = {}

    def solve_at(n: int) -> SolveReport:
        if n not in solves:
            key = (spec.domain, n, entry.grading, spec.m)
            if key not in eigenpairs:
                grid = make_graded_grid(n, entry.grading, spec.domain)
                eigenpairs[key] = first_eigenpair(grid, spec.m)
            base = eigenpairs[key]
            solves[n] = solve_singular(spec, base.grid, scfg, base=base)
        return solves[n]

    def override(fld: str, default: float) -> float:
        raw = cfg.overrides.get(f"{eid}.{fld}")
        return default if raw is None else float(raw)

    claims: list[ClaimRecord] = []
    solve = solve_at(entry.fit_n)
    u = solve.solution

    # regime classification is exact
    claims.append(
        ClaimRecord(
            claim_id=f"{entry.entry_id}.regime",
            predicted=override("regime", REGIME_CODE[regime.regime]),
            measured=REGIME_CODE[regime.regime],
            tolerance=0.0,
        )
    )

    if regime.regime is Regime.CRITICAL:
        fit = fit_log_correction(u, entry.window)
        claims.append(
            ClaimRecord(
                claim_id=f"{entry.entry_id}.log_exponent",
                predicted=override("log_exponent", regime.log_exponent),
                measured=fit.log_exponent,
                tolerance=0.1,
            )
        )
    else:
        fit = fit_boundary_exponent(u, entry.window)
        claims.append(
            ClaimRecord(
                claim_id=f"{entry.entry_id}.boundary_exponent",
                predicted=override("boundary_exponent", regime.boundary_exponent),
                measured=fit.exponent,
                tolerance=0.03,
            )
        )

    # barrier certification and the solution sandwiched between the barriers
    claims.append(
        ClaimRecord(
            claim_id=f"{entry.entry_id}.barrier_scale_log2",
            predicted=0.0,
            measured=math.log2(solve.barrier_c),
            tolerance=20.0,
        )
    )
    below = float(np.max(solve.sub_barrier.values - u.values))
    above = float(np.max(u.values - solve.super_barrier.values))
    claims.append(
        ClaimRecord(
            claim_id=f"{entry.entry_id}.sandwich_violation",
            predicted=0.0,
            measured=max(0.0, below, above),
            tolerance=scfg.picard_tol,
        )
    )

    if entry.gradient_ns is not None:
        n0, n1 = entry.gradient_ns
        gb = gradient_bound_check(
            solve_at(n0).solution, a=1.0, refined=solve_at(n1).solution
        )
        factor = max(gb.ratio, 1.0 / gb.ratio)
        claims.append(
            ClaimRecord(
                claim_id=f"{entry.entry_id}.gradient_factor",
                predicted=1.0,
                measured=factor,
                tolerance=0.5,
            )
        )

    if entry.scan_taus:
        scan = threshold_scan(
            spec, entry.scan_taus, entry.scan_levels, grading=entry.grading,
            config=scfg, solve_level=lambda n: solve_at(n).solution,
        )
        tstar = regime.tau_sup
        for j, tau in enumerate(entry.scan_taus):
            code = VERDICT_CODE[scan.verdicts[j]]
            if math.isinf(tstar) or tau < tstar - 0.05:
                predicted, tol = float(VERDICT_CODE[Verdict.CONVERGENT]), 0.0
            elif tau > tstar + 0.05:
                predicted, tol = float(VERDICT_CODE[Verdict.DIVERGENT]), 0.0
            else:
                # at the threshold itself: Marginal or Divergent both acceptable
                predicted, tol = 1.5, 0.5
            claims.append(
                ClaimRecord(
                    claim_id=f"{entry.entry_id}.tau_{tau:g}",
                    predicted=predicted,
                    measured=float(code),
                    tolerance=tol,
                )
            )
    return claims


def cmd_reproduce(cfg: RunConfig) -> int:
    matrix = default_matrix()
    wanted = cfg["matrix"]
    if not wanted:
        raise InvalidConfig("empty test matrix")
    unknown = [w for w in wanted if w not in matrix]
    if unknown:
        raise InvalidConfig(f"unknown matrix entries: {unknown}")
    for key in cfg.overrides:
        entry, _, fld = key.partition(".")
        if entry.upper() not in wanted:
            raise InvalidConfig(f"override {key!r} targets an entry not in the matrix")

    # Eigenpairs live for this run only, and each entry's solves only inside
    # its _entry_claims call, so nothing outlives the command.
    eigenpairs: dict[tuple, EigenPair] = {}
    claims: list[ClaimRecord] = []
    for name in wanted:
        claims.extend(_entry_claims(matrix[name], cfg, eigenpairs))
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise InvalidConfig("duplicate claim ids in reproduction run")
    report = ReproReport(tuple(claims))
    out = _outdir(cfg)
    write_report(out / "reproduce.report", report.blocks())
    for c in sorted(report.claims, key=lambda c: c.claim_id):
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{status} {c.claim_id}: measured {_fmt(c.measured)} "
            f"(predicted {_fmt(c.predicted)} +- {_fmt(c.tolerance)})"
        )
    print(f"overall = {'pass' if report.overall else 'fail'}")
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "classify": cmd_classify,
    "solve": cmd_solve,
    "eigen": cmd_eigen,
    "barrier-check": cmd_barrier_check,
    "fit-exponent": cmd_fit_exponent,
    "scan-threshold": cmd_scan_threshold,
    "lemma-integral": cmd_lemma_integral,
    "reproduce-theorem1": cmd_reproduce,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any configuration key (repeatable)",
    )
    for key in KNOWN_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


_VERIFICATION_FAILURES = (
    NonConvergence,
    NoCertifiableScale,
    BarrierOrderViolation,
    SolveFailed,
)


def _failed_verification(exc: MlapError) -> bool:
    """Whether ``exc`` is a failed solve or certification (exit 1).

    A scan level's SolveFailed is judged by the package error it wraps, so
    an invalid-input error raised inside a level solve is still invalid input.
    """
    if isinstance(exc, SolveFailed) and isinstance(exc.__cause__, MlapError):
        exc = exc.__cause__
    return isinstance(exc, _VERIFICATION_FAILURES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mlap1d",
        description=(
            "Solve and verify degenerate m-Laplace Dirichlet problems with "
            "boundary-singular reaction terms (unit interval / radial ball). "
            f"Every key is also an environment variable {ENV_PREFIX}<KEY>."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    _add_common_flags(parser)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return COMMANDS[args.command](cfg)
    except (InvalidConfig,) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except MlapError as exc:
        # admissibility and other domain errors are invalid input; solver
        # and certification failures are verification failures
        if _failed_verification(exc):
            print(f"verification failed: {exc}", file=sys.stderr)
            return 1
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"filesystem error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
