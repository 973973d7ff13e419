"""Command-line interface: configuration parsing, problem building, and the
report and scan CSV files.  Field CSVs are written by ``fieldcsv``; the
reproduction matrix, its claims and its runner live in ``repro``.

Configuration is flat ``key = value`` text (diff-friendly experiment records)
with three override layers, in increasing precedence: config file, environment
variables prefixed ``MLAP1D_``, and command-line flags (including generic
``--set key=value``).  Unknown keys and malformed values are rejected.  Every
command that solves builds its problem with ``_problem``: the singular or
fixed right-hand side on the configured domain (interval or ball).  All
outputs are deterministic: identical configuration yields bit-identical files.

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
    distance_integral_classify,
    fit_boundary_exponent,
    fit_log_correction,
    fit_log_profile,
    threshold_scan,
)
from .core import (
    Domain,
    GridFunction,
    ProblemSpec,
    classify_regime,
    make_graded_grid,
)
from .eigen import first_eigenpair
from .errors import InvalidConfig, MlapError
from .fieldcsv import field_csv_text, write_field_csv  # noqa: F401 (cli API)
from .repro import (  # noqa: F401 (_entry_claims: cli API, timed by bench/)
    ClaimRecord,
    ReproReport,
    _entry_claims,
    reproduce,
    scan_claims,
)
from .solver import SolverConfig, solve_dirichlet, solve_singular

ENV_PREFIX = "MLAP1D_"


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


def _parse_formats(s: str) -> tuple[str, ...]:
    kinds = _parse_strs(s)
    unknown = [t for t in kinds if t not in ("csv", "report")]
    if unknown:
        raise ValueError(f"unknown output formats {unknown}; expected csv, report")
    return kinds


def _float_or(word: str):
    """Parser of a float key that also accepts the literal ``word``."""
    return lambda s: s if s == word else float(s)


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
    "expect": (_float_or(""), ""),
    "expect_tol": (float, 0.05),
    "verify": (_parse_bool, False),
    # barriers
    "family": (str, "regime"),  # regime | power | logpower
    "gamma": (float, 1.0),
    "log_s": (float, 0.5),
    "log_a": (float, 0.0),  # 0 = default scale
    "side": (str, "super"),
    "c": (_float_or("auto"), "auto"),
    "slack": (float, 0.0),
    "skip_cells": (int, 2),
    # output
    "output_dir": (str, "mlap1d-out"),
    "formats": (_parse_formats, ("csv", "report")),
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

    def domain(self) -> Domain:
        kind = self["domain"]
        if kind == "interval":
            return Domain.interval()
        if kind == "ball":
            return Domain.ball(self["ball_dim"])
        raise InvalidConfig(f"unknown domain {kind!r}; expected interval or ball")

    def problem_spec(self) -> ProblemSpec:
        return ProblemSpec(
            m=self["m"],
            p=self["p"],
            q=self["q"],
            k_low=self["k_low"],
            k_high=self["k_high"],
            domain=self.domain(),
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            picard_tol=self["picard_tol"],
            max_picard_iters=self["max_picard_iters"],
        )

    def grid(self):
        return make_graded_grid(self["n"], self["grading"], self.domain())

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


def load_env(cfg: RunConfig) -> None:
    for key in KNOWN_KEYS:
        var = ENV_PREFIX + key.upper()
        if var in os.environ:
            cfg.set(key, os.environ[var])


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        load_config_file(cfg, args.config)
    load_env(cfg)
    for key in KNOWN_KEYS:
        if getattr(args, key, None) is not None:
            cfg.set(key, getattr(args, key))
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


def scan_csv_text(scan) -> str:
    """``scan.csv``: one row per (tau, level) of a ScanReport, with the
    seminorm's ratio to the previous level (empty on the coarsest, and
    after a level whose seminorm is 0)."""
    lines = ["tau,n,seminorm,ratio,verdict"]
    for j, tau in enumerate(scan.tau_values):
        norms = scan.norms[:, j]
        for l, n in enumerate(scan.level_ns):
            ratio = f"{norms[l] / norms[l - 1]:.17g}" if l > 0 and norms[l - 1] != 0.0 else ""
            lines.append(f"{tau:.17g},{n},{norms[l]:.17g},{ratio},{scan.verdicts[j].value}")
    return "\n".join(lines) + "\n"


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wants(cfg: RunConfig, kind: str) -> bool:
    return kind in cfg["formats"]


def _emit(cfg: RunConfig, name: str, block: list[tuple[str, object]]) -> None:
    """Write ``block`` to ``<name>.report`` when reports are wanted, and print it."""
    out = _outdir(cfg)
    if _wants(cfg, "report"):
        write_report(out / f"{name}.report", [block])
    for k, v in block:
        print(f"{k} = {_fmt(v)}")


# ---------------------------------------------------------------------------
# the configured problem
# ---------------------------------------------------------------------------


def _problem(cfg: RunConfig, n: int):
    """The configured problem at n nodes: (spec or None, grid, rhs).

    For the singular right-hand side spec and rhs are both the ProblemSpec;
    for a fixed one spec is None and rhs is theta, a function of the
    grid's distance to the boundary, sampled at the unknown nodes.
    """
    if cfg["rhs"] == "singular":
        spec = cfg.problem_spec()
        return spec, make_graded_grid(n, cfg["grading"], spec.domain), spec
    grid = make_graded_grid(n, cfg["grading"], cfg.domain())
    kind, a = cfg["rhs"], cfg["a"]
    sl = grid.unknown_slice
    d, theta = grid.delta_nodes[sl], np.zeros(grid.n)
    # an overflow to inf is refused by the solve with NonFiniteTheta
    with np.errstate(over="ignore"):
        if kind == "const":
            theta[sl] = cfg["theta_const"]
        elif kind == "power":
            theta[sl] = d ** (-a)
        elif kind == "logpower":
            if a > 0.0 and cfg["domain"] == "ball":
                # log(1/delta) is 0 at the centre r = 0
                raise InvalidConfig(
                    f"rhs = logpower with a = {a:g} > 0 is infinite at the centre "
                    "of the ball, where delta = 1"
                )
            theta[sl] = d ** (-1.0) * np.log(1.0 / d) ** (-a)
        else:
            raise InvalidConfig(f"unknown rhs kind {kind!r}")
    return None, grid, GridFunction(grid, theta)


def _solve(cfg: RunConfig, n: int):
    """Solve the configured problem at n nodes; returns its SolveReport."""
    spec, grid, rhs = _problem(cfg, n)
    if spec is None:
        return solve_dirichlet(rhs, cfg["m"])
    return solve_singular(spec, grid, cfg.solver_config())


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
    report = _solve(cfg, cfg["n"])
    u = report.solution
    if _wants(cfg, "csv"):
        write_field_csv(_outdir(cfg) / "solution.csv", u)
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
    _emit(cfg, "solve", block)
    return 0


def cmd_eigen(cfg: RunConfig) -> int:
    pair = first_eigenpair(cfg.grid(), cfg["m"])
    if _wants(cfg, "csv"):
        write_field_csv(_outdir(cfg) / "eigenfunction.csv", pair.eigenfunction)
    block = [
        ("command", "eigen"),
        ("m", cfg["m"]),
        ("n", cfg["n"]),
        ("grading", cfg["grading"]),
        ("lambda", pair.eigenvalue),
        ("residual", pair.residual),
    ]
    _emit(cfg, "eigen", block)
    return 0


def _barrier_family(cfg: RunConfig, spec: ProblemSpec | None):
    kind = cfg["family"]
    if kind == "power":
        return barriers.PowerOfEigen(cfg["gamma"])
    if kind == "logpower":
        big_a = cfg["log_a"] or barriers.default_log_scale(cfg.domain(), cfg["log_s"])
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
    spec, grid, rhs = _problem(cfg, cfg["n"])
    base = first_eigenpair(grid, cfg["m"])
    family = _barrier_family(cfg, spec)
    slack, skip = cfg["slack"], cfg["skip_cells"]
    if cfg["c"] == "auto":
        c, cert = barriers.auto_scale(family, side, rhs, cfg["m"], base, slack, skip)
    else:
        c = cfg["c"]
        _, cert = barriers.check_scaled(family, side, c, rhs, cfg["m"], base, grid, slack, skip)
    block = [("command", "barrier-check"), ("family", family.describe()), ("c", c)]
    block += cert.report_items()
    _emit(cfg, "barrier", block)
    return 0 if cert.certified else 1


FITS = {"power": fit_boundary_exponent, "log": fit_log_correction, "logaffine": fit_log_profile}


def cmd_fit_exponent(cfg: RunConfig) -> int:
    kind = cfg["fit_kind"]
    if kind not in FITS:
        raise InvalidConfig(f"unknown fit kind {kind!r}")
    fit = FITS[kind](_solve(cfg, cfg["n"]).solution, cfg.window())
    measured = fit.exponent if kind == "power" else fit.log_exponent
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
    if cfg["expect"] != "":
        expected = cfg["expect"]
        ok = abs(measured - expected) <= cfg["expect_tol"]
        block += [
            ("expected", expected),
            ("tolerance", cfg["expect_tol"]),
            ("pass", ok),
        ]
        code = 0 if ok else 1
    if _wants(cfg, "csv"):
        log_exp = "" if fit.log_exponent is None else f"{fit.log_exponent:.17g}"
        (_outdir(cfg) / "fit.csv").write_text(
            "exponent,log_exponent,r_squared,window_lo,window_hi\n"
            f"{fit.exponent:.17g},{log_exp},{fit.r_squared:.17g},"
            f"{fit.window[0]:.17g},{fit.window[1]:.17g}\n",
            encoding="utf-8",
        )
    _emit(cfg, "fit", block)
    return code


def cmd_scan_threshold(cfg: RunConfig) -> int:
    # tau* is predicted for the singular right-hand side only
    spec = cfg.problem_spec() if cfg["rhs"] == "singular" else None
    if cfg["verify"] and spec is None:
        raise InvalidConfig("verify needs rhs = singular: a fixed theta predicts no threshold")
    tstar = math.inf if spec is None else classify_regime(spec).tau_sup
    scan = threshold_scan(
        lambda n: _solve(cfg, n).solution, cfg["taus"], cfg["levels"], cfg["grading"]
    )
    out = _outdir(cfg)
    if _wants(cfg, "csv"):
        (out / "scan.csv").write_text(scan_csv_text(scan), encoding="utf-8")
    blocks = [[("command", "scan-threshold"), ("predicted_threshold", tstar)]]
    for j, tau in enumerate(scan.tau_values):
        blocks.append([("tau", tau), ("verdict", scan.verdicts[j].value), ("rate", scan.rates[j])])
    if _wants(cfg, "report"):
        write_report(out / "scan.report", blocks)
    for j, tau in enumerate(scan.tau_values):
        print(f"tau = {_fmt(tau)}: {scan.verdicts[j].value}")
    if cfg["verify"]:
        return 0 if all(c.passed for c in scan_claims(scan, tstar)) else 1
    return 0


def cmd_lemma_integral(cfg: RunConfig) -> int:
    res = distance_integral_classify(cfg["a"], cfg["int_levels"], cfg["grading"])
    block = [
        ("command", "lemma-integral"),
        ("a", cfg["a"]),
        ("verdict", "Finite" if res.finite else "Infinite"),
        ("estimated_exponent", res.estimated_exponent),
    ]
    if res.finite:
        block.append(("value", res.value))
    _emit(cfg, "lemma-integral", block)
    return 0


# ---------------------------------------------------------------------------
# reproduce-theorem1
# ---------------------------------------------------------------------------


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


def cmd_reproduce(cfg: RunConfig) -> int:
    report = reproduce(cfg["matrix"], cfg.overrides, cfg.solver_config())
    write_report(_outdir(cfg) / "reproduce.report", report.blocks())
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
    except MlapError as exc:
        what = "verification failed" if exc.exit_status == 1 else "invalid input"
        print(f"{what}: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"filesystem error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
