"""Command-line interface: configuration parsing, problem building, and the
report and scan CSV files.  Field CSVs are written by ``fieldcsv``; the
reproduction matrix, its claims and its runner live in ``repro``.

Configuration is flat ``key = value`` text (diff-friendly experiment records)
in three layers, in increasing precedence: config file, ``--key value`` flags,
and generic ``--set key=value``, so the command line names every source.
Every value goes through ``RunConfig.set``; unknown or abbreviated keys,
malformed values, such as a word outside an enumerated key's options, and
claim overrides (dotted keys) given to any command but reproduce-theorem1
are rejected.  Every command that solves builds its problem with
``_problem``: the singular or fixed right-hand side on the configured domain
(interval or ball).  All outputs are deterministic: identical configuration
yields bit-identical files.  Exit codes: 0 success, 1 failed verification,
2 invalid input.

Importing this module loads only the layers its key table, ``RunConfig``,
``FITS`` and ``main`` read: errors, core, solver and analyzer.  Each command
imports the rest where it runs: barrier-check loads barriers and eigen,
eigen loads eigen and fieldcsv, solve loads fieldcsv, and
reproduce-theorem1, ``scan-threshold --verify`` and ``parse_repro_report``
load repro.  The names of those layers that callers read from this module
(``_LAZY``) load their layer on first read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

from . import analyzer, core
from .analyzer import (
    distance_integral_classify,
    fit_boundary_exponent,
    fit_log_profile,
    threshold_scan,
)
from .core import (
    SKIP_CELLS,
    SUB,
    SUPER,
    BoundaryProfile,
    Domain,
    GridFunction,
    ProblemSpec,
    classify_regime,
    default_log_scale,
    make_graded_grid,
    regime_profiles,
)
from .errors import InvalidConfig, MlapError
from .solver import SolverConfig, solve_dirichlet, solve_singular

# the entries a reproduce-theorem1 run takes unless told otherwise
DEFAULT_RUN = ("E1", "E2", "E3")

# name -> its layer, for the names of the layers loaded on demand that
# callers read from this module (bench/ times _entry_claims here)
_LAZY = {
    "first_eigenpair": "eigen",
    "field_csv_text": "fieldcsv",
    "write_field_csv": "fieldcsv",
    "ClaimRecord": "repro",
    "ReproReport": "repro",
    "_entry_claims": "repro",
    "reproduce": "repro",
    "scan_claims": "repro",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)


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


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values."""
    return lambda s: tuple(kind(t.strip()) for t in s.split(",") if t.strip())


def _count(s: str) -> int:
    """Parser of a whole number: an integer literal, exact at any size, or a
    float that core.is_whole accepts (1025.0, 1e3)."""
    for parse in (int, float):
        try:
            x = parse(s)
        except ValueError:
            continue
        if core.is_whole(x):
            return int(x)
    raise ValueError(f"{s!r} is not a whole number")


def _choice(*options):
    """Parser of a word that must be one of ``options``."""

    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"{s!r} is not one of {', '.join(options)}")
        return s

    return parse


def _float_or(word: str):
    """Parser of a float key that also accepts the literal ``word``."""
    return lambda s: s if s == word else float(s)


FITS = {"power": fit_boundary_exponent, "logaffine": fit_log_profile}

# key -> (parser, default: the library's default where it has one); unknown keys are rejected.
KNOWN_KEYS: dict[str, tuple] = {
    # problem
    "m": (float, 2.0),
    "p": (float, 0.0),
    "q": (float, 0.0),
    "k_low": (float, ProblemSpec.k_low),
    "k_high": (float, ProblemSpec.k_high),
    "domain": (_choice("interval", "ball"), "interval"),
    "ball_dim": (_count, 3),
    # grid
    "n": (_count, 1025),
    "grading": (float, core.DEFAULT_GRADING),
    # solver
    "picard_tol": (float, SolverConfig.picard_tol),
    "max_picard_iters": (_count, SolverConfig.max_picard_iters),
    # right-hand side selection for solve/fit/scan/barrier-check
    "rhs": (_choice("singular", "const", "power", "logpower"), "singular"),
    "theta_const": (float, 1.0),
    "a": (float, 0.5),  # exponent of delta^-a (power) / log^-a (logpower)
    # analyzer
    "window_lo": (float, 1e-4),
    "window_hi": (float, 1e-2),
    "taus": (_list_of(float), (2.0, 2.5, 3.0, 3.5, 4.0)),
    "levels": (_list_of(_count), (257, 513, 1025, 2049)),
    "int_levels": (_count, analyzer.DISTANCE_LEVELS),
    "fit_kind": (_choice(*FITS), "power"),
    "expect": (_float_or(""), ""),
    "expect_tol": (float, 0.05),
    "verify": (_parse_bool, False),
    # barriers
    "family": (_choice("regime", "power", "logpower"), "regime"),
    "gamma": (float, 1.0),
    "log_s": (float, 0.5),
    "log_a": (float, 0.0),  # 0 = default scale
    "side": (_choice(SUB, SUPER), SUPER),
    "c": (_float_or("auto"), "auto"),
    "slack": (float, 0.0),
    "skip_cells": (_count, SKIP_CELLS),
    # output
    "output_dir": (str, "mlap1d-out"),
    "formats": (_list_of(_choice("csv", "report")), ("csv", "report")),
    # reproduce
    "matrix": (_list_of(str), DEFAULT_RUN),
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
        if self["domain"] == "ball":
            return Domain.ball(self["ball_dim"])
        return Domain.interval()

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


def load_config_file(cfg: RunConfig, path: str) -> None:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text at byte {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        cfg.set(key, raw)


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


def _emit(cfg: RunConfig, name: str, block: list[tuple[str, object]]) -> None:
    """Write ``block`` to ``<name>.report`` when reports are wanted, and print it."""
    out = _outdir(cfg)
    if "report" in cfg["formats"]:
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
        else:  # logpower
            if a > 0.0 and cfg["domain"] == "ball":
                # log(1/delta) is 0 at the centre r = 0
                raise InvalidConfig(
                    f"rhs = logpower with a = {a:g} > 0 is infinite at the centre "
                    "of the ball, where delta = 1"
                )
            theta[sl] = d ** (-1.0) * np.log(1.0 / d) ** (-a)
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
    if "csv" in cfg["formats"]:
        from .fieldcsv import write_field_csv

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
    from .eigen import first_eigenpair

    pair = first_eigenpair(make_graded_grid(cfg["n"], cfg["grading"], cfg.domain()), cfg["m"])
    if "csv" in cfg["formats"]:
        from .fieldcsv import write_field_csv

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
        return BoundaryProfile.power(cfg["gamma"])
    if kind == "logpower":
        big_a = cfg["log_a"] or default_log_scale(cfg.domain(), cfg["log_s"])
        return BoundaryProfile.logpower(cfg["log_s"], big_a)
    # family = regime
    if spec is None:
        raise InvalidConfig("family=regime requires a singular rhs")
    sub, sup = regime_profiles(spec)
    return sub if cfg["side"] == SUB else sup


def cmd_barrier_check(cfg: RunConfig) -> int:
    from . import barriers
    from .eigen import first_eigenpair

    side = cfg["side"]
    spec, grid, rhs = _problem(cfg, cfg["n"])
    base = first_eigenpair(grid, cfg["m"])
    family = _barrier_family(cfg, spec)
    slack, skip = cfg["slack"], cfg["skip_cells"]
    if cfg["c"] == "auto":
        c, cert = barriers.auto_scale(family, side, rhs, base, slack, skip)
    else:
        c = cfg["c"]
        _, cert = barriers.check_scaled(family, side, c, rhs, base, slack, skip)
    block = [("command", "barrier-check"), ("family", family.describe()), ("c", c)]
    block += cert.report_items()
    _emit(cfg, "barrier", block)
    return 0 if cert.certified else 1


def cmd_fit_exponent(cfg: RunConfig) -> int:
    kind = cfg["fit_kind"]
    # no measurement meets a NaN or infinite expectation, and every one meets
    # an infinite tolerance: both would make the pass line vacuous
    if cfg["expect"] != "" and not math.isfinite(cfg["expect"]):
        raise InvalidConfig(f"expect must be finite, got {cfg['expect']}")
    if not 0.0 <= cfg["expect_tol"] < math.inf:
        raise InvalidConfig(f"expect_tol must be finite and >= 0, got {cfg['expect_tol']}")
    fit = FITS[kind](_solve(cfg, cfg["n"]).solution, (cfg["window_lo"], cfg["window_hi"]))
    measured = fit.exponent if kind == "power" else fit.log_exponent
    fields = [
        ("exponent", fit.exponent),
        ("log_exponent", "" if fit.log_exponent is None else fit.log_exponent),
        ("r_squared", fit.r_squared),
        ("window_lo", fit.window[0]),
        ("window_hi", fit.window[1]),
    ]
    block = [("command", "fit-exponent"), ("fit_kind", kind)] + fields
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
    if "csv" in cfg["formats"]:
        rows = (",".join(k for k, _ in fields), ",".join(_fmt(v) for _, v in fields))
        (_outdir(cfg) / "fit.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
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
    if "csv" in cfg["formats"]:
        (out / "scan.csv").write_text(scan_csv_text(scan), encoding="utf-8")
    blocks = [[("command", "scan-threshold"), ("predicted_threshold", tstar)]]
    for j, tau in enumerate(scan.tau_values):
        blocks.append([("tau", tau), ("verdict", scan.verdicts[j].value), ("rate", scan.rates[j])])
    if "report" in cfg["formats"]:
        write_report(out / "scan.report", blocks)
    for j, tau in enumerate(scan.tau_values):
        print(f"tau = {_fmt(tau)}: {scan.verdicts[j].value}")
    if cfg["verify"]:
        from .repro import scan_claims

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
    from .repro import ClaimRecord, ReproReport

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
    from .repro import reproduce

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


def usage() -> str:
    """The ``--help`` text: the commands, every key and the layers."""
    import textwrap

    fill = textwrap.TextWrapper(78, initial_indent="  ", subsequent_indent="  ",
                                break_on_hyphens=False).fill
    flags = " ".join("--" + key.replace("_", "-") for key in KNOWN_KEYS)
    return (f"usage: mlap1d COMMAND [--KEY VALUE | --KEY=VALUE]...\n\ncommands:\n"
            f"{fill(' '.join(COMMANDS))}\nkeys:\n{fill(flags)}\n"
            "--config FILE (key = value lines) is read first, --set KEY=VALUE last.\n")


def parse_argv(argv) -> tuple[str, RunConfig]:
    """The command (the one bare word) and the configuration of argv.

    Every other word is ``--key value`` or ``--key=value``: a configuration
    key with - for _, ``config`` or ``set``.  A value is the next word unless
    that starts with --.  The layers apply file < flags < --set in any order
    in argv, each value through RunConfig.set; ``config`` may be given once.
    A dotted key (a claim override) is refused unless the command is
    reproduce-theorem1.
    """
    command, config, flags, sets = None, None, [], []
    words = iter(argv)
    for word in words:
        if not word.startswith("--"):
            if command is not None:
                raise InvalidConfig(f"unexpected argument {word!r} after the command {command!r}")
            command = word
            continue
        flag, eq, raw = word.partition("=")
        if not eq:
            raw = next(words, None)
            if raw is None or raw.startswith("--"):
                raise InvalidConfig(f"{flag} expects a value")
        key = flag[2:].replace("-", "_")
        if flag == "--config":
            if config is not None:
                raise InvalidConfig(f"--config may be given once, got {config!r} and {raw!r}")
            config = raw
        elif flag == "--set":
            key, eq, raw = raw.partition("=")
            if not eq:
                raise InvalidConfig(f"--set expects key=value, got {key!r}")
            sets.append((key, raw))
        elif key in KNOWN_KEYS and "_" not in flag:
            flags.append((key, raw))
        else:
            raise InvalidConfig(f"unknown flag {flag!r}; a flag is a whole configuration key")
    if command not in COMMANDS:
        what = "missing command" if command is None else f"unknown command {command!r}"
        raise InvalidConfig(f"{what}; expected one of {', '.join(COMMANDS)}")
    cfg = RunConfig()
    if config is not None:
        load_config_file(cfg, config)
    for key, raw in flags + sets:
        cfg.set(key, raw)
    if cfg.overrides and command != "reproduce-theorem1":
        raise InvalidConfig(f"{command} reads no claim override, got {', '.join(cfg.overrides)}")
    return command, cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(usage(), end="")
        return 0
    try:
        command, cfg = parse_argv(argv)
        return COMMANDS[command](cfg)
    except MlapError as exc:
        what = "verification failed" if exc.exit_status == 1 else "invalid input"
        print(f"{what}: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"filesystem error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
