import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlap1d.analyzer
import mlap1d.barriers
import mlap1d.cli
import mlap1d.eigen
import mlap1d.repro
import mlap1d.solver
from mlap1d.analyzer import distance_integral_classify, threshold_scan
from mlap1d.barriers import auto_scale, check_barrier
from mlap1d.cli import (
    COMMANDS,
    DEFAULT_RUN,
    field_csv_text,
    main,
    parse_report,
    parse_repro_report,
)
from mlap1d.core import Domain, GridFunction, ProblemSpec, make_graded_grid
from mlap1d.errors import InvalidConfig
from mlap1d.repro import (
    RATE_ERROR,
    ClaimRecord,
    ReproReport,
    _entry_claims,
    default_matrix,
    predicted_verdict,
)
from mlap1d.solver import SolverConfig, solve_dirichlet, solve_singular


class TestClassify:
    def test_supercritical_output(self, capsys):
        assert main(["classify", "--m", "2", "--p", "0.5", "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "Supercritical" in out
        assert "0.666667" in out
        assert "tau_sup = 3.000000" in out

    def test_subcritical(self, capsys):
        assert main(["classify", "--m", "2", "--p", "0", "--q", "0"]) == 0
        assert "Subcritical" in capsys.readouterr().out

    def test_critical_prints_the_log_exponent(self, capsys):
        assert main(["classify", "--m", "2", "--p", "0.5", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "regime = Critical\n" in out
        assert "log_exponent = 0.666667\n" in out and "tau_sup = inf\n" in out

    def test_inadmissible_exits_2(self, capsys):
        assert main(["classify", "--m", "2", "--p", "0", "--q", "1.6"]) == 2
        assert "p + q" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nn = 12\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\np = 0.5\nq = 0.5\n")  # critical as written
        assert main(["classify", "--config", str(cfg), "--q", "1"]) == 0
        out = capsys.readouterr().out
        assert "Supercritical" in out  # flag q=1 overrode file q=0.5

    def test_the_environment_is_not_a_source(self, capsys, monkeypatch):
        # q stays at its default 0, as argv gives it, whatever MLAP1D_Q says
        monkeypatch.setenv("MLAP1D_Q", "1")
        assert main(["classify", "--m", "2", "--p", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("regime = Subcritical\n")

    def test_a_reproduction_reads_no_environment_variable(self, tmp_path, monkeypatch):
        argv = ["reproduce-theorem1", "--matrix", "E1", "--output-dir"]
        assert main(argv + [str(tmp_path / "clean")]) == 0
        monkeypatch.setenv("MLAP1D_PICARD_TOL", "1e-4")
        monkeypatch.setenv("MLAP1D_MAX_PICARD_ITERS", "2")
        assert main(argv + [str(tmp_path / "env")]) == 0
        clean, env = (tmp_path / d / "reproduce.report" for d in ("clean", "env"))
        assert env.read_bytes() == clean.read_bytes()

    def test_set_flag(self, capsys):
        assert main(["classify", "--set", "m=2", "--set", "p=0.5", "--set", "q=1"]) == 0
        assert "Supercritical" in capsys.readouterr().out

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_a_second_config_is_refused(self, tmp_path, capsys):
        # the first file was once dropped unread, even when it did not exist
        missing, cfg = tmp_path / "missing.cfg", tmp_path / "b.cfg"
        cfg.write_text("m = 2\n")
        assert main(["classify", "--config", str(missing), "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invalid input: --config may be given once, got {str(missing)!r} and {str(cfg)!r}\n"
        )

    def test_a_config_that_is_not_utf8_is_invalid_input(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"m = 2\n\xff\xfe")
        assert main(["classify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {cfg}: not UTF-8 text at byte 6\n"

    def test_comments_and_blanks_ok(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nm = 2\np = 0.5\nq = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("key", ["picard.tol", "e1.boundary_exponent"])
    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "reproduce-theorem1"])
    def test_only_reproduce_takes_a_claim_override(self, tmp_path, capsys, command, key):
        out, cfg = tmp_path / "o", tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        for argv in (["--set", f"{key}=5"], ["--config", str(cfg)]):
            assert main([command, *argv, "--output-dir", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == f"invalid input: {command} reads no claim override, got {key}\n"


class TestSolveCommand:
    def test_torsion_csv_peak(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "solve", "--rhs", "const", "--theta-const", "1", "--m", "3",
                "--n", "1025", "--grading", "2", "--output-dir", str(out),
            ]
        )
        assert code == 0
        rows = (out / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "x,delta,u,du"
        peak = max(float(r.split(",")[2]) for r in rows[1:])
        assert peak == pytest.approx((2.0 / 3.0) * 0.5**1.5, abs=5e-4)
        report = parse_report((out / "solve.report").read_text())
        assert report[0]["converged"] == "true"

    def test_determinism(self, tmp_path):
        args = [
            "solve", "--rhs", "singular", "--m", "2", "--p", "0.5", "--q", "1",
            "--n", "257", "--grading", "3",
        ]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(args + ["--output-dir", str(d)]) == 0
            outs.append(
                (d / "solution.csv").read_bytes() + (d / "solve.report").read_bytes()
            )
        assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "rhs,domain,theta",
    [
        ("power", "interval", lambda d: d ** -0.7),
        ("power", "ball", lambda d: d ** -0.7),
        ("logpower", "interval", lambda d: d ** -1.0 * np.log(1.0 / d) ** -0.7),
    ],
    ids=["power-interval", "power-ball", "logpower-interval"],
)
def test_fixed_rhs_is_a_function_of_the_distance(tmp_path, monkeypatch, rhs, domain, theta):
    solved = []
    monkeypatch.setattr(
        mlap1d.cli, "solve_dirichlet", lambda t, m: solved.append(t) or solve_dirichlet(t, m)
    )
    args = ["solve", "--rhs", rhs, "--a", "0.7", "--domain", domain, "--n", "257"]
    assert main(args + ["--output-dir", str(tmp_path / "o")]) == 0
    (got,) = solved
    grid = make_graded_grid(257, 3.0, got.grid.domain)
    assert got.grid.domain.is_ball == (domain == "ball")
    assert np.array_equal(got.grid.nodes, grid.nodes)
    sl = grid.unknown_slice
    assert np.array_equal(got.values[sl], theta(grid.delta_nodes[sl]))
    assert all(got.values[i] == 0.0 for i in grid.dirichlet_indices())


def test_output_is_independent_of_the_blas_thread_count(tmp_path):
    # grid-length inner products above 10000 entries are where a threaded
    # BLAS splits its sum; the report bytes must not depend on it
    src = str(Path(mlap1d.cli.__file__).resolve().parents[1])
    commands = {
        "eigen": ["eigen", "--m", "3", "--n", "16385"],
        # a fit window of about 30000 nodes
        "fit": ["fit-exponent", "--rhs", "power", "--a", "0.5", "--m", "2", "--n", "65537",
                "--window-lo", "1e-4", "--window-hi", "0.12"],
    }
    for name, argv in commands.items():
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
            out = tmp_path / f"{name}{threads}"
            subprocess.run(
                [sys.executable, "-m", "mlap1d", *argv, "--formats", "report",
                 "--output-dir", str(out)],
                env=env, check=True, capture_output=True,
            )
            reports.append((out / f"{name}.report").read_bytes())
        assert reports[0] == reports[1], name


def test_overflowing_solve_prints_only_its_typed_error(tmp_path):
    # at m = 1.2 these loads overflow Du; the user sees the failed check and
    # no numpy warning before it
    src = str(Path(mlap1d.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "mlap1d", "solve", "--rhs", "const", "--theta-const", "1e100",
         "--m", "1.2", "--n", "65", "--grading", "1", "--output-dir", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("verification failed:"), out.stderr


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            # a picard_tol below the resolution of the bracket
            ["solve", "--domain", "ball", "--picard-tol", "1e-15"],
            # the same failure at a scan level
            ["scan-threshold", "--p", "0.5", "--q", "1", "--picard-tol", "1e-15"],
            # the same failure in a reproduction entry
            ["reproduce-theorem1", "--matrix", "E1", "--picard-tol", "1e-15"],
            # the singular loop exhausts its budget
            ["solve", "--m", "3", "--p", "1.5", "--q", "0.3", "--max-picard-iters", "1"],
            # no finite c certifies the supersolution at the flat top
            ["barrier-check", "--rhs", "singular", "--m", "1.05", "--p", "0", "--q", "0",
             "--family", "regime", "--side", "super", "--n", "1025"],
        ],
    )
    def test_failed_certification_exits_1(self, tmp_path, capsys, args):
        assert main(args + ["--output-dir", str(tmp_path / "o")]) == 1
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            # no scaled eigenfunction profile certifies these (the flat top
            # in barriers.auto_scale): on the interval, on the ball and at a
            # scan level
            ["solve", "--m", "1.2", "--p", "0", "--q", "0"],
            ["solve", "--m", "1.2", "--p", "0.5", "--q", "0", "--domain", "ball"],
            ["scan-threshold", "--m", "1.2", "--p", "0", "--q", "0.3",
             "--levels", "1025,2049,4097,8193"],
        ],
    )
    def test_small_m_certifies(self, tmp_path, capsys, monkeypatch, args):
        reports = []
        solve = mlap1d.cli.solve_singular
        monkeypatch.setattr(
            mlap1d.cli, "solve_singular", lambda *a: reports.append(solve(*a)) or reports[-1]
        )
        assert main(args + ["--output-dir", str(tmp_path / "o")]) == 0
        if args[0] == "solve":
            assert "converged = true\n" in capsys.readouterr().out
        assert reports and all(r.converged for r in reports)

    def test_scan_level_with_bad_grid_is_invalid_input(self, tmp_path):
        code = main(
            ["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1",
             "--grading", "0.5", "--levels", "257,513,1025,2049",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_bad_grading_is_blamed_on_the_input(self, tmp_path, capsys):
        code = main(
            ["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1",
             "--grading", "0.5", "--levels", "257,513,1025,2049",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid input: grading must be >= 1" in err
        assert "solve failed" not in err

    @pytest.mark.parametrize(
        "args,msg",
        [
            (["--n", "8"], "invalid input: need at least 16 nodes, got 8"),
            (["--n", "8193", "--grading", "4.65", "--p", "0.2", "--q", "1.2"],
             "invalid input: grading 4.65 collapses the graded nodes"),
        ],
        ids=["too-few-nodes", "collapsing-grading"],
    )
    def test_unbuildable_grid_is_invalid_input(self, tmp_path, capsys, args, msg):
        code = main(["solve", "--m", "1.5"] + args + ["--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert msg in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,code,msg",
        [
            (["--m", "2", "--p", "0.5", "--q", "1", "--levels", "257,513,1025,2049",
              "--picard-tol", "1e-30"], 1,
             "verification failed: solve failed at level n=257: "
             "picard_tol 1e-30 is below the resolution"),
            (["--rhs", "power", "--a", "400", "--m", "2"], 2,
             "invalid input: solve failed at level n=257: theta must be finite"),
        ],
        ids=["unreachable-picard-tol", "theta-overflow"],
    )
    def test_failed_scan_level_is_named(self, tmp_path, capsys, args, code, msg):
        assert main(["scan-threshold", *args, "--output-dir", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(msg)

    def test_scan_level_below_grid_minimum_is_invalid_input(self, tmp_path, capsys):
        code = main(
            ["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1",
             "--levels", "9,17,33,65", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid input: level n=9 has fewer than 16 nodes" in err


class TestParser:
    def test_every_command_parses(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("q = 1\n")
        seen = []
        for name in COMMANDS:
            monkeypatch.setitem(
                COMMANDS, name,
                lambda cfg, name=name: seen.append((name, cfg["m"], cfg["p"], cfg["q"])) or 0,
            )
        for name in COMMANDS:
            argv = [name, "--config", str(cfg_file), "--m", "3", "--set", "p=0.5"]
            assert main(argv) == 0
        assert seen == [(name, 3.0, 0.5, 1.0) for name in COMMANDS]

    @pytest.mark.parametrize(
        "argv,msg",
        [(["bogus"], "unknown command 'bogus'"), ([], "missing command"),
         (["--m", "2"], "missing command")],
        ids=["unknown", "missing", "flags-only"],
    )
    def test_unknown_or_missing_command_exits_2(self, capsys, argv, msg):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: " + msg) and "reproduce-theorem1" in err

    @pytest.mark.parametrize("flag", ["--picard", "--k-h", "--ball", "--picard_tol", "--e1.m"])
    def test_abbreviated_or_unknown_keys_exit_2(self, capsys, flag):
        assert main(["classify", flag, "1"]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: unknown flag '{flag}'")
        assert main(["classify", f"{flag}=1"]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: unknown flag '{flag}'")

    def test_set_wins_over_a_flag_whatever_the_order(self, capsys):
        for argv in (["--set", "m=3", "--m", "2"], ["--m", "2", "--set", "m=3"]):
            assert main(["classify", *argv, "--p", "0.5", "--q", "1"]) == 0
            assert "boundary_exponent = 0.800000\n" in capsys.readouterr().out  # m = 3

    def test_the_last_setting_of_a_flag_wins(self, capsys):
        assert main(["classify", "--q", "0.5", "--p", "0.5", "--m", "2", "--q=1"]) == 0
        assert "Supercritical" in capsys.readouterr().out

    @pytest.mark.parametrize("word", ["-1e-3", "-1E-3", "-0.5"])
    def test_a_negative_value_parses_like_flag_equals_value(self, capsys, word):
        # a value is the next word unless it starts with --
        assert main(["classify", "--p", word]) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: p >= 0 fails: p = " + repr(float(word)) + "\n"
        assert main(["classify", f"--p={word}"]) == 2
        assert capsys.readouterr().err == err

    def test_a_negative_slack_written_apart_is_the_slack(self, tmp_path, capsys):
        base = ["barrier-check", "--m", "2", "--p", "0.5", "--q", "1", "--n", "257"]
        reports = []
        for slack in (["--slack", "-1e-3"], ["--slack=-1e-3"]):
            out = tmp_path / str(len(reports))
            assert main(base + slack + ["--output-dir", str(out)]) == 0
            reports.append((out / "barrier.report").read_text())
        assert reports[0] == reports[1] and "\nslack = -0.001\n" in reports[0]

    @pytest.mark.parametrize(
        "argv,msg",
        [(["classify", "--p"], "--p expects a value"),
         (["classify", "--p", "--m", "2"], "--p expects a value"),
         (["classify", "--m", "2", "-1e-3"], "unexpected argument '-1e-3'")],
        ids=["last", "before-a-flag", "stray-number"],
    )
    def test_a_flag_without_a_value_exits_2(self, capsys, argv, msg):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("invalid input: " + msg)


def _reference_field_csv(u):
    """field_csv_text written one value at a time."""
    x, d, v = u.grid.nodes, u.grid.delta_nodes, u.values
    du = np.empty_like(v)
    du[1:-1] = (v[2:] - v[:-2]) / (x[2:] - x[:-2])
    du[0] = (v[1] - v[0]) / (x[1] - x[0])
    du[-1] = (v[-1] - v[-2]) / (x[-1] - x[-2])
    lines = ["x,delta,u,du"]
    for i in range(x.size):
        lines.append(f"{x[i]:.17g},{d[i]:.17g},{v[i]:.17g},{du[i]:.17g}")
    return "\n".join(lines) + "\n"


class TestFieldCsv:
    def test_bytes_match_per_value_formatting(self):
        grid = make_graded_grid(16, 1.0)
        vals = [0.0, -0.0, 5e-324, 1e300, -2.5, 1.0 / 3.0, -1e-300, 7.0]
        u = GridFunction(grid, np.array(vals + [-v for v in vals]))
        text = field_csv_text(u)
        assert text == _reference_field_csv(u)
        assert text.splitlines()[2].split(",")[2] == "-0"

    def test_bytes_match_on_a_graded_ball_field(self):
        grid = make_graded_grid(1025, 3.0, Domain.ball(3))
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-300, 200, grid.n)
        u = GridFunction(grid, rng.standard_normal(grid.n) * scale)
        assert field_csv_text(u) == _reference_field_csv(u)


class TestEigenCommand:
    def test_lambda_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eigen", "--m", "2", "--n", "513", "--grading", "1",
                     "--output-dir", str(out)])
        assert code == 0
        report = parse_report((out / "eigen.report").read_text())
        lam = float(report[0]["lambda"])
        assert lam == pytest.approx(math.pi**2, rel=1e-3)
        assert (out / "eigenfunction.csv").exists()


class TestBarrierCheckCommand:
    def test_certified_exit_0(self, tmp_path):
        code = main(
            [
                "barrier-check", "--rhs", "singular", "--m", "2", "--p", "0.5",
                "--q", "1", "--n", "257", "--grading", "3", "--family", "regime",
                "--side", "super", "--output-dir", str(tmp_path / "o"),
            ]
        )
        assert code == 0

    def test_fixed_c_checks_that_constant(self, tmp_path):
        base = ["barrier-check", "--rhs", "singular", "--m", "2", "--p", "0.5", "--q", "1",
                "--n", "257", "--family", "regime", "--side", "super"]
        rows = {}
        assert main(base + ["--output-dir", str(tmp_path / "auto")]) == 0
        rows["auto"] = parse_report((tmp_path / "auto" / "barrier.report").read_text())[0]
        c = rows["auto"]["c"]
        for fixed, code in ((c, 0), ("1", 1)):
            assert main(base + ["--c", fixed, "--output-dir", str(tmp_path / fixed)]) == code
            rows[fixed] = parse_report((tmp_path / fixed / "barrier.report").read_text())[0]
        # --c auto prints the exact scale, and that c given as a fixed
        # constant gives the same rows
        assert 1.0 < float(c) < 2.0
        assert rows[c] == rows["auto"]
        assert (rows["1"]["c"], rows["1"]["certified"]) == ("1", "false")

    def test_wrong_exponent_exit_1(self, tmp_path):
        code = main(
            [
                "barrier-check", "--rhs", "singular", "--m", "2", "--p", "0.5",
                "--q", "1", "--n", "4097", "--grading", "3", "--family", "power",
                "--gamma", "0.3", "--side", "sub", "--c", "64",
                "--output-dir", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_the_report_names_its_family_once(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["barrier-check", "--side", "sub", "--m", "2", "--p", "0.5", "--q", "1",
                "--n", "1025", "--output-dir", str(out)]
        assert main(argv) == 0
        [block] = parse_report((out / "barrier.report").read_text())
        assert "description" not in block
        assert list(block)[:2] == ["command", "family"]
        assert block["family"] == "power(gamma=0.666667)"
        assert capsys.readouterr().out.count("power(gamma=0.666667)") == 1


class TestFitCommand:
    def test_expectation_pass_and_fail(self, tmp_path):
        base = [
            "fit-exponent", "--rhs", "singular", "--m", "2", "--p", "0.5",
            "--q", "1", "--n", "2049", "--grading", "3",
            "--window-lo", "1e-3", "--window-hi", "1e-2",
        ]
        ok = main(base + ["--expect", "0.6667", "--expect-tol", "0.05",
                          "--output-dir", str(tmp_path / "a")])
        assert ok == 0
        bad = main(base + ["--expect", "0.5", "--expect-tol", "0.01",
                           "--output-dir", str(tmp_path / "b")])
        assert bad == 1

    def test_log_fit_kind_expects_the_log_exponent(self, tmp_path):
        # E2 (critical): u ~ delta log^(2/3)(1/delta), so the power exponent
        # is 1 and --expect is compared with the log exponent
        base = ["fit-exponent", "--fit-kind", "logaffine", "--m", "2", "--p", "0.5", "--q", "0.5",
                "--n", "2049", "--expect-tol", "0.1"]
        assert main(base + ["--expect", "0.6667", "--output-dir", str(tmp_path / "a")]) == 0
        assert main(base + ["--expect", "1", "--output-dir", str(tmp_path / "b")]) == 1
        u = solve_singular(ProblemSpec(m=2.0, p=0.5, q=0.5), make_graded_grid(2049, 3.0)).solution
        want = mlap1d.analyzer.fit_log_profile(u, (1e-4, 1e-2))
        row = (tmp_path / "a" / "fit.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == [f"{want.exponent:.17g}", f"{want.log_exponent:.17g}"]


class TestScanCommand:
    def test_scan_csv_and_verify(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "scan-threshold", "--rhs", "singular", "--m", "2", "--p", "0.5",
                "--q", "1", "--taus", "2.5,3.5", "--levels", "257,513,1025,2049",
                "--grading", "3", "--verify", "true", "--output-dir", str(out),
            ]
        )
        assert code == 0
        rows = (out / "scan.csv").read_text().strip().splitlines()
        assert rows[0] == "tau,n,seminorm,ratio,verdict"
        assert len(rows) == 1 + 2 * 4  # one row per (tau, level)
        # each tau block names the increment rate behind its verdict
        blocks = parse_report((out / "scan.report").read_text())[1:]
        assert [b["verdict"] for b in blocks] == ["Convergent", "Divergent"]
        assert float(blocks[0]["rate"]) > 0.005 >= float(blocks[1]["rate"])

    @pytest.mark.parametrize(
        "args,tstar",
        [(["--m", "2", "--p", "0.5", "--q", "1"], "3"), (["--rhs", "const", "--m", "2"], "inf"),
         (["--rhs", "const", "--m", "2", "--verify", "no"], "inf")],
        ids=["singular", "const", "const-unverified"],
    )
    def test_predicted_threshold(self, tmp_path, args, tstar):
        out = tmp_path / "o"
        code = main(["scan-threshold", *args, "--taus", "2", "--levels", "17,33,65,129",
                     "--output-dir", str(out)])
        assert code == 0
        head = parse_report((out / "scan.report").read_text())[0]
        assert head == {"command": "scan-threshold", "predicted_threshold": tstar}

    def test_zero_field_leaves_every_ratio_empty(self, tmp_path):
        # theta = 0 solves to u = 0: every seminorm is 0, and 0/0 is no ratio
        out = tmp_path / "o"
        code = main(["scan-threshold", "--rhs", "const", "--theta-const", "0", "--taus", "2",
                     "--levels", "17,33,65,129", "--output-dir", str(out)])
        assert code == 0
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2:4] for r in rows] == [["0", ""]] * 4

    def test_scan_csv_rows(self, tmp_path):
        out = tmp_path / "o"
        levels = (17, 33, 65, 129)
        code = main(["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1", "--taus", "2,3.5",
                     "--levels", "17,33,65,129", "--output-dir", str(out)])
        assert code == 0
        spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
        scan = threshold_scan(
            lambda n: solve_singular(spec, make_graded_grid(n, 3.0)).solution, (2.0, 3.5), levels
        )
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[0] == "tau,n,seminorm,ratio,verdict"
        want = []
        for j, tau in enumerate(("2", "3.5")):
            for l, n in enumerate(levels):
                ratio = "" if l == 0 else f"{scan.norms[l, j] / scan.norms[l - 1, j]:.17g}"
                want.append(f"{tau},{n},{scan.norms[l, j]:.17g},{ratio},{scan.verdicts[j].value}")
        assert rows[1:] == want
        assert [r.split(",")[3] for r in rows[1::4]] == ["", ""]


class TestLemmaIntegralCommand:
    def test_infinite_verdict_exit_0(self, tmp_path, capsys):
        code = main(["lemma-integral", "--a", "1.1", "--output-dir", str(tmp_path / "o")])
        assert code == 0
        assert "Infinite" in capsys.readouterr().out

    def test_finite_value(self, tmp_path, capsys):
        code = main(["lemma-integral", "--a", "0.5", "--output-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Finite" in out

    @pytest.mark.parametrize("a", ["27", "30"])
    def test_an_overflowing_quadrature_reads_infinite(self, tmp_path, capsys, a):
        code = main(["lemma-integral", "--a", a, "--output-dir", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict = Infinite" in out and f"estimated_exponent = {a}\n" in out
        assert "value" not in out


def test_an_overflowing_seminorm_is_refused_in_one_line(tmp_path, capsys):
    out = tmp_path / "o"
    args = ["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1", "--levels", "257,513,1025",
            "--taus", "400", "--output-dir", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "invalid input: sum w |Du|^tau overflows double precision at tau = 400\n"
    )
    assert not out.exists()


class TestReports:
    def test_round_trip(self):
        rep = ReproReport(
            (
                ClaimRecord("E3.exponent", 2.0 / 3.0, 0.65, 0.03),
                ClaimRecord("E3.regime", 2.0, 2.0, 0.0),
            )
        )
        from mlap1d.cli import write_report
        import pathlib
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "r.report"
            write_report(path, rep.blocks())
            back = parse_repro_report(path.read_text())
        assert back == rep
        assert back.overall

    def test_parse_skips_a_blank_line_inside_a_block(self):
        assert parse_report("a = 1\n   \nb = 2\n") == [{"a": "1", "b": "2"}]

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidConfig):
            parse_repro_report("nonsense\n")

    @pytest.mark.parametrize(
        "head,msg",
        [("report = solve\nclaims = 1\noverall = pass", "not a reproduce-theorem1 report"),
         ("report = reproduce-theorem1\nclaims = 2\noverall = pass", "claim count mismatch"),
         ("report = reproduce-theorem1\nclaims = 1\noverall = fail", "overall verdict mismatch")],
        ids=["kind", "count", "overall"],
    )
    def test_parse_rejects_an_inconsistent_report(self, head, msg):
        claim = "claim = E3.regime\npredicted = 2\nmeasured = 2\ntolerance = 0"
        with pytest.raises(InvalidConfig, match=msg):
            parse_repro_report(f"{head}\n\n{claim}\n")


class TestReproduceSmall:
    def test_empty_matrix_exit_2(self, tmp_path):
        assert main(["reproduce-theorem1", "--set", "matrix=",
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_unknown_entry_exit_2(self, tmp_path):
        assert main(["reproduce-theorem1", "--set", "matrix=E9",
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_override_for_absent_entry_rejected(self, tmp_path):
        assert main(
            ["reproduce-theorem1", "--set", "matrix=E1",
             "--set", "e3.boundary_exponent=0.5", "--output-dir", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize(
        "key", ["e1.boundary_exponnt", "e3.log_exponent", "e1.sandwich_violation"]
    )
    def test_override_of_no_prediction_rejected_before_any_solve(
        self, tmp_path, capsys, monkeypatch, key
    ):
        solves = []
        monkeypatch.setattr(mlap1d.repro, "solve_singular", lambda *a, **k: solves.append(a))
        code = main(["reproduce-theorem1", "--set", f"{key}=0.5",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2 and solves == []
        assert f"override {key!r} names no prediction" in capsys.readouterr().err

    def test_repeated_entry_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(mlap1d.repro, "solve_singular", lambda *a, **k: solves.append(a))
        code = main(["reproduce-theorem1", "--matrix", "E1,E3,E1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2 and solves == []
        assert "repeated matrix entries: ['E1']" in capsys.readouterr().err

    def test_m_other_than_2_entries_pass(self, tmp_path):
        # E4 (m = 3, interval) and E5 (m = 1.5, ball) are not in the default
        # matrix; at tau* both scans must read the logarithmic divergence
        out = tmp_path / "o"
        assert main(["reproduce-theorem1", "--matrix", "E4,E5", "--output-dir", str(out)]) == 0
        report = parse_repro_report((out / "reproduce.report").read_text())
        measured = {c.claim_id: c.measured for c in report.claims}
        assert len(measured) == 18
        assert measured["E4.tau_5"] == measured["E5.tau_2"] == 2.0

    @pytest.mark.parametrize("picard_tol, tolerance", [("1e-4", 1e-8), ("1e-9", 1e-9)])
    def test_the_sandwich_tolerance_never_exceeds_the_default(
        self, tmp_path, picard_tol, tolerance
    ):
        # a looser picard_tol loosens the solver's own order check, not the claim
        out = tmp_path / "o"
        argv = ["reproduce-theorem1", "--matrix", "E1", "--picard-tol", picard_tol]
        assert main(argv + ["--output-dir", str(out)]) == 0
        report = parse_repro_report((out / "reproduce.report").read_text())
        [claim] = [c for c in report.claims if c.claim_id == "E1.sandwich_violation"]
        assert claim.tolerance == tolerance and claim.measured == 0.0

    def test_override_of_a_prediction_is_a_negative_control(self, tmp_path):
        assert main(["reproduce-theorem1", "--matrix", "E3", "--set",
                     "e3.boundary_exponent=0.5", "--output-dir", str(tmp_path / "o")]) == 1


class TestReproduceReuse:
    """One run computes each distinct singular solve once, and no eigenpair."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"solve_singular": 0, "first_eigenpair": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            mlap1d.repro, "solve_singular", counted("solve_singular", mlap1d.repro.solve_singular)
        )
        for mod in (mlap1d.eigen, mlap1d.barriers):
            monkeypatch.setattr(mod, "first_eigenpair", counted("first_eigenpair", mod.first_eigenpair))
        return calls

    @staticmethod
    def _run(tmp_path, name, *extra):
        out = tmp_path / name
        assert main(["reproduce-theorem1", *extra, "--output-dir", str(out)]) == 0
        return (out / "reproduce.report").read_bytes()

    def test_default_matrix_counts_and_repeat_run(self, tmp_path, counts):
        first = self._run(tmp_path, "a")
        assert counts == {"solve_singular": 8, "first_eigenpair": 0}
        second = self._run(tmp_path, "b")
        # nothing is carried over from the first run
        assert counts == {"solve_singular": 16, "first_eigenpair": 0}
        assert second == first

    def test_entry_order_does_not_change_claims(self, tmp_path):
        forward = self._run(tmp_path, "fwd", "--matrix", "E2,E3")
        backward = self._run(tmp_path, "bwd", "--matrix", "E3,E2")
        assert parse_repro_report(backward.decode()) == parse_repro_report(forward.decode())
        assert backward == forward

    def test_one_grid_per_entry_and_node_count(self, tmp_path, monkeypatch):
        # E1-E3 make 8 solves, all at grading 3 on the interval; each entry
        # builds the grid of each of its node counts once and shares it with
        # no other entry, and a second run builds its own
        built = []
        make = mlap1d.repro.make_graded_grid
        monkeypatch.setattr(
            mlap1d.repro, "make_graded_grid", lambda *a: built.append(a) or make(*a)
        )
        self._run(tmp_path, "a")
        assert sorted(a[0] for a in built) == [2049, 4097, 4097, 4097, 8193, 8193, 8193, 16385]
        assert {a[1:] for a in built} == {(3.0, Domain.interval())}
        self._run(tmp_path, "b")
        assert len(built) == 16

    def test_every_sweep_of_e1_runs_on_the_right_half(self, tmp_path, monkeypatch):
        # E1's grids, K and start profile are exact mirrors, so every sweep
        # solves on the right half and none calls solve_dirichlet; a silent
        # fallback to the whole grid would fail here
        calls = {"sweeps": 0, "chain": 0, "whole": 0, "dirichlet": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        solver = mlap1d.solver
        monkeypatch.setattr(solver, "_scaling_bracket", counted("sweeps", solver._scaling_bracket))
        monkeypatch.setattr(solver, "_solve_into", kernel_counted(calls, solver._solve_into))
        monkeypatch.setattr(solver, "solve_dirichlet", counted("dirichlet", solver.solve_dirichlet))
        self._run(tmp_path, "a", "--matrix", "E1")
        assert calls["sweeps"] == calls["chain"] == 14  # 7 sweeps at n = 4097 and 8193
        assert calls["dirichlet"] == calls["whole"] == 0


def kernel_counted(calls, solve_into):
    """``solve_into`` counting its calls on a chain (k set) and on the whole
    grid (k None) in ``calls``."""

    def wrapper(*args):
        calls["whole" if args[3] is None else "chain"] += 1
        return solve_into(*args)

    return wrapper


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--rhs", "singular", "--m", "3", "--p", "1.5", "--q", "0.3", "--n", "16390"],
        ["eigen", "--m", "1.5", "--n", "16391"],
        ["solve", "--rhs", "singular", "--m", "3", "--p", "1.5", "--q", "0.3", "--n", "16391",
         "--domain", "ball"],
    ],
    ids=["solve", "eigen", "ball-solve"],
)
def test_solves_off_dyadic_n_run_on_the_zero_flux_chain(tmp_path, monkeypatch, argv):
    # every graded interval grid is an exact mirror, so at any n each
    # singular sweep and each Dirichlet solve of the inverse iteration runs
    # on the chain over the right half, and the closure search is never
    # entered; on the ball every sweep runs on the chain from r = 0
    calls = {"sweeps": 0, "chain": 0, "whole": 0, "dirichlet": 0, "closure": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    solver = mlap1d.solver
    monkeypatch.setattr(solver, "_scaling_bracket", counted("sweeps", solver._scaling_bracket))
    monkeypatch.setattr(solver, "_solve_into", kernel_counted(calls, solver._solve_into))
    monkeypatch.setattr(solver, "_closure_root", counted("closure", solver._closure_root))
    for mod in (solver, mlap1d.eigen):
        monkeypatch.setattr(mod, "solve_dirichlet", counted("dirichlet", mod.solve_dirichlet))
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert calls["closure"] == calls["whole"] == 0
    assert calls["chain"] == calls["sweeps"] + calls["dirichlet"] > 0
    if argv[0] == "solve":  # the loop solves on the chain itself
        assert calls["dirichlet"] == 0


def test_singular_solves_use_no_eigenpair_and_no_ladder(tmp_path, monkeypatch):
    # a singular solve certifies its pair from its first Dirichlet solve, so
    # neither a solve nor a reproduction entry reaches the eigenfunction
    # barriers, wherever their names are bound
    calls = []

    def spied(name, fn):
        return lambda *a, **kw: calls.append(name) or fn(*a, **kw)

    # a name cli or the package only reads through on demand is not bound
    # there, and patching it would leave the spy bound after the test
    for mod in (mlap1d, mlap1d.eigen, mlap1d.barriers, mlap1d.cli, mlap1d.repro):
        for name in ("first_eigenpair", "certified_pair", "check_barrier"):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, spied(name, getattr(mod, name)))
    assert solve_singular(ProblemSpec(m=2.0, p=0.5, q=1.0), make_graded_grid(1025, 3.0)).converged
    assert main(["reproduce-theorem1", "--matrix", "E1", "--output-dir", str(tmp_path / "o")]) == 0
    assert calls == []


# reproduce-theorem1 measured values of the default matrix, as the
# plain monotone alternation computed them before the relaxed loop; the
# barrier_scale_log2 values are log2 of the first solve's bracket ratio, and
# E2.log_exponent is the affine log-profile fit's
REFERENCE_MEASURED = {
    "E1.barrier_scale_log2": 0.4170870231375284,
    "E1.boundary_exponent": 0.9898110588329754,
    "E1.gradient_factor": 1.0001443768197418,
    "E1.regime": 0.0,
    "E1.sandwich_violation": 0.0,
    "E2.barrier_scale_log2": 0.4911796005960552,
    "E2.log_exponent": 0.68360305291828616,
    "E2.regime": 1.0,
    "E2.sandwich_violation": 0.0,
    "E2.tau_2": 0.0,
    "E2.tau_4": 0.0,
    "E2.tau_8": 0.0,
    "E3.barrier_scale_log2": 0.6679786291485037,
    "E3.boundary_exponent": 0.6463086100019217,
    "E3.regime": 2.0,
    "E3.sandwich_violation": 0.0,
    "E3.tau_2": 0.0,
    "E3.tau_2.5": 0.0,
    "E3.tau_2.9": 0.0,
    "E3.tau_3": 2.0,
    "E3.tau_3.5": 2.0,
    "E3.tau_4": 2.0,
}


def test_reproduce_keeps_the_reference_answers(tmp_path):
    out = tmp_path / "o"
    assert main(["reproduce-theorem1", "--output-dir", str(out)]) == 0
    report = parse_repro_report((out / "reproduce.report").read_text())
    measured = {c.claim_id: c.measured for c in report.claims}
    assert measured.keys() == REFERENCE_MEASURED.keys()
    assert report.overall and all(c.passed for c in report.claims)
    tol = SolverConfig().picard_tol
    for claim_id, ref in REFERENCE_MEASURED.items():
        assert abs(measured[claim_id] - ref) <= tol, claim_id
    # the log-profile fit reads 2/3 + 0.017 on E2's window from n = 4097 on
    tolerance = {c.claim_id: c.tolerance for c in report.claims}
    assert tolerance["E2.log_exponent"] == 0.03
    # the gradient factor's max(r, 1/r) - 1 halves per level: 1.44e-4 at (4097, 8193)
    assert tolerance["E1.gradient_factor"] == 1e-3


class TestRadialDomain:
    def test_radial_solve_csv(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "solve", "--rhs", "const", "--theta-const", "1", "--m", "2",
                "--domain", "ball", "--ball-dim", "3", "--n", "257",
                "--grading", "1", "--output-dir", str(out),
            ]
        )
        assert code == 0
        rows = (out / "solution.csv").read_text().strip().splitlines()
        first = rows[1].split(",")
        # center value of (1 - r^2)/6 and delta = 1 - r
        assert float(first[2]) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert float(first[1]) == pytest.approx(1.0, abs=0)

    def test_radial_eigen(self, tmp_path, capsys):
        code = main(
            ["eigen", "--m", "2", "--domain", "ball", "--ball-dim", "3",
             "--n", "1025", "--grading", "1", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        out = capsys.readouterr().out
        lam = float([l for l in out.splitlines() if l.startswith("lambda")][0].split("=")[1])
        assert lam == pytest.approx(math.pi**2, rel=1e-3)


class TestFixedRhsOnTheBall:
    """A fixed right-hand side is sampled and solved on the configured domain."""

    @pytest.fixture
    def domains(self, monkeypatch):
        seen = []

        def spy(theta, m):
            seen.append(theta.grid.domain)
            return solve_dirichlet(theta, m)

        monkeypatch.setattr(mlap1d.cli, "solve_dirichlet", spy)
        return seen

    @pytest.mark.parametrize("command", ["solve", "fit-exponent"])
    def test_power_rhs(self, tmp_path, domains, command):
        out = tmp_path / "o"
        code = main(
            [command, "--domain", "ball", "--rhs", "power", "--a", "0.5",
             "--n", "1025", "--output-dir", str(out)]
        )
        assert code == 0
        assert domains == [Domain.ball(3)]
        if command == "solve":
            # the first node is the centre r = 0, at distance 1 from the boundary
            first = (out / "solution.csv").read_text().splitlines()[1].split(",")
            assert float(first[1]) == 1.0 and float(first[2]) > 0.0

    def test_scan_levels(self, tmp_path, domains):
        code = main(
            ["scan-threshold", "--domain", "ball", "--rhs", "const", "--taus", "2",
             "--levels", "257,513,1025,2049", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        assert domains == [Domain.ball(3)] * 4

    def test_logpower_barrier_uses_the_ball_scale(self, tmp_path, capsys):
        code = main(
            ["barrier-check", "--domain", "ball", "--rhs", "const", "--family", "logpower",
             "--n", "257", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 0
        assert "family = logpower(s=0.5, A=4)\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,msg",
    [
        (["eigen", "--m", "1.0"], "m > 1 fails: m = 1.0"),
        (["solve", "--rhs", "const", "--m", "0.8"], "m > 1 fails: m = 0.8"),
        (["solve", "--picard-tol", "0"], "picard_tol must be positive"),
        (["solve", "--picard-tol", "nan"], "picard_tol must be positive, got nan"),
        (["solve", "--rhs", "singular", "--m", "inf", "--p", "0.5", "--q", "0.5", "--n", "65"],
         "m < inf fails: m = inf"),
        (["solve", "--rhs", "const", "--m", "inf"], "m < inf fails: m = inf"),
        (["solve", "--rhs", "const", "--m", "nan"], "m > 1 fails: m = nan"),
        (["eigen", "--m", "inf"], "m < inf fails: m = inf"),
        (["eigen", "--m", "nan"], "m > 1 fails: m = nan"),
        (["solve", "--max-picard-iters", "0"], "max_picard_iters must be at least 1"),
        (["scan-threshold", "--rhs", "power", "--taus", "0.5"], "tau must be >= 1"),
        (["barrier-check", "--p", "0.5", "--q", "1", "--n", "257", "--c", "0.5"],
         "scaling constant must be >= 1"),
        (["barrier-check", "--rhs", "const", "--m", "2", "--family", "power", "--gamma", "1",
          "--side", "sub", "--c", "inf", "--n", "65"],
         "scaling constant must be >= 1 and finite, got inf"),
        (["barrier-check", "--p", "0.5", "--q", "1", "--n", "65", "--c", "nan"],
         "scaling constant must be >= 1 and finite, got nan"),
        (["barrier-check", "--p", "0.5", "--q", "1", "--n", "65", "--c", "inf"],
         "scaling constant must be >= 1 and finite, got inf"),
        (["barrier-check", "--rhs", "const", "--family", "power", "--n", "257",
          "--skip-cells", "1000"], "grid too coarse for skip_cells = 1000"),
        (["barrier-check", "--rhs", "const", "--family", "power", "--n", "65",
          "--skip-cells", "-1"], "skip_cells must be >= 0, got -1"),
        (["barrier-check", "--rhs", "const", "--family", "power", "--n", "65",
          "--skip-cells", "-5"], "skip_cells must be >= 0, got -5"),
        (["barrier-check", "--set", "c_max=64"], "unknown configuration key 'c_max'"),
        (["barrier-check", "--c", "big"], "bad value for 'c'"),
        (["fit-exponent", "--expect", "two"], "bad value for 'expect'"),
        (["solve", "--domain", "bal"],
         "bad value for 'domain': 'bal' ('bal' is not one of interval, ball)"),
        (["eigen", "--formats", "cvs"],
         "bad value for 'formats': 'cvs' ('cvs' is not one of csv, report)"),
        (["reproduce-theorem1", "--set", "e3.boundary_exponent=half"],
         "bad value for override 'e3.boundary_exponent'"),
        (["solve", "--rhs", "power", "--a", "400"], "theta must be finite at the unknown nodes"),
        (["scan-threshold", "--rhs", "power", "--a", "1.5", "--taus", "2,4", "--verify", "true"],
         "verify needs rhs = singular: a fixed theta predicts no threshold"),
        (["scan-threshold", "--verify", "maybe"], "not a boolean: 'maybe'"),
        (["reproduce-theorem1", "--set", ".boundary_exponent=0.5"],
         "malformed override key '.boundary_exponent'"),
        (["solve", "--set", "m"], "--set expects key=value, got 'm'"),
        (["solve", "--rhs", "cubic"],
         "bad value for 'rhs': 'cubic' ('cubic' is not one of singular, const, power, logpower)"),
        (["barrier-check", "--rhs", "const", "--n", "257"],
         "family=regime requires a singular rhs"),
        (["barrier-check", "--family", "cubic", "--n", "257"],
         "bad value for 'family': 'cubic' ('cubic' is not one of regime, power, logpower)"),
        (["barrier-check", "--family", "power", "--gamma", "1.2", "--n", "65"],
         "power barrier exponent must be in (0, 1], got 1.2"),
        (["barrier-check", "--family", "logpower", "--log-s", "0", "--n", "65"],
         "log barrier exponent must be positive, got 0.0"),
        (["barrier-check", "--family", "logpower", "--log-s", "nan", "--n", "65"],
         "log barrier exponent must be positive, got nan"),
        (["barrier-check", "--family", "logpower", "--log-a", "1", "--n", "65"],
         "log scale A must exceed 1, got 1.0"),
        (["barrier-check", "--side", "both"],
         "bad value for 'side': 'both' ('both' is not one of sub, super)"),
        (["barrier-check", "--m", "3", "--p", "0.5", "--q", "1", "--n", "65", "--c", "1e300"],
         "the super residual is NaN at node 3: a flux overflows"),
        (["fit-exponent", "--fit-kind", "cubic"],
         "bad value for 'fit_kind': 'cubic' ('cubic' is not one of power, logaffine)"),
        (["fit-exponent", "--fit-kind", "log"],
         "bad value for 'fit_kind': 'log' ('log' is not one of power, logaffine)"),
        (["fit-exponent", "--fit-kind", "logaffine", "--m", "2", "--p", "0.3", "--q", "0.3",
          "--n", "2049"], "no log profile optimum for s in (0, 64]"),
        (["solve", "--rhs", "logpower", "--domain", "ball"],
         "rhs = logpower with a = 0.5 > 0 is infinite at the centre of the ball"),
        (["lemma-integral", "--a", "nan"], "exponent a must be finite, got nan"),
        (["lemma-integral", "--a", "inf"], "exponent a must be finite, got inf"),
        (["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1", "--taus", "inf",
          "--levels", "257,513,1025,2049"], "tau must be finite, got inf"),
        (["scan-threshold", "--m", "2", "--p", "0.5", "--q", "1", "--taus", "2,nan",
          "--levels", "257,513,1025,2049"], "tau must be >= 1, got nan"),
        (["solve", "--grading", "nan"], "grading must be >= 1, got nan"),
        (["scan-threshold", "--grading", "nan"], "grading must be >= 1, got nan"),
        (["barrier-check", "--p", "0.5", "--q", "1", "--n", "65", "--slack", "nan"],
         "slack must be finite, got nan"),
        (["barrier-check", "--rhs", "const", "--family", "power", "--n", "65", "--c", "2",
          "--slack", "inf"], "slack must be finite, got inf"),
        (["fit-exponent", "--m", "2", "--p", "0.5", "--q", "1", "--n", "1025", "--expect", "0.5",
          "--expect-tol", "inf"], "expect_tol must be finite and >= 0, got inf"),
        (["fit-exponent", "--m", "2", "--p", "0.5", "--q", "1", "--n", "1025", "--expect", "0.5",
          "--expect-tol", "nan"], "expect_tol must be finite and >= 0, got nan"),
        (["fit-exponent", "--m", "2", "--p", "0.5", "--q", "1", "--n", "1025", "--expect", "0.5",
          "--expect-tol", "-1"], "expect_tol must be finite and >= 0, got -1.0"),
        (["fit-exponent", "--m", "2", "--p", "0.5", "--q", "1", "--n", "1025", "--expect", "nan"],
         "expect must be finite, got nan"),
        (["fit-exponent", "--m", "2", "--p", "0.5", "--q", "1", "--n", "1025", "--expect", "inf"],
         "expect must be finite, got inf"),
        (["reproduce-theorem1", "--matrix", "E1", "--picard-tol", "inf"],
         "picard_tol must be finite, got inf"),
        (["scan-threshold", "--rhs", "singular", "--m", "2", "--p", "0.5", "--q", "1", "--taus", "",
          "--levels", "257,513,1025,2049", "--verify", "true"], "need at least one tau"),
        # an infinite K envelope once gave a vacuous sub certificate (exit 0)
        # and a failed super verification (exit 1)
        (["barrier-check", "--m", "2", "--p", ".5", "--q", "1", "--n", "65", "--k-low", "inf",
          "--k-high", "inf", "--side", "sub"], "k_high < inf fails: k_high = inf"),
        (["barrier-check", "--m", "2", "--p", ".5", "--q", "1", "--n", "65", "--k-high", "inf",
          "--side", "super"], "k_high < inf fails: k_high = inf"),
        (["classify", "--m", "2", "--p", ".5", "--q", "1", "--k-high", "inf"],
         "k_high < inf fails: k_high = inf"),
        # a whole N past the double range once crashed the grid with OverflowError
        (["solve", "--domain", "ball", "--ball-dim", "1" + "0" * 400],
         "dimension N overflows a double: N >= 2^1328"),
        (["eigen", "--domain", "ball", "--ball-dim", "1" + "0" * 400],
         "dimension N overflows a double: N >= 2^1328"),
    ],
    ids=["eigen-m", "solve-m", "picard-tol", "picard-tol-nan", "singular-m-inf", "solve-m-inf",
         "solve-m-nan", "eigen-m-inf", "eigen-m-nan", "picard-iters", "tau", "barrier-c",
         "c-inf-const", "c-nan-singular", "c-inf-singular", "skip-cells", "skip-cells-minus-1",
         "skip-cells-minus-5", "c-max-key", "c-text", "expect-text",
         "domain", "formats", "override-text", "theta-overflow", "verify-fixed-theta",
         "bool-text", "override-key", "set-without-value", "rhs", "regime-fixed-theta", "family",
         "gamma-above-1", "log-s-0", "log-s-nan", "log-a-1",
         "side", "flux-overflow", "fit-kind", "fit-kind-log", "logaffine-subcritical", "logpower-ball",
         "lemma-a-nan", "lemma-a-inf", "tau-inf",
         "tau-nan", "grading-nan", "scan-grading-nan", "slack-nan", "slack-inf-fixed-c",
         "expect-tol-inf", "expect-tol-nan", "expect-tol-negative", "expect-nan", "expect-inf",
         "picard-tol-inf", "scan-no-tau", "k-envelope-inf-sub", "k-high-inf-super",
         "classify-k-high-inf", "solve-ball-dim-overflow", "eigen-ball-dim-overflow"],
)
def test_invalid_input_exits_2_with_a_typed_error(tmp_path, capsys, argv, msg):
    out = tmp_path / "o"
    assert main(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and msg in err
    assert not out.exists()


def test_cli_keeps_the_names_the_benchmark_reads():
    """bench/ drives the program through these names on mlap1d.cli."""
    for name in ("_entry_claims", "parse_repro_report", "write_report", "parse_report",
                 "solve_singular", "MlapError", "main"):
        assert hasattr(mlap1d.cli, name), name
    # the theorem1 timing replaces the runner wherever it is bound
    assert mlap1d.cli._entry_claims is mlap1d.repro._entry_claims


def test_cli_serves_the_names_of_the_layers_it_loads_on_demand():
    # each is its layer's own object, read through, and no other name is made up
    for name, layer in mlap1d.cli._LAZY.items():
        assert getattr(mlap1d.cli, name) is getattr(importlib.import_module(f"mlap1d.{layer}"), name)
    assert {"field_csv_text", "write_field_csv", "first_eigenpair", "ClaimRecord"} <= set(
        mlap1d.cli._LAZY
    )
    with pytest.raises(AttributeError, match="has no attribute 'certified_pair'"):
        mlap1d.cli.certified_pair


def _layers_loaded(steps):
    """The mlap1d modules a fresh interpreter holds after each of ``steps``
    (Python statements), without the package prefix."""
    code = "\n".join(
        ["import contextlib, io, sys", "seen = []",
         "loaded = lambda: seen.append(sorted(m[7:] for m in sys.modules if m[:7] == 'mlap1d.'))"]
        + [f"{step}\nloaded()" for step in steps]
        + ["print(seen)"]
    )
    src = str(Path(mlap1d.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout)


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    """A fresh process compiles only what it runs: the package loads no
    layer, the command line its key table's four, and each command adds its
    own (reproduce-theorem1 never loads barriers, eigen or the field writer)."""
    commands = [
        ["classify", "--m", "2", "--p", "0.5", "--q", "1"],
        ["reproduce-theorem1", "--matrix", "E1"],
        ["solve", "--n", "65"],
        ["eigen", "--n", "65"],
        ["barrier-check", "--n", "65"],
    ]
    runs = [
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert mlap1d.cli.main({argv + ['--output-dir', str(tmp_path / str(i))]!r}) == 0"
        for i, argv in enumerate(commands)
    ]
    base = ["analyzer", "cli", "core", "errors", "solver"]
    assert _layers_loaded(["import mlap1d", "import mlap1d.cli", *runs]) == [
        [],
        base,
        base,  # classify
        sorted(base + ["repro"]),  # reproduce-theorem1
        sorted(base + ["fieldcsv", "repro"]),  # solve
        sorted(base + ["eigen", "fieldcsv", "repro"]),  # eigen
        sorted(base + ["barriers", "eigen", "fieldcsv", "repro"]),  # barrier-check
    ]


def test_a_package_name_loads_the_layers_up_to_its_own():
    # names are looked up in the layers in __all__ order; a submodule loads alone
    steps = ["import mlap1d", "mlap1d.Domain", "mlap1d.first_eigenpair", "mlap1d.fieldcsv",
             "mlap1d.__all__"]
    layers = ["analyzer", "barriers", "core", "eigen", "errors", "fieldcsv", "solver"]
    assert _layers_loaded(steps) == [
        [],
        ["core", "errors"],
        ["core", "eigen", "errors", "solver"],
        ["core", "eigen", "errors", "fieldcsv", "solver"],
        layers,
    ]


def test_the_package_has_no_name_its_layers_do_not_export():
    for name in ("DEFAULT_RUN", "__wrapped__"):
        with pytest.raises(AttributeError, match=f"module 'mlap1d' has no attribute '{name}'"):
            getattr(mlap1d, name)


def test_python_dash_m_runs_the_command_line(tmp_path):
    src = str(Path(mlap1d.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "mlap1d", "classify", "--m", "2", "--p", "0.5", "--q", "1"],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("regime = Supercritical\n")


def test_help_in_process_prints_the_commands_and_the_keys(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    head, _, rest = out.partition("\n\ncommands:\n")
    commands, _, rest = rest.partition("\nkeys:\n")
    keys, _, tail = rest.partition("\n--config FILE")
    assert err == "" and head.startswith("usage: mlap1d COMMAND") and tail
    assert commands.split() == list(COMMANDS)
    assert keys.split() == ["--" + key.replace("_", "-") for key in mlap1d.cli.KNOWN_KEYS]


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_every_command_and_key(tmp_path, flag):
    src = str(Path(mlap1d.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "mlap1d", flag], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""
    words = set(run.stdout.split())
    assert set(COMMANDS) <= words and "MLAP1D" not in run.stdout
    assert {"--" + key.replace("_", "-") for key in mlap1d.cli.KNOWN_KEYS} <= words


@pytest.mark.parametrize(
    "module",
    ["mlap1d"] + [f"mlap1d.{m.name}" for m in pkgutil.iter_modules(mlap1d.__path__)
                  if m.name != "__main__"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_the_public_surface_is_pinned():
    """A name that leaves a layer's __all__ leaves the package: this list
    changes only with the surface."""
    assert sorted(mlap1d.__all__) == [
        "BarrierCertificate", "BarrierPair", "BoundaryProfile", "DistanceIntegralResult",
        "Domain", "EigenPair", "FitResult", "GradientBoundReport", "Grid1D", "GridFunction",
        "INTERVAL01", "ProblemSpec", "Regime", "RegimeReport", "SUB", "SUPER", "ScanReport",
        "SolveReport", "SolverConfig", "Verdict", "__version__", "apply_mlap", "auto_scale",
        "build_barrier", "certified_pair", "check_barrier", "classify_regime",
        "default_k_values", "distance_integral_classify", "first_eigenpair",
        "fit_boundary_exponent", "fit_log_profile", "gradient_bound_check", "make_graded_grid",
        "rayleigh_quotient", "regime_profiles", "sobolev_seminorm", "solve_dirichlet",
        "solve_singular", "threshold_scan",
    ]


def test_the_package_exports_its_layers_all_once():
    """mlap1d.__all__ is the layers' __all__s plus __version__, each name
    once; each layer exports only what it defines, and the package holds no
    other public name than those and its modules."""
    layers = [importlib.import_module(f"mlap1d.{name}")
              for name in ("core", "solver", "eigen", "barriers", "analyzer")]
    names = [name for mod in layers for name in mod.__all__] + ["__version__"]
    assert mlap1d.__all__ == names and len(set(names)) == len(names)
    for mod in layers:
        for name in mod.__all__:
            value = getattr(mod, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == mod.__name__, name
    public = {name for name in dir(mlap1d) if not name.startswith("_")}
    modules = {name for name in public if inspect.ismodule(getattr(mlap1d, name))}
    assert public - modules == set(names) - {"__version__"}


# each enumerated key, a bad value for it, and the message naming its options
BAD_CHOICES = [
    ("domain", "bal", "'bal' is not one of interval, ball"),
    ("rhs", "cubic", "'cubic' is not one of singular, const, power, logpower"),
    ("fit_kind", "log", "'log' is not one of power, logaffine"),
    ("family", "cubic", "'cubic' is not one of regime, power, logpower"),
    ("side", "both", "'both' is not one of sub, super"),
    ("formats", "csv,cvs", "'cvs' is not one of csv, report"),
]


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize(("key", "bad", "why"), BAD_CHOICES, ids=[c[0] for c in BAD_CHOICES])
def test_every_command_refuses_a_bad_choice_before_any_work(tmp_path, capsys, command, key,
                                                             bad, why):
    out = tmp_path / "o"
    flag = "--" + key.replace("_", "-")
    assert main([command, flag, bad, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"invalid input: bad value for {key!r}: {bad!r} ({why})\n"


@pytest.mark.parametrize("flag", ["--n", "--levels"])
def test_a_count_written_as_a_whole_float_is_that_count(tmp_path, capsys, flag):
    command, whole, written = {
        "--n": (["solve", "--p", "0.5", "--q", "1"], "1025", "1025.0"),
        "--levels": (["scan-threshold", "--taus", "2"], "257,513,1025", "257.0,513,1025"),
    }[flag]
    runs = []
    for sub, value in (("int", whole), ("float", written)):
        d = tmp_path / sub
        assert main([*command, flag, value, "--output-dir", str(d)]) == 0
        files = sorted((f.name, f.read_bytes()) for f in d.iterdir())
        runs.append((files, capsys.readouterr().out.replace(str(d), "<out>")))
    assert runs[0] == runs[1] and runs[0][0]


@pytest.mark.parametrize("bad", ["2.5", "nan", "1e400", "ten"])
def test_a_count_that_is_not_whole_exits_2_before_any_work(tmp_path, capsys, bad):
    out = tmp_path / "o"
    assert main(["solve", "--n", bad, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    why = f"{bad!r} is not a whole number"
    assert captured.err == f"invalid input: bad value for 'n': {bad!r} ({why})\n"


@pytest.mark.parametrize(
    "argv",
    [["solve", "--p", "0.5", "--q", "1", "--n", "16385", "--ball-dim", "80"],
     ["eigen", "--n", "1025", "--ball-dim", "150"]],
    ids=["solve", "eigen"],
)
def test_a_ball_centre_cell_without_volume_is_invalid_input(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--domain", "ball", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: the centre cell of the N = ") and "r_1 = " in err
    assert not out.exists()


def test_every_readme_example_parses():
    """Each ``mlap1d ...`` line of the README's sh blocks, backslash
    continuations joined, is a valid command line (parsed, not run)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("\n", 1)[1] for b in text.split("```")[1::2] if b.startswith("sh\n")]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    examples = [line.split() for line in lines if line.startswith("mlap1d ")]
    assert examples
    for words in examples:
        mlap1d.cli.parse_argv(words[1:])


def test_readme_layout_names_every_module():
    """The README's Layout block lists exactly the modules of the package."""
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text(encoding="utf-8").split("## Layout", 1)[1]
    listed = {line.split()[0] for line in block.split("```")[1].splitlines()
              if line.startswith("  ") and line.split()[0].endswith(".py")}
    modules = {p.name for p in root.joinpath("src", "mlap1d").glob("*.py")}
    assert listed == modules - {"__init__.py", "__main__.py"}


def test_every_known_key_is_read():
    """Each configuration key is read as cfg[...] or self[...] in cli.py, so
    a removed option leaves no orphaned key behind."""
    tree = ast.parse(Path(mlap1d.cli.__file__).read_text(encoding="utf-8"))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("cfg", "self")
        and isinstance(node.slice, ast.Constant)
    }
    assert set(mlap1d.cli.KNOWN_KEYS) - read == set()


def test_every_key_the_library_defaults_takes_the_library_default():
    """The key table and the library cannot drift apart: each such key's
    default equals every library default it stands for."""
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    spec, config = ProblemSpec(2.0, 0.0, 0.0), SolverConfig()
    library = {
        "picard_tol": [config.picard_tol],
        "max_picard_iters": [config.max_picard_iters],
        "k_low": [spec.k_low],
        "k_high": [spec.k_high],
        "grading": [default(threshold_scan, "grading"),
                    default(distance_integral_classify, "grading")],
        "int_levels": [default(distance_integral_classify, "refinement_levels")],
        "skip_cells": [default(check_barrier, "skip_cells"), default(auto_scale, "skip_cells")],
        "matrix": [DEFAULT_RUN],
    }
    for key, values in library.items():
        assert values == [mlap1d.cli.KNOWN_KEYS[key][1]] * len(values), key
    # a run takes the m = 2 entries unless others are named
    assert DEFAULT_RUN == tuple(k for k, e in default_matrix().items() if e.spec.m == 2.0)


def test_every_scanned_tau_has_its_own_claim_id():
    """Claim ids start with their entry's id, which is unique, so the scanned
    taus of one entry are the only ids that could collide: tau_<tau:g>."""
    for entry in default_matrix().values():
        names = [f"tau_{tau:g}" for tau in entry.scan_taus]
        assert len(set(names)) == len(names), entry.entry_id


def test_no_module_reads_the_process_environment():
    """The command line names every source of a run's configuration: no
    module of the package names environ, getenv or putenv."""
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name

    found = {}
    for path in Path(mlap1d.cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if hits := {"environ", "getenv", "putenv"} & set(names(tree)):
            found[path.name] = sorted(hits)
    assert found == {}


def test_repro_imports_nothing_from_cli():
    owners = {getattr(v, "__module__", None) for v in vars(mlap1d.repro).values()}
    assert "mlap1d.cli" not in owners


def test_threshold_band_predictions():
    # (verdict code, tolerance): 0 Convergent, 1 Marginal, 2 Divergent
    assert predicted_verdict(2.9, 3.0) == (0.0, 0.0)
    assert predicted_verdict(2.96, 3.0) == (0.0, 0.0)
    assert predicted_verdict(2.985, 3.0) is None  # the rule's flip point
    assert predicted_verdict(2.99, 3.0) == (1.5, 0.5)
    assert predicted_verdict(3.0, 3.0) == (1.5, 0.5)
    assert predicted_verdict(3.04, 3.0) == (2.0, 0.0)
    assert predicted_verdict(19.8, 20.0) == (0.0, 0.0)
    assert predicted_verdict(1e6, math.inf) == (0.0, 0.0)


def test_no_scan_prediction_is_vacuous():
    # no (predicted, tolerance) admits all three verdict codes
    for tstar in (1.5, 2.0, 3.0, 5.0, 20.0, math.inf):
        for tau in np.linspace(1.0, 30.0, 2901):
            expected = predicted_verdict(float(tau), tstar)
            if expected is not None:
                predicted, tol = expected
                assert sum(abs(c - predicted) <= tol for c in (0, 1, 2)) <= 2, (tau, tstar)


@pytest.mark.parametrize(
    "taus,ids",
    [((2.9, 2.96, 2.99, 3.0), ["tau_2.9", "tau_2.96", "tau_2.99", "tau_3"]),
     ((2.985,), ["tau_2.985_rate"])],
    ids=["in-band", "flip-point"],
)
def test_in_band_scan_claims_pass(taus, ids):
    # E3 (tau* = 3) scanned within 0.05 below tau*, and at the rule's flip
    # point 3 (1 - RATE_BAND), where the rate itself is claimed
    entry = dataclasses.replace(default_matrix()["E3"], scan_taus=taus)
    claims = [c for c in _entry_claims(entry, {}, SolverConfig()) if c.claim_id[3:6] == "tau"]
    assert [c.claim_id[3:] for c in claims] == ids
    assert all(c.passed for c in claims), claims
    if ids == ["tau_2.985_rate"]:
        assert claims[0].predicted == pytest.approx(0.005) and claims[0].tolerance == RATE_ERROR


def test_filesystem_error_exit_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # output dir cannot be created below a regular file
    code = main(
        ["lemma-integral", "--a", "0.5", "--output-dir", str(blocker / "sub")]
    )
    assert code == 2
