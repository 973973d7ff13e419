"""The exit contract: every package error carries the command line's exit
status, 1 for a failed solve or certification and 2 for invalid input, and
only admissible problems can be built."""

import dataclasses

import pytest

import mlap1d.cli
from mlap1d import ProblemSpec, errors
from mlap1d.analyzer import threshold_scan
from mlap1d.cli import main

# every MlapError class and the status the command line exits with on it
EXIT_STATUS = {
    "MlapError": 2,
    "AdmissibilityViolation": 2,
    "NonPositiveK": 2,
    "InvalidGrading": 2,
    "InvalidGrid": 2,
    "TooFewNodes": 2,
    "GridMismatch": 2,
    "NonFiniteTheta": 2,
    "NonConvergence": 1,
    "BarrierOrderViolation": 1,
    "DomainError": 2,
    "NoCertifiableScale": 1,
    "NonPositiveCandidate": 2,
    "InsufficientWindow": 2,
    "NonPositiveValues": 2,
    "SolveFailed": 1,  # with no cause; a wrapped error keeps its own status
    "InvalidConfig": 2,
}


def test_every_package_error_has_a_pinned_status():
    found = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.MlapError)
    }
    assert found == set(EXIT_STATUS)


def exit_of(monkeypatch, capsys, exc):
    """main's status and stderr when a command raises ``exc``."""
    def command(cfg):
        raise exc

    monkeypatch.setitem(mlap1d.cli.COMMANDS, "classify", command)
    code = main(["classify"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(EXIT_STATUS))
def test_each_error_exits_with_its_status(monkeypatch, capsys, name):
    status = EXIT_STATUS[name]
    what = "verification failed" if status == 1 else "invalid input"
    assert exit_of(monkeypatch, capsys, getattr(errors, name)("why")) == (status, f"{what}: why\n")


@pytest.mark.parametrize("name", sorted(EXIT_STATUS))
def test_a_failed_scan_level_exits_as_its_cause(monkeypatch, capsys, name):
    try:
        raise errors.SolveFailed("level") from getattr(errors, name)("why")
    except errors.SolveFailed as exc:
        wrapped = exc
    assert exit_of(monkeypatch, capsys, wrapped)[0] == EXIT_STATUS[name]


def test_a_programming_error_in_a_level_solve_is_not_wrapped():
    def solve(n):
        raise TypeError(f"level n={n} raised a non-package error")

    with pytest.raises(TypeError, match="level n=257 raised a non-package error"):
        threshold_scan(solve, [2.0], [257, 513, 1025, 2049])


def test_an_inadmissible_spec_cannot_be_built():
    with pytest.raises(errors.AdmissibilityViolation, match="m > 1 fails: m = 0.5"):
        ProblemSpec(m=0.5, p=-1.0, q=5.0)
    spec = ProblemSpec(m=2.0, p=0.5, q=1.0)
    with pytest.raises(errors.AdmissibilityViolation, match="p \\+ q < 2 - \\(1 - p\\)/m fails"):
        dataclasses.replace(spec, q=2.0)
