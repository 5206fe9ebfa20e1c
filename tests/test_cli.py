"""CLI behavior, tested in-process through main(argv) for speed.

Subprocess tests prove that the program entry (``cli.run``, behind
``python -m zetacomb`` and ``python -m zetacomb.cli``) gives main's output
and exit codes on every exit path and exits 3 on a crash, that it runs the
atexit handlers before it ends the process, that a stdout that cannot be
written exits 2 (help included, buffered or not), that a closed stdout or
stderr neither crashes the CLI nor mixes diagnostics into stdout, that a
stderr that cannot be written never changes the exit code, and that a plain
argv runs without importing argparse; everything else captures stdout/stderr
with capsys. Every child is started by ``child.run``, whose docstring gives
its environment and its block-buffered default. In-process tests also hold
main to freezing nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _tables_m9 as tables
import child
from zetacomb import cli, zetadiff
from zetacomb.cli import main
from zetacomb.etacheck import RouteDisagreementError
from zetacomb.numcore import Basis
from zetacomb.trimat import LowerTriMatrix, mat_mul
from zetacomb.zetadiff import (
    CombinationViolation,
    ExpectedSign,
    SignPatternFinding,
    SignViolation,
    VerificationReport,
    combination_matrix,
    hyper_poly_coeffs,
    zeta_diff_coeffs,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- coeffs -------------------------------------------------------------------


def test_coeffs_m0_csv(capsys):
    code, out, _ = run(["coeffs", "--m", "0", "--format", "csv"], capsys)
    assert code == 0
    assert out == "1/2\n"


def test_coeffs_m0_pretty(capsys):
    code, out, _ = run(["coeffs", "--m", "0"], capsys)
    assert code == 0
    assert out.splitlines() == ["combination matrix, m = 0", "1/2"]


def test_coeffs_m9_csv_bottom_row(capsys):
    code, out, _ = run(["coeffs", "--m", "9", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[9] == "0,691/4,0,-265/2,0,777/64,0,-15/64,0,1/1024"


def test_coeffs_m9_json(capsys):
    code, out, _ = run(["coeffs", "--m", "9", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["m", "matrix"]
    assert doc["m"] == 9
    assert doc["matrix"] == cli._document(tables.matrix(tables.PRODUCT10))


def test_coeffs_check_all_routes(capsys):
    code, out, err = run(["coeffs", "--m", "9", "--check-all-routes"], capsys)
    assert code == 0
    assert "5 routes agree" in err
    assert "5 routes agree" not in out  # diagnostics stay on stderr


# --- verify -------------------------------------------------------------------


def test_verify_m9_json(capsys):
    code, out, _ = run(["verify", "--m", "9", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 9
    assert doc["pass"] is True
    assert doc["violations"] == []
    assert doc["polynomial_forms_pass"] is True
    assert doc["samples"] == ["0", "1/2", "1", "2", "7/3"]


# --- eta ----------------------------------------------------------------------


def test_eta_pretty(capsys):
    code, out, _ = run(["eta", "--max", "9"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "eta(0) = 1/2"
    assert lines[1] == "eta(-1) = 1/4"
    assert lines[9] == "eta(-9) = 31/4"


def test_eta_json(capsys):
    code, out, _ = run(["eta", "--max", "9", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["eta"] for r in rows] == tables.ETA10
    assert all(list(r) == ["m", "eta"] for r in rows)


def test_eta_csv(capsys):
    code, out, _ = run(["eta", "--max", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["m,eta", "0,1/2", "1,1/4", "2,0"]


# --- conjecture -----------------------------------------------------------------


def test_conjecture_scan(capsys):
    code, out, _ = run(["conjecture", "--max", "9"], capsys)
    assert code == 0
    assert "0 violations" in out
    assert "45 entries checked" in out


def test_conjecture_json(capsys):
    code, out, _ = run(["conjecture", "--max", "5", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"max_m": 5, "checked": 15, "violations": []}


# --- matrices ----------------------------------------------------------------------


def test_matrices_fixture_dump(capsys):
    code, out, err = run(["matrices", "--m", "9", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    expected = {
        "A": tables.A10,
        "B": tables.B10,
        "B_inv": tables.B10_INV,
        "A_shifted": tables.A10_SHIFTED,
        "B_shifted": tables.B10_SHIFTED,
        "B_shifted_inv": tables.B10_SHIFTED_INV,
        "product": tables.PRODUCT10,
    }
    doc = json.loads(out)
    assert doc.pop("m") == 9
    assert doc == {name: cli._document(tables.matrix(table)) for name, table in expected.items()}


def test_matrices_product_is_a_times_the_printed_inverse(monkeypatch, capsys):
    # the product is computed from the printed A and B_inv, not read off another route
    real = cli.invert_substitution

    def doctored(matrix):
        inverse = real(matrix)
        return LowerTriMatrix(inverse.dim, (inverse.entries[0] + 1, *inverse.entries[1:]))

    monkeypatch.setattr(cli, "invert_substitution", doctored)
    code, out, _ = run(["matrices", "--m", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    b_inv = doctored(hyper_poly_coeffs(3, Basis.MONOMIAL))
    assert doc["B_inv"] == cli._document(b_inv)
    assert doc["product"] == cli._document(mat_mul(zeta_diff_coeffs(3, Basis.MONOMIAL), b_inv))
    assert doc["product"] != cli._document(combination_matrix(3).matrix)


# --- flags, exit codes, determinism ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs"],  # missing required --m
        ["coeffs", "--m", "1", "--bogus"],  # unknown flag
        ["coeffs", "--m", "-1"],  # negative m
        ["coeffs", "--m", "100"],  # over the default cap
        ["verify"],  # missing required --m
        ["verify", "--m", "2", "--cap", "1"],  # over a lowered cap
        ["nonsense"],  # unknown command
        ["eta", "--max", "-1"],  # negative max
        ["conjecture", "--max", "65"],  # over the default cap
        ["matrices", "--m", "x"],  # not an int
        ["eta", "--max", "3", "--format", "xml"],  # unknown format
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


# each command's size flag, written out here rather than read off cli._COMMANDS
SIZE_FLAGS = {"coeffs": "--m", "verify": "--m", "matrices": "--m", "eta": "--max", "conjecture": "--max"}


@pytest.mark.parametrize("spelling", ["plain", "equals"])
@pytest.mark.parametrize(
    "size, cap, error",
    [
        ("-1", None, "{flag} must be >= 0"),
        ("0", "-1", "--cap must be >= 0"),
        ("65", None, "m = 65 exceeds the cap 64 (raise with --cap)"),
    ],
    ids=["negative-size", "negative-cap", "over-the-default-cap"],
)
@pytest.mark.parametrize("command", SIZE_FLAGS)
def test_each_size_rule_names_itself_for_every_command(command, size, cap, error, spelling, capsys):
    # "--m 65" is read by the plain reader first, "--m=65" only by argparse
    given = {SIZE_FLAGS[command]: size, **({"--cap": cap} if cap else {})}
    if spelling == "plain":
        argv = [command, *(word for pair in given.items() for word in pair)]
    else:
        argv = [command, *(f"{flag}={value}" for flag, value in given.items())]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "zetacomb: error: " + error.format(flag=SIZE_FLAGS[command])


def test_cap_can_be_raised(capsys):
    code, _, _ = run(["coeffs", "--m", "70", "--cap", "70", "--format", "csv"], capsys)
    assert code == 0


def test_determinism(capsys):
    first = run(["matrices", "--m", "7", "--format", "json"], capsys)
    second = run(["matrices", "--m", "7", "--format", "json"], capsys)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--m", "1", "--route", "riordan"],
        ["matrices", "--m", "1", "--fixtures", "{tmp}/D"],
        ["verify", "--m", "1", "--samples", "1/2"],
        ["coeffs", "--m", "1", "--out", "{tmp}/D"],
    ],
    ids=["coeffs-route", "matrices-fixtures", "verify-samples", "coeffs-out"],
)
def test_deleted_flags_are_usage_errors(argv, tmp_path, capsys):
    # coeffs prints the one production matrix; --check-all-routes compares the routes;
    # verify proves the identity at every x, so no sample point can change its verdict;
    # every result goes to stdout, its one output channel (redirect it with > FILE)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"zetacomb: error: unrecognized arguments: {' '.join(argv[3:])}"
    assert not (tmp_path / "D").exists()


# the reasons that end the one stdout error line: /dev/full, and fd 1 closed at start-up
FULL, CLOSED = os.strerror(errno.ENOSPC), os.strerror(errno.EBADF)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--m", "64"],
        ["coeffs", "--m", "0", "--format", "csv"],
        ["--help"],
        ["coeffs", "--help"],
    ],
)
def test_full_stdout_exits_2(argv):
    # help is written by _write as a result is, and _write flushes each write, so a
    # block-buffered stdout fails there as an unbuffered one does
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            proc = child.run("-m", "zetacomb", *argv, stdout=full, unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr) == (2, f"zetacomb: error: cannot write stdout: {FULL}\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_usage_error_to_a_full_stdout_reports_only_itself(unbuffered, capsys):
    # nothing is written to stdout, and the entry's final flush drops what it cannot write
    argv = ["coeffs", "--m", "-1"]
    with open("/dev/full", "w") as full:
        proc = child.run("-m", "zetacomb", *argv, stdout=full, unbuffered=unbuffered)
    with pytest.raises(SystemExit):
        main(argv)
    assert (proc.returncode, proc.stderr) == (2, capsys.readouterr().err)


def run_with_closed_fd(fd, argv):
    """Run the CLI in a child that starts with ``fd`` closed, so that its
    ``sys.stdout`` (fd 1) or ``sys.stderr`` (fd 2) is None."""
    return child.run(
        "-m", "zetacomb", *argv,
        stdout=subprocess.DEVNULL if fd == 1 else subprocess.PIPE,
        stderr=subprocess.DEVNULL if fd == 2 else subprocess.PIPE,
        preexec_fn=lambda: os.close(fd),
    )


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor with preexec_fn")
def test_closed_stdout_exits_2():
    # argparse would print the help on stderr and exit 0
    for argv in (["coeffs", "--m", "1", "--format", "csv"], ["--help"], ["coeffs", "--help"]):
        proc = run_with_closed_fd(1, argv)
        assert (proc.returncode, proc.stderr) == (2, f"zetacomb: error: cannot write stdout: {CLOSED}\n")


def test_help_to_a_closed_stdout_is_a_usage_error(monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as info:
            main(["--help"])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"zetacomb: error: cannot write stdout: {CLOSED}\n")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor with preexec_fn")
@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["coeffs", "--m", "1", "--check-all-routes", "--format", "csv"], 0, "1/2,0\n0,1/4\n"),
        # usage errors: argparse would print its usage line to stdout
        (["coeffs", "--m", "-1"], 2, ""),
        (["coeffs"], 2, ""),
        (["bogus"], 2, ""),
        (["coeffs", "--m", "1", "extra"], 2, ""),
    ],
    ids=["routes-agree", "negative-m", "missing-flag", "unknown-command", "extra-argument"],
)
def test_closed_stderr_keeps_diagnostics_off_stdout(argv, code, stdout):
    proc = run_with_closed_fd(2, argv)
    assert (proc.returncode, proc.stdout) == (code, stdout)


def test_closed_stderr_keeps_the_usage_line_off_stdout(monkeypatch, capsys):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--m", "-1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_closed_stderr_keeps_the_exit_1_line_off_stdout(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", None)
        code = main(["verify", "--m", "2"])
    assert code == 1
    assert capsys.readouterr().out == (
        "combination identity: PASS (m = 2, samples: 0, 1/2, 1, 2, 7/3)\npolynomial forms: FAIL\n"
    )


def test_a_diagnostic_reaches_a_block_buffered_stderr_at_once(monkeypatch, tmp_path):
    # a long-lived caller may point stderr at a file, which is block-buffered
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    path = tmp_path / "err.txt"
    with path.open("w") as err:
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["verify", "--m", "2"]) == 1
        assert path.read_text() == "polynomial forms check failed at m=2\n"


def run_entry(argv):
    """Run the CLI through ``python -m zetacomb`` and ``python -m zetacomb.cli``,
    both ``cli.run``; the two must print the same, and the first is returned."""
    first, second = (child.run("-m", module, *argv) for module in ("zetacomb", "zetacomb.cli"))
    assert (second.returncode, second.stdout, second.stderr) == (
        first.returncode, first.stdout, first.stderr
    )
    return first


def test_module_entry_point():
    proc = run_entry(["coeffs", "--m", "0", "--format", "csv"])
    assert proc.returncode == 0
    assert proc.stdout == "1/2\n"


def test_module_entry_matches_main(capsys):
    argv = ["coeffs", "--m", "3", "--format", "json"]
    proc = run_entry(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(argv, capsys)


def test_module_entry_help_exits_0():
    proc = run_entry(["--help"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: zetacomb [-h]")


def test_module_entry_usage_error_exits_2():
    proc = run_entry(["coeffs", "--m", "-1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    # argparse's usage, then its one error line, and no traceback
    assert proc.stderr.startswith("usage: zetacomb [-h]")
    assert [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))] == [
        "zetacomb: error: --m must be >= 0"
    ]


def test_a_crash_exits_3_with_its_traceback():
    planted = (
        "from zetacomb import cli\n"
        "def boom(m):\n"
        "    raise ZeroDivisionError('planted')\n"
        "cli.combination_matrix = boom\n"
        "cli.run()\n"
    )
    proc = child.run("-c", planted, "coeffs", "--m", "2")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_CRASH, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("ZeroDivisionError: planted\n")


# the program entry, with the forms check planted to fail as in test_main_freezes_nothing
_FAILING_FORMS_ENTRY = (
    "from zetacomb import cli\n"
    "cli.verify_polynomial_forms = lambda m: False\n"
    "cli.run()\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["coeffs", "--m=3", "--format", "csv"], 0),
        (["verify", "--m", "2"], 1),
        (["--help"], 0),
        (["coeffs", "--help"], 0),
        (["coeffs", "--m", "-1"], 2),
        (["bogus"], 2),
    ],
    ids=[
        "argparse-success", "failed-check", "help", "command-help", "usage-error", "unknown-command"
    ],
)
def test_the_entry_gives_mains_bytes_on_every_exit_path(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    proc = child.run("-c", _FAILING_FORMS_ENTRY, *argv)
    try:
        expected = run(argv, capsys)
    except SystemExit as exc:
        expected = (exc.code, *capsys.readouterr())
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_a_large_output_through_the_entry_is_mains(sink, tmp_path, capsys):
    # about 1.6 MB, written through a block-buffered pipe or regular file
    argv = ["coeffs", "--m", "200", "--cap", "200", "--format", "json"]
    if sink == "pipe":
        proc = run_entry(argv)
        got = (proc.returncode, proc.stdout, proc.stderr)
    else:
        path = tmp_path / "out.json"
        with path.open("w") as out:
            proc = child.run("-m", "zetacomb", *argv, stdout=out)
        got = (proc.returncode, path.read_text(), proc.stderr)
    assert got == run(argv, capsys)


def test_the_entry_runs_the_atexit_handlers():
    # the entry ends the process by os._exit, which alone would skip the handlers;
    # stdout is block-buffered and stderr line-buffered, so what a handler writes
    # to either needs the final flushes too
    planted = (
        "import atexit, sys\n"
        "atexit.register(sys.stdout.write, 'handler ran')\n"
        "atexit.register(sys.stderr.write, 'handler ran')\n"
        "from zetacomb import cli\n"
        "cli.run()\n"
    )
    proc = child.run("-c", planted, "coeffs", "--m", "0", "--format", "csv")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1/2\nhandler ran", "handler ran")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_the_entry_drops_what_an_exit_handler_leaves_for_a_full_stdout():
    # the result went out through _write; the final flush drops the handler's text,
    # as _note drops what stderr cannot take, and the result's exit code stands
    planted = (
        "import atexit, os, sys\n"
        "def handler():\n"
        "    os.dup2(os.open('/dev/full', os.O_WRONLY), 1)\n"
        "    sys.stdout.write('handler ran')\n"
        "atexit.register(handler)\n"
        "from zetacomb import cli\n"
        "cli.run()\n"
    )
    proc = child.run("-c", planted, "coeffs", "--m", "0", "--format", "csv")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1/2\n", "")


# the program entry, with combination_matrix planted to raise
_CRASHING_ENTRY = (
    "from zetacomb import cli\n"
    "cli.combination_matrix = lambda m: 1 // 0\n"
    "cli.run()\n"
)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code, crash",
    [
        (["coeffs", "--m", "-1"], 2, False),
        (["bogus"], 2, False),
        (["coeffs", "--m", "70"], 2, False),
        (["coeffs", "--m", "3"], 0, False),
        (["coeffs", "--m", "3", "--check-all-routes"], 0, False),
        (["verify", "--m", "3"], 1, False),
        (["coeffs", "--m", "3"], 3, True),
    ],
    ids=["negative-m", "unknown-command", "over-the-cap", "success", "routes-agree",
         "failed-check", "crash"],
)
def test_a_full_stderr_never_changes_the_exit_code(argv, code, crash, unbuffered, monkeypatch, capsys):
    # every diagnostic is dropped (a usage line, a note, a check's line, a traceback):
    # line-buffered, the entry's final flush finds the failure; unbuffered, each write does
    with open("/dev/full", "w") as full:
        entry = _CRASHING_ENTRY if crash else _FAILING_FORMS_ENTRY
        proc = child.run("-c", entry, *argv, stderr=full, unbuffered=unbuffered)
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    if crash:
        monkeypatch.setattr(cli, "combination_matrix", lambda m: 1 // 0)
    with contextlib.suppress(SystemExit, ZeroDivisionError):
        main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_and_stderr_exit_2(unbuffered):
    # the stdout error line cannot be written either, and dropping it keeps the code
    with open("/dev/full", "w") as full:
        proc = child.run(
            "-m", "zetacomb", "coeffs", "--m", "3", stdout=full, stderr=full, unbuffered=unbuffered
        )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["coeffs", "--m", "4"], 0),
        (["verify", "--m", "2"], 1),
        (["coeffs", "--m", "-1"], 2),
    ],
    ids=["success", "failed-check", "usage-error"],
)
def test_main_freezes_nothing(argv, code, monkeypatch, capsys):
    # main runs in long-lived processes, where frozen garbage would never be freed
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    before = gc.get_freeze_count()
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, gc.get_freeze_count()) == (code, before)


# an unrecognized word, before or after the command, is reported by the top-level
# parser, so its usage line lists every command
@pytest.mark.parametrize(
    "argv, word",
    [(["coeffs", "--m", "1", "extra"], "extra"), (["--bogus", "coeffs", "--m", "1"], "--bogus")],
)
def test_an_unrecognized_argument_prints_the_usage_line_of_every_command(argv, word, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: zetacomb [-h] {coeffs,verify,eta,conjecture,matrices} ...\n")
    assert sum(line.startswith("zetacomb: error: ") for line in err.splitlines()) == 1
    assert err.endswith(f"zetacomb: error: unrecognized arguments: {word}\n")


# per command, its own flags in order; every --cap defaults to 64
COMMAND_FLAGS = {
    "coeffs": ("--m", "--check-all-routes"),
    "verify": ("--m",),
    "eta": ("--max",),
    "conjecture": ("--max",),
    "matrices": ("--m",),
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_takes_its_own_flags_then_the_shared_ones(command):
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    sub = commands.choices[command]
    assert tuple(a.option_strings[0] for a in sub._actions) == (
        "-h", *COMMAND_FLAGS[command], "--format", "--cap"
    )
    assert sub.get_default("cap") == 64
    assert sub.get_default("run") is getattr(cli, f"cmd_{command}")


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_each_command_help_exits_0_and_names_the_program_and_the_command(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith(f"usage: zetacomb {command} ")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["coeffs", "--help"], ["coeffs", "--m", "-1"], ["bogus"]],
    ids=["help", "command-help", "usage-error", "unknown-command"],
)
def test_help_and_usage_do_not_read_the_terminal_width(argv, monkeypatch, capsys):
    # argparse would wrap both to COLUMNS, else to the terminal's width
    got = []
    for columns in ("20", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as info:
            main(argv)
        got.append((info.value.code, *capsys.readouterr()))
    proc = child.run("-m", "zetacomb", *argv, env={"COLUMNS": "20"})
    assert got[0] == got[1] == (proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "argv, error",
    [
        ([], "the following arguments are required: command"),
        (["nonsense"], "argument command: invalid choice: 'nonsense' "),
        # retired commands; bernoulli_number, stirling1 and stirling2 stay in the library
        (["bernoulli", "--n", "2"], "argument command: invalid choice: 'bernoulli' "),
        (
            ["stirling", "--kind", "first", "--n", "3", "--k", "1"],
            "argument command: invalid choice: 'stirling' ",
        ),
    ],
)
def test_a_missing_or_unknown_command_is_named_command(argv, error, capsys):
    # argparse words the list of choices differently across versions
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"zetacomb: error: {error}")


# --- golden output and the exit-1 contract ---------------------------------------------

# argv, stdout, stderr and exit code of main(argv) for every subcommand x format
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
def test_golden_output(entry, capsys):
    assert run(entry["argv"], capsys) == (entry["exit"], entry["stdout"], entry["stderr"])


def test_route_disagreement_exits_1(monkeypatch, capsys):
    real = zetadiff.invert_series

    def skewed(matrix):
        # double the last diagonal entry: the product's (m, m) entry is then 1/2^m
        inverse = real(matrix)
        return LowerTriMatrix(inverse.dim, [*inverse.entries[:-1], 2 * inverse.entries[-1]])

    monkeypatch.setattr(zetadiff, "invert_series", skewed)
    combination_matrix.cache_clear()
    code, out, err = run(["coeffs", "--m", "3", "--check-all-routes"], capsys)
    assert (code, out, err) == (1, "", "route disagreement at m=3\n")
    # the paper's routes are built afresh; only the production matrix is cached
    assert combination_matrix.cache_info().currsize == 1


def test_a_wrong_shifted_g_table_is_a_route_disagreement(monkeypatch, capsys):
    real = zetadiff.hyper_poly_coeffs

    def faulty(m, basis):
        # one off-diagonal entry, (1, 0), is off by one in the shifted G table
        table = real(m, basis)
        if Basis(basis) is Basis.SHIFTED:
            table = LowerTriMatrix(table.dim, [table.entries[0], table.entries[1] + 1, *table.entries[2:]])
        return table

    monkeypatch.setattr(zetadiff, "hyper_poly_coeffs", faulty)
    combination_matrix.cache_clear()
    code, out, err = run(["coeffs", "--m", "3", "--check-all-routes"], capsys)
    assert (code, out, err) == (1, "", "route disagreement at m=3\n")
    assert combination_matrix.cache_info().currsize == 1


def test_eta_route_disagreement_exits_1(monkeypatch, capsys):
    def disagree(max_m):
        raise RouteDisagreementError(2, {"via_zeta": Fraction(0), "via_stirling2": Fraction(1)})

    monkeypatch.setattr(cli, "eta_cross_check", disagree)
    code, out, err = run(["eta", "--max", "4", "--format", "json"], capsys)
    assert (code, out, err) == (1, "", "eta routes disagree at m=2: via_stirling2=1, via_zeta=0\n")


FAILED_REPORT = VerificationReport(
    m=2,
    samples=(Fraction(1, 2),),
    passed=False,
    violations=(
        CombinationViolation(1, Fraction(1, 2), Fraction(-3, 4)),
        CombinationViolation(2, Fraction(1, 2), Fraction(5)),
    ),
)


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("pretty", "combination identity: FAIL (m = 2, samples: 1/2)\npolynomial forms: PASS\n"),
        ("csv", "row,sample,residual\n1,1/2,-3/4\n2,1/2,5\n"),
        (
            "json",
            '{\n  "m": 2,\n  "samples": [\n    "1/2"\n  ],\n  "pass": false,\n'
            '  "violations": [\n'
            '    {\n      "row": 1,\n      "sample": "1/2",\n      "residual": "-3/4"\n    },\n'
            '    {\n      "row": 2,\n      "sample": "1/2",\n      "residual": "5"\n    }\n'
            '  ],\n  "polynomial_forms_pass": true\n}\n',
        ),
    ],
)
def test_failed_verification_exits_1_after_the_output(fmt, expected, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_combination", lambda m: FAILED_REPORT)
    code, out, err = run(["verify", "--m", "2", "--format", fmt], capsys)
    assert (code, out, err) == (1, expected, "violation: row 1, sample 1/2, residual -3/4\n")


def test_failed_polynomial_forms_exit_1_after_the_output(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_polynomial_forms", lambda m: False)
    code, out, err = run(["verify", "--m", "2"], capsys)
    assert code == 1
    assert out == (
        "combination identity: PASS (m = 2, samples: 0, 1/2, 1, 2, 7/3)\npolynomial forms: FAIL\n"
    )
    assert err == "polynomial forms check failed at m=2\n"


PLANTED_FINDING = SignPatternFinding(
    max_m=3,
    checked=3,
    violations=(
        SignViolation(2, 0, Fraction(1, 4), ExpectedSign.NEGATIVE),
        SignViolation(3, 0, Fraction(-1, 8), ExpectedSign.ZERO),
    ),
)


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "pretty",
            "sign pattern scan to m = 3: 3 entries checked, 2 violations\n"
            "  (2, 0) = 1/4, expected negative\n  (3, 0) = -1/8, expected zero\n",
        ),
        ("csv", "i,j,value,expected\n2,0,1/4,negative\n3,0,-1/8,zero\n"),
        (
            "json",
            '{\n  "max_m": 3,\n  "checked": 3,\n  "violations": [\n'
            '    {\n      "i": 2,\n      "j": 0,\n      "value": "1/4",\n      "expected": "negative"\n    },\n'
            '    {\n      "i": 3,\n      "j": 0,\n      "value": "-1/8",\n      "expected": "zero"\n    }\n'
            "  ]\n}\n",
        ),
    ],
)
def test_conjecture_violations_render(fmt, expected, monkeypatch, capsys):
    monkeypatch.setattr(cli, "scan_sign_pattern", lambda max_m: PLANTED_FINDING)
    code, out, err = run(["conjecture", "--max", "3", "--format", fmt], capsys)
    assert (code, out, err) == (1, expected, "sign violation: (2, 0) = 1/4, expected negative\n")


@pytest.mark.parametrize("limit", [640, 0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_integers_beyond_the_str_digit_limit(fmt, limit, capsys):
    # coeffs at m = 380 has 648-digit entries, past the lowest limit Python allows, 640;
    # a limit switched off (0) stays off
    original = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out, err = run(["coeffs", "--m", "380", "--cap", "380", "--format", fmt], capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # restored
        if fmt == "csv":
            rows = [line.split(",")[: i + 1] for i, line in enumerate(out.splitlines())]
        else:
            rows = json.loads(out)["matrix"]["rows"]
        sys.set_int_max_str_digits(0)
        assert rows == [list(map(str, row)) for row in combination_matrix(380).matrix.rows()]
    finally:
        sys.set_int_max_str_digits(original)
        combination_matrix.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--m", "1" * 5000], ["verify", "--m", "1" * 5000]],
)
def test_huge_digit_strings_are_usage_errors(argv, capsys):
    # the digit limit is lifted only after the flags are parsed
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


# --- the exit-code contract over generated argv ------------------------------------

# per subcommand, its capped size flag with the largest value a generated run
# computes at (m <= 12), and its other flags: one choice per list, None for
# leaving the flag out
_SIZE = {
    "coeffs": ("--m", 12),
    "verify": ("--m", 12),
    "eta": ("--max", 12),
    "conjecture": ("--max", 12),
    "matrices": ("--m", 12),
}
_FLAGS = {
    "coeffs": [[None, ["--check-all-routes"]]],
}
_FORMATS = [None, *(["--format", f] for f in ("pretty", "json", "csv", "xml"))]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_SIZE, "nonsense"]))
    groups = [draw(st.sampled_from(choices)) for choices in [*_FLAGS.get(command, []), _FORMATS]]
    if draw(st.integers(0, 9)) == 0:
        groups.append(draw(st.sampled_from([["--bogus"], ["--help"]])))
    if command in _SIZE:
        flag, small = _SIZE[command]
        cap = draw(st.none() | st.integers(-1, small))
        if cap is not None:
            groups.append(["--cap", str(cap)])
        # small, negative, at most 10 over the cap in force (so that a broken cap check
        # computes at m <= 74, not near 10**6), or not an int; sometimes missing
        over = cli.DEFAULT_M_CAP if cap is None else cap
        value = draw(
            st.integers(-3, small if cap is None else cap)
            | st.integers(over + 1, over + 10)
            | st.sampled_from(["x", "1/2", "", None])
        )
        groups.append(None if value is None else [flag, str(value)])
    return [command, *(arg for group in draw(st.permutations(groups)) if group for arg in group)]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_exit_code_contract_on_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors, and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv


# --- the plain reader: a well-formed argv skips argparse ---------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--m", "0", "--cap", "-1"],
        ["eta", "--max", "0", "--cap", "-5", "--format", "csv"],
        ["verify", "--m", "0", "--cap", " -1"],  # a space, not "-", starts it; int() reads -1
    ],
)
def test_a_negative_cap_names_itself(argv, capsys):
    assert cli._plain_args(argv) is None
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "zetacomb: error: --cap must be >= 0"


def argparse_namespace(argv):
    """vars() of what build_parser and _validate make of ``argv``; fails if they refuse it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse refuses {argv!r}")
    assert cli._validate(parsed) is None, argv
    return vars(parsed)


# one argv per request shape of perfbench/workloads.py
@pytest.mark.parametrize(
    "argv",
    [
        *(["coeffs", "--m", "40", "--format", fmt] for fmt in ("pretty", "json", "csv")),
        ["verify", "--m", "16"],
        ["eta", "--max", "30"],
        ["conjecture", "--max", "64"],
        ["coeffs", "--check-all-routes", "--m", "12"],
    ],
    ids=["coeffs-pretty", "coeffs-json", "coeffs-csv", "verify", "eta", "conjecture", "all-routes"],
)
def test_every_benchmark_request_takes_the_plain_path(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == argparse_namespace(argv)


# values near the plain shape: sizes spelled oddly (int() reads all of these), negative,
# past the default cap, not ints, empty, and 5,000 digits (past int()'s digit limit);
# "-0_0" is an int whose leading "-" makes argparse read it as a flag, not a value
_NEAR_VALUES = [
    "0", "64", "65", "-1", "-0_0", "+3", " 7", "1_0", "٣", "", "x", "1/2", "1" * 5000,
    "pretty", "json", "csv", "xml",
]
# words no plain argv holds: "=", an abbreviation, "--", help, another command's flag,
# a stray value
_ODD_WORDS = [["--m=3"], ["--form", "csv"], ["--"], ["-h"], ["--help"], ["--max", "3"],
              ["--m", "3"], ["--check-all-routes"], ["7"]]


@st.composite
def _near_plain_argv(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = [flag for flag, _ in (*cli._COMMANDS[command][2], *cli._SHARED_FLAGS)]
    groups = []
    for flag in flags:
        # half of the values are plain ones, so that the reader reads a good share of argv
        plain = ("pretty", "json", "csv") if flag == "--format" else ("0", "12", "64")
        for _ in range(draw(st.sampled_from([1, 0, 1, 1, 2]))):  # once, left out or repeated
            if flag == "--check-all-routes":
                groups.append([flag])
            else:
                groups.append([flag, draw(st.sampled_from(plain) | st.sampled_from(_NEAR_VALUES))])
    if draw(st.integers(0, 4)) == 0:
        groups.append(draw(st.sampled_from(_ODD_WORDS)))
    return [command, *(word for group in draw(st.permutations(groups)) for word in group)]


@settings(max_examples=500, deadline=None)
@given(_near_plain_argv())
@example(["coeffs", "--m", "x", "--m", "3"])  # argparse refuses the first value of a repeated flag
@example(["eta", "--max", "-0_0"])
@example(["coeffs", "--check-all-routes", "7", "--m", "3"])  # a switch takes no value
def test_what_the_plain_reader_reads_argparse_reads_the_same(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == argparse_namespace(argv)


# runs the program entry as `python -m zetacomb` does, then writes on stderr
# whether argparse was imported; the entry ends the process by os._exit, so the
# line is written by an atexit handler, which the entry runs first
_ARGPARSE_PROBE = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('argparse' in sys.modules, file=sys.stderr))\n"
    "runpy.run_module('zetacomb', run_name='__main__', alter_sys=True)\n"
)


def run_probe(argv):
    return child.run("-c", _ARGPARSE_PROBE, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--m", "3", "--check-all-routes", "--format", "json"],
        ["verify", "--m", "2", "--format", "csv"],
        ["eta", "--max", "3"],
        ["conjecture", "--max", "3", "--cap", "3"],
        ["matrices", "--m", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_plain_request_does_not_import_argparse(argv, capsys):
    proc = run_probe(argv)
    code, out, err = run(argv, capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "False\n")


def test_help_errors_and_other_argv_still_go_through_argparse(capsys):
    parser = cli.build_parser()
    _, csv_m3, _ = run(["coeffs", "--m", "3", "--format", "csv"], capsys)
    for argv, code, out, err in [
        (["--help"], 0, parser.format_help(), ""),
        (["coeffs", "--m", "-1"], 2, "", parser.format_usage() + "zetacomb: error: --m must be >= 0\n"),
        (["coeffs", "--m=3", "--format", "csv"], 0, csv_m3, ""),
    ]:
        proc = run_probe(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "True\n")
    proc = run_probe(["coeffs", "--help"])
    assert (proc.returncode, proc.stderr) == (0, "True\n")
    assert proc.stdout.startswith("usage: zetacomb coeffs [-h] --m M [--check-all-routes]")
