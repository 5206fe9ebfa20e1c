"""CLI behavior, tested in-process through main(argv) for speed.

Subprocess tests prove that the program entry (``cli.run``, behind
``python -m zetacomb`` and ``python -m zetacomb.cli``) gives main's output
and exit codes and exits 3 on a crash, that a stdout that cannot be
written exits 2, and that a closed stdout or stderr neither crashes the
CLI nor mixes diagnostics into stdout; everything else captures
stdout/stderr with capsys. In-process tests also
hold main to freezing nothing.
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
from hypothesis import given, settings
from hypothesis import strategies as st

import _tables_m9 as tables
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


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["coeffs", "--m", "64"], ["coeffs", "--m", "0", "--format", "csv"]])
def test_full_stdout_exits_2(argv):
    # a large write fails at once, a small one only when stdout is flushed
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "zetacomb", *argv], stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("zetacomb: error: cannot write stdout: ")


def run_with_closed_fd(fd, argv):
    """Run the CLI in a child that starts with ``fd`` closed, so that its
    ``sys.stdout`` (fd 1) or ``sys.stderr`` (fd 2) is None."""
    return subprocess.run(
        [sys.executable, "-m", "zetacomb", *argv],
        stdout=subprocess.DEVNULL if fd == 1 else subprocess.PIPE,
        stderr=subprocess.DEVNULL if fd == 2 else subprocess.PIPE,
        preexec_fn=lambda: os.close(fd),
        text=True,
    )


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor with preexec_fn")
def test_closed_stdout_exits_2():
    proc = run_with_closed_fd(1, ["coeffs", "--m", "1", "--format", "csv"])
    assert proc.returncode == 2
    assert proc.stderr == f"zetacomb: error: cannot write stdout: {os.strerror(errno.EBADF)}\n"


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


def run_entry(argv):
    """Run the CLI through ``python -m zetacomb`` and ``python -m zetacomb.cli``,
    both ``cli.run``; the two must print the same, and the first is returned."""
    first, second = (
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True)
        for module in ("zetacomb", "zetacomb.cli")
    )
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
    proc = subprocess.run(
        [sys.executable, "-c", planted, "coeffs", "--m", "2"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_CRASH, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("ZeroDivisionError: planted\n")


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_integers_beyond_the_str_digit_limit(fmt, capsys):
    # coeffs at m = 380 has 648-digit entries, past the lowest limit Python allows, 640
    original = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(["coeffs", "--m", "380", "--cap", "380", "--format", fmt], capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640  # restored
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
        # small, negative, over the cap in force, or not an int; sometimes missing
        over = cli.DEFAULT_M_CAP if cap is None else cap
        value = draw(
            st.integers(-3, small if cap is None else cap)
            | st.integers(over + 1, over + 10**6)
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
