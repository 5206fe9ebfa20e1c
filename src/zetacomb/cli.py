"""Command-line surface. All configuration is by flags; output is deterministic.

Exit codes: 0 success, 1 mathematical-check failure, 2 usage error, 3 a crash
(an exception that escaped ``main``; its traceback goes to stderr). Results and
help reach stdout only through ``_write``, and a stdout it cannot write exits 2;
diagnostics go to stderr, dropped when it is closed or cannot be written.

``run`` is the program entry of ``python -m zetacomb``, the ``zetacomb``
script and ``python -m zetacomb.cli``; it ends the process by ``os._exit``.
``main(argv)`` runs one request and returns its exit code; tests, library
callers and long-lived processes call it.

This is the one module that formats output; the library returns values.
Each ``cmd_*`` computes its result once and returns a ``_Result`` holding
three deferred views of it: the value to print as JSON, the CSV text and
the pretty text. ``main`` alone picks the view that --format names (only
that one is built), writes it, and maps failures to exit codes. JSON
comes from ``_document``, a matrix grid from ``_cells``, and a record CSV
from ``_records_csv`` over the records' documents, so its header is the
JSON keys.

A plain argv (a command, then each of its flags at most once as ``--flag
value``, every value valid) is read by ``_plain_args`` from ``_COMMANDS``
and ``_SHARED_FLAGS``, without argparse. Any other argv (help, a usage
error, or a valid one such as ``coeffs --m=3``) goes to argparse, imported
only then: it alone formats help and prints usage lines and errors, at 78
columns whatever the terminal or COLUMNS.
"""
from __future__ import annotations

import atexit
import enum
import errno
import os
import sys
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from types import SimpleNamespace

from .etacheck import RouteDisagreementError, eta_cross_check
from .numcore import Basis
from .trimat import LowerTriMatrix, invert_series, invert_substitution, mat_mul
from .zetadiff import (
    combination_matrix,
    hyper_poly_coeffs,
    paper_matrices,
    scan_sign_pattern,
    verify_combination,
    verify_polynomial_forms,
    zeta_diff_coeffs,
)

__all__ = ["main", "run"]

DEFAULT_M_CAP = 64

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


class _Result(namedtuple("_Result", "json csv pretty failure", defaults=(None,))):
    """A command's result: three deferred views, of which ``main`` builds one.

    ``json`` returns a value for ``_document``; ``csv`` and ``pretty`` return text.

    ``failure`` is the stderr line of a check that failed once the result
    was computed; it follows the output, and the exit code is 1.
    """

    __slots__ = ()


class _CheckFailed(Exception):
    """A mathematical check failed; exits 1."""


class _UnwritableOutputError(Exception):
    """Stdout could not be written; a usage error."""


def _cells(matrix: LowerTriMatrix) -> list[list[str]]:
    """The full square grid of ``matrix`` as strings, "0" above the diagonal."""
    return [[*map(str, matrix.row(i)), *["0"] * (matrix.dim - 1 - i)] for i in range(matrix.dim)]


def _grid(matrix: LowerTriMatrix) -> str:
    # right-aligned columns
    cells = _cells(matrix)
    widths = [max(len(row[j]) for row in cells) for j in range(matrix.dim)]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in cells)


def _csv_grid(matrix: LowerTriMatrix) -> str:
    return "".join(",".join(row) + "\n" for row in _cells(matrix))


def _document(value):
    """The JSON form of a result: a ``LowerTriMatrix`` as {"dim", "rows"}, a
    record as a dict by its ``_fields``, a ``Fraction`` as "p/q", an enum by
    its value; dicts, lists and tuples item by item, anything else as it is."""
    if isinstance(value, LowerTriMatrix):
        return {"dim": value.dim, "rows": [[str(e) for e in row] for row in value.rows()]}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "_fields"):
        return {field: _document(getattr(value, field)) for field in value._fields}
    if isinstance(value, dict):
        return {key: _document(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_document(item) for item in value]
    return value


def _records_csv(fields: tuple[str, ...], records: Iterable) -> str:
    """Header ``fields``, then one line per record's ``_document``; each cell
    is a ``str`` or an ``int``, written by ``str``, unquoted."""
    lines = [",".join(fields)]
    lines += [",".join(map(str, map(_document(r).get, fields))) for r in records]
    return "\n".join(lines) + "\n"


def cmd_coeffs(args: SimpleNamespace) -> _Result:
    report = combination_matrix(args.m)
    if args.check_all_routes:
        routes = paper_matrices(args.m)
        if any(matrix != report.matrix for matrix in routes.values()):
            raise _CheckFailed(f"route disagreement at m={args.m}")
        _note(f"{len(routes) + 1} routes agree")  # the paper's four and the production one
    header = f"combination matrix, m = {args.m}\n"
    return _Result(
        json=lambda: report,
        csv=lambda: _csv_grid(report.matrix),
        pretty=lambda: header + _grid(report.matrix),
    )


def cmd_verify(args: SimpleNamespace) -> _Result:
    report = verify_combination(args.m)
    forms_ok = verify_polynomial_forms(args.m)
    failure = None
    if not report.passed:
        first = report.violations[0]
        failure = f"violation: row {first.row}, sample {first.sample}, residual {first.residual}"
    elif not forms_ok:
        failure = f"polynomial forms check failed at m={args.m}"
    return _Result(
        # "pass", not the field name "passed"
        json=lambda: {"m": report.m, "samples": report.samples, "pass": report.passed,
                      "violations": report.violations, "polynomial_forms_pass": forms_ok},
        csv=lambda: _records_csv(("row", "sample", "residual"), report.violations),
        pretty=lambda: (
            f"combination identity: {'PASS' if report.passed else 'FAIL'}"
            f" (m = {args.m}, samples: {', '.join(str(s) for s in report.samples)})\n"
            f"polynomial forms: {'PASS' if forms_ok else 'FAIL'}\n"
        ),
        failure=failure,
    )


def cmd_eta(args: SimpleNamespace) -> _Result:
    etas = eta_cross_check(args.max_m)  # raises unless the three routes agree on every m
    rows = [{"m": m, "eta": eta} for m, eta in enumerate(etas)]
    return _Result(
        json=lambda: rows,
        csv=lambda: _records_csv(("m", "eta"), rows),
        pretty=lambda: "".join(f"eta({-m}) = {eta}\n" for m, eta in enumerate(etas)),
    )


def cmd_conjecture(args: SimpleNamespace) -> _Result:
    finding = scan_sign_pattern(args.max_m)
    header = (
        f"sign pattern scan to m = {finding.max_m}:"
        f" {finding.checked} entries checked, {len(finding.violations)} violations\n"
    )
    line = "({0.i}, {0.j}) = {0.value}, expected {0.expected.value}".format
    return _Result(
        json=lambda: finding,
        csv=lambda: _records_csv(("i", "j", "value", "expected"), finding.violations),
        pretty=lambda: header + "".join(f"  {line(v)}\n" for v in finding.violations),
        failure=f"sign violation: {line(finding.violations[0])}" if finding.violations else None,
    )


def cmd_matrices(args: SimpleNamespace) -> _Result:
    a, b = zeta_diff_coeffs(args.m, Basis.MONOMIAL), hyper_poly_coeffs(args.m, Basis.MONOMIAL)
    b_inv, b_sh = invert_substitution(b), hyper_poly_coeffs(args.m, Basis.SHIFTED)
    suite = {
        "A": a,
        "B": b,
        "B_inv": b_inv,
        "A_shifted": zeta_diff_coeffs(args.m, Basis.SHIFTED),
        "B_shifted": b_sh,
        "B_shifted_inv": invert_series(b_sh),
        "product": mat_mul(a, b_inv),  # the paper's construction, from the A and B_inv printed
    }
    return _Result(
        json=lambda: {"m": args.m, **suite},
        csv=lambda: "\n".join(f"{name}\n{_csv_grid(matrix)}" for name, matrix in suite.items()),
        pretty=lambda: "\n".join(
            f"{name} (m = {args.m})\n{_grid(matrix)}" for name, matrix in suite.items()
        ),
    )


def _json_text(value) -> str:
    import json

    return json.dumps(_document(value), indent=2) + "\n"


def _note(*lines: str) -> None:
    """Write each line to stderr and flush it (no line: only flush); drop them, as argparse
    does its own, if stderr is None (fd 2 closed at start-up) or raises OSError."""
    try:
        sys.stderr.writelines(f"{line}\n" for line in lines)
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def _write(text: str) -> None:
    if sys.stdout is None:  # fd 1 was closed at start-up
        raise _UnwritableOutputError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the one place a stdout failure is named; the interpreter flushes stdout again at
        # exit, so devnull takes what is left and the error line stays the only diagnostic
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _UnwritableOutputError(f"cannot write stdout: {exc.strerror}") from exc


# the size flags several commands share, each as (flag, argparse keywords)
_M = ("--m", {"type": int, "required": True, "dest": "m"})
_MAX = ("--max", {"type": int, "required": True, "dest": "max_m"})

# command -> (its help line, the function that computes its result, its own
# flags as (flag, argparse keywords) pairs), in usage order; every command
# takes the _SHARED_FLAGS after its own. Each command has exactly one required
# flag, its size, which states its dest; every other flag states its default.
_COMMANDS = {
    "coeffs": ("combination matrix for a given m", cmd_coeffs, (
        _M,
        ("--check-all-routes", {"action": "store_true", "default": False}),
    )),
    "verify": ("check the combination identity at sample points", cmd_verify, (_M,)),
    "eta": ("eta(-m) by three routes, cross-checked", cmd_eta, (_MAX,)),
    "conjecture": ("scan the below-diagonal sign pattern", cmd_conjecture, (_MAX,)),
    "matrices": ("all coefficient matrices and inverses", cmd_matrices, (_M,)),
}
_SHARED_FLAGS = (
    ("--format", {"choices": ("pretty", "json", "csv"), "default": "pretty"}),
    ("--cap", {"type": int, "default": DEFAULT_M_CAP}),
)


def build_parser():
    """The one argparse parser of every argv, with a subparser per command of ``_COMMANDS``;
    each formats help and usage at 78 columns (what COLUMNS=80 gives), whatever the terminal."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_usage(self, file=None):  # a usage error passes sys.stderr, None if fd 2 is closed
            if file is not None:  # else argparse would print the usage line to stdout
                super().print_usage(file)

        def print_help(self, file=None):  # -h and --help: written as a result is, or exit 2
            try:
                _write(self.format_help())
            except _UnwritableOutputError as exc:
                _note(f"zetacomb: error: {exc}")
                self.exit(EXIT_USAGE)

    parser = _Parser(
        prog="zetacomb",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
        description="Exact matrices linking Hurwitz zeta differences to "
        "terminating hypergeometric polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, compute, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line, formatter_class=parser.formatter_class)
        for flag, keywords in (*flags, *_SHARED_FLAGS):
            p.add_argument(flag, **keywords)
        p.set_defaults(run=compute)
    return parser


def _validate(args: SimpleNamespace) -> str | None:
    """The usage error of the first size rule ``args`` breaks, or None: the
    size, the command's one required flag in ``_COMMANDS``, and --cap are
    >= 0, and the size is <= --cap."""
    flag, keywords = next(pair for pair in _COMMANDS[args.command][2] if pair[1].get("required"))
    size = getattr(args, keywords["dest"])
    if size < 0:
        return f"{flag} must be >= 0"
    if args.cap < 0:
        return "--cap must be >= 0"
    if size > args.cap:
        return f"m = {size} exceeds the cap {args.cap} (raise with --cap)"
    return None


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse and ``_validate`` give a plain ``argv``; None for any other.

    Plain is a command of ``_COMMANDS``, then each of its own and the shared
    flags at most once, a switch alone and any other flag as ``--flag value``:
    no value starts with "-", each passes its flag's type and choices, every
    required flag is given and no size rule is broken. So ``--m=5``, ``--form``,
    a repeated flag, ``--``, ``-h`` and every error are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, compute, own = _COMMANDS[argv[0]]
    flags = dict((*own, *_SHARED_FLAGS))
    given = {}
    words = iter(argv[1:])
    for word in words:  # a value missing at the end reads as "-", so it defers too
        if word not in flags or word in given:
            return None
        given[word] = True if flags[word].get("action") == "store_true" else next(words, "-")
    values = {}
    for flag, keywords in flags.items():
        text = given.get(flag)
        if text is None:  # a required flag defers to argparse; any other takes its default
            if keywords.get("required"):
                return None
            value = keywords["default"]
        elif text is True:
            value = True
        elif text.startswith("-"):
            return None
        else:
            try:
                value = keywords.get("type", str)(text)
            except ValueError:  # not an int, or past the int/str digit limit
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[keywords.get("dest", flag[2:].replace("-", "_"))] = value
    args = SimpleNamespace(command=argv[0], run=compute, **values)
    return None if _validate(args) else args


def main(argv: list[str] | None = None) -> int:
    """Run one request; return its exit code, or raise SystemExit (a usage error, --help).

    Freezes nothing, so library callers and tests may call it in a
    long-lived process; ``run`` is the program entry.
    """
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_parser()
        args = SimpleNamespace(**vars(parser.parse_args(argv)))
        error = _validate(args)
        if error is not None:
            parser.error(error)
    # Results are exact integers of any size (coeffs entries pass 4,300 digits
    # at a --cap well above 1,000), so Python's int/str digit limit is lifted
    # while the command runs; it still holds while the flags are parsed.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        result = args.run(args)
        view = getattr(result, args.format)()
        _write(_json_text(view) if args.format == "json" else view)
        if result.failure is not None:
            raise _CheckFailed(result.failure)
        return EXIT_OK
    except (_CheckFailed, RouteDisagreementError) as exc:
        _note(str(exc))
        return EXIT_CHECK_FAILED
    except _UnwritableOutputError as exc:
        _note(f"zetacomb: error: {exc}")
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


def run():
    """The program entry: run ``main`` on ``sys.argv`` and end the process with its code.

    An exception that escapes ``main`` prints its traceback to stderr (dropped
    if stderr is closed or cannot be written) and exits 3. On every path, argparse's
    SystemExit included, the atexit handlers run, stdout and stderr are flushed,
    dropping what either cannot take, and ``os._exit`` skips the interpreter's teardown.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: help exits 0, a usage error 2
        code = exc.code
    except Exception:
        import traceback

        _note(traceback.format_exc().rstrip("\n"))
        code = EXIT_CRASH
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()  # whatever an exit handler left in stdout's buffer
    except (AttributeError, OSError):
        pass
    _note()  # whatever argparse or an exit handler left in stderr's buffer
    os._exit(code)


if __name__ == "__main__":
    run()
