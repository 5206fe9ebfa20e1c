"""Mathematical content of every benchmark request, and its reference value.

A request's output is reduced to a small content dict (matrix entries, PASS
flags, eta values, sign-scan counts), ignoring layout, and compared with
the same dict built from reference.json. Entries compare as rationals.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

_REF = json.loads(Path(__file__).with_name("reference.json").read_text())


def _bits(text: str) -> int:
    q = Fraction(text)
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


_ROW_BITS = [sum(_bits(e) for e in row) for row in _REF["matrix"]]
_ROW_BITS_MAX = [max(_bits(e) for e in row) for row in _REF["matrix"]]
_ETA_BITS = [_bits(e) for e in _REF["eta"]]


# ---- content parsed from CLI stdout -------------------------------------

def _matrix_content(text: str, fmt: str) -> dict:
    if fmt == "json":
        return {"rows": json.loads(text)["matrix"]["rows"]}
    lines = text.splitlines()
    if fmt == "pretty":
        lines = lines[1:]  # "combination matrix, m = ..., route = ..." header
    grid = [line.split(",") if fmt == "csv" else line.split() for line in lines]
    rows = []
    for i, cells in enumerate(grid):
        if len(cells) != len(grid) or any(Fraction(c) != 0 for c in cells[i + 1 :]):
            raise ValueError(f"row {i} is not a lower-triangular grid row")
        rows.append(cells[: i + 1])
    return {"rows": rows}


def _search(pattern: str, text: str) -> re.Match:
    found = re.search(pattern, text)
    if found is None:
        raise ValueError(f"output lacks {pattern!r}")
    return found


def _verify_content(text: str) -> dict:
    ident = _search(r"combination identity: (\w+) \(m = (\d+)", text)
    forms = _search(r"polynomial forms: (\w+)", text)
    return {"m": int(ident[2]), "identity": ident[1], "forms": forms[1]}


def _eta_content(text: str) -> dict:
    pairs = re.findall(r"eta\((-?\d+)\) = (\S+)", text)
    if [-int(k) for k, _ in pairs] != list(range(len(pairs))):
        raise ValueError("eta rows are not m = 0, 1, 2, ...")
    return {"eta": [v for _, v in pairs]}


def _scan_content(text: str) -> dict:
    found = _search(r"scan to m = (\d+): (\d+) entries checked, (\d+) violations", text)
    return {"max_m": int(found[1]), "checked": int(found[2]), "violations": int(found[3])}


def cli_content(command: str, fmt: str, text: str) -> dict:
    """Content of a CLI request's stdout; raises ValueError, KeyError or
    TypeError on output it cannot read."""
    if command in ("coeffs", "coeffs-all"):
        return _matrix_content(text, fmt)
    if command == "verify":
        return _verify_content(text)
    if command == "eta":
        return _eta_content(text)
    if command == "conjecture":
        return _scan_content(text)
    raise ValueError(f"unknown command {command!r}")


# ---- content of a library call's return value ----------------------------

def library_content(function: str, result) -> dict:
    if function == "combination_matrix":
        return {"rows": [[str(e) for e in row] for row in result.matrix.rows()]}
    if function == "eta_via_coeff_row":
        return {"eta": str(result)}
    if function == "scan_sign_pattern":
        return {"max_m": result.max_m, "checked": result.checked, "violations": len(result.violations)}
    if function == "compare_stirling2_matrix":
        return {"first_mismatch": None if result is None else list(result)}
    raise ValueError(f"unknown function {function!r}")


# ---- reference -----------------------------------------------------------

def expected(command: str, n: int) -> dict:
    """Reference content of a CLI command or library function at size n."""
    if command in ("coeffs", "coeffs-all", "combination_matrix"):
        return {"rows": _REF["matrix"][: n + 1]}
    if command == "verify":
        return {"m": n, "identity": "PASS", "forms": "PASS"}
    if command == "eta":
        return {"eta": _REF["eta"][: n + 1]}
    if command == "eta_via_coeff_row":
        return {"eta": _REF["eta"][n]}
    if command in ("conjecture", "scan_sign_pattern"):
        return {"max_m": n, "checked": n * (n + 1) // 2, "violations": _REF["sign_violations"][n]}
    if command == "compare_stirling2_matrix":
        return {"first_mismatch": _REF["stirling2_first_mismatch"][n]}
    raise ValueError(f"unknown command {command!r}")


def _same(a, b) -> bool:
    if isinstance(a, str) and isinstance(b, str):
        return a == b or Fraction(a) == Fraction(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def matches(command: str, n: int, content: dict) -> bool:
    try:
        return _same(content, expected(command, n))
    except (ValueError, ZeroDivisionError):
        return False


def result_bits(command: str, n: int) -> tuple[int, int]:
    """(total, max) bits of numerator plus denominator over the rationals of a
    correct result."""
    if command in ("coeffs", "coeffs-all", "combination_matrix"):
        return sum(_ROW_BITS[: n + 1]), max(_ROW_BITS_MAX[: n + 1])
    if command == "eta":
        return sum(_ETA_BITS[: n + 1]), max(_ETA_BITS[: n + 1])
    if command == "eta_via_coeff_row":
        return _ETA_BITS[n], _ETA_BITS[n]
    return 0, 0
