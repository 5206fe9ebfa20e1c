"""CLI behavior, tested in-process through main(argv) for speed.

One subprocess smoke test at the end proves the installed entry point works;
everything else captures stdout/stderr with capsys.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import _tables_m9 as tables
from zetacomb.cli import main
from zetacomb.trimat import LowerTriMatrix


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
    assert out.splitlines() == ["combination matrix, m = 0, route = monomial", "1/2"]


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
    assert doc["m"] == 9
    assert doc["route"] == "monomial"
    assert LowerTriMatrix.from_json_dict(doc["matrix"]) == tables.matrix(tables.PRODUCT10)


def test_coeffs_route_flag(capsys):
    base = run(["coeffs", "--m", "6", "--format", "csv"], capsys)[1]
    for route in ("shifted", "monomial-series", "shifted-series"):
        code, out, _ = run(["coeffs", "--m", "6", "--route", route, "--format", "csv"], capsys)
        assert code == 0
        assert out == base


def test_coeffs_check_all_routes(capsys):
    code, out, err = run(["coeffs", "--m", "9", "--check-all-routes"], capsys)
    assert code == 0
    assert "4 routes agree" in err
    assert "4 routes agree" not in out  # diagnostics stay on stderr


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


def test_verify_custom_samples(capsys):
    code, out, _ = run(["verify", "--m", "9", "--samples", "0,1,2"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "samples: 0, 1, 2" in out


def test_verify_negative_samples_joined_with_equals(capsys):
    code, out, _ = run(["verify", "--m", "2", "--samples=-1/2,7/3"], capsys)
    assert code == 0
    assert "combination identity: PASS (m = 2, samples: -1/2, 7/3)" in out


def test_verify_m0_single_sample(capsys):
    code, _, _ = run(["verify", "--m", "0", "--samples", "5"], capsys)
    assert code == 0


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
    assert all(r["routes_agree"] for r in rows)


def test_eta_csv(capsys):
    code, out, _ = run(["eta", "--max", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["m,eta,routes_agree", "0,1/2,true", "1,1/4,true", "2,0,true"]


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


# --- bernoulli / stirling ---------------------------------------------------------


def test_bernoulli(capsys):
    code, out, _ = run(["bernoulli", "--n", "12"], capsys)
    assert code == 0
    assert out == "B(12) = -691/2730\n"


def test_stirling_first(capsys):
    code, out, _ = run(["stirling", "--kind", "first", "--n", "3", "--k", "1"], capsys)
    assert code == 0
    assert out == "s(3, 1) = 2\n"


def test_stirling_second(capsys):
    code, out, _ = run(["stirling", "--kind", "second", "--n", "4", "--k", "2"], capsys)
    assert code == 0
    assert out == "S(4, 2) = 7\n"


def test_stirling_large_n_does_not_recurse(capsys):
    # S(n, 3) = (3^n - 3 * 2^n + 3) / 6; n is beyond the default recursion limit
    code, out, _ = run(["stirling", "--kind", "second", "--n", "1500", "--k", "3"], capsys)
    assert code == 0
    assert out == f"S(1500, 3) = {(3**1500 - 3 * 2**1500 + 3) // 6}\n"


# --- matrices ----------------------------------------------------------------------


def test_matrices_json_inverse_row_pinned(capsys):
    code, out, _ = run(["matrices", "--m", "9", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["B_inv"]["rows"][3] == ["1/4", "-1/4", "-3/8", "1/8"]
    assert set(doc) == {"m", "A", "B", "B_inv", "A_shifted", "B_shifted", "B_shifted_inv", "product"}


def test_matrices_fixture_dump(tmp_path, capsys):
    code, out, err = run(["matrices", "--m", "9", "--fixtures", str(tmp_path)], capsys)
    assert code == 0
    assert out == ""
    assert "7 fixture files" in err
    expected = {
        "A.json": tables.A10,
        "B.json": tables.B10,
        "B_inv.json": tables.B10_INV,
        "A_shifted.json": tables.A10_SHIFTED,
        "B_shifted.json": tables.B10_SHIFTED,
        "B_shifted_inv.json": tables.B10_SHIFTED_INV,
        "product.json": tables.PRODUCT10,
    }
    assert {p.name for p in tmp_path.iterdir()} == set(expected)
    for name, table in expected.items():
        doc = json.loads((tmp_path / name).read_text())
        assert LowerTriMatrix.from_json_dict(doc) == tables.matrix(table), name


# --- flags, exit codes, determinism ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs"],  # missing required --m
        ["coeffs", "--m", "1", "--bogus"],  # unknown flag
        ["coeffs", "--m", "-1"],  # negative m
        ["coeffs", "--m", "100"],  # over the default cap
        ["verify", "--m", "1", "--samples", "a,b"],  # unparseable rationals
        ["verify", "--m", "1", "--samples", "1/0"],  # zero denominator
        ["nonsense"],  # unknown command
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_cap_can_be_raised(capsys):
    code, _, _ = run(["coeffs", "--m", "70", "--cap", "70", "--format", "csv"], capsys)
    assert code == 0


def test_determinism(capsys):
    first = run(["matrices", "--m", "7", "--format", "json"], capsys)
    second = run(["matrices", "--m", "7", "--format", "json"], capsys)
    assert first == second


def test_out_flag_matches_stdout(tmp_path, capsys):
    _, streamed, _ = run(["eta", "--max", "9", "--format", "json"], capsys)
    target = tmp_path / "eta.json"
    code, out, _ = run(["eta", "--max", "9", "--format", "json", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == streamed


@pytest.mark.parametrize("flag", ["--out", "--fixtures"])
def test_unwritable_output_exits_2(flag, tmp_path, capsys):
    command = "coeffs" if flag == "--out" else "matrices"
    target = tmp_path / "missing" / "x"
    if flag == "--fixtures":
        (tmp_path / "missing").write_text("a file, not a directory")
    code, out, err = run([command, "--m", "3", flag, str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("zetacomb: error: cannot ")
    assert str(tmp_path / "missing") in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zetacomb", "coeffs", "--m", "0", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/2\n"
