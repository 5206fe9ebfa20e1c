"""Command-line surface. All configuration is by flags; output is deterministic.

Exit codes: 0 success, 1 mathematical-check failure, 2 usage error.
Results go to stdout (or --out); diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from .combinat import bernoulli_number, stirling1, stirling2
from .etacheck import RouteDisagreementError, eta_cross_check, to_json_rows
from .numcore import Basis, parse_rational
from .trimat import LowerTriMatrix, invert_series, invert_substitution
from .zetadiff import (
    DEFAULT_SAMPLES,
    Route,
    combination_matrix,
    hyper_poly_coeffs,
    scan_sign_pattern,
    verify_combination,
    verify_polynomial_forms,
    zeta_diff_coeffs,
)

__all__ = ["CliConfig", "main"]

DEFAULT_M_CAP = 64

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclasses.dataclass(frozen=True)
class CliConfig:
    command: str
    m: int | None = None
    max_m: int | None = None
    route: Route = Route.MONOMIAL
    samples: tuple[Fraction, ...] = DEFAULT_SAMPLES
    fmt: str = "pretty"
    out: Path | None = None
    check_all_routes: bool = False
    fixtures_dir: Path | None = None
    cap: int = DEFAULT_M_CAP
    n: int | None = None
    k: int | None = None
    kind: str | None = None


def _grid(matrix: LowerTriMatrix) -> str:
    # full square, right-aligned columns
    cells = [
        [str(matrix.get(i, j)) for j in range(matrix.dim)] for i in range(matrix.dim)
    ]
    widths = [max(len(row[j]) for row in cells) for j in range(matrix.dim)]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join(lines) + "\n"


class _UnwritableOutputError(Exception):
    """An --out or --fixtures path could not be written; a usage error."""


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _UnwritableOutputError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(cfg: CliConfig, text: str) -> None:
    if cfg.out is not None:
        _write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_coeffs(cfg: CliConfig) -> int:
    report = combination_matrix(cfg.m, cfg.route)
    if cfg.check_all_routes:
        others = [combination_matrix(cfg.m, r) for r in Route]
        if any(o.matrix != report.matrix for o in others):
            print(f"route disagreement at m={cfg.m}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("4 routes agree", file=sys.stderr)
    if cfg.fmt == "json":
        text = _json_text(report.to_json_dict())
    elif cfg.fmt == "csv":
        text = report.matrix.to_csv()
    else:
        header = f"combination matrix, m = {cfg.m}, route = {cfg.route.value}\n"
        text = header + _grid(report.matrix)
    _emit(cfg, text)
    return EXIT_OK


def cmd_verify(cfg: CliConfig) -> int:
    report = verify_combination(cfg.m, cfg.samples)
    forms_ok = verify_polynomial_forms(cfg.m)
    if cfg.fmt == "json":
        payload = report.to_json_dict()
        payload["polynomial_forms_pass"] = forms_ok
        text = _json_text(payload)
    elif cfg.fmt == "csv":
        lines = ["row,sample,residual"]
        lines += [f"{v.row},{v.sample},{v.residual}" for v in report.violations]
        text = "\n".join(lines) + "\n"
    else:
        samples = ", ".join(str(s) for s in report.samples)
        text = (
            f"combination identity: {'PASS' if report.passed else 'FAIL'}"
            f" (m = {cfg.m}, samples: {samples})\n"
            f"polynomial forms: {'PASS' if forms_ok else 'FAIL'}\n"
        )
    _emit(cfg, text)
    if not report.passed:
        first = report.violations[0]
        print(
            f"violation: row {first.row}, sample {first.sample}, residual {first.residual}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    if not forms_ok:
        print(f"polynomial forms check failed at m={cfg.m}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_eta(cfg: CliConfig) -> int:
    try:
        triples = eta_cross_check(cfg.max_m)
    except RouteDisagreementError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CHECK_FAILED
    if cfg.fmt == "json":
        text = _json_text(to_json_rows(triples))
    elif cfg.fmt == "csv":
        lines = ["m,eta,routes_agree"]
        lines += [f"{t.m},{t.via_zeta},{str(t.routes_agree).lower()}" for t in triples]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(f"eta({-t.m}) = {t.via_zeta}\n" for t in triples)
    _emit(cfg, text)
    return EXIT_OK


def cmd_conjecture(cfg: CliConfig) -> int:
    finding = scan_sign_pattern(cfg.max_m)
    if cfg.fmt == "json":
        text = _json_text(finding.to_json_dict())
    elif cfg.fmt == "csv":
        lines = ["i,j,value,expected"]
        lines += [f"{v.i},{v.j},{v.value},{v.expected.value}" for v in finding.violations]
        text = "\n".join(lines) + "\n"
    else:
        text = (
            f"sign pattern scan to m = {finding.max_m}:"
            f" {finding.checked} entries checked, {len(finding.violations)} violations\n"
        )
        for v in finding.violations:
            text += f"  ({v.i}, {v.j}) = {v.value}, expected {v.expected.value}\n"
    _emit(cfg, text)
    return EXIT_OK


def cmd_bernoulli(cfg: CliConfig) -> int:
    value = bernoulli_number(cfg.n)
    if cfg.fmt == "json":
        text = _json_text({"n": cfg.n, "value": str(value)})
    elif cfg.fmt == "csv":
        text = f"n,value\n{cfg.n},{value}\n"
    else:
        text = f"B({cfg.n}) = {value}\n"
    _emit(cfg, text)
    return EXIT_OK


def cmd_stirling(cfg: CliConfig) -> int:
    fn = stirling1 if cfg.kind == "first" else stirling2
    value = fn(cfg.n, cfg.k)
    if cfg.fmt == "json":
        text = _json_text({"kind": cfg.kind, "n": cfg.n, "k": cfg.k, "value": value})
    elif cfg.fmt == "csv":
        text = f"kind,n,k,value\n{cfg.kind},{cfg.n},{cfg.k},{value}\n"
    else:
        symbol = "s" if cfg.kind == "first" else "S"
        text = f"{symbol}({cfg.n}, {cfg.k}) = {value}\n"
    _emit(cfg, text)
    return EXIT_OK


def _matrix_suite(m: int) -> dict[str, LowerTriMatrix]:
    a = zeta_diff_coeffs(m, Basis.MONOMIAL)
    b = hyper_poly_coeffs(m, Basis.MONOMIAL)
    a_sh = zeta_diff_coeffs(m, Basis.SHIFTED)
    b_sh = hyper_poly_coeffs(m, Basis.SHIFTED)
    return {
        "A": a,
        "B": b,
        "B_inv": invert_substitution(b),
        "A_shifted": a_sh,
        "B_shifted": b_sh,
        "B_shifted_inv": invert_series(b_sh),
        "product": combination_matrix(m).matrix,
    }


def cmd_matrices(cfg: CliConfig) -> int:
    suite = _matrix_suite(cfg.m)
    if cfg.fixtures_dir is not None:
        try:
            cfg.fixtures_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UnwritableOutputError(f"cannot create {cfg.fixtures_dir}: {exc.strerror}") from exc
        for name, matrix in suite.items():
            _write(cfg.fixtures_dir / f"{name}.json", _json_text(matrix.to_json_dict()))
        print(f"wrote {len(suite)} fixture files to {cfg.fixtures_dir}", file=sys.stderr)
        return EXIT_OK
    if cfg.fmt == "json":
        payload: dict = {"m": cfg.m}
        payload.update({name: matrix.to_json_dict() for name, matrix in suite.items()})
        text = _json_text(payload)
    elif cfg.fmt == "csv":
        text = "\n".join(f"{name}\n{matrix.to_csv()}" for name, matrix in suite.items())
    else:
        text = "\n".join(
            f"{name} (m = {cfg.m})\n{_grid(matrix)}" for name, matrix in suite.items()
        )
    _emit(cfg, text)
    return EXIT_OK


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "verify": cmd_verify,
    "eta": cmd_eta,
    "conjecture": cmd_conjecture,
    "bernoulli": cmd_bernoulli,
    "stirling": cmd_stirling,
    "matrices": cmd_matrices,
}


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    sub.add_argument("--out", type=Path, default=None)


def _add_cap_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cap", type=int, default=DEFAULT_M_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacomb",
        description="Exact matrices linking Hurwitz zeta differences to "
        "terminating hypergeometric polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="combination matrix for a given m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--route", choices=[r.value for r in Route], default=Route.MONOMIAL.value
    )
    p.add_argument("--check-all-routes", action="store_true")
    _add_output_flags(p)
    _add_cap_flag(p)

    p = sub.add_parser("verify", help="check the combination identity at sample points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--samples",
        default="0,1/2,1,2,7/3",
        help="comma-separated rationals; a list that starts with '-' must be "
        "joined to the flag with '=', as in --samples=-1/2,7/3",
    )
    _add_output_flags(p)
    _add_cap_flag(p)

    p = sub.add_parser("eta", help="eta(-m) by three routes, cross-checked")
    p.add_argument("--max", type=int, required=True, dest="max_m")
    _add_output_flags(p)
    _add_cap_flag(p)

    p = sub.add_parser("conjecture", help="scan the below-diagonal sign pattern")
    p.add_argument("--max", type=int, required=True, dest="max_m")
    _add_output_flags(p)
    _add_cap_flag(p)

    p = sub.add_parser("bernoulli", help="a single Bernoulli number")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("stirling", help="a single Stirling number")
    p.add_argument("--kind", choices=("first", "second"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("matrices", help="all coefficient matrices and inverses")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--fixtures",
        type=Path,
        default=None,
        dest="fixtures_dir",
        help="write one JSON file per matrix into this directory",
    )
    _add_output_flags(p)
    _add_cap_flag(p)

    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> CliConfig:
    samples: tuple[Fraction, ...] = DEFAULT_SAMPLES
    if getattr(args, "samples", None) is not None:
        try:
            samples = tuple(parse_rational(part) for part in args.samples.split(","))
        except ValueError:
            parser.error(f"--samples must be comma-separated rationals, got {args.samples!r}")
    cap = getattr(args, "cap", DEFAULT_M_CAP)
    for name in ("m", "max_m"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if value < 0:
            parser.error(f"--{name.replace('_m', '')} must be >= 0")
        if value > cap:
            parser.error(f"m = {value} exceeds the cap {cap} (raise with --cap)")
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        parser.error("--n must be >= 0")
    return CliConfig(
        command=args.command,
        m=getattr(args, "m", None),
        max_m=getattr(args, "max_m", None),
        route=Route(getattr(args, "route", Route.MONOMIAL.value)),
        samples=samples,
        fmt=args.format,
        out=args.out,
        check_all_routes=getattr(args, "check_all_routes", False),
        fixtures_dir=getattr(args, "fixtures_dir", None),
        cap=cap,
        n=n,
        k=getattr(args, "k", None),
        kind=getattr(args, "kind", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(parser, args)
    try:
        return _COMMANDS[cfg.command](cfg)
    except _UnwritableOutputError as exc:
        print(f"zetacomb: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
