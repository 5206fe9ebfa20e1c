"""The package namespace: ``from zetacomb import X`` and what each import loads.

``import zetacomb`` loads no module of the package; a name loads its home
module on first use. ``import zetacomb.cli`` loads all five homes, which
``perfbench/tracing.install`` relies on. The load-set tests run in fresh
interpreters, because this process has long since imported everything.
``zetacomb._EXPORTS`` is the one list of public names: each home's
``__all__`` is its entry, and the entry lists every public name the home
defines. Every public function that takes a size reads it by one rule: it
is made an ``int`` (``True`` is 1, ``2.0`` a ``TypeError``) and a negative
one is refused before any other argument is read; the k of ``stirling1``
and ``stirling2`` is made an ``int`` the same way. A point is read exactly
by ``Fraction``, and a binary ``float`` point is a ``TypeError``. A basis
is read by its enum, so its string value works too. README's Library
example runs as a doctest, and each command of its command-line session
prints what the session shows. The docstring examples of every module of
the imported package run as doctests, and no module imports a name that
none of its statements reads. ``pyproject.toml`` asks for Python 3.11 or
later and installs the ``zetacomb`` script as ``zetacomb.cli:run``.
"""
from __future__ import annotations

import ast
import doctest
import importlib
import json
import pkgutil
import shlex
import tomllib
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import child
import zetacomb
from zetacomb import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
HOMES = ("numcore", "combinat", "trimat", "zetadiff", "etacheck")
EXPORTS = """
    Basis Poly
    bernoulli_number bernoulli_poly stirling1 stirling2
    LowerTriMatrix DimensionMismatchError SingularDiagonalError mat_mul invert_substitution invert_series
    CoeffReport SignPatternFinding SignViolation ExpectedSign CombinationViolation VerificationReport
    DEFAULT_SAMPLES zeta_diff hyper_poly zeta_diff_coeffs hyper_poly_coeffs combination_matrix paper_matrices
    verify_combination verify_polynomial_forms scan_sign_pattern compare_stirling2_matrix
    RouteDisagreementError eta_via_zeta eta_via_coeff_row eta_via_stirling2 eta_cross_check
""".split()


def loaded_after(code: str) -> list[str]:
    """The zetacomb.* modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('zetacomb.')))"
    proc = child.run("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_all_keeps_its_names_and_order():
    assert zetacomb.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_of_its_home(name):
    homes = [importlib.import_module(f"zetacomb.{home}") for home in HOMES]
    owners = [home for home in homes if name in home.__all__]
    assert len(owners) == 1
    assert getattr(zetacomb, name) is getattr(owners[0], name)


def public_names_defined_in(module) -> set[str]:
    """The top-level names the module's source defines without a leading underscore;
    names it imports do not count."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def unused_imports(module) -> list[str]:
    """The names the module's imports bind that none of its statements reads;
    ``from __future__`` imports bind nothing that is read."""
    tree = ast.parse(Path(module.__file__).read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


# the package itself and each module in it, as imported: src/ or the installed copy
MODULES = ["zetacomb", *(f"zetacomb.{info.name}" for info in pkgutil.iter_modules(zetacomb.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_reads(name):
    assert unused_imports(importlib.import_module(name)) == []


@pytest.mark.parametrize("home", HOMES)
def test_each_home_exports_its_table_entry(home):
    module = importlib.import_module(f"zetacomb.{home}")
    assert module.__all__ is zetacomb._EXPORTS[home]


@pytest.mark.parametrize("home", HOMES)
def test_the_table_lists_every_public_name_a_home_defines(home):
    module = importlib.import_module(f"zetacomb.{home}")
    entry = zetacomb._EXPORTS[home]
    assert len(set(entry)) == len(entry)
    assert set(entry) == public_names_defined_in(module)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from zetacomb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(zetacomb.__all__)


def test_dir_lists_the_exports_and_the_homes():
    listed = dir(zetacomb)
    assert set(zetacomb.__all__) <= set(listed)
    assert set(HOMES) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'zetacomb' has no attribute 'x'$"):
        zetacomb.x
    assert not hasattr(zetacomb, "format_rational")


# every public function that takes a size (m, max_m or n), called at -1, and the
# size it must name: the paper's identity holds for m in N_0
NEGATIVE_SIZE_CALLS = [
    ("bernoulli_number", (-1,), "n"),
    ("bernoulli_poly", (-1, 0), "n"),
    ("stirling1", (-1, 0), "n"),
    ("stirling2", (-1, 0), "n"),
    ("zeta_diff", (-1, 0), "m"),
    ("hyper_poly", (-1, 0), "m"),
    ("zeta_diff_coeffs", (-1,), "m"),
    ("hyper_poly_coeffs", (-1,), "m"),
    ("combination_matrix", (-1,), "m"),
    ("paper_matrices", (-1,), "m"),
    ("verify_combination", (-1,), "m"),
    ("verify_polynomial_forms", (-1,), "m"),
    ("scan_sign_pattern", (-1,), "max_m"),
    ("compare_stirling2_matrix", (-1,), "m"),
    ("eta_via_zeta", (-1,), "m"),
    ("eta_via_coeff_row", (-1,), "m"),
    ("eta_via_stirling2", (-1,), "m"),
    ("eta_cross_check", (-1,), "max_m"),
]


@pytest.mark.parametrize("name, args, size", NEGATIVE_SIZE_CALLS, ids=[c[0] for c in NEGATIVE_SIZE_CALLS])
def test_a_negative_size_is_a_value_error(name, args, size):
    with pytest.raises(ValueError, match=f"^{size} must be >= 0$"):
        getattr(zetacomb, name)(*args)


@pytest.mark.parametrize("name, args, size", NEGATIVE_SIZE_CALLS, ids=[c[0] for c in NEGATIVE_SIZE_CALLS])
def test_a_float_size_is_a_type_error_after_the_int_has_run(name, args, size):
    function = getattr(zetacomb, name)
    function(2, *args[1:])  # fills whatever table or cache the size 2 reads
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        function(2.0, *args[1:])


@pytest.mark.parametrize("name", ["stirling1", "stirling2"])
def test_a_float_k_is_a_type_error_and_true_is_1(name):
    function = getattr(zetacomb, name)
    assert function(3, True) == function(3, 1)
    for k in (2.0, 5.0):  # inside and outside 0 <= k <= n
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            function(3, k)


# each function that takes a point, with the point as its last argument
POINT_CALLS = {
    "zeta_diff": lambda x: zetacomb.zeta_diff(3, x),
    "hyper_poly": lambda x: zetacomb.hyper_poly(3, x),
    "bernoulli_poly": lambda x: zetacomb.bernoulli_poly(3, x),
    "Poly.eval": lambda x: zetacomb.Poly((1, 2)).eval(x),
}


@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS)
@pytest.mark.parametrize("point", [0.1, 0.5, 2.0], ids=repr)  # 0.5 and 2.0 are exact in binary
def test_a_float_point_is_a_type_error(call, point):
    with pytest.raises(TypeError, match=f"^a point must be exact, not float: {point!r}$"):
        call(point)


@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS)
def test_an_exact_point_is_read_by_fraction(call):
    tenth = call(Fraction(1, 10))
    assert call(Decimal("0.1")) == call("1/10") == call("0.1") == tenth
    assert call(2) == call(Fraction(2)) == call(Decimal(2)) == call("2")


def _m1_matrix():
    return zetacomb.combination_matrix(1).matrix


# results that carry the size they were given; for True each must carry the int 1,
# which JSON prints as 1, not as true
TRUE_SIZE_CALLS = {
    "verify_combination": lambda m: zetacomb.verify_combination(m),
    "scan_sign_pattern": lambda m: zetacomb.scan_sign_pattern(m),
    "CoeffReport": lambda m: zetacomb.CoeffReport(m, _m1_matrix()),
}


@pytest.mark.parametrize("call", TRUE_SIZE_CALLS.values(), ids=TRUE_SIZE_CALLS)
def test_a_size_of_true_is_the_int_1(call):
    result = call(True)
    assert result == call(1)
    assert json.dumps(cli._document(result)) == json.dumps(cli._document(call(1)))


@pytest.mark.parametrize("build", ["zeta_diff_coeffs", "hyper_poly_coeffs"])
@pytest.mark.parametrize("basis", list(zetacomb.Basis), ids=lambda basis: basis.value)
def test_a_coefficient_table_reads_its_basis_by_value(build, basis):
    build = getattr(zetacomb, build)
    assert build(6, basis.value) == build(6, basis)


@pytest.mark.parametrize("build", ["zeta_diff_coeffs", "hyper_poly_coeffs"])
def test_a_coefficient_table_rejects_an_unknown_basis(build):
    with pytest.raises(ValueError, match="'bogus' is not a valid Basis"):
        getattr(zetacomb, build)(6, "bogus")


def test_a_poly_reads_its_basis_by_value():
    assert zetacomb.Poly((1, 2), "shifted") == zetacomb.Poly((1, 2), zetacomb.Basis.SHIFTED)
    assert zetacomb.Poly((1, 2), "shifted").eval(0) == 3
    # x = (x + 1) - 1, so x is (-1, 1) in powers of x + 1
    assert zetacomb.Poly((0, 1)).rebase("shifted") == zetacomb.Poly((-1, 1), zetacomb.Basis.SHIFTED)
    with pytest.raises(ValueError, match="'bogus' is not a valid Basis"):
        zetacomb.Poly((1, 2), "bogus")
    with pytest.raises(ValueError, match="'bogus' is not a valid Basis"):
        zetacomb.Poly((1, 2)).rebase("bogus")


def test_a_matrix_dim_is_an_int():
    dim = zetacomb.LowerTriMatrix(True, [1]).dim
    assert type(dim) is int and dim == 1
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        zetacomb.LowerTriMatrix(2.0, [1, 2, 3])


def test_cache_controls_work_through_the_package():
    zetacomb.combination_matrix.cache_clear()
    first = zetacomb.combination_matrix(3)
    assert zetacomb.combination_matrix(3) is first
    info = zetacomb.combination_matrix.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    zetacomb.combination_matrix.cache_clear()
    assert zetacomb.combination_matrix.cache_info().currsize == 0


def test_bare_import_loads_no_module_of_the_package():
    assert loaded_after("import zetacomb") == []


def test_a_home_resolves_after_a_bare_import():
    code = "import zetacomb\nassert zetacomb.trimat.LowerTriMatrix is zetacomb.LowerTriMatrix"
    assert loaded_after(code) == ["zetacomb.numcore", "zetacomb.trimat"]


def test_a_name_loads_its_home_only():
    # combinat reads its points and scales its Bernoulli rows through numcore
    assert loaded_after("from zetacomb import bernoulli_number") == ["zetacomb.combinat", "zetacomb.numcore"]


def test_cli_import_loads_every_home():
    missing = set(f"zetacomb.{home}" for home in HOMES) - set(loaded_after("import zetacomb.cli"))
    assert not missing, (
        f"import zetacomb.cli no longer loads {sorted(missing)}: perfbench/tracing.install "
        "imports zetacomb.cli and then reads sys.modules for every home module"
    )


def test_pyproject_pins_the_python_floor_and_the_script_entry():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">=3.11"
    assert project["scripts"]["zetacomb"] == "zetacomb.cli:run"  # what CI's installed-script steps run


def test_readme_library_example_holds():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_the_docstring_examples_of_every_module_hold():
    # the package itself and each module in it, as imported: src/ or the installed copy
    names = ["zetacomb", *(f"zetacomb.{info.name}" for info in pkgutil.iter_modules(zetacomb.__path__))]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert sum(r.attempted for r in results.values()) > 0
    assert [name for name, r in results.items() if r.failed] == []


def _readme_session() -> dict[str, str]:
    """Each ``$`` line of README's command-line session, mapped to the output shown under it."""
    block = README.read_text().split("## Command line\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = [example.partition("\n") for example in block.split("$ ")[1:]]
    return {command: shown.rstrip("\n") + "\n" for command, _, shown in examples}


SESSION = _readme_session()


@pytest.mark.parametrize("command", SESSION)
def test_readme_command_line_session_holds(command, capsys):
    line, _, tail = command.partition(" | tail -")
    program, *argv = shlex.split(line)
    assert program == "zetacomb"
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "".join(out.splitlines(keepends=True)[-int(tail or 0):]) == SESSION[command]  # [-0:] keeps all
