"""Load-bearing checks are typed raises, so they survive `python -O`, and
the CLI turns a failed one into exit 1; bad arguments raise an InputError,
which it turns into exit 2."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from oddball import bessel, cli, errors, golden, hankel, magnitude, oracles, potential
from oddball.errors import GoldenMismatch, InputError
from oddball.explaurent import ExpLaurent
from oddball.poly import IntPoly, RatFunc

SRC = Path(__file__).resolve().parent.parent / "src" / "oddball"


def test_no_assert_statements_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# The only modules a function may import: each is heavy to load and few
# commands need it, so deferring it keeps it out of every other process's
# start.  The costs are `python -X importtime` on CPython 3.11, 2 vCPUs.
_DEFERRED_IMPORTS = {
    # 1.2-1.4 ms, for SIGKILL; only a table pass that forks helpers, of 2
    # jobs or more and at least `hankel._POOL_MIN_POINTS` points
    "signal",
}


def _imported_names(node) -> list:
    """The modules an import statement names; a relative one by its dots,
    e.g. "." for `from . import potential`."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def test_no_function_local_imports_in_package():
    # a function-local import of a package module, relative or absolute, is
    # how an import cycle hides, and none is on the list; the list only
    # defers a heavy module that few commands use
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_names(node)
        if name not in _DEFERRED_IMPORTS
    ]
    assert found == []


def test_no_package_module_imports_the_oracles():
    # the oracles are the tests' reference routes: a production module that
    # imported them, relative or absolute, would run one as a production path
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "oracles"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "oracles" in {part for name in [getattr(node, "module", None) or "",
                                            *(alias.name for alias in node.names)]
                          for part in name.split(".")}
    ]
    assert found == []


def test_no_module_reads_the_environment():
    # every setting is a command-line argument: the same command prints the
    # same bytes whatever the environment holds
    read = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in read
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and read & {alias.name for alias in node.names}
    ]
    assert found == []


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_import_loads_no_deferred_module(flags):
    # every command starts by importing these; a top-level import of a
    # deferred module (or of dataclasses) would put its cost on all of them
    out = _fresh_python(flags, "import oddball, oddball.cli\n"
                               "print(sorted(m for m in MODULES if m in sys.modules))")
    assert out == "[]"


def test_deferred_imports_run_on_first_use():
    # a two-job pass that forks a helper, the first use of `signal`, started
    # however few the points and however few CPUs this process may use,
    # fills its tables afresh
    out = _fresh_python([], (
        "from oddball import hankel\n"
        "from oddball.hankel import clear_hankel_cache\n"
        "from oddball.magnitude import verify_formula_equality\n"
        "hankel._POOL_MIN_POINTS = 1\n"
        "hankel._usable_cpus = lambda: 2\n"
        "pairs = lambda jobs: [(e.n, e.value) for e in verify_formula_equality(7, jobs).entries]\n"
        "want = pairs(1)\n"
        "clear_hankel_cache()\n"
        "ok = pairs(2) == want\n"
        "print(ok, sorted(m for m in MODULES if m in sys.modules))"))
    assert out == "True ['signal']"


def test_no_package_module_but_the_oracles_imports_mpmath():
    # no production path computes with a float: mpmath serves only the
    # oracles, at top level or in a function
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "oracles"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_names(node)
        if name.split(".")[0] == "mpmath"
    ]
    assert found == []


def test_verify_integral_loads_no_mpmath():
    # the whole default campaign of `python -m oddball verify integral`
    out = _fresh_python([], (
        "import contextlib, io, runpy\n"
        "sys.argv = ['oddball', 'verify', 'integral', '--samples', '60', '--json']\n"
        "with contextlib.redirect_stdout(io.StringIO()) as printed:\n"
        "    try:\n"
        "        runpy.run_module('oddball', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, printed.getvalue().strip(), 'mpmath' in sys.modules)"))
    assert out == '0 {"agree":true,"samples":60} False'


def test_buffered_line_printed_once_by_a_pooled_campaign():
    # stdout, a pipe, is opened block-buffered, whatever PYTHONUNBUFFERED
    # says: the line printed first is still in the buffer when the helper
    # forks, and the caller waits until the helper has computed all its
    # points and left, by os._exit, which flushes nothing
    out = _fresh_python([], (
        "import os\n"
        "sys.stdout = open(sys.stdout.fileno(), 'w', closefd=False)\n"
        "from oddball import hankel\n"
        "from oddball.magnitude import verify_formula_equality\n"
        "hankel._POOL_MIN_POINTS = 1\n"
        "hankel._usable_cpus = lambda: 2\n"
        "parent, real, gate = os.getpid(), hankel._theta_values, list(os.pipe())\n"
        "def theta(x, top):\n"
        "    if os.getpid() == parent and gate[1] is not None:\n"
        "        os.close(gate[1])\n"
        "        gate[1] = None\n"
        "        while os.read(gate[0], 1):\n"
        "            pass\n"
        "    return real(x, top)\n"
        "hankel._theta_values = theta\n"
        "print('printed before the campaign')\n"
        "print(len(verify_formula_equality(9, 2).entries))"))
    assert out == "printed before the campaign\n5"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_deferred_imports_skip_a_small_pass(flags):
    # `verify equality --max 23 --jobs 2`: its 90-point table pass, below
    # `hankel._POOL_MIN_POINTS`, runs in process and loads no deferred
    # module
    out = _fresh_python(flags, (
        "from oddball.magnitude import verify_formula_equality\n"
        "entries = verify_formula_equality(23, 2).entries\n"
        "print(len(entries), sorted(m for m in MODULES if m in sys.modules))"))
    assert out == "12 []"


def _reached_modules(module: str) -> set:
    """`module` and the package modules it reaches through top-level
    relative imports, read from the sources."""
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [alias.name for alias in node.names]
    return reached


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")
                                          if path.stem != "__init__"))
def test_import_loads_only_its_own_modules(module):
    # the package exports nothing, so a module's import loads the package
    # modules it imports and no other
    out = _fresh_python([], f"import oddball.{module}\n"
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'oddball'))")
    assert out == repr(sorted(["oddball", *(f"oddball.{m}" for m in _reached_modules(module))]))


def _fresh_python(flags: list, code: str) -> str:
    """stdout of `code` run by a new interpreter, with `sys` imported and
    MODULES naming the deferred modules and dataclasses."""
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    prelude = f"import sys\nMODULES = {sorted(_DEFERRED_IMPORTS | {'dataclasses'})!r}\n"
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_bare_value_error_raised_in_package():
    # a bad argument raises an InputError; a bare ValueError would leave the
    # CLI unable to tell bad input (exit 2) from an internal fault
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and _raised_name(node) == "ValueError"
    ]
    assert found == []


@pytest.mark.parametrize("name", ["ParseError", "ZeroDenominator", "EvenDimension",
                                  "NonpositiveRadius", "TableTooSmall", "IndexOutOfTriangle"])
def test_bad_argument_errors_are_input_errors(name):
    # IndexOutOfTriangle is raised only by the oracles, which define it
    module = oracles if name == "IndexOutOfTriangle" else errors
    assert issubclass(getattr(module, name), InputError)
    assert issubclass(InputError, ValueError)


def test_at_least_names_the_argument():
    assert errors.at_least("--jobs", 3, 1) == 3
    assert errors.at_least("--jobs", 1, 1) == 1
    with pytest.raises(InputError, match=r"^--jobs must be >= 1, got 0$"):
        errors.at_least("--jobs", 0, 1)


_BAD_LIBRARY_CALLS = {
    "radius-nan": lambda: errors.positive_radius(float("nan")),
    "radius-text": lambda: errors.positive_radius("abc"),
    "radius-inf": lambda: errors.positive_radius(float("inf")),
    "radius-minus-inf": lambda: errors.positive_radius(float("-inf")),
    "radius-none": lambda: errors.positive_radius(None),
    "radius-zero-denominator": lambda: errors.positive_radius("1/0"),
    # a radius is exact: no float, Decimal, bool or decimal-point text
    "radius-float": lambda: errors.positive_radius(0.1),
    "radius-bool": lambda: errors.positive_radius(True),
    "radius-decimal": lambda: errors.positive_radius(Decimal("0.5")),
    "radius-decimal-text": lambda: errors.positive_radius("1.5"),
    "radius-exponent-text": lambda: errors.positive_radius("1e-3"),
    "float-radius-potential": lambda: potential.build_potential(3, 0.5),
    "float-radius-integral": lambda: oracles.quadrature_lemma(0, 0, 1.5),
    "oracle-radius-text": lambda: magnitude.boundary_value_at(3, "abc"),
    "oracle-radius-inf": lambda: magnitude.boundary_value_at(3, float("inf")),
    "float-dimension": lambda: errors.odd_dimension(3.0),
    "float-dimension-route": lambda: magnitude.magnitude_hankel(3.0),
    # each int call first fills the cache that the float call must not hit
    "float-size": lambda: (hankel.hankel_det(2, 0), hankel.hankel_det(2.0, 0)),
    "float-unit-solution": lambda: (hankel.unit_solution(1), hankel.unit_solution(1.0)),
    "float-table-bound": lambda: (bessel.reverse_bessel(3), bessel.reverse_bessel(3.0)),
    "float-bound": lambda: errors.at_least("p", 1.0, 0),
    # a bool is an int to isinstance, but not an argument
    "bool-table-bound": lambda: bessel.reverse_bessel(True),
    "bool-size": lambda: hankel.hankel_det(True, 0),
    "bool-dimension-route": lambda: magnitude.magnitude_hankel(True),
    "zero-jobs": lambda: magnitude.verify_formula_equality(7, jobs=0),
    "bool-jobs": lambda: magnitude.verify_derivative_conjecture(7, jobs=True),
    "laplacian-minus-one": lambda: ExpLaurent({0: 1}).laplacian(-1),
    "laplacian-minus-three": lambda: ExpLaurent({0: 1}).laplacian(-3),
    "laplacian-float-dimension": lambda: ExpLaurent({0: 1}).laplacian(3.0),
    "float-deriv-coeff": lambda: oracles.deriv_coeff(2.0, 1),
    "float-triangle-value": lambda: oracles.deriv_triangle(3).value(2.0, 1),
    # an evaluation point, a coefficient or a scale is an int or a Fraction,
    # an exponent an int: a float's binary value is not its digits
    "float-point-ratfunc": lambda: magnitude.magnitude_hankel(3)(0.1),
    "bool-point-ratfunc": lambda: magnitude.magnitude_hankel(3)(True),
    "float-point-intpoly": lambda: hankel.hankel_det(2, 0)(0.5),
    "decimal-point-intpoly": lambda: hankel.hankel_det(2, 0)(Decimal("0.5")),
    "float-point-laurent": lambda: ExpLaurent({0: 1, 1: 1}).laurent_at(0.1),
    "float-scale": lambda: ExpLaurent({0: 1}).scale(0.1),
    "float-coefficient": lambda: ExpLaurent({0: 0.1}),
    "float-exponent": lambda: ExpLaurent({1.5: 1}),
    "bool-exponent": lambda: ExpLaurent({True: 1}),
    "float-rpow": lambda: ExpLaurent({0: 1}).mul_rpow(0.5),
    "bool-rpow": lambda: ExpLaurent({0: 1}).mul_rpow(True),
    # a polynomial coefficient is an int, never a bool
    "float-intpoly-coefficient": lambda: IntPoly([0.5]),
    "bool-intpoly-coefficient": lambda: IntPoly([True]),
    "fraction-intpoly-coefficient": lambda: IntPoly([Fraction(1, 2)]),
    "float-ratfunc-coefficient": lambda: RatFunc(IntPoly([1.5]), IntPoly([3])),
    # a negative power of r has a pole at 0
    "pole-laurent-at-zero": lambda: ExpLaurent({-1: 1}).laurent_at(0),
}


@pytest.mark.parametrize("call", _BAD_LIBRARY_CALLS.values(), ids=_BAD_LIBRARY_CALLS.keys())
def test_bad_library_argument_raises_input_error(call):
    # a library caller gets the typed error too, not the ValueError,
    # OverflowError, TypeError or ZeroDivisionError of the conversion
    with pytest.raises(InputError):
        call()


def test_evaluation_at_zero_and_negative_points():
    # an evaluation point may be 0 or negative, unlike a radius
    h, f = hankel.hankel_det(3, 1), magnitude.magnitude_hankel(5)
    e = ExpLaurent({-2: Fraction(1, 3), 0: 2, 3: -1})
    assert (h(0), f(0), ExpLaurent({0: 2, 3: -1}).laurent_at(0)) == (0, 1, 2)
    assert [(h(x), f(x), e.laurent_at(x)) for x in (-1, Fraction(-1, 2), Fraction(-7, 3))] == [
        (-10, Fraction(-47, 240), Fraction(10, 3)),
        (Fraction(-101, 32), Fraction(413, 3840), Fraction(83, 24)),
        (Fraction(50078, 729), Fraction(-22859, 58320), Fraction(19534, 1323)),
    ]


def test_fixture_not_in_lowest_terms_is_refused():
    with pytest.raises(GoldenMismatch):
        golden._rf((2, 2), (2,))


def test_conjecture_failure_exits_one(monkeypatch, capsys):
    # one coefficient of each H^(1)_k entry, the right-hand side, changed,
    # the coefficient of R^(k+1): its valuation R^k is kept
    real = magnitude.hankel_det
    monkeypatch.setattr(magnitude, "hankel_det",
                        lambda k, s: real(k, s) + IntPoly.one().shift(k + 1) if s == 1 else real(k, s))
    code = cli.main(["verify", "derivative", "--max", "3", "--jobs", "1", "--json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("derivative conjecture fails at n=") == 1
    assert "Traceback" not in err


def test_benchmark_tracer_still_binds():
    # the benchmark's tracer rebinds package names (`_run_jobs` among them)
    # in place; a run under it must give the untraced stdout, and the
    # campaign driver's span must still open
    root = SRC.parent.parent
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    args = ["verify", "boundary", "--max", "5", "--json"]
    traced = subprocess.run([sys.executable, "perfbench/tracer.py", "--", *args], cwd=root,
                            capture_output=True, text=True, timeout=120, env=env)
    plain = subprocess.run([sys.executable, "-m", "oddball.cli", *args], cwd=root,
                           capture_output=True, timeout=120, env=env)
    assert traced.returncode == 0 and plain.returncode == 0, traced.stderr
    report = json.loads(traced.stdout)
    assert report["exit"] == 0
    assert report["sha256"] == hashlib.sha256(plain.stdout).hexdigest()
    assert "driver.run_jobs" in report["layers"]["spans"]
