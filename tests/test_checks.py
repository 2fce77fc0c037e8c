"""Load-bearing checks are typed raises, so they survive `python -O`, and
the CLI turns a failed one into exit 1."""

import ast
from pathlib import Path

import pytest

from oddball import cli, golden, potential
from oddball.errors import GoldenMismatch
from oddball.poly import RatFunc

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


def test_no_function_local_imports_in_package():
    # a function-local import is how an import cycle hides; keep them out
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_fixture_not_in_lowest_terms_is_refused():
    with pytest.raises(GoldenMismatch):
        golden._rf((2, 2), (2,))


def test_conjecture_route_mismatch_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(potential, "boundary_limit_derivative", lambda n: RatFunc.const(2))
    code = cli.main(["verify", "derivative", "--max", "3", "--jobs", "1", "--json"])
    assert code == 1
    assert "conjecture right-hand sides differ" in capsys.readouterr().err
