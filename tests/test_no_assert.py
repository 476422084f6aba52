"""Witness and invariant checks in the library must survive `python -O`.

`-O` strips `assert` statements, so every check in `src/sl2rat` is explicit
code that raises; this test fails on any `assert` statement found there.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sl2rat"


def test_no_assert_statements_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in src/sl2rat: {found}"
