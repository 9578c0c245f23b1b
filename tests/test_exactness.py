"""Exactness guard: no floating point anywhere in the library source.

Every module under src/ramschur is parsed, and the test fails on a float
or complex literal, a true division (`/` or `/=`), a call to float() or
complex(), or a `math` import beyond the integer-only functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ramschur"
INTEGER_MATH = {"gcd", "isqrt", "comb", "factorial"}


def inexact_nodes(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append((node.lineno, f"call to {node.func.id}()"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    found.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    found.append((node.lineno, f"from math import {alias.name}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_is_exact(path):
    assert inexact_nodes(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = a / b",
        "x /= 2",
        "x = float(y)",
        "x = complex(1, 2)",
        "import math",
        "from math import sqrt",
        "from math import gcd, log",
    ],
)
def test_guard_flags(source):
    assert inexact_nodes(ast.parse(source))


def test_guard_allows_integer_code():
    source = "from math import comb, factorial, gcd, isqrt\nx = a // b\nx //= 2\ny = 'a/b'\n"
    assert inexact_nodes(ast.parse(source)) == []
