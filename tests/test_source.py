"""Rules on the library source itself."""

import ast
from pathlib import Path

import etacover

SOURCES = sorted(Path(etacover.__file__).parent.glob("*.py"))


def test_no_bare_asserts():
    # python -O strips assert statements, so library checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
