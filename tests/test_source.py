"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import symtoric


def test_no_assert_statements():
    """Invariants are checked with exceptions: ``python -O`` strips asserts."""
    package = Path(symtoric.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
