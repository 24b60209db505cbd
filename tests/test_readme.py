"""README's "Quick tour" block runs as printed, and each bare expression
in it has the value its comment states."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_values_match_their_comments():
    """Statements run in order; an expression statement's comment must
    start with the repr of its value, as in ``group_order(group)  # 2``,
    ended by the comment's end, a space, a colon or a comma."""
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        comment = lines[statement.lineno - 1].split("#", 1)[1].strip()
        stated = repr(value)
        after = comment[len(stated) : len(stated) + 1]
        assert comment.startswith(stated) and after in ("", " ", ":", ","), (ast.unparse(statement), value)
        checked.append(value)
    assert checked
