"""Checks on the library source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import symtoric


def _source_nodes():
    """(file name, AST node) for every node of every package module."""
    package = Path(symtoric.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_statements():
    """Invariants are checked with exceptions: ``python -O`` strips asserts."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_relative_or_stdlib():
    """The package stays stdlib-only: every absolute import names a
    standard-library module."""
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{name}:{node.lineno} {module}"
            for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names
        ]
    assert found == []


def test_no_cross_call_caches():
    """No ``functools.cache`` or ``lru_cache``: a memoized function would
    answer repeated calls without running the code they are meant to run."""
    cached = {"cache", "lru_cache"}
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hits = [alias.name for alias in node.names if alias.name in cached]
        elif isinstance(node, ast.Attribute):
            hits = [node.attr] if node.attr in cached else []
        else:
            continue
        found += [f"{name}:{node.lineno} {hit}" for hit in hits]
    assert found == []


def test_smith_witnesses_stay_below_the_ideal_layer():
    """A Smith form's witnesses U and V are read only in ``exact_linalg``,
    ``cones`` and ``class_group``: the ideal layer, the CLI and the du Val
    catalog solve through ``cones._solve`` and the class group."""
    found = [
        f"{name}:{node.lineno} {node.attr}"
        for name, node in _source_nodes()
        if name in ("ideals.py", "cli.py", "duval.py")
        and isinstance(node, ast.Attribute)
        and node.attr in ("U", "V")
    ]
    assert found == []


def test_only_cli_main_writes_output():
    """One path from request to report: inside ``cli.py`` only ``main``
    calls ``print`` or touches ``sys.stdout`` or ``sys.stderr``."""
    tree = ast.parse((Path(symtoric.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found = []
    for statement in tree.body:
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id in ("print", "stdout", "stderr"):
                hit = node.id
            elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
                hit = node.attr
            else:
                continue
            if owner != "main":
                found.append(f"cli.py:{node.lineno} {hit} in {owner or 'module'}")
    assert found == []
