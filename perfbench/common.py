"""Locating and importing the library under test, and output digests."""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("exact_linalg", "cones", "class_group", "ideals", "duval", "cli")


class MissingLibrary(RuntimeError):
    """The checkout has no ``src/symtoric`` to benchmark."""


def load_symtoric() -> SimpleNamespace:
    """Import symtoric from this checkout's ``src``, afresh.

    Any symtoric modules already imported are dropped first, so each call
    pays the whole import cost, as a new process would.  Returns the
    package and one attribute per layer module.
    """
    if not (SRC / "symtoric" / "__init__.py").is_file():
        raise MissingLibrary(f"no symtoric package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "symtoric" or m.startswith("symtoric.")]:
        del sys.modules[name]
    package = importlib.import_module("symtoric")
    if Path(package.__file__).resolve().parent != SRC / "symtoric":
        raise MissingLibrary(f"symtoric imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"symtoric.{name}") for name in LAYERS}
    return SimpleNamespace(package=package, **modules)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
