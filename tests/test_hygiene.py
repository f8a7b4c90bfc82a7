"""Every name that a module of the package, a test module or a demo imports
is used there or listed in its ``__all__``.  The package's ``__init__.py``
re-exports and is exempt.  The package keeps derived values with one
descriptor, ``graphs.kept``, so no module of it uses
``functools.cached_property``.  The checks read each module's syntax tree,
so they need no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "susykit"
# each checked file, by its name in the package or its path from the root
MODULES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
MODULES |= {
    str(p.relative_to(ROOT)): p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")
}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it neither reads
    nor lists in ``__all__``; ``__future__`` imports bind no name."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(n for n in imported if n not in read and n not in exported)


def cached_property_uses(source: str) -> list[int]:
    """The lines of ``source`` that import ``functools.cached_property`` or
    read it as an attribute of ``functools``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cached_property" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_uses_cached_property(module):
    assert cached_property_uses((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_cached_property():
    source = (
        "import functools\n"
        "from functools import cache, cached_property\n"
        "class A:\n"
        "    x = functools.cached_property(len)\n"
    )
    assert cached_property_uses(source) == [2, 4]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from typing import Iterable, Mapping\n"
        "import os\n"
        "__all__ = ['Mapping']\n"
        "def f(x: Iterable): return x\n"
    )
    assert unused_imports(source) == ["os"]
