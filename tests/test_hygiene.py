"""Every name that a module of the package, a test module or a demo imports
is used there or listed in its ``__all__``.  The package's ``__init__.py``
re-exports and is exempt.  The package keeps derived values with one
descriptor, ``graphs.kept``, so no module of it uses
``functools.cached_property``.  Every private name that a module of the
package defines at module level is read somewhere in the package, so no
helper outlives its last caller, and every function or class that a
module leaves out of its ``__all__`` is named somewhere else in the
package, so no unlisted primitive ships without a caller; the module
hooks ``__getattr__`` and ``__dir__``, which Python calls by name, are
exempt.  Only
``susy._built`` writes a morphism's kept ``_report`` and only
``susy._valid`` a graph's kept ``report`` and ``_labeling_report``, so
the morphisms trusted without a check of their maps, and the graphs
trusted without a check, are each built in one place.  Only ``graphs._owned`` calls a ``__new__``, so it is
the one builder that skips a value type's constructor; each of its calls
names exactly the fields of the type it builds, and only ``_valid`` adds
the kept ``_labeling_report``.  Only ``operad._fresh_signature`` builds a
``ModuliSignature`` past its validating constructor, so the signatures
trusted without a check are built in one place too.  Inside ``calculus``,
only the names in its ``__all__`` call ``require_susy`` or ``_flag_pair``,
so its private builders check nothing and each entry checks once.  Only
``jsonio`` imports the stdlib ``json``, so one module owns the document
format; ``canon`` takes its string quoting for the certificate.  Every module of
the package is reached by its package imports from ``__init__.py`` or
``cli.py``, the console script, so nothing ships that neither the library
nor the CLI runs; test support lives in ``tests/``.  The checks read each
module's syntax tree, so they need no linter."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "susykit"
# each checked file, by its name in the package or its path from the root
MODULES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
MODULES |= {
    str(p.relative_to(ROOT)): p for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")
}


def listed(tree: ast.AST) -> set[str]:
    """The names that the ``__all__`` assignments in ``tree`` list."""
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it neither reads
    nor lists in ``__all__``; ``__future__`` imports bind no name."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    exported = listed(tree)
    return sorted(n for n in imported if n not in read and n not in exported)


def private_definitions(source: str) -> list[str]:
    """The private names that ``source`` binds at module level, by a
    function, a class or an assignment; dunder names are not private."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def names_read(source: str | ast.AST) -> set[str]:
    """The names that ``source``, a text or a syntax tree, reads, as a
    name, an attribute or an import."""
    read: set[str] = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private module-level name defined in one
    of ``sources`` (module name to source) that none of them reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}: {name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    )


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


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "__version__ = '1'\n"
            "_used: int = 1\n"
            "_unused = 2\n"
            "class _Old: pass\n"
            "def _helper(): return _used\n"
            "def public(): pass\n"
            "class A:\n"
            "    def _method(self): pass\n"
        ),
        "b.py": "from a import _helper\n",
    }
    assert unread_private_names(sources) == ["a.py: _Old", "a.py: _unused"]


# the module hooks of PEP 562, which Python calls by name
MODULE_HOOKS = {"__getattr__", "__dir__"}


def unnamed_unlisted_definitions(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each function or class that one of ``sources``
    (module name to source) defines at module level and leaves out of its
    ``__all__``, and that none of them names outside that definition; the
    module hooks are exempt."""
    read = {module: names_read(source) for module, source in sources.items()}
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        exported = listed(tree)
        elsewhere = set().union(*(names for m, names in read.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or node.name in elsewhere or node.name in MODULE_HOOKS:
                continue
            rest = ast.Module([n for n in tree.body if n is not node], [])
            if node.name not in names_read(rest):
                found.append(f"{module}: {node.name}")
    return sorted(found)


def test_every_unlisted_definition_is_named():
    # a function or class outside ``__all__`` is there for the package alone
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unnamed_unlisted_definitions(sources) == []


def test_the_check_sees_an_unnamed_unlisted_definition():
    sources = {
        "a.py": (
            "__all__ = ['public']\n"
            "def public(): pass\n"
            "def helper(): return used()\n"
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Old: pass\n"
            "class Kept: pass\n"
            "def imported(): pass\n"
            "def _private(): pass\n"
        ),
        "b.py": "from a import imported\nx = a.Kept\n",
    }
    assert unnamed_unlisted_definitions(sources) == [
        "a.py: Old", "a.py: _private", "a.py: helper", "a.py: recursive"
    ]


def test_the_check_exempts_only_the_module_hooks():
    sources = {
        "__init__.py": (
            "__all__ = []\n"
            "def __getattr__(name): pass\n"
            "def __dir__(): pass\n"
            "def __getattribute__(name): pass\n"
            "def loader(name): pass\n"
        ),
    }
    assert unnamed_unlisted_definitions(sources) == [
        "__init__.py: __getattribute__", "__init__.py: loader"
    ]


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports, anywhere in it:
    ``x`` for ``from .x import``, ``from . import x`` and
    ``from susykit.x import``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            package, _, module = node.module.partition(".")
            if package == "susykit" and module:
                found.add(module)
    return found


def unreached_modules(sources: dict[str, str], roots: list[str]) -> list[str]:
    """The modules of ``sources`` (module name to source) that no chain of
    package imports reaches from ``roots``."""
    reached: set[str] = set()
    todo = list(roots)
    while todo:
        module = todo.pop()
        if module in sources and module not in reached:
            reached.add(module)
            todo += package_imports(sources[module])
    return sorted(sources.keys() - reached)


# the package and its console script, ``[project.scripts]`` in pyproject.toml
ENTRY_POINTS = ["__init__", "cli"]


def test_every_module_is_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreached_modules(sources, ENTRY_POINTS) == []


def test_the_check_sees_an_unreached_module():
    sources = {
        "__init__": "from .a import f\nfrom os.path import join\n",
        "a": "from . import b\nfrom .errors import E\n",
        "b": "def g():\n    from susykit.c import h\n",
        "c": "import susykit\n",
        "errors": "",
        "cli": "from .d import x\n",
        "d": "",
        "orphan": "from .stale import x\nfrom .a import f\n",
        "stale": "",
        "path": "",
    }
    assert unreached_modules(sources, ENTRY_POINTS) == ["orphan", "path", "stale"]


# the kept reports: a morphism's, a graph's and a SUSY graph's labeling's
REPORTS = {"_report", "report", "_labeling_report"}


def report_writes(source: str) -> list[int]:
    """The lines of ``source`` that write a kept report (``REPORTS``): by
    assignment to the attribute or to a key of that name, by ``setattr``
    or ``__setattr__`` with that name, or by any call, ``update`` or
    ``_owned`` among them, with it as a keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr in REPORTS or (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.slice, ast.Constant)
                    and t.slice.value in REPORTS
                ):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            named = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
            if name in ("setattr", "__setattr__") and named and named[0] in REPORTS or any(
                k.arg in REPORTS for k in node.keywords
            ):
                lines.append(node.lineno)
    return sorted(set(lines))


def functions_at(source: str, lines: list[int]) -> set[str]:
    """The names of the module-level statements of ``source`` that hold
    ``lines``: a function's or class's name, or ``<module>``."""
    return {
        getattr(node, "name", "<module>")
        for node in ast.parse(source).body
        if any(node.lineno <= n <= node.end_lineno for n in lines)
    }


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_susy_writes_a_kept_report(module):
    source = (SRC / module).read_text(encoding="utf-8")
    writers = functions_at(source, report_writes(source))
    # the trusted morphisms' builder and the trusted graphs' builder
    assert writers == ({"_built", "_valid"} if module == "susy.py" else set())


def test_the_check_sees_a_report_write():
    source = (
        "h.__dict__['_report'] = ok\n"
        "h._report = ok\n"
        "setattr(h, '_report', ok)\n"
        "object.__setattr__(h, '_report', ok)\n"
        "vars(h).update(_report=ok)\n"
        "h.__dict__['report'] = ok\n"
        "g.report = g._labeling_report = ok\n"
        "setattr(g, '_labeling_report', ok)\n"
        "r = h._report\n"
        "h.__dict__['reports'] = h.reporter = ok\n"
        "setattr(h, name, ok)\n"
        "g = _owned(SusyGraph, graph=x, _labeling_report=ok)\n"
        "h = graphs._owned(SusyMorphism, _report=ok)\n"
        "dict(report=ok)\n"
        "ValidationReport(violations=())\n"
    )
    assert report_writes(source) == [1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14]


def test_the_check_names_each_writer():
    source = (
        "def _built(h):\n"
        "    h.__dict__['_report'] = ok\n"
        "class A:\n"
        "    def f(self, g):\n"
        "        g.report = ok\n"
        "x = 1\n"
        "h._report = x\n"
    )
    assert functions_at(source, report_writes(source)) == {"_built", "A", "<module>"}


def json_imports(source: str) -> list[str]:
    """What ``source`` imports from the stdlib ``json`` package: each
    module it imports and each name it imports from one, dotted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "json":
                found += [f"{node.module}.{a.name}" for a in node.names]
    return sorted(found)


# what a module other than ``jsonio`` may import from ``json``
JSON_ALLOWED = {"canon.py": ["json.encoder.encode_basestring_ascii"]}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "jsonio.py")
)
def test_only_jsonio_reads_or_writes_json(module):
    found = json_imports((SRC / module).read_text(encoding="utf-8"))
    assert found == JSON_ALLOWED.get(module, [])


def test_the_check_sees_a_json_import():
    source = (
        "import json\n"
        "import json.decoder as d, os\n"
        "from json import dumps, loads\n"
        "from json.encoder import encode_basestring_ascii\n"
        "from .json import x\n"
        "import jsonschema\n"
        "r = json.loads('1')\n"
    )
    assert json_imports(source) == [
        "json",
        "json.decoder",
        "json.dumps",
        "json.encoder.encode_basestring_ascii",
        "json.loads",
    ]


def call_sites(source: str, matches) -> list[tuple[str, ast.Call]]:
    """Each call in ``source`` that ``matches``, with the dotted path of the
    function or class around it (``<module>`` at module level)."""
    found: list[tuple[str, ast.Call]] = []

    def visit(node: ast.AST, path: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*path, child.name]
            elif isinstance(child, ast.Call) and matches(child):
                found.append((".".join(path) or "<module>", child))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def called(call: ast.Call) -> str | None:
    """The name that ``call`` calls: ``f`` for ``f(...)`` and ``m.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def first_argument(call: ast.Call) -> str | None:
    """The name that the first argument of ``call`` reads, directly or as a
    module attribute."""
    first = call.args[0] if call.args else None
    return getattr(first, "id", None) or getattr(first, "attr", None)


def signature_news(source: str) -> list[str]:
    """The dotted path of the function or class (``<module>`` at module
    level) around each ``__new__`` or ``_owned`` call in ``source`` whose
    first argument names ``ModuliSignature``, directly or as a module
    attribute."""
    return [
        path
        for path, call in call_sites(
            source,
            lambda c: called(c) in ("__new__", "_owned")
            and first_argument(c) == "ModuliSignature",
        )
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_fresh_signature_builds_an_unchecked_signature(module):
    found = signature_news((SRC / module).read_text(encoding="utf-8"))
    assert found == (["_fresh_signature"] if module == "operad.py" else [])


def test_the_check_sees_an_unchecked_signature():
    source = (
        "sig = object.__new__(ModuliSignature)\n"
        "def build():\n"
        "    def inner():\n"
        "        return object.__new__(operad.ModuliSignature)\n"
        "    return inner\n"
        "class Sig(ModuliSignature):\n"
        "    def __new__(cls):\n"
        "        return ModuliSignature.__new__(ModuliSignature)\n"
        "other = object.__new__(ModuliFactor)\n"
        "checked = ModuliSignature(())\n"
        "def trusted():\n"
        "    return _owned(ModuliSignature, factors=(), mode='super')\n"
        "owned = graphs._owned(ModuliSignature, factors=(), mode='super')\n"
        "factor = _owned(ModuliFactor, genus=0)\n"
    )
    assert signature_news(source) == [
        "<module>", "build.inner", "Sig.__new__", "trusted", "<module>"
    ]


def new_calls(source: str) -> list[str]:
    """The dotted path around each ``__new__`` call in ``source``."""
    return [path for path, _ in call_sites(source, lambda c: called(c) == "__new__")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_owned_skips_a_constructor(module):
    found = new_calls((SRC / module).read_text(encoding="utf-8"))
    assert found == (["_owned"] if module == "graphs.py" else [])


def test_the_check_sees_a_new_call():
    source = (
        "def _owned(cls, **fields):\n"
        "    value = object.__new__(cls)\n"
        "class A:\n"
        "    def copy(self):\n"
        "        return A.__new__(A)\n"
        "x = super().__new__(B)\n"
        "y = _owned(A, x=1)\n"
        "z = A()\n"
    )
    assert new_calls(source) == ["_owned", "A.copy", "<module>"]


# the value types of the package by name, which ``_owned`` may build, read
# from every module: the package loads some of them only on first use
VALUE_TYPES = {
    name: cls
    for path in MODULES.values()
    if path.parent == SRC
    for name, cls in vars(importlib.import_module(f"susykit.{path.stem}")).items()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


def owned_field_errors(source: str, types: dict[str, type]) -> list[str]:
    """Each ``_owned(Cls, ...)`` call in ``source`` that does not pass, by
    keyword, exactly the fields of ``types[Cls]``, as ``path: Cls: ...``;
    the one extra allowed is ``_labeling_report``, in ``_valid`` alone."""
    errors = []
    for path, call in call_sites(source, lambda c: called(c) == "_owned"):
        name = first_argument(call)
        if name not in types or len(call.args) != 1 or None in [k.arg for k in call.keywords]:
            errors.append(f"{path}: {name}: not a value type with keyword fields")
            continue
        given = {k.arg for k in call.keywords}
        if path == "_valid":
            given.discard("_labeling_report")
        fields = {f.name for f in dataclasses.fields(types[name])}
        if given != fields:
            missing, extra = sorted(fields - given), sorted(given - fields)
            errors.append(f"{path}: {name}: missing {missing}, extra {extra}")
    return errors


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_owned_names_exactly_the_fields(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert owned_field_errors(source, VALUE_TYPES) == []


def test_the_check_sees_a_wrong_field():
    @dataclasses.dataclass
    class Pair:
        a: int
        b: int

    source = (
        "def _valid():\n"
        "    return _owned(Pair, a=1, b=2, _labeling_report=ok)\n"
        "def f():\n"
        "    _owned(Pair, a=1, b=2)\n"
        "    graphs._owned(Pair, a=1, c=2)\n"
        "    _owned(Pair, a=1, b=2, _labeling_report=ok)\n"
        "    _owned(Pair, **fields)\n"
        "    _owned(Pair, 1, 2)\n"
        "    _owned(Other, a=1)\n"
    )
    assert owned_field_errors(source, {"Pair": Pair}) == [
        "f: Pair: missing ['b'], extra ['c']",
        "f: Pair: missing [], extra ['_labeling_report']",
        "f: Pair: not a value type with keyword fields",
        "f: Pair: not a value type with keyword fields",
        "f: Other: not a value type with keyword fields",
    ]


# the checks of a graph and of a pair of its flags in ``calculus``
CALCULUS_CHECKS = {"require_susy", "_flag_pair"}


def private_checkers(source: str) -> list[str]:
    """The dotted path around each call of a ``CALCULUS_CHECKS`` name in
    ``source`` whose module-level name is not listed in its ``__all__``."""
    public = listed(ast.parse(source))
    return [
        path
        for path, _ in call_sites(source, lambda c: called(c) in CALCULUS_CHECKS)
        if path.split(".")[0] not in public
    ]


def test_the_calculus_checks_in_its_public_entries_only():
    assert private_checkers((SRC / "calculus.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_private_checker():
    source = (
        "__all__ = ['graft', 'Square']\n"
        "def graft(g, pairs):\n"
        "    require_susy(g)\n"
        "    return _grafted(g, [_flag_pair(g, p, 'graft') for p in pairs])\n"
        "def _grafted(g, pairs):\n"
        "    susy.require_susy(g)\n"
        "def _contracted(g, pair):\n"
        "    def inner():\n"
        "        return _flag_pair(g, pair, 'contract')\n"
        "    return inner\n"
        "class Square:\n"
        "    def side(self, g):\n"
        "        require_susy(g)\n"
        "class _Helper:\n"
        "    def side(self, g):\n"
        "        require_susy(g)\n"
        "require_susy(G)\n"
        "validate_susy_graph(G)\n"
    )
    assert private_checkers(source) == [
        "_grafted", "_contracted.inner", "_Helper.side", "<module>"
    ]
