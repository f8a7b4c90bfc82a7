"""Spans around calls into susykit's layers, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper at every
module attribute that holds it (``susykit.canon.canonical_form`` and
``susykit.strata.canonical_form`` are one function reached two ways), so
calls inside the library are seen as well as calls from the benchmark.
A traced name that no longer exists is skipped, and its metrics read 0.

Each span is a tuple ``(name, start, end, parent, op, size)``: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` the operation
the benchmark was running, and ``size`` the length of a list result (else
-1).  Tuples of atoms drop out of the garbage collector's tracking, so
hundreds of thousands of spans do not slow collections down.  Spans stay
in memory until ``write_spans`` dumps them at the end of the traced run.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter

# layer.function for each public boundary the benchmark reports on
TRACED = (
    "canon.canonical_form",
    "canon.certificate_digest",
    "strata.enumerate_strata",
    "strata.enumerate_modular_shapes",
    "strata.contraction_poset",
    "lifting.lift_count_general",
    "lifting.enumerate_edge_colorings",
    "lifting.lift_tree_coloring",
    "gf2.solve_gf2",
    "susy.validate_susy_graph",
    "susy.validate_susy_morphism",
    "susy.is_stable",
    "susy.compose",
    "graphs.flags_at",
    "calculus.contract_pair",
    "calculus.decompose_to_elementaries",
    "operad.evaluate_operad",
    "operad.recipe_compose",
    "operad.check_operad_axioms",
    "jsonio.graph_to_json",
    "jsonio.dumps",
    "cli.main",
)

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, -1)
            if isinstance(out, list):
                spans[index] = (name, start, end, parent, self.op, len(out))
            return out

        return traced

    def install(self, package: str = "susykit") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for dotted in TRACED:
            layer, fname = dotted.split(".")
            home = sys.modules.get(f"{package}.{layer}")
            fn = getattr(home, fname, None)
            if fn is None:
                continue
            wrapper = self.wrap(dotted, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()



def write_spans(spans: list[tuple], path) -> None:
    """Dump spans as gzipped CSV, one per line."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("name,start,end,parent,op,size\n")
        for s in spans:
            out.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{s[SIZE]}\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``total_s``, the summed duration of the
    outermost spans of that name (a recursive call is not counted twice);
    ``self_s``, each span's duration minus the time its direct children
    cover; and ``items``, the summed length of list results."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        duration = s[END] - s[START]
        row["calls"] += 1
        row["self_s"] += duration - covered(children.get(i, []))
        if s[SIZE] >= 0:
            row["items"] += s[SIZE]
        if not has_ancestor(spans, i, s[NAME]):
            row["total_s"] += duration
    return dict(out)


def has_ancestor(spans: list[tuple], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def calls_inside(spans: list[tuple], name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    return sum(1 for i, s in enumerate(spans)
               if s[NAME] == name and has_ancestor(spans, i, ancestor))
