"""Half-edge graphs and their morphisms.

A graph is a finite set of *flags* (half-edges), each attached to a vertex
by the boundary map, together with an involution on flags.  Flags fixed by
the involution are *tails*; two-element orbits are *edges*.  Loops, parallel
edges, isolated vertices and disconnected graphs are all unproblematic in
this encoding, and #flags = #tails + 2 * #edges always holds.

Morphisms run contravariantly on flags and covariantly on vertices: a
morphism ``h: source -> target`` injects the target's flags back into the
source's flags, maps source vertices onto target vertices, and pairs up the
left-over source flags by a fixed-point-free involution recording what gets
contracted.  An orbit of that involution is either a source edge (ordinary
contraction) or a pair of distinct source tails (a grafting immediately
followed by a contraction, a "virtual" contraction).  Mergers are banned:
vertices may only acquire the same image when a chain of contracted orbits
connects them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ValidationError

__all__ = [
    "Graph",
    "GraphMorphism",
    "ValidationReport",
    "compose",
    "disjoint_union",
    "edges",
    "flags_at",
    "identity_morphism",
    "involution_from_pairs",
    "orbit_pairs",
    "tails",
    "validate_graph",
    "validate_morphism",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check: empty ``violations`` means valid."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_invalid(self, what: str = "object") -> None:
        if self.violations:
            detail = "; ".join(self.violations)
            raise ValidationError(f"invalid {what}: {detail}")


class kept:
    """Decorates a method whose value is built on first read and kept in the
    instance's ``__dict__`` under its name, where later reads find it: like
    ``functools.cached_property`` without its lock.  The value is not a
    field, and ``dataclasses.replace`` builds an object without it."""

    def __init__(self, build) -> None:
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


def _owned(cls: type, **fields):
    """A ``cls`` that takes ``fields`` as they are, with no freezing, copying
    or sorting: the one place that skips a value type's ``__init__``.  Each
    field is of the constructor's type and order, in a container just made."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _copied(make: Callable, value, field: str):
    """``make(value)``, the frozen or copied ``field`` that a public
    constructor keeps; a ``value`` that makes none, or a string where a set
    of names is kept, is refused by name."""
    if make is frozenset and isinstance(value, str):
        raise ValidationError(f"invalid {field}: a string is not a set of names")
    try:
        return make(value)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"invalid {field}: {err}") from None


def _strings(values: Iterable) -> bool:
    """Whether each of ``values`` is a string; the checks ask this before
    they hash the values into a set."""
    return all(map(isinstance, values, repeat(str)))


def _freeze_str_set(value: Iterable[str], field: str) -> frozenset[str]:
    out = _copied(frozenset, value, field)
    if not _strings(out):
        raise ValidationError("identifiers must be strings")
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable half-edge graph.

    ``boundary`` sends each flag to the vertex carrying it; ``involution``
    is the flag pairing (identity on tails).  Instances are plain values:
    two graphs are equal exactly when all four fields agree.  The kept,
    read-only ``incidence``, ``report`` and ``_forest`` are not fields.
    The public constructor freezes the name sets and copies the dicts;
    ``_owned`` takes ownership of fresh ones.
    """

    flags: frozenset[str]
    vertices: frozenset[str]
    boundary: dict[str, str]
    involution: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", _freeze_str_set(self.flags, "flags"))
        object.__setattr__(self, "vertices", _freeze_str_set(self.vertices, "vertices"))
        object.__setattr__(self, "boundary", _copied(dict, self.boundary, "boundary"))
        object.__setattr__(self, "involution", _copied(dict, self.involution, "involution"))

    @kept
    def incidence(self) -> dict[str, tuple[str, ...]]:
        """The flags at each vertex, sorted, for a valid graph.  Built once,
        on first read, and shared by every reader, so it is read-only."""
        inc: dict[str, list[str]] = {v: [] for v in self.vertices}
        b = self.boundary
        for f in sorted(self.flags):
            inc[b[f]].append(f)
        return {v: tuple(fl) for v, fl in inc.items()}

    @kept
    def report(self) -> ValidationReport:
        """``validate_graph(self)``, checked once, on first read; frozen."""
        return _check_graph(self)

    @kept
    def _forest(self) -> tuple[dict[str, int], _LiftForest]:
        """Each flag's index, in sorted-name order, and the ``_lift_forest``
        on those and the sorted vertices of a valid graph.  Built once."""
        index = {f: i for i, f in enumerate(sorted(self.flags))}
        vertex = {v: i for i, v in enumerate(sorted(self.vertices))}
        b, inv = self.boundary, self.involution
        boundary = [vertex[b[f]] for f in index]
        return index, _lift_forest(len(vertex), boundary, [index[inv[f]] for f in index])


def validate_graph(g: Graph) -> ValidationReport:
    """Check the graph axioms and report every violation found, once per
    graph, which keeps the report (``Graph.report``)."""
    if not isinstance(g, Graph):
        return ValidationReport((f"expected a Graph, got {type(g).__name__}",))
    return g.report


def _check_graph(g: Graph) -> ValidationReport:
    problems: list[str] = []
    b, inv = g.boundary, g.involution
    if b.keys() != g.flags:
        problems.append("boundary: domain must be exactly the flag set")
    elif not _strings(b.values()):
        problems.append("boundary: values must be strings")
    elif not g.vertices.issuperset(b.values()):
        bad = sorted(v for v in b.values() if v not in g.vertices)
        problems.append(f"boundary: unknown vertices {bad}")
    if inv.keys() != g.flags:
        problems.append("involution: domain must be exactly the flag set")
    elif not _strings(inv.values()):
        problems.append("involution: values must be strings")
    elif not g.flags.issuperset(inv.values()):
        bad = sorted(f for f in inv.values() if f not in g.flags)
        problems.append(f"involution: unknown flags {bad}")
    # inv[inv[f]] == f for every f, read in the involution's key order
    elif [*map(inv.__getitem__, inv.values())] != [*inv]:
        not_inv = sorted(f for f in g.flags if inv[inv[f]] != f)
        problems.append(f"involution: not an involution at {not_inv}")
    return ValidationReport(tuple(problems))


def _require_a(cls: type, *xs) -> None:
    """Refuse each of ``xs`` that is not a ``cls`` before it is read."""
    for x in xs:
        if not isinstance(x, cls):
            raise ValidationError(f"expected a {cls.__name__}, got {type(x).__name__}")


def tails(g: Graph) -> list[str]:
    """Flags fixed by the involution, sorted."""
    _require_a(Graph, g)
    return sorted(f for f in g.flags if g.involution.get(f) == f)


def edges(g: Graph) -> list[tuple[str, str]]:
    """Two-element involution orbits as sorted pairs, sorted."""
    _require_a(Graph, g)
    return orbit_pairs(g.involution)


def flags_at(g: Graph, v: str) -> list[str]:
    """Flags attached to vertex ``v``, sorted; KeyError on unknown vertex."""
    _require_a(Graph, g)
    if not (isinstance(v, str) and v in g.vertices):
        raise KeyError(f"unknown vertex {v!r}")
    return sorted(f for f in g.flags if g.boundary.get(f) == v)


def _root(parent: dict, x):
    """The root of ``x`` in the union-find forest ``parent`` (each element
    maps to its parent, a root to itself), halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


class _LiftForest(NamedTuple):
    """A spanning forest on integers, each edge set a mask of its flags:
    ``boundary`` by flag, each vertex's component ``root`` and the ``path``
    of tree edges from it to its root, and the fundamental ``cycles``."""

    boundary: Sequence[int]
    root: list[int]
    path: list[int]
    cycles: list[int]


def _lift_forest(n: int, boundary: Sequence[int], involution: Sequence[int]) -> _LiftForest:
    """The spanning forest that Kruskal's rule grows, in flag order, over the
    edges ``f < involution[f]`` of the graph with ``n`` vertices and flag
    arrays ``boundary`` and ``involution``, each tree edge hanging the tree
    of its second end from the first; one cycle per loop, then per other
    free edge."""
    root, path = list(range(n)), [0] * n
    loops, chords = [], []
    for f, p in enumerate(involution):
        if f >= p:
            continue  # a tail, or an edge's second flag
        u, v, edge = boundary[f], boundary[p], 1 << f | 1 << p
        if u == v:
            loops.append(edge)
        elif root[u] == root[v]:
            chords.append(edge ^ path[u] ^ path[v])
        else:
            # w's path to v, then the edge, then u's path to its root
            ru, rv, step = root[u], root[v], path[v] ^ edge ^ path[u]
            for w in range(n):
                if root[w] == rv:
                    root[w], path[w] = ru, path[w] ^ step
    return _LiftForest(boundary, root, path, loops + chords)


def is_connected(g: Graph) -> bool:
    """Whether ``g`` has at most one component: one root in its forest."""
    return len(set(g._forest[1].root)) <= 1


def involution_from_pairs(pairs: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Build a fixed-point-free involution dict from unordered pairs."""
    out: dict[str, str] = {}
    for a, b in pairs:
        if a == b:
            raise ValidationError(f"contracted pair ({a!r}, {b!r}) is degenerate")
        if a in out or b in out:
            raise ValidationError(f"flag reused across contracted pairs: {a!r}/{b!r}")
        out[a] = b
        out[b] = a
    return out


def orbit_pairs(involution: Mapping[str, str]) -> list[tuple[str, str]]:
    """Two-element orbits of an involution dict as sorted pairs, sorted."""
    seen = set()
    out = []
    for f, p in involution.items():
        if p != f and f not in seen:
            seen.add(f)
            seen.add(p)
            out.append((f, p) if f < p else (p, f))
    return sorted(out)


@dataclass(frozen=True, init=False)
class GraphMorphism:
    """Morphism of half-edge graphs.

    ``flag_map`` sends every target flag to a source flag (injectively);
    ``vertex_map`` sends every source vertex to a target vertex
    (surjectively); ``contracted`` is a fixed-point-free involution on the
    source flags missing from ``flag_map``'s image, stored with both
    directions present.  The public constructor copies the three maps;
    ``_owned`` takes ownership of fresh ones.
    """

    source: Graph
    target: Graph
    flag_map: dict[str, str]
    vertex_map: dict[str, str]
    contracted: dict[str, str]

    def __init__(self, source, target, flag_map, vertex_map, contracted) -> None:
        self.__dict__.update(
            source=source, target=target, flag_map=_copied(dict, flag_map, "flag_map"),
            vertex_map=_copied(dict, vertex_map, "vertex_map"),
            contracted=_copied(dict, contracted, "contracted"),
        )

    @kept
    def orbits(self) -> tuple[tuple[str, str], ...]:
        """The orbits of ``contracted`` as sorted pairs, sorted.  Built
        once, on first read, and shared by every reader, like
        ``Graph.incidence``."""
        return tuple(orbit_pairs(self.contracted))

    def contracted_pairs(self) -> list[tuple[str, str]]:
        """``orbits`` as a fresh list, which the caller may change."""
        return list(self.orbits)


def validate_morphism(h: GraphMorphism) -> ValidationReport:
    """Check every morphism axiom; graph-level problems are reported too."""
    if not isinstance(h, GraphMorphism):
        return ValidationReport((f"expected a GraphMorphism, got {type(h).__name__}",))
    problems: list[str] = []
    for g, name in ((h.source, "source"), (h.target, "target")):
        rep = validate_graph(g)
        if not rep.ok:
            problems.extend(f"{name} graph: {p}" for p in rep.violations)
    if problems:
        return ValidationReport(tuple(problems))
    return _morphism_axioms(h)


def _morphism_axioms(h: GraphMorphism) -> ValidationReport:
    """The morphism axioms of ``h``; its graphs are already checked."""
    maps = {"flag_map": h.flag_map, "vertex_map": h.vertex_map, "contracted": h.contracted}
    problems = [
        f"{name}: values must be strings" for name, m in maps.items() if not _strings(m.values())
    ]
    if problems:
        return ValidationReport(tuple(problems))
    src, tgt = h.source, h.target

    image = set(h.flag_map.values())
    if h.flag_map.keys() != tgt.flags:
        problems.append("flag_map: domain must be exactly the target flag set")
    if not image <= src.flags:
        problems.append("flag_map: values must be source flags")
    if len(image) != len(h.flag_map):
        problems.append("flag_map: must be injective")

    if h.vertex_map.keys() != src.vertices:
        problems.append("vertex_map: domain must be exactly the source vertex set")
    hit = set(h.vertex_map.values())
    if not hit <= tgt.vertices:
        problems.append("vertex_map: values must be target vertices")
    elif hit != tgt.vertices:
        problems.append("vertex_map: must be surjective")

    if problems:
        return ValidationReport(tuple(problems))

    for f, pre in h.flag_map.items():
        if h.vertex_map[src.boundary[pre]] != tgt.boundary[f]:
            problems.append(
                f"flag_map: boundary incompatible at target flag {f!r}"
            )

    # one unsorted pass over the target's tails and edges; the bad ones are
    # sorted to report, as ``tails`` and ``edges`` order them
    bad_tails: list[tuple[str, str]] = []
    bad_edges: list[tuple[str, str]] = []
    inv, fmap = src.involution, h.flag_map
    for a, b in tgt.involution.items():
        pa = fmap[a]
        if a == b:
            if inv[pa] != pa:
                bad_tails.append((a, pa))
        elif a < b:
            pb = fmap[b]
            if inv[pa] != pb and not (inv[pa] == pa and inv[pb] == pb):
                bad_edges.append((a, b))
    for f, pre in sorted(bad_tails):
        problems.append(f"tail {f!r} pulls back to a non-tail {pre!r}")
    for a, b in sorted(bad_edges):
        problems.append(
            f"edge ({a!r}, {b!r}) pulls back to neither an edge nor a tail pair"
        )

    if h.contracted.keys() != src.flags - image:
        problems.append(
            "contracted: domain must be exactly the source flags outside "
            "the flag_map image"
        )
    else:
        for f, p in h.contracted.items():
            if p not in h.contracted or h.contracted[p] != f:
                problems.append(f"contracted: not an involution at {f!r}")
                break
            if p == f:
                problems.append(f"contracted: fixed point at {f!r}")
                break
        else:
            for a, b in h.orbits:
                is_edge = src.involution[a] == b
                both_tails = src.involution[a] == a and src.involution[b] == b
                if not (is_edge or both_tails):
                    problems.append(
                        f"contracted orbit ({a!r}, {b!r}) is neither a source "
                        "edge nor a pair of distinct tails"
                    )
                if h.vertex_map[src.boundary[a]] != h.vertex_map[src.boundary[b]]:
                    problems.append(
                        f"contracted orbit ({a!r}, {b!r}) straddles two "
                        "target vertices"
                    )

    if problems:
        return ValidationReport(tuple(problems))

    # Merger ban: preimages of a vertex must be connected by contracted
    # orbits (genuine edges or virtually contracted tail pairs alike).  No
    # orbit straddles two fibers (checked above), so one union-find over all
    # orbits suffices: a fiber is connected when its vertices share a root.
    parent = {v: v for v in src.vertices}
    for a, b in h.orbits:
        parent[_root(parent, src.boundary[a])] = _root(parent, src.boundary[b])
    roots: dict[str, set[str]] = {}
    for v, w in h.vertex_map.items():
        roots.setdefault(w, set()).add(_root(parent, v))
    for w, rs in roots.items():
        if len(rs) > 1:
            fiber = sorted(v for v, x in h.vertex_map.items() if x == w)
            problems.append(
                f"vertices {fiber} merge into {w!r} without a "
                "connecting chain of contracted orbits"
            )

    return ValidationReport(tuple(problems))


def identity_morphism(g: Graph) -> GraphMorphism:
    _require_a(Graph, g)
    return _owned(
        GraphMorphism, source=g, target=g, flag_map={f: f for f in g.flags},
        vertex_map={v: v for v in g.vertices}, contracted={},
    )


def compose(h: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """Diagrammatic composite of ``h: a -> b`` then ``f: b -> c``.

    Flag maps compose contravariantly, vertex maps covariantly, and the
    composite contracts ``h``'s orbits together with the ``h``-pullback of
    ``f``'s orbits.
    """
    _require_a(GraphMorphism, h, f)
    if h.target != f.source:
        raise ValidationError("compose: endpoints do not match")
    flag_map = {fc: h.flag_map[fb] for fc, fb in f.flag_map.items()}
    vertex_map = {va: f.vertex_map[vb] for va, vb in h.vertex_map.items()}
    contracted = dict(h.contracted)
    for x, y in f.contracted.items():
        contracted[h.flag_map[x]] = h.flag_map[y]
    return _owned(
        GraphMorphism, source=h.source, target=f.target, flag_map=flag_map,
        vertex_map=vertex_map, contracted=contracted,
    )


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Monoidal sum; identifiers are tagged ``0:{id}`` in ``g1`` and
    ``1:{id}`` in ``g2`` to stay disjoint."""
    _require_a(Graph, g1, g2)
    flags, vertices, boundary, involution = set(), set(), {}, {}
    for t, g in (("0", g1), ("1", g2)):
        flags.update(f"{t}:{f}" for f in g.flags)
        vertices.update(f"{t}:{v}" for v in g.vertices)
        boundary.update({f"{t}:{f}": f"{t}:{v}" for f, v in g.boundary.items()})
        involution.update({f"{t}:{f}": f"{t}:{p}" for f, p in g.involution.items()})
    return Graph(flags, vertices, boundary, involution)
