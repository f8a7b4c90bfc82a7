"""Genus labels, NS/R colorings and tail labelings on half-edge graphs.

A SUSY graph is a half-edge graph whose vertices carry genera, whose flags
carry one of the two colors NS (Neveu-Schwarz) and R (Ramond) compatibly
with the edge pairing, and whose tails are labeled by two disjoint finite
index sets, one per color.  Every vertex must see an even number of R flags,
which forces the total number of R tails to be even.

Genus-labeled graphs without colors ("modular" graphs) are represented as
SUSY graphs in an all-NS view with ``modular=True``; :func:`forget` erases
colors down to that view and :func:`include` reinterprets an all-NS view as
a genuine SUSY graph, so forget-after-include is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import ValidationError
from .graphs import (
    Graph,
    GraphMorphism,
    ValidationReport,
    _copied,
    _owned,
    kept,
    tails,
    validate_graph,
)
from . import graphs as _graphs

if TYPE_CHECKING:
    from .operad import ModuliSignature

__all__ = [
    "NS",
    "R",
    "StabilityReport",
    "SusyGraph",
    "SusyLabeling",
    "SusyMorphism",
    "compose",
    "disjoint_union",
    "forget",
    "genus",
    "include",
    "is_stable",
    "susy_graph",
    "modular_graph",
    "susy_identity",
    "susy_morphism",
    "validate_susy_graph",
    "validate_susy_morphism",
]

NS = "NS"
R = "R"


@dataclass(frozen=True, init=False)
class SusyLabeling:
    """Genus, color and tail-labeling data riding on top of a graph.

    ``ns_tail_labels`` and ``r_tail_labels`` map external labels to tail
    flags, bijectively onto the NS and R tails respectively.  The public
    constructor copies the four dicts; ``graphs._owned`` takes ownership
    of fresh ones.
    """

    genus: dict[str, int]
    color: dict[str, str]
    ns_tail_labels: dict[str, str]
    r_tail_labels: dict[str, str]

    def __init__(self, genus, color, ns_tail_labels, r_tail_labels) -> None:
        self.__dict__.update(
            genus=_copied(dict, genus, "genus"), color=_copied(dict, color, "color"),
            ns_tail_labels=_copied(dict, ns_tail_labels, "ns_tail_labels"),
            r_tail_labels=_copied(dict, r_tail_labels, "r_tail_labels"),
        )


@dataclass(frozen=True)
class SusyGraph:
    """A half-edge graph with SUSY labeling; ``modular`` marks the
    color-erased view used for plain genus-labeled graphs.  It keeps
    ``stability``, ``signature`` and its labeling report, read-only."""

    graph: Graph
    labeling: SusyLabeling
    modular: bool = False

    # Delegation keeps call sites terse without hiding the composition.
    @property
    def flags(self) -> frozenset[str]:
        return self.graph.flags

    @property
    def vertices(self) -> frozenset[str]:
        return self.graph.vertices

    @property
    def boundary(self) -> dict[str, str]:
        return self.graph.boundary

    @property
    def involution(self) -> dict[str, str]:
        return self.graph.involution

    def genus_of(self, v: str) -> int:
        return self.labeling.genus[v]

    def color_of(self, f: str) -> str:
        return self.labeling.color[f]

    def ns_labels(self) -> frozenset[str]:
        return frozenset(self.labeling.ns_tail_labels)

    def r_labels(self) -> frozenset[str]:
        return frozenset(self.labeling.r_tail_labels)

    def merged_tail_labels(self) -> dict[str, str]:
        return {**self.labeling.ns_tail_labels, **self.labeling.r_tail_labels}

    # Derived values, each built once on first read and shared by every
    # reader, so they are read-only, like ``Graph.incidence``.  They are
    # not fields: equality ignores them and ``dataclasses.replace`` builds
    # a graph without them.

    @kept
    def stability(self) -> StabilityReport:
        """``is_stable(self)``, the package's one call of it, read by the
        lifts, the operad's evaluation and dimensions and the CLI."""
        return is_stable(self)

    @kept
    def signature(self) -> tuple[ModuliSignature, dict[str, int]]:
        """The moduli signature with one factor per vertex, and each
        vertex's factor position, for a valid stable graph; see
        ``operad._graph_signature``."""
        from .operad import _graph_signature

        return _graph_signature(self)

    @kept
    def _labeling_report(self) -> ValidationReport:
        """The labeling checks, read only once ``self.graph`` is valid."""
        return _check_labeling(self)


def susy_graph(
    flags: Iterable[str],
    vertices: Iterable[str],
    boundary: Mapping[str, str],
    involution: Mapping[str, str],
    genus: Mapping[str, int],
    color: Mapping[str, str],
    ns_labels: Mapping[str, str] | None = None,
    r_labels: Mapping[str, str] | None = None,
) -> SusyGraph:
    """Assemble a SusyGraph; labelings default to tails labeling themselves.
    ``modular_graph`` builds the modular view."""
    g = Graph(flags, vertices, boundary, involution)
    color = _copied(dict, color, "color")
    if ns_labels is None:
        ns_labels = {f: f for f in tails(g) if color.get(f) == NS}
    if r_labels is None:
        r_labels = {f: f for f in tails(g) if color.get(f) == R}
    lab = SusyLabeling(genus, color, ns_labels, r_labels)
    return SusyGraph(g, lab)


def modular_graph(
    flags: Iterable[str],
    vertices: Iterable[str],
    boundary: Mapping[str, str],
    involution: Mapping[str, str],
    genus: Mapping[str, int],
    tail_labels: Mapping[str, str] | None = None,
) -> SusyGraph:
    """Genus-labeled graph without colors, i.e. the all-NS modular view."""
    g = Graph(flags, vertices, boundary, involution)
    if tail_labels is None:
        tail_labels = {f: f for f in tails(g)}
    lab = SusyLabeling(genus, dict.fromkeys(g.flags, NS), tail_labels, {})
    return SusyGraph(g, lab, modular=True)


_PASSED = ValidationReport(())


def _valid(graph: Graph, labeling: SusyLabeling, modular: bool) -> SusyGraph:
    """A graph that a rule of the calculus built from a valid source (the
    target of ``calculus._image`` or a piece from ``calculus._piece_graph``),
    or a colouring that a lift built on a valid graph by the forest rule
    (``lifting._colorings``), so valid too: it keeps the shared passing
    report as both of its reports."""
    graph.__dict__["report"] = _PASSED
    return _owned(
        SusyGraph, graph=graph, labeling=labeling, modular=modular, _labeling_report=_PASSED
    )


def validate_susy_graph(g: SusyGraph) -> ValidationReport:
    """The graph axioms, then the labeling checks, both kept on the graphs."""
    if not isinstance(g, SusyGraph):
        return ValidationReport((f"expected a SusyGraph, got {type(g).__name__}",))
    rep = validate_graph(g.graph)
    return g._labeling_report if rep.ok else rep


def _check_labeling(g: SusyGraph) -> ValidationReport:
    if not isinstance(g.labeling, SusyLabeling):
        return ValidationReport((f"expected a SusyLabeling, got {type(g.labeling).__name__}",))
    problems: list[str] = []
    base = g.graph
    lab = g.labeling

    if lab.genus.keys() != base.vertices:
        problems.append("genus: domain must be exactly the vertex set")
    elif not all(type(k) is int and k >= 0 for k in lab.genus.values()):
        bad = sorted(v for v, k in lab.genus.items() if type(k) is not int or k < 0)
        problems.append(f"genus: negative or non-integer at {bad}")

    if lab.color.keys() != base.flags:
        problems.append("color: domain must be exactly the flag set")
    elif not all(c in (NS, R) for c in lab.color.values()):
        bad = sorted(f for f, c in lab.color.items() if c not in (NS, R))
        problems.append(f"color: values must be NS or R, got bad flags {bad}")
    else:
        color, inv = lab.color, base.involution
        # the colour of each flag's partner, read in the colour's key order
        if [*map(color.__getitem__, map(inv.__getitem__, color))] != [*color.values()]:
            mismatched = sorted(f for f in base.flags if color[inv[f]] != color[f])
            problems.append(
                f"color: edge flags disagree across the involution at {mismatched}"
            )
        r_count = dict.fromkeys(base.vertices, 0)
        for f, c in color.items():
            if c == R:
                r_count[base.boundary[f]] += 1
        if any(n % 2 for n in r_count.values()):
            for v in sorted(base.vertices):
                if r_count[v] % 2:
                    problems.append(f"vertex {v!r} sees an odd number of R flags")

    if not problems:
        ns_tails, r_tails = set(), set()
        for f, p in base.involution.items():
            if f == p:
                (ns_tails if lab.color[f] == NS else r_tails).add(f)
        for name, mapping, expect in (
            ("NS", lab.ns_tail_labels, ns_tails),
            ("R", lab.r_tail_labels, r_tails),
        ):
            # a value that is not a string is dropped, so the sizes differ
            values = {f for f in mapping.values() if isinstance(f, str)}
            if len(values) != len(mapping) or values != expect:
                problems.append(
                    f"{name} tail labeling must be a bijection onto the {name} tails"
                )
        if lab.ns_tail_labels.keys() & lab.r_tail_labels.keys():
            problems.append("NS and R label sets must be disjoint")
        labels = (*lab.ns_tail_labels, *lab.r_tail_labels)
        if not _graphs._strings(labels):
            bad = ", ".join(sorted(repr(l) for l in labels if not isinstance(l, str)))
            problems.append(f"tail labels must be strings, got {bad}")

    if g.modular:
        if any(c != NS for c in lab.color.values()):
            problems.append("modular view must be colored all-NS")
        if lab.r_tail_labels:
            problems.append("modular view must keep every label in the NS slot")

    return ValidationReport(tuple(problems))


def require_susy(g: SusyGraph) -> None:
    """Raise ``validate_susy_graph(g)`` if it fails, read straight from the
    reports kept on ``g``."""
    if not (isinstance(g, SusyGraph) and isinstance(g.graph, Graph)):
        validate_susy_graph(g).raise_if_invalid("SUSY graph")  # says what ``g`` is
    rep = g.graph.report
    (g._labeling_report if rep.ok else rep).raise_if_invalid("SUSY graph")


@dataclass(frozen=True)
class SusyMorphism:
    """A graph morphism whose endpoints carry SUSY labelings.  It keeps the
    checks of its maps (see ``validate_susy_morphism``), so the maps are
    read-only once checked, as a graph's are once ``Graph.report`` is read.
    The maps of a morphism that the calculus builds (its graftings,
    contractions and isomorphisms, all from ``calculus._image``, the
    total graftings, ``susy_identity``, and ``compose`` of two morphisms
    whose maps passed) are valid by construction: it keeps a passing
    report from the start, and so does each target graph that the calculus
    builds from a checked source (``_valid``)."""

    source: SusyGraph
    target: SusyGraph
    map: GraphMorphism

    @property
    def flag_map(self) -> dict[str, str]:
        return self.map.flag_map

    @property
    def vertex_map(self) -> dict[str, str]:
        return self.map.vertex_map

    @property
    def contracted(self) -> dict[str, str]:
        return self.map.contracted

    def contracted_pairs(self) -> list[tuple[str, str]]:
        return self.map.contracted_pairs()

    @kept
    def _report(self) -> ValidationReport:
        """The checks of the maps, read once the endpoints pass theirs."""
        return _check_maps(self)


def _built(source: SusyGraph, target: SusyGraph, map: GraphMorphism) -> SusyMorphism:
    """A morphism built by a rule of the calculus, which keeps the morphism
    axioms, the colours and the genus, so its maps pass their checks when
    its source is valid; it keeps the one shared passing report unchecked,
    as a target from ``_valid`` keeps its own.  ``validate_susy_morphism``
    still asks both endpoints for their reports on every call."""
    h = SusyMorphism(source, target, map)
    h.__dict__["_report"] = _PASSED
    return h


def susy_morphism(
    source: SusyGraph,
    target: SusyGraph,
    flag_map: Mapping[str, str],
    vertex_map: Mapping[str, str],
    contracted_pairs: Iterable[tuple[str, str]] = (),
) -> SusyMorphism:
    _graphs._require_a(SusyGraph, source, target)
    return SusyMorphism(
        source,
        target,
        GraphMorphism(
            source.graph,
            target.graph,
            flag_map,
            vertex_map,
            _copied(_graphs.involution_from_pairs, contracted_pairs, "contracted_pairs"),
        ),
    )


def validate_susy_morphism(h: SusyMorphism) -> ValidationReport:
    """Graph-morphism axioms plus genus bookkeeping and color preservation.
    Every call reads the endpoint reports kept on the graphs and checks that
    the endpoints agree; the checks of the maps run once, kept on ``h``."""
    if not isinstance(h, SusyMorphism):
        return ValidationReport((f"expected a SusyMorphism, got {type(h).__name__}",))
    for x, cls in ((h.source, SusyGraph), (h.target, SusyGraph), (h.map, GraphMorphism)):
        if not isinstance(x, cls):
            return ValidationReport((f"expected a {cls.__name__}, got {type(x).__name__}",))
    problems: list[str] = []
    for g, name in ((h.source, "source"), (h.target, "target")):
        rep = validate_susy_graph(g)
        if not rep.ok:
            problems.extend(f"{name}: {p}" for p in rep.violations)
    if h.map.source != h.source.graph or h.map.target != h.target.graph:
        problems.append("underlying map endpoints disagree with the SUSY endpoints")
    if h.source.modular != h.target.modular:
        problems.append("morphism mixes the modular view with genuine SUSY graphs")
    if problems:
        return ValidationReport(tuple(problems))
    return h._report


def _check_maps(h: SusyMorphism) -> ValidationReport:
    problems = list(_graphs._morphism_axioms(h.map).violations)
    if problems:
        return ValidationReport(tuple(problems))

    src, tgt = h.source, h.target
    src_color, tgt_color = src.labeling.color, tgt.labeling.color
    for f, pre in h.flag_map.items():
        if src_color[pre] != tgt_color[f]:
            problems.append(f"color not preserved at target flag {f!r}")
    orbits = h.map.orbits
    for a, b in orbits:
        if src_color[a] != src_color[b]:
            problems.append(f"contracted orbit ({a!r}, {b!r}) mixes colors")

    # Each image vertex carries the summed genus of its fiber plus the number
    # of independent cycles formed by the contracted orbits over that fiber:
    # sum(genus) + #orbits - #fiber + 1, keyed in order of first image.
    src_genus, vertex_map = src.labeling.genus, h.vertex_map
    expected: dict[str, int] = {}
    for v, w in vertex_map.items():
        expected[w] = expected.get(w, 1) + src_genus[v] - 1
    for a, _ in orbits:
        expected[vertex_map[src.boundary[a]]] += 1
    for w, e in expected.items():
        if tgt.genus_of(w) != e:
            problems.append(f"genus at {w!r} should be {e}, found {tgt.genus_of(w)}")

    return ValidationReport(tuple(problems))


def susy_identity(g: SusyGraph) -> SusyMorphism:
    require_susy(g)
    return _built(g, g, _graphs.identity_morphism(g.graph))


def compose(h, f):
    """Composite of two morphisms, SUSY-labeled or plain.  The category is
    closed under composition, so the composite of two SUSY morphisms whose
    kept map checks passed keeps a passing report unchecked."""
    if isinstance(h, SusyMorphism) and isinstance(f, SusyMorphism):
        if h.target != f.source:
            raise ValidationError("compose: endpoints do not match")
        m = _graphs.compose(h.map, f.map)
        if vars(h).get("_report") and vars(f).get("_report"):
            return _built(h.source, f.target, m)
        return SusyMorphism(h.source, f.target, m)
    if isinstance(h, GraphMorphism) and isinstance(f, GraphMorphism):
        return _graphs.compose(h, f)
    raise ValidationError("compose expects two morphisms of the same kind")


def genus(g: SusyGraph) -> int:
    """Total genus: the vertex genera plus the first Betti number, the
    number of fundamental cycles.  Raises ValidationError on an invalid graph."""
    require_susy(g)
    return sum(g.labeling.genus.values()) + len(g.graph._forest[1].cycles)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    unstable_vertices: tuple[str, ...]


def is_stable(g: SusyGraph) -> StabilityReport:
    """Stability: 2*genus(v) - 2 + #flags(v) > 0 at every vertex.  Raises
    ValidationError on an invalid graph."""
    require_susy(g)
    genera, incidence = g.labeling.genus, g.graph.incidence
    bad = tuple(
        sorted(v for v, fl in incidence.items() if 2 * genera[v] - 2 + len(fl) <= 0)
    )
    return StabilityReport(not bad, bad)


def forget(x):
    """Erase colors: SUSY graphs (or morphisms) down to the modular view.

    Labels from both slots are merged into the single (all-NS) slot, which
    is well defined because the label sets are disjoint.
    """
    if isinstance(x, SusyMorphism):
        return SusyMorphism(forget(x.source), forget(x.target), x.map)
    _graphs._require_a(SusyGraph, x)
    g: SusyGraph = x
    colors = dict.fromkeys(g.flags, NS)
    lab = SusyLabeling(g.labeling.genus, colors, g.merged_tail_labels(), {})
    return SusyGraph(g.graph, lab, modular=True)


def include(x):
    """Reinterpret a modular graph (or morphism) as an all-NS SUSY graph."""
    if isinstance(x, SusyMorphism):
        return SusyMorphism(include(x.source), include(x.target), x.map)
    _graphs._require_a(SusyGraph, x)
    g: SusyGraph = x
    if not g.modular:
        raise ValidationError("include expects the modular view")
    return replace(g, modular=False)


def disjoint_union(g1: SusyGraph, g2: SusyGraph) -> SusyGraph:
    """Monoidal sum carrying genus, colors and labels along; identifiers
    and labels are tagged ``0:`` in ``g1`` and ``1:`` in ``g2``."""
    _graphs._require_a(SusyGraph, g1, g2)
    if g1.modular != g2.modular:
        raise ValidationError("disjoint_union: cannot mix modular and SUSY views")
    base = _graphs.disjoint_union(g1.graph, g2.graph)
    genera, colors, ns_labels, r_labels = {}, {}, {}, {}
    for t, g in (("0", g1), ("1", g2)):
        lab = g.labeling
        genera.update({f"{t}:{v}": k for v, k in lab.genus.items()})
        colors.update({f"{t}:{f}": c for f, c in lab.color.items()})
        ns_labels.update({f"{t}:{l}": f"{t}:{f}" for l, f in lab.ns_tail_labels.items()})
        r_labels.update({f"{t}:{l}": f"{t}:{f}" for l, f in lab.r_tail_labels.items()})
    return SusyGraph(base, SusyLabeling(genera, colors, ns_labels, r_labels), g1.modular)
