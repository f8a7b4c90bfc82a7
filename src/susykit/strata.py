"""Enumeration of boundary strata and the contraction partial order.

Strata of the moduli space with a fixed total genus and labeled tail set
are isomorphism classes of stable SUSY graphs.  Enumeration proceeds in two
passes: modular shapes first, generated from the one-vertex graph by vertex
splitting and genus-to-loop moves and deduplicated by canonical certificate,
then NS/R colorings of each shape, counted by the parity argument (2^b1 per
shape) and deduplicated the same way.  Each split is generated once, not
once more as its mirror image, and every move of a stable shape is stable.
Each ``StratumRecord`` keeps the certificate digests of its colorings in
``digests``, parallel to ``colorings``, so the strata are ordered without
canonizing them again.  It also keeps its shape's digest and, in
``coloring_digests``, the stratum digest of every raw coloring of the
shape, keyed by its set of R flags.

Contraction covers are recorded while the shapes are generated.  Each move
is the inverse of one edge contraction, and the search that deduplicates
the child also names the new edge in the child's flags and maps the rest
onto the parent's, so ``shape_covers`` holds, for at least one edge in
each orbit of the shape's automorphisms, the digest of the shape that
contracting it gives and that flag map.  Contracting edge e of a colored
stratum (S, k) gives (S/e, k restricted to S/e), so ``strata_poset``
carries the remaining R flags of every raw coloring along the flag map
into the target shape, where one lookup in its ``coloring_digests`` names
the covering stratum; it contracts and canonizes nothing.
``contraction_poset`` is the general path for an arbitrary list of
strata: it canonizes every stratum and every contraction of it.

The number of edges of a stable shape is bounded by 3g - 3 + #tails.  An
instance guard refuses enumerations whose bound exceeds a configurable
limit (SUSY_KIT_MAX_EDGES, default 8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping

from .canon import CanonicalForm, _canonical_form, certificate_digest
from .errors import ValidationError
from .graphs import Graph, edges, flags_at, orbit_pairs
from .lifting import enumerate_edge_colorings
from .susy import NS, R, SusyGraph, SusyLabeling, modular_graph
from .calculus import contract_pair

__all__ = [
    "ContractionPoset",
    "StratumRecord",
    "contraction_poset",
    "enumerate_modular_shapes",
    "enumerate_strata",
    "enumerate_strata_records",
    "max_edge_limit",
    "strata_poset",
]

ENV_LIMIT = "SUSY_KIT_MAX_EDGES"
DEFAULT_LIMIT = 8


def max_edge_limit(override: int | None = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(ENV_LIMIT)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_LIMIT} must be an integer, got {raw!r}")


def _corolla(genus: int, labels: list[str]) -> SusyGraph:
    flags = {f"t:{l}": l for l in labels}
    return modular_graph(
        flags=set(flags),
        vertices={"v"},
        boundary={f: "v" for f in flags},
        involution={f: f for f in flags},
        genus={"v": genus},
        tail_labels={l: f for f, l in flags.items()},
    )


def _fresh_pair(g: Graph) -> tuple[str, str]:
    n = 0
    while f"e{n}a" in g.flags or f"e{n}b" in g.flags:
        n += 1
    return f"e{n}a", f"e{n}b"


def _split_moves(g: SusyGraph, ea: str, eb: str) -> Iterator[SusyGraph]:
    """Replace one vertex by two joined by the new edge (ea, eb),
    distributing its flags and genus in every stable way.  A split and its
    mirror, with the two halves swapped, are one graph, so only the split
    that puts the vertex's first flag on ``va`` is made (at a vertex
    without flags, the one with ga <= gb)."""
    base = g.graph
    for v in sorted(base.vertices):
        fl = sorted(flags_at(base, v))
        gv = g.genus_of(v)
        va, vb = f"{v}a", f"{v}b"
        while va in base.vertices or vb in base.vertices:
            va += "a"
            vb += "b"
        head, rest = fl[:1], fl[1:]
        for size in range(len(rest) + 1):
            for more in combinations(rest, size):
                part_set = set(head).union(more)
                for ga in range(gv + 1):
                    gb = gv - ga
                    if not fl and ga > gb:
                        continue
                    if 2 * ga - 2 + len(part_set) + 1 <= 0:
                        continue
                    if 2 * gb - 2 + (len(fl) - len(part_set)) + 1 <= 0:
                        continue
                    boundary = dict(base.boundary)
                    for f in fl:
                        boundary[f] = va if f in part_set else vb
                    boundary[ea] = va
                    boundary[eb] = vb
                    involution = dict(base.involution)
                    involution[ea] = eb
                    involution[eb] = ea
                    genus = {
                        w: g.genus_of(w) for w in base.vertices if w != v
                    }
                    genus[va] = ga
                    genus[vb] = gb
                    yield SusyGraph(
                        Graph(
                            base.flags | {ea, eb},
                            (base.vertices - {v}) | {va, vb},
                            boundary,
                            involution,
                        ),
                        SusyLabeling(
                            genus,
                            {f: g.color_of(f) for f in base.flags}
                            | {ea: NS, eb: NS},
                            dict(g.labeling.ns_tail_labels),
                            {},
                        ),
                        modular=True,
                    )


def _deloop_moves(g: SusyGraph, ea: str, eb: str) -> Iterator[SusyGraph]:
    """Trade one unit of genus at a vertex for the new loop (ea, eb)."""
    base = g.graph
    for v in sorted(base.vertices):
        gv = g.genus_of(v)
        if gv < 1:
            continue
        boundary = dict(base.boundary)
        boundary[ea] = v
        boundary[eb] = v
        involution = dict(base.involution)
        involution[ea] = eb
        involution[eb] = ea
        genus = {w: g.genus_of(w) for w in base.vertices}
        genus[v] = gv - 1
        yield SusyGraph(
            Graph(
                base.flags | {ea, eb},
                base.vertices,
                boundary,
                involution,
            ),
            SusyLabeling(
                genus,
                {f: g.color_of(f) for f in base.flags} | {ea: NS, eb: NS},
                dict(g.labeling.ns_tail_labels),
                {},
            ),
            modular=True,
        )


# edge of a shape (its two flags, sorted) -> (digest of the shape that
# contracting it gives, map from the remaining flags onto that shape's flags)
ShapeCovers = Mapping[tuple[str, str], tuple[str, Mapping[str, str]]]


def _shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[tuple[str, SusyGraph, ShapeCovers]]:
    """``enumerate_modular_shapes`` with each shape's certificate digest and
    the covers recorded while it was generated.  Every move adds one edge
    to a canonical parent, so contracting the new edge of the child gives
    back the parent: the child's flag witness names that edge in the
    child's flags and maps the rest onto the parent's.  One entry is kept
    per edge; as every contraction of a shape is the inverse of some move,
    each orbit of its edges under automorphisms gets at least one."""
    labels = sorted(set(tail_labels))
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"unstable enumeration request: 2*{genus} - 2 + {len(labels)} <= 0"
        )
    bound = 3 * genus - 3 + len(labels)
    limit = max_edge_limit(max_edges)
    if bound > limit:
        raise ValidationError(
            f"shape enumeration needs up to {bound} edges but the limit is "
            f"{limit}; raise {ENV_LIMIT} or pass max_edges to go further"
        )
    start = _canonical_form(_corolla(genus, labels))
    found: dict[str, tuple[SusyGraph, dict]] = {start.digest: (start.graph, {})}
    frontier = [start.digest]
    depth = 0
    while frontier and depth < bound:
        depth += 1
        fresh: list[str] = []
        for pd in frontier:
            parent = found[pd][0]
            ea, eb = _fresh_pair(parent.graph)
            moves = chain(_split_moves(parent, ea, eb), _deloop_moves(parent, ea, eb))
            for move in moves:
                form = _canonical_form(move)
                if form.digest not in found:
                    found[form.digest] = (form.graph, {})
                    fresh.append(form.digest)
                covers = found[form.digest][1]
                w = form.flag_witness
                edge = tuple(sorted((w[ea], w[eb])))
                if edge not in covers:
                    covers[edge] = (pd, {w[f]: f for f in parent.flags})
        frontier = fresh
    return sorted(
        ((d, g, covers) for d, (g, covers) in found.items()),
        key=lambda t: (len(edges(t[1].graph)), t[0]),
    )


def enumerate_modular_shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[SusyGraph]:
    """All stable modular graphs of the given total genus and tail label
    set, one canonical representative per isomorphism class, ordered by
    edge count and certificate."""
    return [g for _, g, _ in _shapes(genus, tail_labels, max_edges)]


@dataclass(frozen=True)
class StratumRecord:
    """The strata over one modular shape.  ``coloring_digests`` maps the R
    flags of each raw coloring of ``shape`` (in the shape's flag names) to
    that coloring's stratum digest.  ``shape_covers`` maps edges of
    ``shape``, at least one per orbit under its automorphisms, to the
    digest of the shape their contraction gives and a map of the remaining
    flags onto that shape's flags."""

    shape: SusyGraph
    shape_digest: str
    colorings: tuple[SusyGraph, ...]
    digests: tuple[str, ...]
    coloring_digests: Mapping[frozenset[str], str]
    shape_covers: ShapeCovers

    @property
    def predicted_colorings(self) -> int:
        return len(self.coloring_digests)


def enumerate_strata_records(
    genus: int,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
    max_edges: int | None = None,
) -> list[StratumRecord]:
    """Strata grouped by underlying modular shape.  Each record carries the
    distinct colorings (canonical representatives, in digest order), their
    certificate digests and the number of raw colorings of the shape
    (``2 ** b1`` by the parity argument)."""
    ns = sorted(set(ns_labels))
    rr = sorted(set(r_labels))
    overlap = set(ns) & set(rr)
    if overlap:
        raise ValidationError(f"labels {sorted(overlap)} are both NS and R")
    if len(rr) % 2:
        raise ValidationError("the number of R tail labels must be even")
    records = []
    for shape_digest, shape, shape_covers in _shapes(genus, ns + rr, max_edges):
        colored = enumerate_edge_colorings(shape, set(ns), set(rr))
        if not colored:
            continue
        forms: dict[str, CanonicalForm] = {}
        coloring_digests: dict[frozenset[str], str] = {}
        for c in colored:
            form = _canonical_form(c)
            forms.setdefault(form.digest, form)
            r_flags = frozenset(f for f, k in c.labeling.color.items() if k == R)
            coloring_digests[r_flags] = form.digest
        digests = tuple(sorted(forms))
        records.append(
            StratumRecord(
                shape,
                shape_digest,
                tuple(forms[d].graph for d in digests),
                digests,
                coloring_digests,
                shape_covers,
            )
        )
    return records


def _ordered(
    records: Iterable[StratumRecord],
) -> tuple[tuple[SusyGraph, ...], tuple[str, ...], tuple[int, ...]]:
    """The strata of ``records`` with their digests and edge counts, ordered
    by edge count and digest."""
    keyed = sorted(
        (
            (len(edges(rec.shape.graph)), d, g)
            for rec in records
            for g, d in zip(rec.colorings, rec.digests)
        ),
        key=lambda t: t[:2],
    )
    return (
        tuple(g for _, _, g in keyed),
        tuple(d for _, d, _ in keyed),
        tuple(n for n, _, _ in keyed),
    )


def enumerate_strata(
    genus: int,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
    max_edges: int | None = None,
) -> list[SusyGraph]:
    """Isomorphism classes of stable SUSY graphs with the given total genus
    and labeled NS/R tails, as canonical representatives ordered by edge
    count and certificate digest."""
    records = enumerate_strata_records(genus, ns_labels, r_labels, max_edges)
    return list(_ordered(records)[0])


@dataclass(frozen=True)
class ContractionPoset:
    """Strata ordered by edge contraction.  ranks[i] counts edges, so the
    one-vertex stratum has rank 0 and sits at the top: contracting an edge
    moves strictly up.  covers holds pairs (i, j) where stratum j is one
    contraction away from stratum i."""

    strata: tuple[SusyGraph, ...]
    digests: tuple[str, ...]
    ranks: tuple[int, ...]
    covers: frozenset[tuple[int, int]]
    _successors: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        successors: dict[int, list[int]] = {}
        for x, y in self.covers:
            successors.setdefault(x, []).append(y)
        object.__setattr__(self, "_successors", successors)
        object.__setattr__(self, "_index", {d: i for i, d in enumerate(self.digests)})

    def index_of(self, g: SusyGraph) -> int:
        d = certificate_digest(g)
        if d not in self._index:
            raise ValueError(f"stratum {d} is not in the poset")
        return self._index[d]

    def less_or_equal(self, i: int, j: int) -> bool:
        """True when stratum j is reachable from stratum i by contractions
        (i lies in the closure of j, i.e. i is deeper in the boundary)."""
        if i == j:
            return True
        frontier = [i]
        seen = {i}
        while frontier:
            nxt = []
            for a in frontier:
                for y in self._successors.get(a, ()):
                    if y not in seen:
                        nxt.append(y)
                        seen.add(y)
            if j in seen:
                return True
            frontier = nxt
        return False

    @property
    def top(self) -> int:
        tops = [i for i, r in enumerate(self.ranks) if r == 0]
        if len(tops) != 1:
            raise ValidationError("poset does not have a unique one-vertex top")
        return tops[0]


def contraction_poset(strata: Iterable[SusyGraph]) -> ContractionPoset:
    """Cover relations by single contractions among the given strata.  Every
    single-pair contraction of a listed stratum must land on a listed
    stratum (the list is closed under contraction)."""
    items = list(strata)
    digests = [certificate_digest(g) for g in items]
    index = {d: i for i, d in enumerate(digests)}
    if len(index) != len(items):
        raise ValidationError("duplicate strata passed to contraction_poset")
    covers: set[tuple[int, int]] = set()
    for i, g in enumerate(items):
        for pair in orbit_pairs(g.graph.involution):
            step = contract_pair(g, pair)
            d = certificate_digest(step.target)
            j = index.get(d)
            if j is None:
                raise ValidationError(
                    "contraction leaves the given stratum list; pass a list "
                    "closed under contraction"
                )
            covers.add((i, j))
    ranks = tuple(len(edges(g.graph)) for g in items)
    return ContractionPoset(tuple(items), tuple(digests), ranks, frozenset(covers))


def strata_poset(records: Iterable[StratumRecord]) -> ContractionPoset:
    """The contraction poset of every stratum in ``records``, which must be
    closed under contraction, as ``enumerate_strata_records`` returns them.
    Strata come in ``enumerate_strata`` order.  Nothing is contracted or
    canonized: each recorded shape cover carries the R flags of each raw
    coloring into the target shape's ``coloring_digests``.  Raw colorings
    in one orbit of the shape's automorphisms give one stratum, so going
    through all of them reaches the edges that were not recorded."""
    records = list(records)
    strata, digests, ranks = _ordered(records)
    index = {d: i for i, d in enumerate(digests)}
    tables = {rec.shape_digest: rec.coloring_digests for rec in records}
    covers: set[tuple[int, int]] = set()
    for rec in records:
        for edge, (target, flag_map) in rec.shape_covers.items():
            table = tables.get(target)
            if table is None:
                raise ValidationError(
                    "contraction leaves the given records; pass every record "
                    "of one enumeration"
                )
            for key, d in rec.coloring_digests.items():
                moved = frozenset(flag_map[f] for f in key if f not in edge)
                covers.add((index[d], index[table[moved]]))
    return ContractionPoset(strata, digests, ranks, frozenset(covers))
