"""Enumeration of boundary strata and the contraction partial order.

Strata of the moduli space with a fixed total genus and labeled tail set
are isomorphism classes of stable SUSY graphs.  Enumeration proceeds in two
passes: modular shapes first, generated from the one-vertex graph by vertex
splitting and genus-to-loop moves and deduplicated by canonical certificate,
then NS/R colorings of each shape, counted by the parity argument (2^b1 per
shape) and deduplicated the same way.  Each split is generated once, not
once more as its mirror image, and every move of a stable shape is stable.

Shapes are generated as integer cores (see ``canon``): the search starts
from the corolla's core, each move is built from its parent's canonical
core and searched as a core, the winning leaf of a new shape renumbers
the move into the shape's canonical core, and a shape is named as a graph
once, by ``canon._named``, when the generation ends.  The colorings
are searched as cores too: each is its shape's core with the colours
replaced, and a stratum is named once, when its digest is new.

The search that finds a shape also gives generators of its automorphism
group, and they prune both passes.  Moves in one orbit of the parent's
automorphisms give isomorphic children, so each move is keyed before it
is built and one move per orbit is searched.  The colorings of a shape are
lift masks keyed by their R flags, and two are one stratum exactly when an
automorphism of the shape carries one to the other, so only the first of
each orbit is built, and the whole orbit takes its digest.  The first of
each orbit is searched, except the all-NS coloring (no R tails, no R
edges), which takes its shape's search: it differs from the shape only in
``modular``, which every leaf of the search shares, so its certificate is
the shape's with ``"modular":false``, and the shape with ``modular``
false, sharing its graph and labeling, is its canonical graph.

Each ``StratumRecord`` keeps the certificate digests of its colorings in
``digests``, parallel to ``colorings``, its shape's digest and, in
``coloring_digests``, the stratum digest of every raw coloring of the
shape, keyed by its set of R flags.

Contraction covers are recorded while the shapes are generated.  Each move
is the inverse of one edge contraction, and the winning leaf of the child's
search names the new edge in the child's flags and maps the rest onto the
parent's, so ``shape_covers`` holds, for at least one edge in each orbit of
the shape's automorphisms, the digest of the shape that contracting it
gives and that flag map.  Searching one move per orbit keeps this: an
automorphism of the parent that carries one move to another extends to an
isomorphism of the two children that carries new edge to new edge.
Contracting edge e of a colored stratum (S, k) gives (S/e, k restricted to
S/e), so ``strata_poset`` carries the R flags of every raw coloring along
the flag map into the target shape's ``coloring_digests``; it contracts and
canonizes nothing.  ``contraction_poset`` is the general path for an
arbitrary list of strata: it canonizes every stratum and contraction.

The number of edges of a stable shape is bounded by 3g - 3 + #tails.  An
instance guard refuses enumerations whose bound exceeds ``max_edges``
(``MAX_EDGES`` by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from hashlib import sha256
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import canon
from .canon import Core, Isomorphism, _canonical_core, _core, _core_of
from .canon import _generators, _named, _names, _unmodular_digest
from .canon import certificate_digest
from .errors import ValidationError
from .graphs import edges, orbit_pairs
from .lifting import _lift_masks
from .susy import SusyGraph
from .calculus import contract_pair

__all__ = [
    "MAX_EDGES",
    "ContractionPoset",
    "StratumRecord",
    "contraction_poset",
    "enumerate_modular_shapes",
    "enumerate_strata",
    "enumerate_strata_records",
    "strata_poset",
]

# the edge bound an enumeration may reach unless ``max_edges`` raises it
MAX_EDGES = 8


def _move_keys(c: Core) -> list[tuple]:
    """Every stable move of the core ``c``, keyed without building it: a
    split is (v, ((part, genus), (part, genus))), the flags and the genus
    of ``v`` shared out between the two new vertices, and a deloop is
    (v,).  A split and its mirror, with the two sides swapped, are one
    graph, so each side is a sorted tuple, the two sides are sorted, and
    only the split that puts the vertex's first flag on the first side is
    listed (at a vertex without flags, the one with ga <= gb).  Splits come
    first."""
    splits: list[tuple] = []
    deloops: list[tuple] = []
    for v, fl in enumerate(c.incidence):
        gv = c.genus[v]
        head, rest = fl[:1], fl[1:]
        for size in range(len(rest) + 1):
            # the genera that leave both sides stable, from the sizes alone
            genera = [
                (ga, gv - ga)
                for ga in range(gv + 1)
                if 2 * ga - 1 + len(head) + size > 0
                and 2 * (gv - ga) - 1 + len(rest) - size > 0
                and (fl or 2 * ga <= gv)
            ]
            if not genera:
                continue
            for more in combinations(rest, size):
                part = (*head, *more)
                other = tuple(f for f in rest if f not in more)
                for ga, gb in genera:
                    splits.append((v, tuple(sorted([(part, ga), (other, gb)]))))
        if gv >= 1:
            deloops.append((v,))
    return splits + deloops


def _move(c: Core, key: tuple) -> Core:
    """The move ``key`` of the core ``c`` (see ``_move_keys``), all NS: a
    split keeps its first side at vertex v and moves its second side to a
    new last vertex, and a deloop trades one unit of genus at v for a new
    loop.  The new edge is the last two flags, the first one at v."""
    genus, boundary, involution, color, label, _, _ = c
    v, n = key[0], len(boundary)
    new_genus = [*genus]
    new_boundary = [*boundary, v, v]
    if len(key) == 1:
        new_genus[v] -= 1
    else:
        (_, ga), (part, gb) = key[1]
        new_genus[v] = ga
        new_genus.append(gb)
        for f in (*part, n + 1):
            new_boundary[f] = len(genus)
    return _core(
        tuple(new_genus),
        tuple(new_boundary),
        (*involution, n + 1, n),
        (*color, 0, 0),
        (*label, None, None),
        True,
    )


# an automorphism of a core, as its vertex map and its flag map
Generator = tuple[Mapping[int, int], Mapping[int, int]]


def _move_image(gen: Generator, key: tuple) -> tuple:
    """The move that the automorphism ``gen``, a vertex and a flag map of
    the core, takes the move ``key`` to."""
    vm, fm = gen
    v = vm[key[0]]
    if len(key) == 1:
        return (v,)
    return (v, tuple(sorted((tuple(sorted(fm[f] for f in p)), gp) for p, gp in key[1])))


def _coloring_image(gen: Isomorphism, key: frozenset[str]) -> frozenset[str]:
    """The R flags of the coloring that ``gen`` takes the coloring with R
    flags ``key`` to."""
    return frozenset(gen.flag_map[f] for f in key)


K = TypeVar("K")


def _orbits(
    keys: Iterable[K], generators: Sequence, image: Callable[..., K]
) -> list[list[K]]:
    """The orbits of ``keys`` under the group that ``generators`` generate,
    ``image(gen, key)`` being the action; each orbit starts with its first
    key in ``keys``, and the orbits come in that order."""
    if not generators:
        return [[k] for k in keys]
    seen: set[K] = set()
    out = []
    for k in keys:
        if k in seen:
            continue
        seen.add(k)
        orbit = [k]
        for x in orbit:
            for gen in generators:
                y = image(gen, x)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(orbit)
    return out


# edge of a shape (its two flags) -> (digest of the shape that
# contracting it gives, map from the remaining flags onto that shape's flags)
ShapeCovers = Mapping[tuple[str, str], tuple[str, Mapping[str, str]]]


def _shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[tuple[str, bytes, SusyGraph, ShapeCovers, tuple[Isomorphism, ...]]]:
    """``enumerate_modular_shapes`` with each shape's certificate digest and
    certificate, the covers recorded while it was generated, and generators
    of its automorphism group, in the shape's names, read from the search
    that found it.

    Shapes are kept as canonical cores: each move is built and searched as
    a core, the winning leaf of a new shape's search renumbers the move
    into the shape's core and gives generators on it, and each shape and
    its generators are named once, at the end.  The winning leaf also names
    the new edge of each move in the child's flags and maps the rest onto
    the parent's, which is the child's cover; one is kept per edge."""
    if type(genus) is not int or genus < 0:
        raise ValidationError(f"genus must be a non-negative integer, got {genus!r}")
    if max_edges is not None and type(max_edges) is not int:
        raise ValidationError(f"max_edges must be an integer or None, got {max_edges!r}")
    labels = [*set(tail_labels)]
    if not all(isinstance(l, str) for l in labels):
        raise ValidationError("tail labels must be strings")
    labels.sort()
    if 2 * genus - 2 + len(labels) <= 0:
        raise ValidationError(
            f"unstable enumeration request: 2*{genus} - 2 + {len(labels)} <= 0"
        )
    bound = 3 * genus - 3 + len(labels)
    limit = MAX_EDGES if max_edges is None else max_edges
    if bound > limit:
        raise ValidationError(
            f"shape enumeration needs up to {bound} edges but the limit is "
            f"{limit}; pass max_edges (--max-edges) to go further"
        )
    # digest -> (canonical core, certificate, generators on the core, covers)
    found: dict[str, tuple[Core, bytes, list, dict]] = {}
    fresh: list[str] = []

    def search(child: Core) -> tuple[str, tuple[int, ...]]:
        """The digest of ``child``, a new shape kept in ``found`` and
        ``fresh``, and the canonical index of each of its flags."""
        cert, leaves = canon._search(child)
        digest = sha256(cert).hexdigest()
        if digest not in found:
            core = _canonical_core(child, leaves[0])
            maps = _generators(child, leaves, range(len(core.genus)), range(len(core.boundary)))
            found[digest] = (core, cert, maps, {})
            fresh.append(digest)
        return digest, leaves[0][1]

    zeros = (0,) * len(labels)  # the corolla: one vertex carrying every tail
    search(_core((genus,), zeros, tuple(range(len(labels))), zeros, tuple(labels), True))
    depth = 0
    while fresh and depth < bound:
        depth += 1
        frontier, fresh = fresh, []
        for pd in frontier:
            parent, _, generators, _ = found[pd]
            n = len(parent.boundary)
            names = _names("f", n + 2)
            for key, *_ in _orbits(_move_keys(parent), generators, _move_image):
                digest, index = search(_move(parent, key))
                covers = found[digest][3]
                edge = (names[index[n]], names[index[n + 1]])
                if edge not in covers:
                    covers[edge] = (pd, {names[index[f]]: names[f] for f in range(n)})

    def edge_count(digest: str) -> int:
        return sum(f != p for f, p in enumerate(found[digest][0].involution)) // 2

    out = []
    for digest in sorted(found, key=lambda d: (edge_count(d), d)):
        core, cert, generators, covers = found[digest]
        vn, fn = _names("v", len(core.genus)), _names("f", len(core.boundary))
        named = tuple(
            Isomorphism(
                {vn[a]: vn[b] for a, b in vm.items()}, {fn[a]: fn[b] for a, b in fm.items()}
            )
            for vm, fm in generators
        )
        out.append((digest, cert, _named(core), covers, named))
    return out


def enumerate_modular_shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[SusyGraph]:
    """All stable modular graphs of the given total genus and tail label
    set, one canonical representative per isomorphism class, ordered by
    edge count and certificate."""
    return [g for _, _, g, _, _ in _shapes(genus, tail_labels, max_edges)]


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
    (``2 ** b1`` by the parity argument).  Only the labels are checked: the
    raw colorings are lift masks keyed by their R flags, and only the first
    of each orbit under the shape's automorphisms is searched, on the
    shape's core.  The all-NS coloring takes its digest from the shape's
    certificate and is its own canonical graph, so it is not searched."""
    ns, rr = frozenset(ns_labels), frozenset(r_labels)
    overlap = ns & rr
    if overlap:
        raise ValidationError(f"labels {sorted(overlap, key=str)} are both NS and R")
    if len(rr) % 2:
        raise ValidationError("the number of R tail labels must be even")
    records = []
    for shape_digest, certificate, shape, covers, generators in _shapes(
        genus, ns | rr, max_edges
    ):
        pairs, masks = _lift_masks(shape, rr) or ([], [])
        if not masks:
            continue
        r_tails = frozenset(shape.labeling.ns_tail_labels[l] for l in rr)
        # the R flags: the R tails and both flags of every R edge
        keys = [
            r_tails.union(*(p for i, p in enumerate(pairs) if (mask >> i) & 1))
            for mask in masks
        ]
        if any(keys):
            # the colorings with an R flag are searched on the shape's core
            core, flags = _core_of(shape), sorted(shape.flags)
        graphs: dict[str, SusyGraph] = {}
        coloring_digests = dict.fromkeys(keys, "")
        for orbit in _orbits(keys, generators, _coloring_image):
            if not orbit[0]:
                # the all-NS coloring, which takes its shape's search
                digest = _unmodular_digest(certificate)
                graphs[digest] = replace(shape, modular=False)
            else:
                color = tuple(int(f in orbit[0]) for f in flags)
                colored = core._replace(color=color, modular=False)
                cert, leaves = canon._search(colored)
                digest = sha256(cert).hexdigest()
                if digest not in graphs:
                    graphs[digest] = _named(_canonical_core(colored, leaves[0]))
            coloring_digests.update(dict.fromkeys(orbit, digest))
        digests = tuple(sorted(graphs))
        records.append(
            StratumRecord(
                shape,
                shape_digest,
                tuple(graphs[d] for d in digests),
                digests,
                coloring_digests,
                covers,
            )
        )
    return records


def _ordered(
    records: Iterable[StratumRecord],
) -> tuple[tuple[SusyGraph, ...], tuple[str, ...], tuple[int, ...]]:
    """The strata of ``records`` with their digests and edge counts, ordered
    by edge count and digest."""
    keyed = []
    for rec in records:
        n_edges = len(edges(rec.shape.graph))
        keyed.extend((n_edges, d, g) for g, d in zip(rec.colorings, rec.digests))
    keyed.sort(key=lambda t: t[:2])
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
            raise ValidationError(f"stratum {d} is not in the poset")
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
