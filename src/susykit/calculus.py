"""Structure theory of SUSY graph morphisms.

Every morphism factors into elementary steps: one grafting (tail pairs
joined into edges), a chain of single-orbit contractions, and a final
isomorphism.  This module builds the elementary morphisms, classifies
them, decomposes arbitrary morphisms deterministically, atomizes a
morphism into its per-target-vertex pieces, and witnesses the two
commutation lemmas (isomorphisms slide past contractions; disjoint
contractions commute).

An elementary morphism is fixed by its maps, so one builder, ``_image``,
derives every grafting, contraction and isomorphism, target and all, from
the flag and vertex maps and the contracted and grafted pairs.  The
builders ``_grafted`` and ``_contracted`` pass it identity or merged-vertex
maps and check nothing.  Only the public entries check: each its graph or
morphism once and first, then its renaming, or each pair through
``_flag_pair``, the one check of a pair, so ``require_susy`` and
``_flag_pair`` are called from public names alone.  The steps, pieces
and squares built from a checked morphism are not checked again, nor is
it confirmed at run time that they recompose to it or commute: they do by
construction, and the tests check that they do.  The morphisms and target
graphs built here keep passing reports from the start (``susy._built``,
``susy._valid``), while every check of a morphism still checks its ends.

Identifier conventions: contracting an edge between distinct vertices
names the merged vertex by joining the sorted ``*``-separated parts of
the two old names, so iterated contractions reach the same name in any
order; a fresh name colliding with an existing vertex gains ``'`` marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .graphs import Graph, GraphMorphism, _copied, _owned, _strings, involution_from_pairs
from .susy import (
    NS,
    R,
    SusyGraph,
    SusyLabeling,
    SusyMorphism,
    _built,
    _valid,
    compose,
    require_susy,
    susy_identity,
    susy_morphism,
    validate_susy_morphism,
)

__all__ = [
    "Atomization",
    "CommutedContractions",
    "CommutedSquare",
    "Elementary",
    "atomize",
    "classify",
    "commute_contractions",
    "commute_iso_contraction",
    "compose_chain",
    "contract_edge",
    "contract_loop",
    "contract_pair",
    "contract_tails",
    "decompose_to_elementaries",
    "graft",
    "iso_between",
    "make_isomorphism",
    "total_grafting",
]


@dataclass(frozen=True)
class Elementary:
    """A morphism together with its elementary classification.

    ``pairs`` carries the grafted tail pairs or the single contracted
    pair; isomorphism payloads live on the morphism's own maps.
    """

    kind: str
    morphism: SusyMorphism
    pairs: tuple[tuple[str, str], ...] = ()


def merged_vertex_id(v1: str, v2: str, taken: frozenset[str]) -> str:
    parts = sorted(v1.split("*") + v2.split("*"))
    candidate = "*".join(parts)
    while candidate in taken:
        candidate += "'"
    return candidate


def _sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _flag_pair(g: SusyGraph, pair, who: str, virtual: bool | None) -> tuple[str, str]:
    """The one check of a pair: ``pair`` as two distinct flags of a checked
    ``g``, sorted, that the entry ``who`` may join: an edge when ``virtual``
    is False, two tails of one colour when it is True, and either, as ``g``
    has it, when it is None.  Anything else, a string too, is refused."""
    try:
        a, b = () if isinstance(pair, str) else pair
    except (TypeError, ValueError):
        raise ValidationError(f"{who}: {pair!r} is not a pair of flags") from None
    named = isinstance(a, str) and isinstance(b, str)
    if named:
        a, b = _sorted_pair(a, b)
    if not named or a == b or a not in g.flags or b not in g.flags:
        raise ValidationError(f"{who}: bad pair ({a!r}, {b!r})")
    inv = g.involution
    virtual = inv[a] != b if virtual is None else virtual
    if not virtual and inv[a] != b:
        raise ValidationError(f"{who}: ({a!r}, {b!r}) is not an edge")
    if virtual and (inv[a] != a or inv[b] != b):
        raise ValidationError(f"{who}: ({a!r}, {b!r}) must both be tails")
    if virtual and g.color_of(a) != g.color_of(b):
        raise ValidationError(f"{who}: ({a!r}, {b!r}) mixes colors")
    return a, b


def graft(g: SusyGraph, pairs: Iterable[tuple[str, str]]) -> SusyMorphism:
    """Join pairs of distinct same-color tails into edges.

    The underlying flag and vertex sets are untouched: only the involution
    grows, and the grafted tails' labels drop out of the labeling.
    """
    require_susy(g)
    pair_list = [_flag_pair(g, p, "graft", True) for p in _copied(list, pairs, "pairs")]
    used: set[str] = set()
    for a, b in pair_list:
        if a in used or b in used:
            raise ValidationError(f"graft: flag reused at ({a!r}, {b!r})")
        used.update((a, b))
    return _grafted(g, pair_list)


def _grafted(g: SusyGraph, pairs: Sequence[tuple[str, str]]) -> SusyMorphism:
    """The grafting of a valid ``g`` that joins ``pairs`` of its tails; unchecked."""
    return _image(g, {f: f for f in g.flags}, {v: v for v in g.vertices}, grafted=pairs)


def _image(
    g: SusyGraph,
    flag_name: dict[str, str],
    vertex_name: dict[str, str],
    contracted: Sequence[tuple[str, str]] = (),
    grafted: Sequence[tuple[str, str]] = (),
) -> SusyMorphism:
    """The elementary morphism out of a valid ``g`` that its maps fix:
    each flag is renamed by ``flag_name``, which skips the flags of the
    ``contracted`` pairs, each vertex is sent by ``vertex_name``, a fresh
    dict that it keeps as the vertex map, and the ``grafted`` pairs of
    tails are joined.  Its target is derived from those maps.  The boundary
    goes through the vertex map; the involution, plus the grafted pairs,
    and the colours are carried over; a tail label stays on its flag while
    that flag is still a tail; each vertex's genus is its fiber's genera,
    plus one per contracted pair over it, less one per fiber vertex past
    the first.  Nothing is checked: the morphism and its target are valid
    by construction."""
    fn, vn, lab = flag_name, vertex_name, g.labeling
    joined, cut = involution_from_pairs(grafted), involution_from_pairs(contracted)
    dropped, partner = {**joined, **cut}, {**g.involution, **joined}
    source_boundary, source_color = g.boundary, lab.color
    boundary, involution, color, flag_map = {}, {}, {}, {}
    for f, t in fn.items():
        boundary[t] = vn[source_boundary[f]]
        involution[t] = fn[partner[f]]
        color[t] = source_color[f]
        flag_map[t] = f
    genus: dict[str, int] = {}
    for v, k in lab.genus.items():
        genus[vn[v]] = genus.get(vn[v], 1) + k - 1
    for a, _ in contracted:
        genus[vn[source_boundary[a]]] += 1
    target = _valid(
        _owned(
            Graph, flags=frozenset(flag_map), vertices=frozenset(vn.values()),
            boundary=boundary, involution=involution,
        ),
        _owned(
            SusyLabeling, genus=genus, color=color,
            ns_tail_labels={l: fn[f] for l, f in lab.ns_tail_labels.items() if f not in dropped},
            r_tail_labels={l: fn[f] for l, f in lab.r_tail_labels.items() if f not in dropped},
        ),
        g.modular,
    )
    return _built(g, target, _owned(
        GraphMorphism, source=g.graph, target=target.graph, flag_map=flag_map,
        vertex_map=vn, contracted=cut,
    ))


def _uncontracting(
    source: SusyGraph, target: SusyGraph, flag_map: dict[str, str], vertex_map: dict[str, str]
) -> SusyMorphism:
    """The morphism with these fresh maps that contracts nothing, built
    unchecked: a grafting or an isomorphism that its caller derived."""
    return _built(source, target, _owned(
        GraphMorphism, source=source.graph, target=target.graph, flag_map=flag_map,
        vertex_map=vertex_map, contracted={},
    ))


def _grafting(source: SusyGraph, target: SusyGraph) -> SusyMorphism:
    """The morphism between graphs on the same flags and vertices whose
    flag and vertex maps are identities."""
    return _uncontracting(
        source, target, {f: f for f in target.flags}, {v: v for v in target.vertices}
    )


def _contracted(g: SusyGraph, pair: tuple[str, str]) -> SusyMorphism:
    """The contraction of ``pair`` of a valid ``g``, an edge, a loop or two
    tails of one colour; nothing is checked."""
    a, b = pair
    va, vb = g.boundary[a], g.boundary[b]
    vertex_name = {v: v for v in g.vertices}
    if va != vb:
        vertex_name[va] = vertex_name[vb] = merged_vertex_id(va, vb, g.vertices - {va, vb})
    flag_name = {f: f for f in g.flags if f != a and f != b}
    return _image(g, flag_name, vertex_name, contracted=[pair])


def contract_edge(g: SusyGraph, pair: tuple[str, str]) -> SusyMorphism:
    """Contract an edge between two distinct vertices, summing their genera."""
    require_susy(g)
    a, b = pair = _flag_pair(g, pair, "contract", False)
    if g.boundary[a] == g.boundary[b]:
        raise ValidationError("contract_edge: pair is a loop; use contract_loop")
    return _contracted(g, pair)


def contract_loop(g: SusyGraph, pair: tuple[str, str]) -> SusyMorphism:
    """Contract a loop, raising its vertex's genus by one."""
    require_susy(g)
    a, b = pair = _flag_pair(g, pair, "contract", False)
    if g.boundary[a] != g.boundary[b]:
        raise ValidationError("contract_loop: pair is not a loop")
    return _contracted(g, pair)


def contract_pair(g: SusyGraph, pair: tuple[str, str]) -> SusyMorphism:
    """Contract an edge, a loop, or (virtually) a pair of tails."""
    require_susy(g)
    return _contracted(g, _flag_pair(g, pair, "contract", None))


def contract_tails(g: SusyGraph, pair: tuple[str, str]) -> SusyMorphism:
    """Virtual contraction: graft two tails and contract the new edge,
    expressed as a single morphism."""
    require_susy(g)
    return _contracted(g, _flag_pair(g, pair, "contract", True))


def make_isomorphism(
    g: SusyGraph,
    flag_renaming: Mapping[str, str] | None = None,
    vertex_renaming: Mapping[str, str] | None = None,
) -> SusyMorphism:
    """Rename flags and vertices; omitted identifiers keep their names."""
    require_susy(g)
    fr = _copied(dict, flag_renaming or {}, "flag_renaming")
    vr = _copied(dict, vertex_renaming or {}, "vertex_renaming")
    new_flag = {f: fr.get(f, f) for f in g.flags}
    new_vert = {v: vr.get(v, v) for v in g.vertices}
    for new in (new_flag, new_vert):
        if not _strings(new.values()) or len(set(new.values())) != len(new):
            raise ValidationError("renaming must stay injective, onto string names")
    if not (fr.keys() <= g.flags and vr.keys() <= g.vertices):
        raise ValidationError("renaming must name only flags and vertices of the graph")
    return _image(g, new_flag, new_vert)


def iso_between(
    source: SusyGraph,
    target: SusyGraph,
    flag_map: Mapping[str, str],
    vertex_map: Mapping[str, str],
) -> SusyMorphism:
    """Assemble and validate an isomorphism with the given maps
    (``flag_map`` runs target -> source, ``vertex_map`` source -> target)."""
    h = susy_morphism(source, target, flag_map, vertex_map)
    validate_susy_morphism(h).raise_if_invalid("isomorphism")
    kind = classify(h).kind
    if kind not in ("identity", "isomorphism"):
        raise ValidationError(f"maps describe a {kind}, not an isomorphism")
    return h


def _grafted_pairs(h: SusyMorphism) -> list[tuple[str, str]]:
    """Target edges whose preimages are source tail pairs."""
    out = []
    inv = h.source.involution
    for a, b in h.target.involution.items():
        if a < b:
            pa, pb = h.flag_map[a], h.flag_map[b]
            if inv[pa] != pb:
                out.append(_sorted_pair(pa, pb))
    return sorted(out)


def classify(h: SusyMorphism) -> Elementary:
    """Tag a valid morphism with its elementary kind (or ``composite``)."""
    validate_susy_morphism(h).raise_if_invalid("morphism")
    orbits = h.contracted_pairs()
    grafted = _grafted_pairs(h)
    flag_identity = all(v == k for k, v in h.flag_map.items())
    vertex_identity = all(v == k for k, v in h.vertex_map.items())

    if not orbits:
        if grafted:
            if flag_identity and vertex_identity:
                return Elementary("grafting", h, tuple(grafted))
            return Elementary("composite", h, tuple(grafted))
        if flag_identity and vertex_identity and h.source == h.target:
            return Elementary("identity", h)
        return Elementary("isomorphism", h)

    if len(orbits) == 1 and not grafted and flag_identity:
        (a, b), = orbits
        src = h.source
        rest_identity = all(
            h.vertex_map[v] == v
            for v in src.vertices
            if v not in (src.boundary[a], src.boundary[b])
        )
        if rest_identity:
            if src.involution[a] == b:
                kind = (
                    "loop_contraction"
                    if src.boundary[a] == src.boundary[b]
                    else "edge_contraction"
                )
            else:
                kind = "virtual_contraction"
            return Elementary(kind, h, ((a, b),))
    return Elementary("composite", h, tuple(orbits))


def total_grafting(g: SusyGraph) -> SusyMorphism:
    """The grafting from the disjoint union of ``g``'s vertex corollas to
    ``g`` itself; flag and vertex maps are identities."""
    require_susy(g)
    return _grafting(_piece_graph(g, g.vertices, g.flags, {}), g)


def _piece_graph(
    g: SusyGraph,
    vertices: set[str] | frozenset[str],
    flags: set[str] | frozenset[str],
    keep: Mapping[str, str],
) -> SusyGraph:
    """Piece of a valid ``g`` on the given vertices and all their flags,
    keeping only the edges of ``g`` listed in ``keep`` (every other flag
    becomes a tail, and tails label themselves); none of this is checked."""
    lab = g.labeling
    involution = {f: keep.get(f, f) for f in flags}
    base = _owned(
        Graph, flags=frozenset(flags), vertices=frozenset(vertices),
        boundary={f: g.boundary[f] for f in flags}, involution=involution,
    )
    new_tails = [f for f in flags if involution[f] == f]
    return _valid(
        base,
        _owned(
            SusyLabeling, genus={v: lab.genus[v] for v in vertices},
            color={f: lab.color[f] for f in flags},
            ns_tail_labels={f: f for f in new_tails if lab.color[f] == NS},
            r_tail_labels={f: f for f in new_tails if lab.color[f] == R},
        ),
        g.modular,
    )


@dataclass(frozen=True)
class Atomization:
    """Per-target-vertex pieces of a morphism and the commuting square.

    ``tails_grafting`` grafts the source pieces back into the source graph;
    ``target_grafting`` is the target's total grafting; ``pieces_morphism``
    is the disjoint union of the piece morphisms, whose maps are exactly
    the original's.  So the square
    ``tails_grafting ; original  ==  pieces_morphism ; target_grafting``
    commutes by construction; it is not checked at run time.
    """

    morphism: SusyMorphism
    pieces: dict[str, SusyGraph]
    piece_morphisms: dict[str, SusyMorphism]
    tails_grafting: SusyMorphism
    target_grafting: SusyMorphism
    pieces_morphism: SusyMorphism


def atomize(h: SusyMorphism) -> Atomization:
    validate_susy_morphism(h).raise_if_invalid("morphism")
    src, tgt = h.source, h.target

    # A piece keeps exactly the contracted edge orbits; edges that survive
    # into the target (preserved loops included) are cut here and grafted
    # back by the corolla grafting on the target side.
    keep = involution_from_pairs(p for p in h.map.orbits if src.involution[p[0]] == p[1])

    pieces: dict[str, SusyGraph] = {}
    piece_morphisms: dict[str, SusyMorphism] = {}
    target_grafting = _grafting(_piece_graph(tgt, tgt.vertices, tgt.flags, {}), tgt)
    for v in sorted(tgt.vertices):
        fiber_vertices = {w for w, img in h.vertex_map.items() if img == v}
        fiber_flags = {f for f in src.flags if h.vertex_map[src.boundary[f]] == v}
        piece = _piece_graph(src, fiber_vertices, fiber_flags, keep)
        corolla = _piece_graph(
            tgt, {v}, {f for f in tgt.flags if tgt.boundary[f] == v}, {}
        )
        flag_map = {f: h.flag_map[f] for f in corolla.flags}
        vertex_map = {w: v for w in fiber_vertices}
        contracted = [p for p in h.map.orbits if src.boundary[p[0]] in fiber_vertices]
        pieces[v] = piece
        piece_morphisms[v] = susy_morphism(piece, corolla, flag_map, vertex_map, contracted)

    # the pieces' maps together are exactly h's maps, so both sides of the
    # square are h's maps from the source union to the target
    source_union = _piece_graph(src, set(src.vertices), set(src.flags), keep)
    return Atomization(
        morphism=h,
        pieces=pieces,
        piece_morphisms=piece_morphisms,
        tails_grafting=_grafting(source_union, src),
        target_grafting=target_grafting,
        pieces_morphism=susy_morphism(
            source_union, target_grafting.source, h.flag_map, h.vertex_map, h.map.orbits
        ),
    )


def compose_chain(source: SusyGraph, morphisms: Iterable[SusyMorphism]) -> SusyMorphism:
    out = susy_identity(source)
    for m in _copied(list, morphisms, "morphisms"):
        out = compose(out, m)
    return out


def decompose_to_elementaries(h: SusyMorphism, order: str = "lex") -> list[Elementary]:
    """Factor a morphism as grafting, single-orbit contractions, and a final
    isomorphism, dropping trivial steps.

    ``order`` picks the contraction sequence: ``lex`` contracts orbits in
    lexicographic order of their smaller flag, ``reverse`` in the opposite
    order.  Each step is tagged with the kind it is built as, and in both
    orders the steps compose to ``h`` exactly; neither is checked again
    here (the tests recompose and classify the steps).
    """
    if order not in ("lex", "reverse"):
        raise ValidationError(f"unknown decomposition order {order!r}")
    validate_susy_morphism(h).raise_if_invalid("morphism")
    src, tgt = h.source, h.target
    steps: list[Elementary] = []
    current = src
    chain_vm = {w: w for w in src.vertices}

    orbits = h.map.orbits
    # tail-pair orbits must be grafted before they can be contracted
    virtual_pairs = [p for p in orbits if src.involution[p[0]] == p[0]]
    graft_pairs = sorted(set(_grafted_pairs(h)) | set(virtual_pairs))
    if graft_pairs:
        m = _grafted(current, graft_pairs)
        steps.append(Elementary("grafting", m, tuple(graft_pairs)))
        current = m.target

    # every orbit is an edge of ``current`` now, a loop when its two flags
    # sit at one vertex
    for a, b in reversed(orbits) if order == "reverse" else orbits:
        m = _contracted(current, (a, b))
        loop = current.boundary[a] == current.boundary[b]
        steps.append(Elementary("loop_contraction" if loop else "edge_contraction", m, ((a, b),)))
        current = m.target
        chain_vm = {w: m.vertex_map[chain_vm[w]] for w in chain_vm}

    iso_flag_map = {f: h.flag_map[f] for f in tgt.flags}
    iso_vertex_map = {chain_vm[w]: h.vertex_map[w] for w in src.vertices}
    is_trivial = (
        current == tgt
        and all(v == k for k, v in iso_flag_map.items())
        and all(v == k for k, v in iso_vertex_map.items())
    )
    if not is_trivial:
        steps.append(Elementary(
            "isomorphism", _uncontracting(current, tgt, iso_flag_map, iso_vertex_map)
        ))
    return steps


@dataclass(frozen=True)
class CommutedSquare:
    """Witness that an isomorphism slides past a contraction."""

    induced_iso: SusyMorphism
    iso_then_contract: SusyMorphism
    contract_then_iso: SusyMorphism


def commute_iso_contraction(a: SusyMorphism, pair: tuple[str, str]) -> CommutedSquare:
    """Given an isomorphism ``a`` and a contractible pair of its target,
    produce the unique isomorphism closing the commuting square, and both
    sides of the square.  The induced isomorphism is derived from the maps
    of ``a`` and of the two contractions, so it is built unchecked, and the
    square commutes by construction."""
    kind = classify(a).kind
    if kind not in ("identity", "isomorphism"):
        raise ValidationError(f"expected an isomorphism, got a {kind}")
    f1, f2 = pair = _flag_pair(a.target, pair, "contract", None)
    con_t = _contracted(a.target, pair)
    con_s = _contracted(a.source, _sorted_pair(a.flag_map[f1], a.flag_map[f2]))
    flag_map = {x: a.flag_map[x] for x in con_t.target.flags}
    sv, tv = con_s.vertex_map, con_t.vertex_map
    vertex_map = {sv[w]: tv[a.vertex_map[w]] for w in a.source.vertices}
    induced = _uncontracting(con_s.target, con_t.target, flag_map, vertex_map)
    return CommutedSquare(induced, compose(a, con_t), compose(con_s, induced))


@dataclass(frozen=True)
class CommutedContractions:
    commutes: bool
    first_then_second: SusyMorphism
    second_then_first: SusyMorphism


def commute_contractions(
    g: SusyGraph, e1: tuple[str, str], e2: tuple[str, str]
) -> CommutedContractions:
    """Contract two flag-disjoint pairs in both orders and compare; each is
    checked on ``g`` alone, as it stays contractible once the other is."""
    require_susy(g)
    e1, e2 = _flag_pair(g, e1, "contract", None), _flag_pair(g, e2, "contract", None)
    if set(e1) & set(e2):
        raise ValidationError("pairs must be flag-disjoint")
    m1, m2 = _contracted(g, e1), _contracted(g, e2)
    left = compose(m1, _contracted(m1.target, e2))
    right = compose(m2, _contracted(m2.target, e1))
    return CommutedContractions(left == right, left, right)
