"""Canonical forms and isomorphism testing for SUSY graphs.

The certificate is a byte string: a canonical JSON encoding of the graph
after vertices and flags are renumbered by a refinement-plus-backtracking
search that minimizes the encoding; a partition that refinement leaves
discrete is the one leaf, found with no backtracking.  Two graphs are
isomorphic over fixed tail labels exactly when their certificates agree.

The search runs on a ``Core``, the graph on integers with its own
incidence, and a leaf is four integer tuples: each vertex's position and
each flag's index, and their inverses, the vertex order and the flag
sequence that the certificate reads.  A certificate is written only when
leaves are compared or a class is new: it encodes the canonical core
one-to-one, so ``strata`` finds a shape it has seen by its canonical core.
It does not depend on how a core is numbered, since a renumbering only
relabels the search tree, and its bytes are written directly, as
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` writes
them.  ``_core_of`` numbers a named graph in the sorted order of its names
("f10" before "f2"); a canonical core is numbered by its leaf, vertex p at
position p and flag i at index i, and ``_named``, the one naming of a
canonical core, names them ``v{p}`` and ``f{i}``, and ``_name_order``
sorts them.  Names come back at the edge only: ``CanonicalForm`` names its
graph, witnesses and generators when they are first read, and ``strata``
names each new shape and stratum once.  ``canonical_form`` validates its
input once; the search does not, and refuses a graph past
``MAX_SEARCH_LEAVES`` leaves.

The same search yields isomorphisms and automorphisms.  Every leaf whose
certificate ties the least one, mapped onto the winning leaf, gives one
automorphism per vertex permutation; the automorphisms that fix every
vertex (permuting same-named tails, same-colour parallel edges and
same-colour loops, and flipping loops) complete each coset.  Without fixed
labels the search names each tail by its colour.  The same leaves and the
blocks of vertex-fixing moves give ``CanonicalForm.generators``, a small
generating set of the canonical graph's automorphisms, and the order of the
group, which ``automorphisms`` checks before it lists the group.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Sequence

from .errors import ValidationError
from .graphs import Graph, _owned, kept
from .susy import NS, R, SusyGraph, SusyLabeling, require_susy

__all__ = [
    "MAX_AUTOMORPHISMS",
    "MAX_SEARCH_LEAVES",
    "CanonicalForm",
    "Isomorphism",
    "are_isomorphic",
    "automorphisms",
    "canonical_form",
    "certificate_digest",
    "isomorphisms_between",
]

# ``automorphisms`` refuses to list a group larger than this
MAX_AUTOMORPHISMS = 100_000
# a search refuses a graph once it reaches more leaves than this
MAX_SEARCH_LEAVES = 10_000

# a core numbers NS 0 and R 1
COLORS = (NS, R)

# one leaf of the search: each vertex's position and each flag's index, then
# the vertex at each position and the flag at each index
Leaf = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# an automorphism of a canonical core: its vertex map and its flag map
Generator = tuple[tuple[int, ...], tuple[int, ...]]
# the blocks of interchangeable units of ``_blocks``, each with whether its
# units are loops
Blocks = list[tuple[list[tuple[int, ...]], bool]]


class Core(NamedTuple):
    """A SUSY graph on integers: ``boundary``, ``involution``, ``color``
    and ``label`` (each tail's name, else None) by flag, ``genus`` and
    ``incidence`` (each vertex's flags, ascending) by vertex."""

    genus: tuple[int, ...]
    boundary: tuple[int, ...]
    involution: tuple[int, ...]
    color: tuple[int, ...]
    label: tuple[str | None, ...]
    modular: bool
    incidence: tuple[tuple[int, ...], ...]


def _core(*arrays) -> Core:
    """The core of ``genus, boundary, involution, color, label, modular``,
    with its incidence built here once."""
    incidence: list[list[int]] = [[] for _ in arrays[0]]
    for f, v in enumerate(arrays[1]):
        incidence[v].append(f)
    return Core(*arrays, tuple(map(tuple, incidence)))


def _core_of(g: SusyGraph, labels_fixed: bool = True) -> Core:
    """``g`` as a core, each tail named by its label, or by its colour when
    labels are not fixed, so that same-colour tails may permute."""
    lab = g.labeling
    vertex = {v: i for i, v in enumerate(sorted(g.vertices))}
    flags = sorted(g.flags)
    flag = {f: i for i, f in enumerate(flags)}
    label = {f: l for l, f in [*lab.ns_tail_labels.items(), *lab.r_tail_labels.items()]}
    if not labels_fixed:
        label = {f: lab.color[f] for f in label}
    return _core(
        tuple(lab.genus[v] for v in vertex),
        tuple(vertex[g.boundary[f]] for f in flags),
        tuple(flag[g.involution[f]] for f in flags),
        tuple(COLORS.index(lab.color[f]) for f in flags),
        tuple(label.get(f) for f in flags),
        bool(g.modular),
    )


@cache
def _names(prefix: str, n: int) -> tuple[str, ...]:
    """The names ``prefix0 .. prefix{n-1}``, one shared tuple per size."""
    return tuple(f"{prefix}{i}" for i in range(n))


@cache
def _name_order(n: int) -> tuple[int, ...]:
    """``0 .. n-1`` in the sorted order of their ``_names`` ("f10" first)."""
    return tuple(sorted(range(n), key=str))


@cache
def _runs(degrees: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The boundary and the incidence of a canonical core whose vertices
    have ``degrees``, each vertex's flags the next run of indices."""
    starts = itertools.accumulate(degrees, initial=0)
    runs = tuple(tuple(range(a, a + d)) for a, d in zip(starts, degrees))
    return tuple(p for p, run in enumerate(runs) for _ in run), runs


def _canonical_core(c: Core, leaf: Leaf) -> Core:
    """The canonical core that ``leaf`` renumbers ``c`` to: each vertex
    numbered by its position and each flag by its index.  A leaf gives each
    vertex's flags a run of consecutive indices, which is its incidence.  An
    all-NS core keeps its colours: no renumbering changes them."""
    genus, _, j, color, label, modular, incidence = c
    _, index, vs, fs = leaf
    boundary, runs = _runs(tuple([len(incidence[v]) for v in vs]))
    return Core(
        tuple([genus[v] for v in vs]),
        boundary,
        tuple([index[j[f]] for f in fs]),
        tuple([color[f] for f in fs]) if 1 in color else color,
        tuple([label[f] for f in fs]),
        modular,
        runs,
    )


def _named(c: Core) -> SusyGraph:
    """The graph of the canonical core ``c``, the one naming of a canonical
    core: vertex p is ``v{p}``, flag i is ``f{i}`` and a tail has its label."""
    vertex, flag = _names("v", len(c.genus)), _names("f", len(c.boundary))
    tails: tuple[dict[str, str], dict[str, str]] = ({}, {})
    for f, l in enumerate(c.label):
        if l is not None:
            tails[c.color[f]][l] = flag[f]
    graph = _owned(
        Graph, flags=frozenset(flag), vertices=frozenset(vertex),
        boundary={flag[f]: vertex[v] for f, v in enumerate(c.boundary)},
        involution={flag[f]: flag[p] for f, p in enumerate(c.involution)},
    )
    labeling = _owned(
        SusyLabeling, genus=dict(zip(vertex, c.genus)),
        color={f: COLORS[k] for f, k in zip(flag, c.color)},
        ns_tail_labels=tails[0], r_tail_labels=tails[1],
    )
    return SusyGraph(graph, labeling, c.modular)


@dataclass(frozen=True)
class Isomorphism:
    vertex_map: dict[str, str]
    flag_map: dict[str, str]


@dataclass(frozen=True)
class CanonicalForm:
    """The least certificate of ``source`` and its digest.  ``core`` is the
    core the search ran on, and ``leaves`` holds every leaf that ties it,
    the winning leaf first; ``graph``, the witnesses and ``generators`` are
    built from them when read."""

    certificate: bytes
    digest: str
    source: SusyGraph = field(repr=False)
    core: Core = field(repr=False)
    leaves: tuple[Leaf, ...] = field(repr=False)

    @kept
    def vertex_witness(self) -> dict[str, str]:
        pos = self.leaves[0][0]
        vn = _names("v", len(pos))
        return {v: vn[p] for v, p in zip(sorted(self.source.vertices), pos)}

    @kept
    def flag_witness(self) -> dict[str, str]:
        index = self.leaves[0][1]
        fn = _names("f", len(index))
        return {f: fn[i] for f, i in zip(sorted(self.source.flags), index)}

    @kept
    def generators(self) -> tuple[Isomorphism, ...]:
        """Automorphisms that generate the group of ``graph``, in its names
        (see ``_generators``).  Empty when the group is trivial."""
        vn, fn = _names("v", len(self.core.genus)), _names("f", len(self.core.boundary))
        return tuple(
            Isomorphism(
                {vn[a]: vn[b] for a, b in enumerate(vm)},
                {fn[a]: fn[b] for a, b in enumerate(fm)},
            )
            for vm, fm in _generators(self.core, self.leaves)
        )

    @kept
    def graph(self) -> SusyGraph:
        return _named(_canonical_core(self.core, self.leaves[0]))


def _refine(
    neighbours: list[list[tuple[int, int]]], cells: list[list[int]]
) -> list[list[int]]:
    """Split cells by the multiset of (edge color, neighbour cell) until
    stable; ``neighbours`` lists those pairs per vertex, loops left out."""
    index_of = [0] * len(neighbours)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                index_of[v] = i
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                k = tuple(sorted([(col, index_of[w]) for col, w in neighbours[v]]))
                keyed.setdefault(k, []).append(v)
            out.extend(keyed[k] for k in sorted(keyed))
        if len(out) == len(cells):
            return out
        cells = out


def _leaf(c: Core, order: list[int]) -> Leaf:
    """The leaf of one vertex ordering.  At each vertex come its tails, its
    edges back to earlier vertices, its loops and its edges on to later
    vertices, by one sort of tagged keys, so each vertex's flags take
    consecutive indices."""
    _, b, j, color, label, _, incidence = c
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    index = [0] * len(b)
    sequence: list[int] = []
    for v in order:
        at, keys = pos[v], []
        for f in incidence[v]:
            p = j[f]
            if p == f:
                keys.append((0, color[f], label[f], f))
                continue
            w = pos[b[p]]
            if w < at:
                keys.append((1, w, color[f], index[p], f))
            elif w > at:
                keys.append((3, w, color[f], f))
            else:
                keys.append((2, color[f], min(f, p), f))
        keys.sort()
        for k in keys:
            index[k[-1]] = len(sequence)
            sequence.append(k[-1])
    return tuple(pos), tuple(index), tuple(order), tuple(sequence)


def _certificate(c: Core, leaf: Leaf) -> bytes:
    """The certificate of ``c`` renumbered by ``leaf``, from cached number text."""
    genus, _, j, color, label, modular, incidence = c
    _, index, order, sequence = leaf
    text = _names("", max(len(sequence), len(order)))
    colors = [('"NS"', '"R"')[color[f]] for f in sequence]
    edges, tails, vertex_of = [], [], []
    for i, f in enumerate(sequence):
        p = index[j[f]]
        if i < p:
            edges.append(f"[{text[i]},{text[p]}]")
        elif i == p:
            tails.append((label[f], i))
    tails = [f"[{encode_basestring_ascii(l)},{text[i]}]" for l, i in sorted(tails)]
    for p, v in enumerate(order):
        vertex_of += [text[p]] * len(incidence[v])
    return (
        f'{{"color":[{",".join(colors)}],"edges":[{",".join(edges)}],'
        f'"genus":[{",".join([str(genus[v]) for v in order])}],'
        f'"modular":{"true" if modular else "false"},"tails":[{",".join(tails)}],'
        f'"vertex_of":[{",".join(vertex_of)}]}}'
    ).encode("ascii")


def _cell_key(c: Core, v: int) -> tuple:
    """The starting cell key of vertex ``v``: its genus, its tails, and its
    NS loop flags, R loop flags, NS edge flags and R edge flags."""
    genus, b, j, color, label, _, incidence = c
    tails, counts = [], [0, 0, 0, 0]
    for f in incidence[v]:
        p = j[f]
        if p == f:
            tails.append((color[f], label[f]))
        else:
            counts[color[f] + 2 * (b[p] != v)] += 1
    tails.sort()
    return (genus[v], tuple(tails), *counts)


def _search(c: Core, keys: Sequence[tuple] | None = None) -> tuple[bytes | None, list[Leaf]]:
    """Each leaf of the refinement search with the least certificate, the
    first such leaf first, and that certificate if leaves were compared,
    else None.  The vertices start split by their ``_cell_key``, which the
    caller may pass as ``keys``, read from one sort: distinct keys give the
    one leaf, as do cells that one refinement leaves discrete; otherwise a
    depth-first search from a stack branches.  The input is not validated
    here; past ``MAX_SEARCH_LEAVES`` leaves it raises."""
    _, b, j, color, _, _, incidence = c
    n = len(incidence)
    keys = keys or [_cell_key(c, v) for v in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    if len(set(keys)) == n:
        return None, [_leaf(c, order)]
    cells = [list(cell) for _, cell in itertools.groupby(order, keys.__getitem__)]
    neighbours = [
        [(color[f], b[j[f]]) for f in fl if b[j[f]] != v] for v, fl in enumerate(incidence)
    ]
    cells = _refine(neighbours, cells)
    if len(cells) == n:
        return None, [_leaf(c, [v for v, in cells])]
    best: bytes | None = None
    ties: list[Leaf] = []
    leaves = 0
    stack = [cells]
    while stack:
        cells = stack.pop()
        split_at = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if split_at is None:
            leaves += 1
            if leaves > MAX_SEARCH_LEAVES:
                raise ValidationError(
                    f"the search passed MAX_SEARCH_LEAVES = {MAX_SEARCH_LEAVES} leaves"
                )
            leaf = _leaf(c, [v for cell in cells for v in cell])
            cert = _certificate(c, leaf)
            if best is None or cert < best:
                best, ties = cert, [leaf]
            elif cert == best:
                ties.append(leaf)
            continue
        cell, head, tail = cells[split_at], cells[:split_at], cells[split_at + 1 :]
        # the last vertex is pushed first, so the least is searched first
        for v in sorted(cell, reverse=True):
            stack.append(_refine(neighbours, [*head, [v], [w for w in cell if w != v], *tail]))
    assert best is not None
    return best, ties


def _unmodular_digest(certificate: bytes) -> str:
    """The digest of a modular graph's all-NS coloring, from the graph's
    certificate.  The two graphs differ only in ``modular``, which every
    leaf of the search shares, so the same leaf wins and the certificates
    differ in that one value.  The keys are sorted, and the colours, edges
    and genera before ``"modular"`` hold only "NS" and integers, so the
    first ``"modular":true`` is that key and its value."""
    return hashlib.sha256(
        certificate.replace(b'"modular":true', b'"modular":false', 1)
    ).hexdigest()


def canonical_form(g: SusyGraph) -> CanonicalForm:
    """Renumber vertices and flags canonically; equal certificates mean
    isomorphic over fixed tail labels."""
    require_susy(g)
    core = _core_of(g)
    cert, leaves = _search(core)
    cert = cert or _certificate(core, leaves[0])
    return CanonicalForm(cert, hashlib.sha256(cert).hexdigest(), g, core, tuple(leaves))


def certificate_digest(g: SusyGraph) -> str:
    """The digest of ``canonical_form(g)``."""
    return canonical_form(g).digest


def _blocks(c: Core) -> Blocks:
    """The units that automorphisms fixing every vertex may move, one block
    of interchangeable units at a time, with whether they are loops, which
    may also flip: same-named tails at a vertex (one flag each), and
    same-colour parallel edges or same-colour loops (their two flags).
    Blocks in which nothing can move are left out."""
    b, j = c.boundary, c.involution
    # each key starts with whether its units are loops
    blocks: dict[tuple, list[tuple[int, ...]]] = {}
    for v, fl in enumerate(c.incidence):
        for f in fl:
            p = j[f]
            if p == f:
                key: tuple = (False, v, c.label[f])
                unit: tuple[int, ...] = (f,)
            elif (v, f) < (b[p], p):
                key = (b[p] == v, v, b[p], c.color[f])
                unit = (f, p)
            else:
                continue
            blocks.setdefault(key, []).append(unit)
    return [(us, key[0]) for key, us in blocks.items() if key[0] or len(us) > 1]


def _generators(c: Core, leaves: Sequence[Leaf]) -> list[Generator]:
    """Automorphisms that generate the group of the canonical core that the
    first of ``leaves`` renumbers ``c`` to, as its vertex and flag maps:
    one per tied leaf after the first (winning positions to tied ones), and
    per block of vertex-fixing moves one transposition per unit after the
    first and, for loops, one flip."""
    pos0, index0, vs, fs = leaves[0]
    out = [
        (tuple(map(pos.__getitem__, vs)), tuple(map(index.__getitem__, fs)))
        for pos, index, _, _ in leaves[1:]
    ]
    fixed = tuple(range(len(pos0)))
    for units, flip in _blocks(c):
        swaps = [(units[0], u) for u in units[1:]]
        if flip:
            swaps.append((units[0][:1], units[0][1:]))
        for a, b in swaps:
            moved = dict(zip(a + b, b + a))
            out.append((fixed, tuple(index0[moved.get(f, f)] for f in fs)))
    return out


def _fixer_order(blocks: Blocks) -> int:
    """The number of automorphisms that fix every vertex, from the graph's
    ``_blocks``: k! per block of k units, times 2^k when they are loops."""
    order = 1
    for units, flip in blocks:
        order *= math.factorial(len(units)) * (2 ** len(units) if flip else 1)
    return order


def _vertex_fixers(blocks: Blocks) -> Iterator[dict[int, int]]:
    """Every automorphism that fixes each vertex, as a flag map, identity
    first and one at a time: the units of each of the graph's ``_blocks``
    permute, and loops also flip."""

    def fixers(i: int) -> Iterator[dict[int, int]]:
        if i == len(blocks):
            yield {}
            return
        units, flip = blocks[i]
        for images in itertools.permutations(units):
            turns = [(u, u[::-1]) if flip else (u,) for u in images]
            for turned in itertools.product(*turns):
                head = {f: c for u, t in zip(units, turned) for f, c in zip(u, t)}
                for rest in fixers(i + 1):
                    yield {**head, **rest}

    return fixers(0)


def _isomorphisms(
    leaves: list[Leaf], blocks: Blocks, onto: Leaf, g1: SusyGraph, g2: SusyGraph
) -> Iterator[Isomorphism]:
    """Map each leaf of ``g1`` onto the leaf ``onto`` of ``g2`` that has the
    same certificate, then follow each map by every automorphism of ``g2``
    that fixes each vertex; ``blocks`` are ``g2``'s ``_blocks``."""
    vn, fn = sorted(g1.vertices), sorted(g1.flags)
    wn, gn = sorted(g2.vertices), sorted(g2.flags)
    # the vertex and the flag of the target at each position and index
    at_vertex, at_flag = onto[2:]
    for pos, index, _, _ in leaves:
        vmap = {vn[v]: wn[at_vertex[p]] for v, p in enumerate(pos)}
        fmap = [at_flag[i] for i in index]
        for fix in _vertex_fixers(blocks):
            yield Isomorphism(
                dict(vmap), {fn[f]: gn[fix.get(c, c)] for f, c in enumerate(fmap)}
            )


def isomorphisms_between(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> Iterator[Isomorphism]:
    """Every isomorphism from ``g1`` onto ``g2``, built one at a time: one
    per automorphism of ``g1``, from one search of each graph."""
    require_susy(g1)
    require_susy(g2)
    core1, core2 = _core_of(g1, labels_fixed), _core_of(g2, labels_fixed)
    (cert1, leaves1), (cert2, leaves2) = _search(core1), _search(core2)
    if (cert1 or _certificate(core1, leaves1[0])) == (cert2 or _certificate(core2, leaves2[0])):
        yield from _isomorphisms(leaves1, _blocks(core2), leaves2[0], g1, g2)


def are_isomorphic(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> tuple[bool, Isomorphism | None]:
    """Decide isomorphism by comparing certificates; on success also return
    the witness that maps ``g1``'s winning leaf onto ``g2``'s."""
    found = next(isomorphisms_between(g1, g2, labels_fixed), None)
    return (found is not None), found


@dataclass(frozen=True)
class AutomorphismGroup:
    elements: tuple[Isomorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def automorphisms(g: SusyGraph, labels_fixed: bool = True) -> AutomorphismGroup:
    """All self-isomorphisms, identity first, from one search.  With
    labels_fixed the labeled tails are pinned pointwise; otherwise tails may
    permute within a color.  The order (tied leaves times the vertex-fixing
    automorphisms) is computed first, and a group of more than
    ``MAX_AUTOMORPHISMS`` elements raises ``ValidationError``;
    ``isomorphisms_between(g, g)`` yields it one element at a time."""
    require_susy(g)
    core = _core_of(g, labels_fixed)
    _, leaves = _search(core)
    blocks = _blocks(core)
    order = len(leaves) * _fixer_order(blocks)
    if order > MAX_AUTOMORPHISMS:
        raise ValidationError(
            f"the automorphism group has {order} elements, more than the "
            f"{MAX_AUTOMORPHISMS} automorphisms can list; "
            "isomorphisms_between yields them one at a time"
        )
    return AutomorphismGroup(tuple(_isomorphisms(leaves, blocks, leaves[0], g, g)))
