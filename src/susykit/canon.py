"""Canonical forms and isomorphism testing for SUSY graphs.

The certificate is a byte string: a canonical JSON encoding of the graph
after vertices and flags are renumbered by a refinement-plus-backtracking
search that minimizes the encoding.  Two graphs are isomorphic over fixed
tail labels exactly when their certificates agree.

One search serves every entry point.  ``canonical_form`` validates its
input once, runs the search and keeps the winning leaf's vertex and flag
positions; the renumbered graph and the witnesses are built from those
positions only when they are first read, so ``certificate_digest`` (the
digest of ``canonical_form``) builds nothing.  The search itself does not
validate: the enumeration in ``strata`` canonizes graphs it built itself
through the unchecked ``_canonical_form``.  The flags at each vertex come
from the graph's own ``incidence``, built once per graph, and a search
refuses a graph past ``MAX_SEARCH_LEAVES`` leaves.

The same search yields isomorphisms and automorphisms.  Every leaf whose
certificate ties the least one, mapped onto the winning leaf, gives one
automorphism per vertex permutation; the automorphisms that fix every
vertex (permuting same-named tails, same-colour parallel edges and
same-colour loops, and flipping loops) complete each coset.  Without fixed
labels the search names each tail by its colour.  The same leaves and the
blocks of vertex-fixing moves give ``CanonicalForm.generators``, a small
generating set of the canonical graph's automorphisms, and the order of the
group, which ``automorphisms`` checks before it lists the group.  The
blocks are gathered once per search and serve every leaf.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import ValidationError
from .susy import NS, R, SusyGraph, _renamed, require_susy

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

# the vertex and flag positions of one leaf of the search
Leaf = tuple[dict[str, int], dict[str, int]]
# the blocks of interchangeable units of ``_blocks``, each with whether its
# units are loops
Blocks = list[tuple[list[tuple[str, ...]], bool]]


@dataclass(frozen=True)
class Isomorphism:
    vertex_map: dict[str, str]
    flag_map: dict[str, str]


@dataclass(frozen=True)
class CanonicalForm:
    """The least certificate of ``source`` and its digest.  ``leaves`` holds
    the positions of every leaf that ties it, the winning leaf first;
    ``graph``, the witnesses and ``generators`` are built from them when
    read."""

    certificate: bytes
    digest: str
    source: SusyGraph = field(repr=False)
    leaves: tuple[Leaf, ...] = field(repr=False)

    @cached_property
    def vertex_witness(self) -> dict[str, str]:
        return {v: f"v{i}" for v, i in self.leaves[0][0].items()}

    @cached_property
    def flag_witness(self) -> dict[str, str]:
        return {f: f"f{i}" for f, i in self.leaves[0][1].items()}

    @cached_property
    def generators(self) -> tuple[Isomorphism, ...]:
        """Automorphisms that generate the group of ``graph``, in its names:
        one per tied leaf after the first (winning positions to tied
        positions), and per block of vertex-fixing moves one transposition
        per unit after the first and, for loops, one flip.  Empty when the
        group is trivial."""
        vw, fw = self.vertex_witness, self.flag_witness
        out = [
            Isomorphism(
                {vw[v]: f"v{i}" for v, i in pos.items()},
                {fw[f]: f"f{i}" for f, i in flag_index.items()},
            )
            for pos, flag_index in self.leaves[1:]
        ]
        fixed = {w: w for w in vw.values()}
        for units, flip in _blocks(self.source, _labels(self.source)):
            swaps = [(units[0], u) for u in units[1:]]
            if flip:
                swaps.append((units[0][:1], units[0][1:]))
            for a, b in swaps:
                moved = dict(zip(a + b, b + a))
                out.append(
                    Isomorphism(fixed, {fw[f]: fw[moved.get(f, f)] for f in fw})
                )
        return tuple(out)

    @cached_property
    def graph(self) -> SusyGraph:
        return _renamed(self.source, self.flag_witness, self.vertex_witness)


def _labels(g: SusyGraph, labels_fixed: bool = True) -> dict[str, str]:
    """The name of each tail: its label, or its colour when labels are not
    fixed, so that same-colour tails may permute."""
    out = {f: l for l, f in g.labeling.ns_tail_labels.items()}
    out.update({f: l for l, f in g.labeling.r_tail_labels.items()})
    return out if labels_fixed else {f: g.color_of(f) for f in out}


def _base_key(
    g: SusyGraph, labels: dict[str, str], inc: dict[str, tuple], v: str
) -> tuple:
    fl = inc[v]
    j = g.involution
    color = g.labeling.color
    tails = sorted((color[f], labels[f]) for f in fl if j[f] == f)
    loops = [f for f in fl if j[f] != f and g.boundary[j[f]] == v]
    plain = [f for f in fl if j[f] != f and g.boundary[j[f]] != v]
    return (
        g.genus_of(v),
        tuple(tails),
        sum(1 for f in loops if color[f] == NS),
        sum(1 for f in loops if color[f] == R),
        sum(1 for f in plain if color[f] == NS),
        sum(1 for f in plain if color[f] == R),
    )


def _refine(
    neighbours: dict[str, list[tuple[str, str]]], cells: list[list[str]]
) -> list[list[str]]:
    """Split cells by the multiset of (edge color, neighbour cell) until
    stable; ``neighbours`` lists those pairs per vertex, loops left out."""
    while True:
        index_of = {v: i for i, cell in enumerate(cells) for v in cell}
        out: list[list[str]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            keyed: dict[tuple, list[str]] = {}
            for v in cell:
                k = tuple(sorted((c, index_of[w]) for c, w in neighbours[v]))
                keyed.setdefault(k, []).append(v)
            parts = [keyed[k] for k in sorted(keyed)]
            if len(parts) > 1:
                changed = True
            out.extend(parts)
        cells = out
        if not changed:
            return cells


def _encode(
    g: SusyGraph, labels: dict[str, str], inc: dict[str, tuple], order: list[str]
) -> tuple:
    """Certificate payload and witnesses for one vertex ordering."""
    pos = {v: i for i, v in enumerate(order)}
    j = g.involution
    b = g.boundary
    color = g.labeling.color
    flag_index: dict[str, int] = {}
    sequence: list[str] = []
    for v in order:

        def sort_key(f: str) -> tuple:
            color_rank = 0 if color[f] == NS else 1
            if j[f] == f:
                return (0, color_rank, labels[f], "")
            w = b[j[f]]
            if w == v:
                half = min(f, j[f])
                return (2, color_rank, half, f)
            if pos[w] < pos[v]:
                return (1, pos[w], color_rank, flag_index[j[f]])
            return (3, pos[w], color_rank, f)

        for f in sorted(inc[v], key=sort_key):
            flag_index[f] = len(sequence)
            sequence.append(f)
    payload = {
        "modular": g.modular,
        "genus": [g.genus_of(v) for v in order],
        "vertex_of": [pos[b[f]] for f in sequence],
        "color": [color[f] for f in sequence],
        "tails": sorted(
            [labels[f], flag_index[f]] for f in sequence if j[f] == f
        ),
        "edges": sorted(
            [flag_index[f], flag_index[j[f]]]
            for f in sequence
            if j[f] != f and flag_index[f] < flag_index[j[f]]
        ),
    }
    return payload, pos, flag_index


def _sort_key_blocks_comparable(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


def _search(g: SusyGraph, labels: dict[str, str]) -> tuple[bytes, list[Leaf]]:
    """The least certificate over every leaf of the refinement search, with
    the vertex and flag positions of each leaf that produced it, the first
    such leaf first.  ``labels`` names each tail.  The input is not
    validated here; past ``MAX_SEARCH_LEAVES`` leaves it raises."""
    inc = g.graph.incidence
    j = g.involution
    b = g.boundary
    color = g.labeling.color
    neighbours = {
        v: [(color[f], b[j[f]]) for f in fl if j[f] != f and b[j[f]] != v]
        for v, fl in inc.items()
    }
    keyed: dict[tuple, list[str]] = {}
    for v in sorted(g.vertices):
        keyed.setdefault(_base_key(g, labels, inc, v), []).append(v)
    cells = [keyed[k] for k in sorted(keyed)]

    best: bytes | None = None
    ties: list[Leaf] = []
    leaves = 0

    def search(cells: list[list[str]]) -> None:
        nonlocal best, ties, leaves
        cells = _refine(neighbours, cells)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            leaves += 1
            if leaves > MAX_SEARCH_LEAVES:
                raise ValidationError(
                    f"the search passed MAX_SEARCH_LEAVES = {MAX_SEARCH_LEAVES} leaves"
                )
            order = [v for cell in cells for v in cell]
            payload, pos, flag_index = _encode(g, labels, inc, order)
            cert = _sort_key_blocks_comparable(payload)
            if best is None or cert < best:
                best, ties = cert, [(pos, flag_index)]
            elif cert == best:
                ties.append((pos, flag_index))
            return
        cell = cells[split_at]
        for v in sorted(cell):
            rest = [w for w in cell if w != v]
            search(cells[:split_at] + [[v], rest] + cells[split_at + 1 :])

    search(cells)
    assert best is not None
    return best, ties


def _canonical_form(g: SusyGraph) -> CanonicalForm:
    """``canonical_form`` without validating ``g``, for graphs the library
    built itself."""
    cert, leaves = _search(g, _labels(g))
    return CanonicalForm(cert, hashlib.sha256(cert).hexdigest(), g, tuple(leaves))


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
    return _canonical_form(g)


def certificate_digest(g: SusyGraph) -> str:
    """The digest of ``canonical_form(g)``."""
    return canonical_form(g).digest


def _blocks(g: SusyGraph, labels: dict[str, str]) -> Blocks:
    """The units that automorphisms fixing every vertex may move, one block
    of interchangeable units at a time, with whether they are loops, which
    may also flip: same-named tails at a vertex (one flag each), and
    same-colour parallel edges or same-colour loops (their two flags).
    Blocks in which nothing can move are left out."""
    j, b = g.involution, g.boundary
    inc = g.graph.incidence
    # each key starts with whether its units are loops
    blocks: dict[tuple, list[tuple[str, ...]]] = {}
    for v in sorted(inc):
        for f in inc[v]:
            p = j[f]
            if p == f:
                key: tuple = (False, v, labels[f])
                unit: tuple[str, ...] = (f,)
            elif (v, f) < (b[p], p):
                key = (b[p] == v, v, b[p], g.color_of(f))
                unit = (f, p)
            else:
                continue
            blocks.setdefault(key, []).append(unit)
    return [(us, key[0]) for key, us in blocks.items() if key[0] or len(us) > 1]


def _fixer_order(blocks: Blocks) -> int:
    """The number of automorphisms that fix every vertex, from the graph's
    ``_blocks``: k! per block of k units, times 2^k when they are loops."""
    order = 1
    for units, flip in blocks:
        order *= math.factorial(len(units)) * (2 ** len(units) if flip else 1)
    return order


def _vertex_fixers(blocks: Blocks) -> Iterator[dict[str, str]]:
    """Every automorphism that fixes each vertex, as a flag map, identity
    first and one at a time: the units of each of the graph's ``_blocks``
    permute, and loops also flip."""

    def fixers(i: int) -> Iterator[dict[str, str]]:
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
    leaves: list[Leaf], blocks: Blocks, onto: Leaf
) -> Iterator[Isomorphism]:
    """Map each leaf onto the leaf ``onto`` of the target that has the same
    certificate, then follow each map by every automorphism of the target
    that fixes each vertex; ``blocks`` are the target's ``_blocks``."""
    at_vertex = {i: v for v, i in onto[0].items()}
    at_flag = {i: f for f, i in onto[1].items()}
    for pos, flag_index in leaves:
        vmap = {v: at_vertex[i] for v, i in pos.items()}
        fmap = {f: at_flag[i] for f, i in flag_index.items()}
        for fix in _vertex_fixers(blocks):
            yield Isomorphism(dict(vmap), {f: fix.get(c, c) for f, c in fmap.items()})


def isomorphisms_between(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> Iterator[Isomorphism]:
    """Every isomorphism from ``g1`` onto ``g2``, built one at a time: one
    per automorphism of ``g1``, from one search of each graph."""
    require_susy(g1)
    require_susy(g2)
    labels2 = _labels(g2, labels_fixed)
    cert1, leaves1 = _search(g1, _labels(g1, labels_fixed))
    cert2, leaves2 = _search(g2, labels2)
    if cert1 == cert2:
        yield from _isomorphisms(leaves1, _blocks(g2, labels2), leaves2[0])


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
    labels = _labels(g, labels_fixed)
    _, leaves = _search(g, labels)
    blocks = _blocks(g, labels)
    order = len(leaves) * _fixer_order(blocks)
    if order > MAX_AUTOMORPHISMS:
        raise ValidationError(
            f"the automorphism group has {order} elements, more than the "
            f"{MAX_AUTOMORPHISMS} automorphisms can list; "
            "isomorphisms_between yields them one at a time"
        )
    return AutomorphismGroup(tuple(_isomorphisms(leaves, blocks, leaves[0])))
