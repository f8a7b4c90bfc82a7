"""Canonical forms and isomorphism testing for SUSY graphs.

The certificate is a byte string: a canonical JSON encoding of the graph
after vertices and flags are renumbered by a refinement-plus-backtracking
search that minimizes the encoding.  Two graphs are isomorphic over fixed
tail labels exactly when their certificates agree.

One search serves both entry points.  ``canonical_form`` validates its
input once, runs the search and keeps the winning leaf's vertex and flag
positions; the renumbered graph and the witnesses are built from those
positions only when they are first read, so ``certificate_digest`` (the
digest of ``canonical_form``) builds nothing.  The search itself does not
validate: the enumeration in ``strata`` canonizes graphs it built itself
through the unchecked ``_canonical_form``.  Each search gathers the flags
at every vertex once and works from that incidence list throughout.

A slower brute-force enumerator of isomorphisms is also provided; it
doubles as the oracle for the canonical form and computes automorphism
groups.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import ValidationError
from .graphs import Graph
from .susy import NS, R, SusyGraph, SusyLabeling, require_susy

__all__ = [
    "CanonicalForm",
    "Isomorphism",
    "are_isomorphic",
    "automorphisms",
    "canonical_form",
    "certificate_digest",
    "isomorphisms_between",
]


@dataclass(frozen=True)
class Isomorphism:
    vertex_map: dict[str, str]
    flag_map: dict[str, str]


@dataclass(frozen=True)
class CanonicalForm:
    """The least certificate of ``source`` and its digest.  ``graph`` and
    the witnesses are built from the winning leaf's positions when read."""

    certificate: bytes
    digest: str
    source: SusyGraph = field(repr=False)
    vertex_position: dict[str, int] = field(repr=False)
    flag_position: dict[str, int] = field(repr=False)

    @cached_property
    def vertex_witness(self) -> dict[str, str]:
        return {v: f"v{i}" for v, i in self.vertex_position.items()}

    @cached_property
    def flag_witness(self) -> dict[str, str]:
        return {f: f"f{i}" for f, i in self.flag_position.items()}

    @cached_property
    def graph(self) -> SusyGraph:
        g = self.source
        vw, fw = self.vertex_witness, self.flag_witness
        return SusyGraph(
            Graph(
                frozenset(fw.values()),
                frozenset(vw.values()),
                {fw[f]: vw[g.boundary[f]] for f in g.flags},
                {fw[f]: fw[g.involution[f]] for f in g.flags},
            ),
            SusyLabeling(
                {vw[v]: g.genus_of(v) for v in g.vertices},
                {fw[f]: g.color_of(f) for f in g.flags},
                {l: fw[f] for l, f in g.labeling.ns_tail_labels.items()},
                {l: fw[f] for l, f in g.labeling.r_tail_labels.items()},
            ),
            modular=g.modular,
        )


def _label_of(g: SusyGraph) -> dict[str, str]:
    out = {f: l for l, f in g.labeling.ns_tail_labels.items()}
    out.update({f: l for l, f in g.labeling.r_tail_labels.items()})
    return out


def _incidence(g: SusyGraph) -> dict[str, list[str]]:
    """Sorted flags at each vertex, gathered in one pass over the flags."""
    inc: dict[str, list[str]] = {v: [] for v in g.vertices}
    b = g.boundary
    for f in sorted(g.flags):
        inc[b[f]].append(f)
    return inc


def _base_key(
    g: SusyGraph, labels: dict[str, str], inc: dict[str, list[str]], v: str
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
    g: SusyGraph, labels: dict[str, str], inc: dict[str, list[str]], order: list[str]
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


def _search(g: SusyGraph) -> tuple[bytes, dict[str, int], dict[str, int]]:
    """The least certificate over every leaf of the refinement search, with
    the vertex and flag positions of the leaf that produced it.  The input
    is not validated here."""
    labels = _label_of(g)
    inc = _incidence(g)
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

    best: tuple[bytes, dict[str, int], dict[str, int]] | None = None

    def search(cells: list[list[str]]) -> None:
        nonlocal best
        cells = _refine(neighbours, cells)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            order = [v for cell in cells for v in cell]
            payload, pos, flag_index = _encode(g, labels, inc, order)
            cert = _sort_key_blocks_comparable(payload)
            if best is None or cert < best[0]:
                best = (cert, pos, flag_index)
            return
        cell = cells[split_at]
        for v in sorted(cell):
            rest = [w for w in cell if w != v]
            search(cells[:split_at] + [[v], rest] + cells[split_at + 1 :])

    search(cells)
    assert best is not None
    return best


def _canonical_form(g: SusyGraph) -> CanonicalForm:
    """``canonical_form`` without validating ``g``, for graphs the library
    built itself."""
    cert, pos, flag_index = _search(g)
    return CanonicalForm(cert, hashlib.sha256(cert).hexdigest(), g, pos, flag_index)


def canonical_form(g: SusyGraph) -> CanonicalForm:
    """Renumber vertices and flags canonically; equal certificates mean
    isomorphic over fixed tail labels."""
    require_susy(g)
    return _canonical_form(g)


def certificate_digest(g: SusyGraph) -> str:
    """The digest of ``canonical_form(g)``."""
    return canonical_form(g).digest


def isomorphisms_between(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> Iterator[Isomorphism]:
    """Enumerate every isomorphism by backtracking.  Exhaustive, hence
    exponential in the worst case; meant for small graphs and as an oracle."""
    require_susy(g1)
    require_susy(g2)
    if g1.modular != g2.modular:
        return
    if len(g1.flags) != len(g2.flags) or len(g1.vertices) != len(g2.vertices):
        return
    labels1 = _label_of(g1)
    labels2 = _label_of(g2)
    if labels_fixed and set(labels1.values()) != set(labels2.values()):
        return

    inc1 = _incidence(g1)
    inc2 = _incidence(g2)

    def vkey(
        g: SusyGraph, labels: dict[str, str], inc: dict[str, list[str]], v: str
    ) -> tuple:
        k = _base_key(g, labels, inc, v)
        if labels_fixed:
            return k
        return (k[0],) + (tuple(c for c, _ in k[1]),) + k[2:]

    verts1 = sorted(g1.vertices)
    verts2 = sorted(g2.vertices)
    by_key: dict[tuple, list[str]] = {}
    for w in verts2:
        by_key.setdefault(vkey(g2, labels2, inc2, w), []).append(w)

    j1, j2 = g1.involution, g2.involution
    b1, b2 = g1.boundary, g2.boundary

    def extend_flags(
        vmap: dict[str, str],
        fmap: dict[str, str],
        used: set[str],
        todo: list[str],
    ) -> Iterator[Isomorphism]:
        if not todo:
            yield Isomorphism(dict(vmap), dict(fmap))
            return
        f = todo[0]
        if f in fmap:
            yield from extend_flags(vmap, fmap, used, todo[1:])
            return
        w = vmap[b1[f]]
        for c in inc2[w]:
            if c in used:
                continue
            if g2.color_of(c) != g1.color_of(f):
                continue
            f_tail = j1[f] == f
            if f_tail != (j2[c] == c):
                continue
            if f_tail and labels_fixed and labels2[c] != labels1[f]:
                continue
            extra: dict[str, str] = {f: c}
            if not f_tail:
                p, q = j1[f], j2[c]
                if p in fmap or q in used:
                    continue
                if vmap[b1[p]] != b2[q]:
                    continue
                if p != f:
                    extra[p] = q
            new_fmap = dict(fmap)
            new_fmap.update(extra)
            yield from extend_flags(
                vmap, new_fmap, used | set(extra.values()), todo[1:]
            )

    def extend_vertices(
        i: int, vmap: dict[str, str], used: set[str]
    ) -> Iterator[Isomorphism]:
        if i == len(verts1):
            todo = [f for v in verts1 for f in inc1[v]]
            yield from extend_flags(vmap, {}, set(), todo)
            return
        v = verts1[i]
        for w in by_key.get(vkey(g1, labels1, inc1, v), []):
            if w in used:
                continue
            yield from extend_vertices(i + 1, {**vmap, v: w}, used | {w})

    yield from extend_vertices(0, {}, set())


def are_isomorphic(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> tuple[bool, Isomorphism | None]:
    """Decide isomorphism; on success also return one witness map."""
    if labels_fixed:
        c1 = canonical_form(g1)
        c2 = canonical_form(g2)
        if c1.certificate != c2.certificate:
            return False, None
        back_v = {cv: v for v, cv in c2.vertex_witness.items()}
        back_f = {cf: f for f, cf in c2.flag_witness.items()}
        return True, Isomorphism(
            {v: back_v[cv] for v, cv in c1.vertex_witness.items()},
            {f: back_f[cf] for f, cf in c1.flag_witness.items()},
        )
    found = next(isomorphisms_between(g1, g2, labels_fixed=False), None)
    return (found is not None), found


@dataclass(frozen=True)
class AutomorphismGroup:
    elements: tuple[Isomorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def automorphisms(g: SusyGraph, labels_fixed: bool = True) -> AutomorphismGroup:
    """All self-isomorphisms.  With labels_fixed the labeled tails are
    pinned pointwise; otherwise tails may permute within a color."""
    els = tuple(isomorphisms_between(g, g, labels_fixed=labels_fixed))
    if not els:
        raise ValidationError("automorphism search lost the identity; invalid input")
    return AutomorphismGroup(els)
