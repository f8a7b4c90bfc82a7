"""Enumeration of boundary strata and the contraction partial order.

Strata of the moduli space with a fixed total genus and labeled tail set
are isomorphism classes of stable SUSY graphs.  Enumeration proceeds in two
passes: modular shapes first, generated from the one-vertex graph by vertex
splitting and genus-to-loop moves and deduplicated by canonical core, which
the certificate encodes one-to-one, or at genus 0 by split set, then NS/R
colorings of each shape, counted by the parity argument (2^b1 per shape)
and deduplicated by certificate.  Each split is generated once, not once
more as its mirror image, and every move of a stable shape is stable.

Everything is found and kept on integers (see ``canon``): the search starts
from the corolla's core, each move is built from its parent's canonical
core, incidence included, and searched as a core, and the winning leaf
renumbers the move into its canonical core, by which the shape is looked up;
only a new shape's certificate is written.  A genus-0 shape is a tree, fixed
by its splits, the labels each edge cuts off (Buneman 1971): each flag keeps
the mask of the labels beyond it, each vertex's splits are walked as the
masks of the labels that move, and only a new split set has its move keyed,
built and searched.  A move changes the cell keys of v and the new vertex
only, and its search takes the others from its parent.  Each coloring is its
shape's core with the colours replaced, searched as a core and kept as its
stratum's canonical core.  Nothing is named while the strata are found: a
``StratumRecord`` keeps cores, R-flag masks and integer flag maps, and names
its shape, strata, colouring table and covers (by ``canon._named``, the one
naming of a canonical core) when each is first read, as
``ContractionPoset.strata`` does; the CLI names nothing, and writes each
stratum's record straight from its core.

The search that finds a shape also gives generators of its automorphism
group, as vertex and flag maps of its core, and they prune both passes.
Moves in one orbit of the parent's automorphisms give isomorphic children,
so at genus >= 1 each move is keyed before it is built and one move per
orbit is searched.  The colorings of a shape are lift masks, each keyed by
the mask of its R flags, and two are one stratum exactly when an
automorphism of the shape carries one to the other, so only the first of
each orbit is searched, and the whole orbit takes its digest in the
record's ``masks``.  The all-NS coloring (no R tails, no R edges) takes its
shape's search: it differs from the shape only in ``modular``, which every
leaf of the search shares, so its certificate is the shape's with
``"modular":false``, and its canonical core is the shape's with ``modular``
false.

Contraction covers are recorded while the shapes are generated.  Each move
is the inverse of one edge contraction, and the winning leaf of the child's
search numbers the new edge in the child's flags and maps the rest onto the
parent's, so a record's ``covers`` holds, for at least one edge in each
orbit of the shape's automorphisms, the digest of the shape that
contracting it gives and that flag map, the leaf's own flag sequence, read
without the edge.  Searching one move per orbit keeps this: an automorphism
of the parent that carries one move to another extends to an isomorphism
of the two children that carries new edge to new edge.  At genus 0 the
new edge is found by its split among the child's masks, and its cover
keeps the target's core, from which ``shape_covers`` builds the flag map.
Contracting edge e of a colored stratum (S, k) gives (S/e, k restricted to
S/e), so ``strata_poset`` carries the R-flag mask of every raw coloring
along the flag map into the target shape's ``masks`` (a target with one
coloring, as a tree, is read directly), and groups each stratum's cover
targets into ``ContractionPoset.successors`` as it finds them; it
contracts, canonizes and names nothing.  It is the one builder of the
contraction order: a list of strata is ordered by finding each in the
poset of its enumeration (``ContractionPoset.index_of``).

The number of edges of a stable shape is bounded by 3g - 3 + #tails.  An
instance guard refuses enumerations whose bound exceeds ``max_edges``
(``MAX_EDGES`` by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from itertools import chain, combinations
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import canon
from .canon import Core, Generator, _canonical_core, _cell_key, _core, _generators
from .canon import _named, _names, _unmodular_digest, certificate_digest
from .errors import ValidationError
from .graphs import _lift_forest, kept
from .lifting import _doubled, _label_set, _particular
from .susy import SusyGraph

__all__ = [
    "MAX_EDGES",
    "ContractionPoset",
    "StratumRecord",
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
    (v,).  A split and its mirror are one graph, so only the split that
    puts the vertex's first flag in ``part`` is listed (at a vertex without
    flags, the one with ga <= gb).  Each side is a sorted tuple, and the
    sides are listed in sorted order without a sort: an empty side first,
    else the one with the vertex's first flag.  Splits come first.  These
    keys serve genus >= 1; ``_shapes`` walks a tree's splits in this order."""
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
            swap = fl and size == len(rest)  # ``other`` is empty, so it leads
            for more in combinations(rest, size):
                part = (*head, *more)
                other = tuple(f for f in rest if f not in more)
                for ga, gb in genera:
                    sides = ((other, gb), (part, ga)) if swap else ((part, ga), (other, gb))
                    splits.append((v, sides))
        if gv >= 1:
            deloops.append((v,))
    return splits + deloops


def _move(c: Core, key: tuple) -> Core:
    """The move ``key`` of the core ``c`` (see ``_move_keys``), all NS: a
    split keeps its first side at vertex v and moves its second side to a
    new last vertex, and a deloop trades one unit of genus at v for a new
    loop.  The new edge is the last two flags, the first one at v.  The
    incidence is carried from ``c``, v and the new vertex taking their
    sides and the new flags."""
    genus, boundary, involution, color, label, _, incidence = c
    v, n = key[0], len(boundary)
    new_genus = [*genus]
    new_boundary = [*boundary, v, v]
    new_incidence = [*incidence]
    if len(key) == 1:
        new_genus[v] -= 1
        new_incidence[v] += (n, n + 1)
    else:
        (stay, ga), (part, gb) = key[1]
        new_genus[v] = ga
        new_genus.append(gb)
        for f in (*part, n + 1):
            new_boundary[f] = len(genus)
        new_incidence[v] = (*stay, n)
        new_incidence.append((*part, n + 1))
    return Core(
        tuple(new_genus),
        tuple(new_boundary),
        (*involution, n + 1, n),
        (*color, 0, 0),
        (*label, None, None),
        True,
        tuple(new_incidence),
    )


def _move_image(gen: Generator, key: tuple) -> tuple:
    """The move that the automorphism ``gen``, a vertex and a flag map of
    the core, takes the move ``key`` to."""
    vm, fm = gen
    v = vm[key[0]]
    if len(key) == 1:
        return (v,)
    return (v, tuple(sorted((tuple(sorted(fm[f] for f in p)), gp) for p, gp in key[1])))


def _moved(flag_map: Sequence[int], mask: int) -> int:
    """The mask of the flags that ``flag_map`` takes the flags of ``mask``
    to."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << flag_map[low.bit_length() - 1]
        mask ^= low
    return out


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


# edge of a shape's core (its two flags) -> (digest of the shape that
# contracting it gives, the winning leaf's flag sequence: the flag there of
# each flag of the core, and past the last for the edge's two; at genus 0,
# no flag sequence but that shape's core, the flag map built when read)
Covers = Mapping[tuple[int, int], tuple[str, tuple]]
# ``Covers`` in flag names, the map left without the edge
ShapeCovers = Mapping[tuple[str, str], tuple[str, Mapping[str, str]]]


def _beyond(c: Core) -> list[int]:
    """The labels beyond each flag of the genus-0 core ``c``, a mask over its
    sorted labels; in a stable tree no two flags have one mask."""
    bit = {l: 1 << i for i, l in enumerate(sorted(l for l in c.label if l is not None))}
    out = [bit.get(l, 0) for l in c.label]
    while 0 in out:  # an edge flag's, once the flags past it have theirs
        for f, p in enumerate(c.involution):
            past = [out[g] for g in c.incidence[c.boundary[p]] if g != p]
            if not out[f] and all(past):
                out[f] = sum(past)  # the masks are disjoint
    return out


def _edge_count(c: Core) -> int:
    return c.label.count(None) // 2  # every tail has a label, and no other flag


def _shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[tuple[str, str, Core, Covers, list[Generator]]]:
    """``enumerate_modular_shapes`` as canonical cores, each with its
    certificate digest and the digest of its all-NS coloring, the covers
    recorded while it was generated and generators of its automorphism
    group on the core, read from the search that found it.  Nothing is
    named, and no certificate is kept.

    Each move is built and searched as a core, and the winning leaf of its
    search renumbers the move into its canonical core, which finds the
    shape, and gives a new shape's generators.  The winning leaf also
    numbers the new edge of each move in the child's flags and maps the
    rest onto the parent's, which is the child's cover; one is kept per
    edge.  At genus 0 each vertex's splits are walked in ``_move_keys``
    order as the masks of the labels that move, and a move's key is built,
    and the move built and searched, only for a new split set; every
    cover's edge is read from the masks."""
    if type(genus) is not int or genus < 0:
        raise ValidationError(f"genus must be a non-negative integer, got {genus!r}")
    if max_edges is not None and type(max_edges) is not int:
        raise ValidationError(f"max_edges must be an integer or None, got {max_edges!r}")
    if max_edges is not None and max_edges < 0:
        raise ValidationError(f"max_edges must be a non-negative integer or None, got {max_edges}")
    labels = [*_label_set(tail_labels)]
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
    # split set at genus 0, else canonical core -> (canonical core, digest,
    # all-NS digest, covers, generators on the core, genus-0 flag masks)
    found: dict[object, tuple[Core, str, str, dict, list[Generator], tuple[int, ...]]] = {}
    fresh: list[object] = []
    full = (1 << len(labels)) - 1

    def search(child: Core, keys: list | None, split: int | None, masks: tuple) -> tuple:
        """The ``found`` entry of ``child`` and its winning leaf; only a new
        shape, kept with its flags' ``masks``, has its certificate written."""
        cert, leaves = canon._search(child, keys)
        core = _canonical_core(child, leaves[0])
        key = core if genus else split
        entry = found.get(key)
        if entry is None:
            cert = cert or canon._certificate(child, leaves[0])
            # a tree (its genus all at vertices) has no loop, parallel edge
            # or repeated label, so with one leaf its group is trivial
            rigid = len(leaves) == 1 and sum(child.genus) == genus
            gens = [] if rigid else _generators(child, leaves)
            beyond = () if genus else tuple([masks[f] for f in leaves[0][3]])
            entry = (core, sha256(cert).hexdigest(), _unmodular_digest(cert), {}, gens, beyond)
            found[key] = entry
            fresh.append(key)
        return entry, leaves[0]

    def moved(parent: Core, key: tuple, keys: list[tuple]) -> tuple[Core, list[tuple]]:
        """The move ``key`` of ``parent`` and the cell keys its search starts
        from: the parent's ``keys``, filled when a move first needs them,
        with those of v and the new vertex computed again."""
        if not keys:
            keys += [_cell_key(parent, v) for v in range(len(parent.genus))]
        child = _move(parent, key)
        cells = [*keys, _cell_key(child, len(keys))] if len(key) > 1 else [*keys]
        cells[key[0]] = _cell_key(child, key[0])
        return child, cells

    zeros = (0,) * len(labels)  # the corolla: one vertex carrying every tail
    corolla = _core((genus,), zeros, tuple(range(len(labels))), zeros, tuple(labels), True)
    search(corolla, None, 0, _beyond(corolla))
    depth = 0
    while fresh and depth < bound:
        depth += 1
        frontier, fresh = fresh, []
        for found_key in frontier:
            parent, pd, _, _, generators, masks = found[found_key]
            keys: list[tuple] = []
            if masks:  # genus 0: each vertex's splits, walked in ``_move_keys`` order
                onto = (pd, parent)  # a tree cover, its flag map built when read
                for v, (head, *rest) in enumerate(parent.incidence):
                    total = sum([masks[f] for f in rest])  # disjoint masks
                    for more in chain(*(combinations(rest, k) for k in range(1, len(rest) - 1))):
                        m = total - sum([masks[f] for f in more])  # the labels that move
                        split = found_key | 1 << (m ^ full if m & 1 else m)  # side without bit 0
                        entry = found.get(split)
                        if entry is None:
                            moving = [f for f in rest if f not in more]
                            key = (v, (((head, *more), 0), (moving, 0)))
                            child, cells = moved(parent, key, keys)
                            entry = search(child, cells, split, (*masks, m, m ^ full))[0]
                        entry[3][entry[5].index(m), entry[5].index(m ^ full)] = onto
                continue
            n = len(parent.boundary)
            for key, *_ in _orbits(_move_keys(parent), generators, _move_image):
                entry, (_, index, _, sequence) = search(*moved(parent, key, keys), None, ())
                if (index[n], index[n + 1]) not in entry[3]:
                    entry[3][index[n], index[n + 1]] = (pd, sequence)
    shapes = [(d, ns, core, *rest) for core, d, ns, *rest, _ in found.values()]
    return sorted(shapes, key=lambda s: (_edge_count(s[2]), s[0]))


def enumerate_modular_shapes(
    genus: int, tail_labels: Iterable[str], max_edges: int | None = None
) -> list[SusyGraph]:
    """All stable modular graphs of the given total genus and tail label
    set, one canonical representative per isomorphism class, ordered by
    edge count and certificate."""
    return [_named(core) for _, _, core, _, _ in _shapes(genus, tail_labels, max_edges)]


@dataclass(frozen=True)
class StratumRecord:
    """The strata over one modular shape, on integers: the shape's
    canonical ``core`` and digest, its strata's canonical ``cores`` and
    ``digests``, in digest order, the stratum digest of each raw coloring
    keyed by its R-flag mask (``masks``), and ``covers``, at genus 0 with no
    flag sequence.  The named views are built when first read, and kept:
    ``shape``, ``colorings``, each named from its core, and
    ``coloring_digests`` and ``shape_covers``, keyed by flag names (at
    genus 0, each flag map matches the flags beyond the same labels)."""

    core: Core
    shape_digest: str
    cores: tuple[Core, ...]
    digests: tuple[str, ...]
    masks: Mapping[int, str]
    covers: Covers

    @kept
    def shape(self) -> SusyGraph:
        return _named(self.core)

    @kept
    def colorings(self) -> tuple[SusyGraph, ...]:
        return tuple(map(_named, self.cores))

    @kept
    def coloring_digests(self) -> Mapping[frozenset[str], str]:
        names = _names("f", len(self.core.boundary))
        return {
            frozenset(f for i, f in enumerate(names) if mask >> i & 1): d
            for mask, d in self.masks.items()
        }

    @kept
    def shape_covers(self) -> ShapeCovers:
        n = _names("f", len(self.core.boundary))
        out = {}
        for (a, b), (target, fm) in self.covers.items():
            if isinstance(fm, Core):  # genus 0: match the flags beyond the same labels
                fm = list(map({m: p for p, m in enumerate(_beyond(fm))}.get, _beyond(self.core)))
            out[n[a], n[b]] = (target, {n[f]: n[p] for f, p in enumerate(fm) if f not in (a, b)})
        return out

    @property
    def predicted_colorings(self) -> int:
        return len(self.masks)


def enumerate_strata_records(
    genus: int,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
    max_edges: int | None = None,
) -> list[StratumRecord]:
    """Strata grouped by underlying modular shape.  Each record carries the
    distinct colorings (canonical cores, in digest order), their
    certificate digests and the stratum of each raw coloring of the shape
    (``2 ** b1`` by the parity argument).  Only the labels are checked: the
    raw colorings are lift masks keyed by their R flags, and only the first
    of each orbit under the shape's automorphisms is searched, on the
    shape's core.  The all-NS coloring takes its digest from the shape's
    certificate and its core from the shape, so it is not searched."""
    ns, rr = _label_set(ns_labels), _label_set(r_labels)
    overlap = ns & rr
    if overlap:
        raise ValidationError(f"labels {sorted(overlap, key=str)} are both NS and R")
    if len(rr) % 2:
        raise ValidationError("the number of R tail labels must be even")
    records = []
    for shape_digest, all_ns, core, covers, generators in _shapes(
        genus, ns | rr, max_edges
    ):
        if not rr and _edge_count(core) < len(core.genus):
            keys = [0]  # a tree without R tails has the one all-NS lift
        else:
            forest = _lift_forest(len(core.genus), core.boundary, core.involution)
            r_tails = [f for f, label in enumerate(core.label) if label in rr]
            keys = _doubled(_particular(forest, r_tails), forest.cycles)
        strata: dict[str, Core] = {}
        masks = dict.fromkeys(keys, "")
        for orbit in _orbits(keys, [fm for _, fm in generators], _moved):
            if not orbit[0]:
                # the all-NS coloring, which takes its shape's search
                digest = all_ns
                strata[digest] = Core(*core[:5], False, core.incidence)
            else:
                color = tuple(orbit[0] >> f & 1 for f in range(len(core.boundary)))
                colored = core._replace(color=color, modular=False)
                cert, leaves = canon._search(colored)
                digest = sha256(cert or canon._certificate(colored, leaves[0])).hexdigest()
                if digest not in strata:
                    strata[digest] = _canonical_core(colored, leaves[0])
            masks.update(dict.fromkeys(orbit, digest))
        digests = tuple(sorted(strata))
        cores = tuple(map(strata.get, digests))
        records.append(StratumRecord(core, shape_digest, cores, digests, masks, covers))
    return records


def _ordered(
    records: Iterable[StratumRecord],
) -> tuple[tuple[Core, ...], tuple[str, ...], tuple[int, ...]]:
    """The strata of ``records`` as cores, with their digests and edge
    counts, ordered by edge count and digest."""
    # the digests are distinct, so no two cores are compared
    keyed = sorted(
        (_edge_count(rec.core), d, c)
        for rec in records
        for c, d in zip(rec.cores, rec.digests)
    )
    return (
        tuple(c for _, _, c in keyed),
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
    return [_named(c) for c in _ordered(records)[0]]


@dataclass(frozen=True)
class ContractionPoset:
    """Strata ordered by edge contraction, each kept as its canonical core
    in ``cores`` and named in ``strata`` when that is first read.  ranks[i]
    counts edges, so the one-vertex stratum has rank 0 and sits at the top:
    contracting an edge moves strictly up.  successors[i] holds, ascending,
    each stratum j one contraction away from stratum i; ``covers``, the
    pairs (i, j), is built from it when first read."""

    cores: tuple[Core, ...]
    digests: tuple[str, ...]
    ranks: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]

    @kept
    def strata(self) -> tuple[SusyGraph, ...]:
        return tuple(map(_named, self.cores))

    @kept
    def covers(self) -> frozenset[tuple[int, int]]:
        """The pairs (i, j) of ``successors``."""
        return frozenset((i, j) for i, js in enumerate(self.successors) for j in js)

    @kept
    def _index(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.digests)}

    def index_of(self, g: SusyGraph) -> int:
        d = certificate_digest(g)
        if d not in self._index:
            raise ValidationError(f"stratum {d} is not in the poset")
        return self._index[d]

    def less_or_equal(self, i: int, j: int) -> bool:
        """True when stratum j is reachable from stratum i by contractions
        (i lies in the closure of j, i.e. i is deeper in the boundary).
        Each index must be an int (not a bool) naming a stratum."""
        for x in (i, j):
            if type(x) is not int or not 0 <= x < len(self.digests):
                raise ValidationError(
                    f"stratum index must be an int in range({len(self.digests)}), "
                    f"got {x!r}"
                )
        seen, frontier = {i}, [i]
        for a in frontier:
            for y in self.successors[a]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return j in seen

    @property
    def top(self) -> int:
        tops = [i for i, r in enumerate(self.ranks) if r == 0]
        if len(tops) != 1:
            raise ValidationError("poset does not have a unique one-vertex top")
        return tops[0]


def strata_poset(records: Iterable[StratumRecord]) -> ContractionPoset:
    """The contraction poset of every stratum in ``records``, which must be
    closed under contraction, as ``enumerate_strata_records`` returns them.
    Strata come in ``enumerate_strata`` order.  Nothing is contracted,
    canonized or named: each recorded cover carries the R-flag mask of each
    raw coloring, less the edge, into the target shape's ``masks``, unless
    the target has one coloring, as a tree has, which is read directly.
    Raw colorings in one orbit of the shape's automorphisms give one
    stratum, so going through all of them reaches the edges that were not
    recorded."""
    records = list(records) if isinstance(records, Iterable) else [records]
    if not all(isinstance(rec, StratumRecord) for rec in records):
        raise ValidationError("strata_poset takes the records of enumerate_strata_records")
    cores, digests, ranks = _ordered(records)
    index = {d: i for i, d in enumerate(digests)}
    tables = {rec.shape_digest: rec.masks for rec in records}
    targets: list[set[int]] = [set() for _ in digests]
    for rec in records:
        for (a, b), (target, flag_map) in rec.covers.items():
            table = tables.get(target)
            if table is None:
                raise ValidationError(
                    "contraction leaves the given records; pass every record "
                    "of one enumeration"
                )
            one = [*table.values()][0] if len(table) == 1 else None
            kept = ~(1 << a | 1 << b)
            for mask, d in rec.masks.items():
                targets[index[d]].add(index[one or table[_moved(flag_map, mask & kept)]])
    return ContractionPoset(cores, digests, ranks, tuple(tuple(sorted(t)) for t in targets))
