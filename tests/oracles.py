"""Brute-force reference implementations used to cross-check the library.

Everything here trades efficiency for obvious correctness: spanning
forests grown edge by edge, exhaustive enumeration of colorings and
bijections, and a strata generator that builds multigraphs directly from
vertex counts, tail assignments, and edge multisets.  None of these call
the library code paths they are used to check; they only consume the
plain data structures (graphs, labelings) and the constructors.  The
contraction order is found by contracting every edge of every stratum and
canonizing the result, not from the covers the enumeration records.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator

from susykit import (
    NS,
    R,
    SusyGraph,
    canonical_form,
    contract_pair,
    edges,
    flags_at,
    is_stable,
    modular_graph,
    susy_graph,
    susy_morphism,
    tails,
    validate_susy_graph,
    validate_susy_morphism,
)
from susykit.graphs import Graph


# ---------------------------------------------------------------------------
# first Betti number via an explicit spanning forest


def forest_b1(g: Graph) -> int:
    """Count the edges rejected while growing a spanning forest."""
    parent = {v: v for v in g.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rejected = 0
    for a, b in edges(g):
        ra, rb = find(g.boundary[a]), find(g.boundary[b])
        if ra == rb:
            rejected += 1
        else:
            parent[ra] = rb
    return rejected


def component_count(g: Graph) -> int:
    parent = {v: v for v in g.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges(g):
        ra, rb = find(g.boundary[a]), find(g.boundary[b])
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in g.vertices})


def oracle_genus(g: SusyGraph) -> int:
    """Total genus as vertex genera plus the spanning-forest Betti number."""
    return sum(g.genus_of(v) for v in g.vertices) + forest_b1(g.graph)


def local_dimension(g: SusyGraph) -> tuple[int, Fraction]:
    """Even and odd dimensions of a stable graph's stratum as per-vertex
    sums of factor dimensions (3g - 3 + n | 2g - 2 + n_NS + n_R / 2), in
    exact fractions, plus one odd parameter per Ramond node."""
    even, odd = 0, Fraction(0)
    for v in g.vertices:
        here = flags_at(g.graph, v)
        r_v = sum(1 for f in here if g.color_of(f) == R)
        even += 3 * g.genus_of(v) - 3 + len(here)
        odd += 2 * g.genus_of(v) - 2 + (len(here) - r_v) + Fraction(r_v, 2)
    return even, odd + sum(1 for a, _ in edges(g.graph) if g.color_of(a) == R)


# ---------------------------------------------------------------------------
# exhaustive edge colorings


def brute_color_sets(
    shape: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> list[frozenset[frozenset[str]]]:
    """All parity-valid colorings of a modular shape, one frozenset of
    R-colored edge orbits per coloring, found by trying all 2^#E vectors."""
    label_to_flag = shape.merged_tail_labels()
    tail_color = {}
    for lbl in ns_labels:
        tail_color[label_to_flag[lbl]] = NS
    for lbl in r_labels:
        tail_color[label_to_flag[lbl]] = R
    if len(tail_color) != len(tails(shape.graph)):
        raise ValueError("partition does not cover the tails")
    edge_list = edges(shape.graph)
    found = []
    for vector in itertools.product((NS, R), repeat=len(edge_list)):
        flag_color = dict(tail_color)
        for (a, b), c in zip(edge_list, vector):
            flag_color[a] = c
            flag_color[b] = c
        ok = all(
            sum(1 for f in flags_at(shape.graph, v) if flag_color[f] == R) % 2 == 0
            for v in shape.vertices
        )
        if ok:
            found.append(
                frozenset(
                    frozenset(pair)
                    for pair, c in zip(edge_list, vector)
                    if c == R
                )
            )
    return found


def color_set_of(g: SusyGraph) -> frozenset[frozenset[str]]:
    """The R-colored edge orbits of a colored graph, for comparison."""
    return frozenset(
        frozenset(pair) for pair in edges(g.graph) if g.color_of(pair[0]) == R
    )


# ---------------------------------------------------------------------------
# exhaustive isomorphism search


def brute_isomorphisms(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Yield every (vertex_map, flag_map) isomorphism, by brute search.

    Each flag has a key: a tail its color (and its label when labels are
    fixed), an edge flag its color.  Vertices are mapped one at a time,
    each onto a vertex of the same genus and the same multiset of flag
    keys, so a partial map that cannot extend is dropped before any flag
    is mapped.  Each flag then goes to a flag of the same key at the image
    of its vertex whose partner sits at the image of its partner's vertex,
    and involution equivariance is checked outright on every combination.
    """
    if g1.modular != g2.modular:
        return
    if len(g1.vertices) != len(g2.vertices) or len(g1.flags) != len(g2.flags):
        return
    if labels_fixed:
        if (
            g1.labeling.ns_tail_labels.keys() != g2.labeling.ns_tail_labels.keys()
            or g1.labeling.r_tail_labels.keys() != g2.labeling.r_tail_labels.keys()
        ):
            return

    def flag_keys(g: SusyGraph) -> dict[str, tuple]:
        labels = {f: l for l, f in g.merged_tail_labels().items()}
        return {
            f: ("t", g.color_of(f), labels.get(f) if labels_fixed else None)
            if g.involution[f] == f
            else ("e", g.color_of(f), None)
            for f in g.flags
        }

    key1, key2 = flag_keys(g1), flag_keys(g2)
    star1 = {a: flags_at(g1.graph, a) for a in g1.vertices}
    star2 = {b: flags_at(g2.graph, b) for b in g2.vertices}

    def vertex_key(g, stars, keys, v):
        return g.genus_of(v), Counter(keys[f] for f in stars[v])

    vkey1 = {a: vertex_key(g1, star1, key1, a) for a in g1.vertices}
    vkey2 = {b: vertex_key(g2, star2, key2, b) for b in g2.vertices}
    v1, v2 = sorted(g1.vertices), sorted(g2.vertices)

    def vertex_maps(vmap: dict[str, str]) -> Iterator[dict[str, str]]:
        if len(vmap) == len(v1):
            yield dict(vmap)
            return
        a = v1[len(vmap)]
        for b in v2:
            if b not in vmap.values() and vkey2[b] == vkey1[a]:
                vmap[a] = b
                yield from vertex_maps(vmap)
                del vmap[a]

    def groups(g, keys, stars, v, vertex_image) -> dict[tuple, list[str]]:
        """The flags at ``v`` by key and the image of their partner's vertex."""
        out: dict[tuple, list[str]] = {}
        for f in sorted(stars[v]):
            partner = g.involution[f]
            at = vertex_image[g.boundary[partner]] if partner != f else None
            out.setdefault((keys[f], at), []).append(f)
        return out

    identity = {b: b for b in v2}
    for vmap in vertex_maps({}):
        choices = []
        for a in v1:
            groups1 = groups(g1, key1, star1, a, vmap)
            groups2 = groups(g2, key2, star2, vmap[a], identity)
            if groups1.keys() != groups2.keys() or any(
                len(groups1[k]) != len(groups2[k]) for k in groups1
            ):
                break
            for k, src in groups1.items():
                choices.append(
                    [dict(zip(src, image)) for image in itertools.permutations(groups2[k])]
                )
        else:
            for combo in itertools.product(*choices):
                fmap: dict[str, str] = {}
                for piece in combo:
                    fmap.update(piece)
                if any(fmap[g1.involution[f]] != g2.involution[fmap[f]] for f in fmap):
                    continue
                yield vmap, fmap


def brute_is_isomorphic(
    g1: SusyGraph, g2: SusyGraph, labels_fixed: bool = True
) -> bool:
    for _ in brute_isomorphisms(g1, g2, labels_fixed):
        return True
    return False


def brute_automorphism_order(g: SusyGraph, labels_fixed: bool = True) -> int:
    return sum(1 for _ in brute_isomorphisms(g, g, labels_fixed))


# ---------------------------------------------------------------------------
# independent strata generator


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _edges_connect(k: int, edge_multiset: tuple[tuple[int, int], ...]) -> bool:
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edge_multiset:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(k)}) == 1


def brute_strata_shapes(
    genus: int, labels: Iterable[str], max_edges: int
) -> tuple[list[SusyGraph], list[int], int]:
    """Connected stable modular shapes built the pedestrian way.

    Iterates vertex counts, edge multisets on numbered vertices, tail
    assignments, and genus distributions; keeps stable builds; dedups by
    the exhaustive isomorphism search.  Returns (representatives,
    class_sizes, raw_count) so callers can run the partition check.
    """
    labels = sorted(labels)
    n = len(labels)
    raw: list[SusyGraph] = []
    for e in range(max_edges + 1):
        for k in range(1, e + 2):
            slots = list(
                itertools.combinations_with_replacement(range(k), 2)
            )
            for edge_multiset in itertools.combinations_with_replacement(slots, e):
                if not _edges_connect(k, edge_multiset):
                    continue
                b1 = e - (k - 1)
                genus_sum = genus - b1
                if genus_sum < 0:
                    continue
                for assign in itertools.product(range(k), repeat=n):
                    for gdist in _compositions(genus_sum, k):
                        flags = {}
                        boundary = {}
                        involution = {}
                        for idx, lbl in enumerate(labels):
                            fid = f"L{lbl}"
                            flags[fid] = None
                            boundary[fid] = f"w{assign[idx]}"
                            involution[fid] = fid
                        for m, (i, j) in enumerate(edge_multiset):
                            a, b = f"x{m}", f"y{m}"
                            flags[a] = flags[b] = None
                            boundary[a], boundary[b] = f"w{i}", f"w{j}"
                            involution[a], involution[b] = b, a
                        g = modular_graph(
                            flags=list(flags),
                            vertices=[f"w{i}" for i in range(k)],
                            boundary=boundary,
                            involution=involution,
                            genus={f"w{i}": gdist[i] for i in range(k)},
                            tail_labels={lbl: f"L{lbl}" for lbl in labels},
                        )
                        if not validate_susy_graph(g).ok:
                            continue
                        if not is_stable(g).stable:
                            continue
                        raw.append(g)
    reps: list[SusyGraph] = []
    sizes: list[int] = []
    for g in raw:
        matches = [
            i for i, rep in enumerate(reps) if brute_is_isomorphic(g, rep)
        ]
        assert len(matches) <= 1, "raw graph matches several representatives"
        if matches:
            sizes[matches[0]] += 1
        else:
            reps.append(g)
            sizes.append(1)
    return reps, sizes, len(raw)


def colored_from_shape(
    shape: SusyGraph,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
    r_edge_set: frozenset[frozenset[str]],
) -> SusyGraph:
    """Materialize one brute-force coloring of a modular shape."""
    label_to_flag = shape.merged_tail_labels()
    color = {}
    for lbl in ns_labels:
        color[label_to_flag[lbl]] = NS
    for lbl in r_labels:
        color[label_to_flag[lbl]] = R
    for a, b in edges(shape.graph):
        c = R if frozenset((a, b)) in r_edge_set else NS
        color[a] = color[b] = c
    return susy_graph(
        flags=sorted(shape.flags),
        vertices=sorted(shape.vertices),
        boundary=dict(shape.boundary),
        involution=dict(shape.involution),
        genus={v: shape.genus_of(v) for v in shape.vertices},
        color=color,
        ns_labels={l: label_to_flag[l] for l in ns_labels},
        r_labels={l: label_to_flag[l] for l in r_labels},
    )


def brute_strata(
    genus: int,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
    max_edges: int,
) -> list[SusyGraph]:
    """Colored strata via the pedestrian shape generator plus exhaustive
    coloring, deduplicated by the exhaustive isomorphism search."""
    ns_labels, r_labels = sorted(ns_labels), sorted(r_labels)
    shapes, _, _ = brute_strata_shapes(
        genus, list(ns_labels) + list(r_labels), max_edges
    )
    out: list[SusyGraph] = []
    for shape in shapes:
        for r_set in brute_color_sets(shape, ns_labels, r_labels):
            colored = colored_from_shape(shape, ns_labels, r_labels, r_set)
            if not any(brute_is_isomorphic(colored, rep) for rep in out):
                out.append(colored)
    return out


# ---------------------------------------------------------------------------
# contraction order by contracting every edge


def contraction_poset(
    strata: Iterable[SusyGraph],
) -> tuple[list[str], list[int], frozenset[tuple[int, int]]]:
    """The certificate digests, edge counts and covers of ``strata``, in the
    given order: (i, j) is a cover when contracting one edge of stratum i
    gives stratum j.  The list must hold each stratum once and be closed
    under contraction."""
    items = list(strata)
    digests = [canonical_form(g).digest for g in items]
    index = {d: i for i, d in enumerate(digests)}
    assert len(index) == len(items), "duplicate strata"
    covers = set()
    for i, g in enumerate(items):
        for pair in edges(g.graph):
            target = canonical_form(contract_pair(g, pair).target).digest
            assert target in index, "the strata are not closed under contraction"
            covers.add((i, index[target]))
    return digests, [len(edges(g.graph)) for g in items], frozenset(covers)


# ---------------------------------------------------------------------------
# exhaustive morphism enumeration (tiny graphs only)


def _perfect_matchings(items: list[str]) -> Iterator[tuple[tuple[str, str], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for sub in _perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + sub


def all_morphism_data(
    src: SusyGraph, dst: SusyGraph
) -> list[tuple[dict[str, str], dict[str, str], tuple[tuple[str, str], ...]]]:
    """Every candidate morphism datum between two tiny graphs."""
    src_flags, dst_flags = sorted(src.flags), sorted(dst.flags)
    src_vs, dst_vs = sorted(src.vertices), sorted(dst.vertices)
    if len(dst_flags) > len(src_flags):
        return []
    if (len(src_flags) - len(dst_flags)) % 2:
        return []
    out = []
    for image in itertools.permutations(src_flags, len(dst_flags)):
        fmap = dict(zip(dst_flags, image))
        leftover = [f for f in src_flags if f not in set(image)]
        for pairs in _perfect_matchings(leftover):
            for values in itertools.product(dst_vs, repeat=len(src_vs)):
                if set(values) != set(dst_vs):
                    continue
                vmap = dict(zip(src_vs, values))
                out.append((fmap, vmap, pairs))
    return out


def valid_hom_set(src: SusyGraph, dst: SusyGraph) -> list[tuple]:
    """The subset of candidate data accepted by the morphism validator."""
    accepted = []
    for fmap, vmap, pairs in all_morphism_data(src, dst):
        try:
            h = susy_morphism(src, dst, fmap, vmap, pairs)
        except Exception:
            continue
        if validate_susy_morphism(h).ok:
            accepted.append((tuple(sorted(fmap.items())), tuple(sorted(vmap.items())), pairs))
    return accepted
