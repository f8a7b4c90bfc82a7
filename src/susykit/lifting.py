"""Lifting colorless graphs to SUSY colorings.

A SUSY coloring needs an even number of R flags at every vertex.  Every
lift here comes from one spanning-forest rule:

1. Grow a spanning forest by Kruskal's rule, taking edges in ``edges()``
   order.  The loops and the remaining non-tree edges are the free edges;
   there are ``b1`` of them (first Betti number).  The forest does not
   depend on the partition: the public entries keep it on the graph.
2. Color the free edges NS and peel each tree from its leaves up to its
   root, its smallest vertex: a tree edge is R exactly when the subtree
   below it carries an odd number of R tails.  A root left odd means its
   component receives an odd number of R tails, and then no lift exists.
3. Every other lift differs from this one by a sum of fundamental cycles,
   one per free edge (a loop's cycle is the loop itself), so the lifts of
   a fixed tail partition number 0 or ``2 ** b1``.  They are listed by
   doubling: each cycle in turn copies every lift so far, flipping its edges.

On a stable genus-zero tree there are no free edges, so every even split
of the tail labels into NS and R parts admits exactly one lift.
"""

from __future__ import annotations

from collections import namedtuple
from operator import xor
from typing import Callable, Iterable

from .errors import ValidationError
from .graphs import Graph, _root, edges, tails
from .susy import NS, R, SusyGraph, SusyLabeling, require_susy

__all__ = [
    "MAX_COLORINGS",
    "count_even_partitions",
    "count_lifts",
    "enumerate_edge_colorings",
    "lift_count_general",
    "lift_tree_coloring",
]

# a lift refuses to list more colorings than this
MAX_COLORINGS = 4096


def _checked_partition(
    g: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> tuple[frozenset[str], frozenset[str]]:
    ns_set, r_set = frozenset(ns_labels), frozenset(r_labels)
    if ns_set & r_set:
        raise ValidationError("partition parts must be disjoint")
    if ns_set | r_set != g.labeling.ns_tail_labels.keys():
        raise ValidationError("partition must cover the label set exactly")
    if len(r_set) % 2:
        raise ValidationError("the R part of a partition must have even size")
    return ns_set, r_set


def _require_stable_modular(g: SusyGraph, what: str) -> None:
    require_susy(g)
    if not g.modular:
        raise ValidationError(f"{what} expects the modular (colorless) view")
    rep = g.stability
    if not rep.stable:
        raise ValidationError(
            f"{what} expects a stable graph; unstable at {list(rep.unstable_vertices)}"
        )


def _require_tree(g: SusyGraph) -> None:
    forest = g.graph._forest
    if len(forest.roots) > 1:
        raise ValidationError("input is not a tree: disconnected")
    # connected, so the total genus is b1 plus the vertex genera
    if forest.cycles or any(g.labeling.genus.values()):
        raise ValidationError("input is not a tree: total genus must be zero")


_Forest = namedtuple("_Forest", "pairs peel roots cycles")


def _spanning_forest(g: Graph) -> _Forest:
    """Step 1 of the module docstring.  ``pairs`` is ``edges(g)``, and edge
    sets are int bitmasks over its indices.  ``peel`` lists each tree edge
    as ``(child, parent, bit)``, leaves first; ``roots`` holds one vertex
    per component; ``cycles`` one fundamental cycle per free edge, loops
    first, each group sorted."""
    boundary = g.boundary
    pairs = edges(g)
    component = {v: v for v in g.vertices}
    tree_edges: dict[str, list[tuple[str, int]]] = {v: [] for v in g.vertices}
    loops, chords = [], []
    for i, (a, b) in enumerate(pairs):
        u, v = boundary[a], boundary[b]
        if u == v:
            loops.append(i)
            continue
        cu, cv = _root(component, u), _root(component, v)
        if cu == cv:
            chords.append((i, u, v))
            continue
        component[cu] = cv
        tree_edges[u].append((v, i))
        tree_edges[v].append((u, i))

    # path_to_root[v]: bitmask of the tree edges from v up to its root
    path_to_root: dict[str, int] = {}
    roots, below = [], []
    for root in sorted(g.vertices):
        if root in path_to_root:
            continue
        roots.append(root)
        path_to_root[root] = 0
        queue = [root]
        for v in queue:
            for w, i in tree_edges[v]:
                if w not in path_to_root:
                    path_to_root[w] = path_to_root[v] | (1 << i)
                    queue.append(w)
                    below.append((w, v, 1 << i))

    cycles = [1 << i for i in loops]
    cycles += [(1 << i) ^ path_to_root[u] ^ path_to_root[v] for i, u, v in chords]
    return _Forest(pairs, below[::-1], roots, cycles)


def _peel(g: SusyGraph, forest: _Forest, r_set: frozenset[str]) -> int | None:
    """Step 2 of the module docstring: the mask of the lift with R tails
    ``r_set`` and every free edge NS, or None if there is no lift."""
    odd: set[str] = set()
    for lab in r_set:
        odd ^= {g.boundary[g.labeling.ns_tail_labels[lab]]}
    particular = 0
    for v, up, bit in forest.peel:
        if v in odd:
            particular |= bit
            odd ^= {v, up}
    return None if odd else particular


def _doubled(first, cycles: list, flipped: Callable) -> list:
    """``first`` and ``flipped`` images of it, one per subset of ``cycles``:
    each cycle in turn appends ``flipped(x, cycle)`` for every ``x`` listed
    so far.  Refuses to list more than ``MAX_COLORINGS``."""
    count = 2 ** len(cycles)
    if count > MAX_COLORINGS:
        raise ValidationError(
            f"too many colorings ({count}) for enumeration; limit is {MAX_COLORINGS}"
        )
    out = [first]
    for cycle in cycles:
        out += [flipped(x, cycle) for x in out]
    return out


def _lift_masks(g: SusyGraph, r_set: frozenset[str]) -> tuple[list, list[int]] | None:
    """The edge ``pairs`` of ``g`` and every lift with R tails ``r_set`` as
    a mask over them, or None if there is none.  Lift ``m`` adds the cycle
    of each set bit of ``m`` to the particular one.  Callers check ``g``;
    the forest is not kept, as the enumeration's records hold their shapes."""
    forest = _spanning_forest(g.graph)
    particular = _peel(g, forest, r_set)
    if particular is None:
        return None
    return forest.pairs, _doubled(particular, forest.cycles, xor)


def _colorings(
    g: SusyGraph, ns_set: frozenset, r_set: frozenset,
    pairs: list, mask: int, cycles: list,
) -> list[SusyGraph]:
    """``g`` with its tails colored by the partition and its edges by the
    lift ``mask`` (bit ``i`` set: ``pairs[i]`` is R), then by each lift that
    doubling over ``cycles`` adds, in ``_lift_masks`` order.  Callers check
    ``g`` and the partition; ``SusyLabeling`` copies the shared dicts."""
    label_to_tail = g.labeling.ns_tail_labels
    ns = {l: label_to_tail[l] for l in ns_set}
    r = {l: label_to_tail[l] for l in r_set}
    color = dict.fromkeys(ns.values(), NS)
    color.update(dict.fromkeys(r.values(), R))
    for i, (a, b) in enumerate(pairs):
        color[a] = color[b] = R if (mask >> i) & 1 else NS

    def colored(color: dict[str, str]) -> SusyGraph:
        return SusyGraph(g.graph, SusyLabeling(g.labeling.genus, color, ns, r))

    def flipped(h: SusyGraph, flags: list[tuple[str, str]]) -> SusyGraph:
        color = dict(h.labeling.color)
        for a, b in flags:
            color[a] = color[b] = NS if color[a] == R else R
        return colored(color)

    edge_sets = [[p for i, p in enumerate(pairs) if cycle >> i & 1] for cycle in cycles]
    return _doubled(colored(color), edge_sets, flipped)


def lift_tree_coloring(
    tree: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> SusyGraph:
    """The unique SUSY lift of a stable tree for an even label partition."""
    _require_stable_modular(tree, "lift_tree_coloring")
    _require_tree(tree)
    ns_set, r_set = _checked_partition(tree, ns_labels, r_labels)
    # A connected tree with an even R part always lifts, with no free edges.
    forest = tree.graph._forest
    particular = _peel(tree, forest, r_set)
    return _colorings(tree, ns_set, r_set, forest.pairs, particular, [])[0]


def count_lifts(tree: SusyGraph) -> int:
    """Number of SUSY lifts of a stable tree over all even partitions:
    exactly 2 ** (#tails - 1)."""
    _require_stable_modular(tree, "count_lifts")
    _require_tree(tree)
    return 2 ** (len(tails(tree.graph)) - 1)


def count_even_partitions(k: int) -> int:
    """Number of two-block ordered partitions of a k-set with even second
    block: 2 ** (k - 1) for k >= 1, and 1 for the empty set."""
    if k < 0:
        raise ValidationError("label count must be non-negative")
    return 1 if k == 0 else 2 ** (k - 1)


def lift_count_general(
    g: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> int:
    """Number of valid edge colorings extending the given tail partition.

    Zero when some connected component receives an odd number of R tails,
    ``2 ** b1`` otherwise (first Betti number of the whole graph).
    """
    _require_stable_modular(g, "lift_count_general")
    _, r_set = _checked_partition(g, ns_labels, r_labels)
    forest = g.graph._forest
    return 0 if _peel(g, forest, r_set) is None else 2 ** len(forest.cycles)


def enumerate_edge_colorings(
    g: SusyGraph,
    ns_labels: Iterable[str],
    r_labels: Iterable[str],
) -> list[SusyGraph]:
    """All SUSY graphs obtained by coloring ``g``'s edges compatibly with
    the tail partition.  Deterministically ordered; errors out past
    ``MAX_COLORINGS`` solutions to keep desk-scale use honest."""
    _require_stable_modular(g, "enumerate_edge_colorings")
    ns_set, r_set = _checked_partition(g, ns_labels, r_labels)
    forest = g.graph._forest
    particular = _peel(g, forest, r_set)
    if particular is None:
        return []
    return _colorings(g, ns_set, r_set, forest.pairs, particular, forest.cycles)
