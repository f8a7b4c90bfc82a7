"""Lifting colorless graphs to SUSY colorings.

A SUSY coloring needs an even number of R flags at every vertex.  Every
lift here comes from one spanning-forest rule:

1. Grow a spanning forest by Kruskal's rule, taking edges in ``edges()``
   order.  The loops and the remaining non-tree edges are the free edges;
   there are ``b1`` of them (first Betti number).
2. Color the free edges NS and peel each tree from its leaves up to its
   root, its smallest vertex: a tree edge is R exactly when the subtree
   below it carries an odd number of R tails.  A root left odd means its
   component receives an odd number of R tails, and then no lift exists.
3. Every other lift differs from this one by a sum of fundamental cycles,
   one per free edge (a loop's cycle is the loop itself), so the lifts of
   a fixed tail partition number 0 or ``2 ** b1``.

On a stable genus-zero tree there are no free edges, so every even split
of the tail labels into NS and R parts admits exactly one lift.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ValidationError
from .graphs import _root, edges, is_connected, tails
from .susy import (
    NS,
    R,
    SusyGraph,
    SusyLabeling,
    genus,
    require_susy,
)

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
    all_labels = set(g.labeling.ns_tail_labels)
    if ns_set & r_set:
        raise ValidationError("partition parts must be disjoint")
    if ns_set | r_set != all_labels:
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
    if not is_connected(g.graph):
        raise ValidationError("input is not a tree: disconnected")
    if genus(g) != 0:
        raise ValidationError("input is not a tree: total genus must be zero")


def _forest_lift(
    g: SusyGraph, r_set: frozenset[str]
) -> tuple[list[tuple[str, str]], int, list[int]] | None:
    """The spanning-forest lift of the module docstring, or None if no lift.

    Returns ``(pairs, particular, cycles)``: ``pairs`` is ``edges(g.graph)``,
    and colorings are int bitmasks over its indices (bit set means R).
    ``particular`` colors every free edge NS; ``cycles`` holds one
    fundamental cycle per free edge, loops first, each group sorted.
    """
    base = g.graph
    boundary = base.boundary
    pairs = edges(base)
    component = {v: v for v in base.vertices}
    tree_edges: dict[str, list[tuple[str, int]]] = {v: [] for v in base.vertices}
    loops, chords = [], []
    for i, (a, b) in enumerate(pairs):
        u, v = boundary[a], boundary[b]
        if u == v:
            loops.append(i)
            continue
        cu, cv = _root(component, u), _root(component, v)
        if cu == cv:
            chords.append(i)
            continue
        component[cu] = cv
        tree_edges[u].append((v, i))
        tree_edges[v].append((u, i))

    odd = dict.fromkeys(base.vertices, 0)
    label_to_tail = g.labeling.ns_tail_labels
    for lab in r_set:
        odd[boundary[label_to_tail[lab]]] ^= 1
    # path_to_root[v]: bitmask of the tree edges from v up to its root
    path_to_root: dict[str, int] = {}
    particular = 0
    for root in sorted(base.vertices):
        if root in path_to_root:
            continue
        path_to_root[root] = 0
        queue, below = [root], []
        for v in queue:
            for w, i in tree_edges[v]:
                if w not in path_to_root:
                    path_to_root[w] = path_to_root[v] | (1 << i)
                    queue.append(w)
                    below.append((w, v, i))
        for v, up, i in reversed(below):
            if odd[v]:
                particular |= 1 << i
                odd[up] ^= 1
        if odd[root]:
            return None

    cycles = [1 << i for i in loops]
    for i in chords:
        a, b = pairs[i]
        cycles.append(
            (1 << i) ^ path_to_root[boundary[a]] ^ path_to_root[boundary[b]]
        )
    return pairs, particular, cycles


def _lift_masks(
    g: SusyGraph, r_set: frozenset[str]
) -> tuple[list[tuple[str, str]], list[int]] | None:
    """The edge ``pairs`` of ``g`` and every lift with R tails ``r_set`` as
    a mask over them, or None if there is none.  Lift ``m`` adds the cycle
    of each set bit of ``m`` to the particular one.  Callers check ``g``."""
    lift = _forest_lift(g, r_set)
    if lift is None:
        return None
    pairs, particular, cycles = lift
    count = 2 ** len(cycles)
    if count > MAX_COLORINGS:
        raise ValidationError(
            f"too many colorings ({count}) for enumeration; limit is {MAX_COLORINGS}"
        )
    masks = [particular]
    for cycle in cycles:
        masks += [mask ^ cycle for mask in masks]
    return pairs, masks


def _colored(
    g: SusyGraph,
    ns_set: frozenset[str],
    r_set: frozenset[str],
    pairs: list[tuple[str, str]],
    mask: int,
) -> SusyGraph:
    """``g`` with its tails colored by the partition and edge ``pairs[i]``
    colored R exactly when bit ``i`` of ``mask`` is set.  Callers check
    ``g`` and the partition; the forest rule makes every such mask valid."""
    label_to_tail = g.labeling.ns_tail_labels
    color = {label_to_tail[lab]: NS for lab in ns_set}
    color.update((label_to_tail[lab], R) for lab in r_set)
    for i, (a, b) in enumerate(pairs):
        color[a] = color[b] = R if (mask >> i) & 1 else NS
    return SusyGraph(
        g.graph,
        SusyLabeling(
            genus=dict(g.labeling.genus),
            color=color,
            ns_tail_labels={l: label_to_tail[l] for l in ns_set},
            r_tail_labels={l: label_to_tail[l] for l in r_set},
        ),
        modular=False,
    )


def lift_tree_coloring(
    tree: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> SusyGraph:
    """The unique SUSY lift of a stable tree for an even label partition."""
    _require_stable_modular(tree, "lift_tree_coloring")
    _require_tree(tree)
    ns_set, r_set = _checked_partition(tree, ns_labels, r_labels)
    # A connected tree with an even R part always lifts, with no free edges.
    pairs, particular, _ = _forest_lift(tree, r_set)
    return _colored(tree, ns_set, r_set, pairs, particular)


def count_lifts(tree: SusyGraph) -> int:
    """Number of SUSY lifts of a stable tree over all even partitions:
    exactly 2 ** (#tails - 1)."""
    _require_stable_modular(tree, "count_lifts")
    _require_tree(tree)
    n = len(tails(tree.graph))
    return 2 ** (n - 1)


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
    lift = _forest_lift(g, r_set)
    return 0 if lift is None else 2 ** len(lift[2])


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
    pairs, masks = _lift_masks(g, r_set) or ([], [])
    return [_colored(g, ns_set, r_set, pairs, mask) for mask in masks]
