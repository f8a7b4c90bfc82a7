"""Lifting colorless graphs to SUSY colorings.

A SUSY coloring needs an even number of R flags at every vertex.  Every
lift, of a named graph here or of a shape in ``strata``, comes from one
rule on integers, flags numbered in sorted-name order and each edge set
a mask of its flags (``graphs._lift_forest``, then ``_particular``):

1. Grow a spanning forest by Kruskal's rule, taking edges in ``edges()``
   order, and give each vertex its component's root and the mask of its
   tree path to it.  The loops, then the other edges off the forest, are
   the ``b1`` free edges (first Betti number), each closing one
   fundamental cycle.  The forest does not depend on the partition: the
   public entries keep it on the graph.
2. Color each R tail R with its path to the root.  Overlapping paths
   cancel, so the R tails are paired up by tree paths and the free edges
   are NS, unless a component receives an odd number of R tails: then no
   lift exists.
3. Every other lift differs from this one by a sum of fundamental cycles,
   so the lifts of a fixed tail partition number 0 or ``2 ** b1``.  They
   are listed by doubling: each cycle in turn flips every lift so far.

On a stable genus-zero tree there are no free edges, so every even split
of the tail labels into NS and R parts admits exactly one lift.
"""

from __future__ import annotations

from operator import xor
from typing import Callable, Iterable

from .errors import ValidationError
from .graphs import _LiftForest, _owned, is_connected, tails
from .susy import NS, R, SusyGraph, SusyLabeling, _valid, genus, require_susy

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


def _label_set(labels: Iterable[str]) -> frozenset[str]:
    """``labels`` as a set, refusing what cannot be one, a string too; a
    partition's cover check and ``strata._shapes`` refuse a label that is
    not a string."""
    if not isinstance(labels, str):
        try:
            return frozenset(labels)
        except TypeError:
            pass
    kind = type(labels).__name__
    raise ValidationError(f"tail labels must be an iterable of strings, got {kind}")


def _checked_partition(
    g: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> tuple[frozenset[str], frozenset[str]]:
    ns_set, r_set = _label_set(ns_labels), _label_set(r_labels)
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
    if not is_connected(g.graph):
        raise ValidationError("input is not a tree: disconnected")
    if genus(g):
        raise ValidationError("input is not a tree: total genus must be zero")


def _particular(forest: _LiftForest, r_tails: Iterable[int]) -> int | None:
    """Step 2 of the module docstring: the mask of the lift with R tails
    ``r_tails``, as flag indices, and every free edge NS, or None if some
    component receives an odd number of them."""
    boundary, root, path, _ = forest
    odd = mask = 0
    for f in r_tails:
        v = boundary[f]
        odd ^= 1 << root[v]
        mask ^= 1 << f ^ path[v]
    return None if odd else mask


def _doubled(first, cycles: list, flipped: Callable = xor) -> list:
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


def _lift(g: SusyGraph, r_set: frozenset[str]) -> tuple[int | None, list[int]]:
    """The ``_particular`` lift of ``g`` with R tails ``r_set`` and the
    fundamental cycles, from the forest that ``g`` keeps."""
    index, forest = g.graph._forest
    label_to_tail = g.labeling.ns_tail_labels
    return _particular(forest, [index[label_to_tail[l]] for l in r_set]), forest.cycles


def _colorings(
    g: SusyGraph, ns_set: frozenset, r_set: frozenset, mask: int | None, cycles: list[int]
) -> list[SusyGraph]:
    """``g`` with its tail labels split by the partition and its flags
    colored by the lift ``mask`` (flag ``f``, in sorted-name order, is R
    when bit ``f`` is set), then by each lift that doubling over ``cycles``
    adds; none for no ``mask``.  Callers check ``g`` and the partition.
    The forest rule makes every colouring valid, so each comes from
    ``susy._valid`` and owns fresh dicts."""
    if mask is None:
        return []
    label_to_tail = g.labeling.ns_tail_labels
    ns = {l: label_to_tail[l] for l in ns_set}
    r = {l: label_to_tail[l] for l in r_set}
    index = g.graph._forest[0]

    def flipped(color: dict[str, str], flags: list[str]) -> dict[str, str]:
        color = dict(color)
        for f in flags:
            color[f] = NS if color[f] == R else R
        return color

    first = {f: R if mask >> i & 1 else NS for f, i in index.items()}
    flag_sets = [[f for f, i in index.items() if cycle >> i & 1] for cycle in cycles]
    graph, genera, out = g.graph, g.labeling.genus, []
    for color in _doubled(first, flag_sets, flipped):
        labeling = _owned(
            SusyLabeling, genus=dict(genera), color=color, ns_tail_labels=dict(ns),
            r_tail_labels=dict(r),
        )
        out.append(_valid(graph, labeling, False))
    return out


def lift_tree_coloring(
    tree: SusyGraph, ns_labels: Iterable[str], r_labels: Iterable[str]
) -> SusyGraph:
    """The unique SUSY lift of a stable tree for an even label partition."""
    _require_stable_modular(tree, "lift_tree_coloring")
    _require_tree(tree)
    ns_set, r_set = _checked_partition(tree, ns_labels, r_labels)
    # A connected tree with an even R part always lifts, with no free edges.
    return _colorings(tree, ns_set, r_set, *_lift(tree, r_set))[0]


def count_lifts(tree: SusyGraph) -> int:
    """Number of SUSY lifts of a stable tree over all even partitions of
    its tails, each of which lifts once."""
    _require_stable_modular(tree, "count_lifts")
    _require_tree(tree)
    return count_even_partitions(len(tails(tree.graph)))


def count_even_partitions(k: int) -> int:
    """Number of two-block ordered partitions of a k-set with even second
    block: 2 ** (k - 1) for k >= 1, and 1 for the empty set."""
    if type(k) is not int or k < 0:
        raise ValidationError(f"label count must be a non-negative integer, got {k!r}")
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
    particular, cycles = _lift(g, r_set)
    return 0 if particular is None else 2 ** len(cycles)


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
    return _colorings(g, ns_set, r_set, *_lift(g, r_set))
