"""Configurations of degenerate curves and their dual graphs.

A :class:`CurveConfig` records the combinatorics of a degenerating curve:
components with genera, special points on each component (punctures and
node-halves, each colored NS or R, punctures carrying marked-point labels),
and a pairing matching node-halves into nodes.  The dual graph turns
components into vertices, special points into flags, and the node pairing
into the edge involution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graphs import Graph, ValidationReport, _copied, _owned, _strings
from .susy import NS, R, SusyGraph, SusyLabeling, _valid

__all__ = [
    "Component",
    "CurveConfig",
    "SpecialPoint",
    "colorless_dual_graph",
    "dual_graph",
    "validate_curve_config",
]

PUNCTURE = "puncture"
NODE_HALF = "node-half"


@dataclass(frozen=True)
class SpecialPoint:
    id: str
    color: str
    kind: str
    label: str | None = None


@dataclass(frozen=True)
class Component:
    genus: int
    special_points: tuple[SpecialPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "special_points", _copied(tuple, self.special_points, "special_points")
        )


@dataclass(frozen=True)
class CurveConfig:
    components: tuple[Component, ...]
    node_pairing: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", _copied(tuple, self.components, "components"))
        # a string entry stays whole, so the check reports it as no pair
        pairs = _copied(lambda ps: tuple(p if isinstance(p, str) else tuple(p) for p in ps),
                        self.node_pairing, "node_pairing")
        object.__setattr__(self, "node_pairing", pairs)


def validate_curve_config(c: CurveConfig) -> ValidationReport:
    if not isinstance(c, CurveConfig):
        return ValidationReport((f"expected a CurveConfig, got {type(c).__name__}",))
    problems: list[str] = []
    color_of: dict[str, str] = {}
    ns_labels: set[str] = set()
    r_labels: set[str] = set()
    halves: set[str] = set()

    for idx, comp in enumerate(c.components):
        where = f"component {idx}"
        if not isinstance(comp, Component):
            problems.append(f"{where}: expected a Component, got {type(comp).__name__}")
            continue
        if type(comp.genus) is not int or comp.genus < 0:
            problems.append(f"{where}: genus must be a non-negative integer")
        r_count = 0
        for j, pt in enumerate(comp.special_points):
            if not isinstance(pt, SpecialPoint):
                kind = type(pt).__name__
                problems.append(f"{where}: point {j}: expected a SpecialPoint, got {kind}")
                continue
            if not isinstance(pt.id, str):
                problems.append(f"{where}: point {j}: id must be a string, got {pt.id!r}")
                continue
            if pt.id in color_of:
                problems.append(f"{where}: duplicate point id {pt.id!r}")
            color_of[pt.id] = pt.color
            if pt.color not in (NS, R):
                problems.append(f"{where}: point {pt.id!r} has bad color {pt.color!r}")
            elif pt.color == R:
                r_count += 1
            if pt.kind == PUNCTURE:
                if pt.label is None:
                    problems.append(f"{where}: puncture {pt.id!r} needs a label")
                elif not isinstance(pt.label, str):
                    problems.append(f"{where}: puncture {pt.id!r} has a non-string label")
                elif pt.color == NS:
                    if pt.label in ns_labels:
                        problems.append(f"duplicate NS label {pt.label!r}")
                    ns_labels.add(pt.label)
                else:
                    if pt.label in r_labels:
                        problems.append(f"duplicate R label {pt.label!r}")
                    r_labels.add(pt.label)
            elif pt.kind == NODE_HALF:
                if pt.label is not None:
                    problems.append(f"{where}: node-half {pt.id!r} cannot be labeled")
                halves.add(pt.id)
            else:
                problems.append(f"{where}: point {pt.id!r} has bad kind {pt.kind!r}")
        if r_count % 2:
            problems.append(f"{where}: odd number of R special points")
        if type(comp.genus) is int and 2 * comp.genus - 2 + len(comp.special_points) <= 0:
            problems.append(f"{where}: unstable (2g - 2 + #points <= 0)")

    if ns_labels & r_labels:
        problems.append("NS and R puncture labels must be disjoint")

    paired: set[str] = set()
    for j, pair in enumerate(c.node_pairing):
        if isinstance(pair, str) or len(pair) != 2 or not _strings(pair):
            problems.append(f"node pairing {j}: expected a pair of point ids")
            continue
        a, b = pair
        if a == b:
            problems.append(f"node pairing ({a!r}, {b!r}) is degenerate")
            continue
        for x in (a, b):
            if x not in halves:
                problems.append(f"node pairing mentions non-half {x!r}")
            if x in paired:
                problems.append(f"node-half {x!r} paired twice")
            paired.add(x)
        if a in color_of and b in color_of and color_of[a] != color_of[b]:
            problems.append(f"paired halves ({a!r}, {b!r}) disagree in color")
    unpaired = halves - paired
    if unpaired:
        problems.append(f"unpaired node-halves {sorted(unpaired)}")

    return ValidationReport(tuple(problems))


def dual_graph(c: CurveConfig) -> SusyGraph:
    """Dual SUSY graph: the components become the vertices ``c0``, ``c1``,
    ... in order, special points flags, nodes edges; puncture labels carry
    over as tail labels."""
    validate_curve_config(c).raise_if_invalid("curve configuration")
    return _dual(c, False)


def _dual(c: CurveConfig, modular: bool) -> SusyGraph:
    """The dual graph of a valid ``c``, in the modular view if ``modular``.
    ``validate_curve_config`` has checked every SUSY-graph axiom that it
    could break, so it is built unchecked, like the calculus's graphs."""
    boundary, color, genus, ns_labels, r_labels = {}, {}, {}, {}, {}
    for idx, comp in enumerate(c.components):
        v = f"c{idx}"
        genus[v] = comp.genus
        for pt in comp.special_points:
            boundary[pt.id] = v
            color[pt.id] = pt.color
            if pt.kind == PUNCTURE:
                (ns_labels if pt.color == NS else r_labels)[pt.label] = pt.id
    involution = {f: f for f in boundary}
    for a, b in c.node_pairing:
        involution[a] = b
        involution[b] = a
    return _valid(
        _owned(
            Graph, flags=frozenset(boundary), vertices=frozenset(genus),
            boundary=boundary, involution=involution,
        ),
        _owned(
            SusyLabeling, genus=genus, color=color,
            ns_tail_labels=ns_labels, r_tail_labels=r_labels,
        ),
        modular,
    )


def colorless_dual_graph(c: CurveConfig) -> SusyGraph:
    """Dual graph of the configuration with its colors erased: every
    special point recolored NS, so the puncture labels share one slot,
    and the result taken in the modular view."""
    # checked before erasing, which could hide a color fault
    validate_curve_config(c).raise_if_invalid("curve configuration")
    erased = CurveConfig(
        tuple(
            Component(
                comp.genus,
                tuple(replace(p, color=NS) for p in comp.special_points),
            )
            for comp in c.components
        ),
        c.node_pairing,
    )
    return _dual(erased, True)
