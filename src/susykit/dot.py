"""Graphviz DOT rendering of SUSY graphs and contraction posets.

Output is deterministic (identifiers sorted) so repeated exports of the
same object are byte identical.  NS lines are solid, R lines dashed;
vertices show their genus as ``g=N``; tails end in small point-shaped
anchor nodes named by their labels.
"""

from __future__ import annotations

from .graphs import edges, tails
from .strata import ContractionPoset
from .susy import NS, SusyGraph

__all__ = ["graph_to_dot", "poset_to_dot"]


def _quote(x: str) -> str:
    escaped = x.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _style(color: str) -> str:
    return "solid" if color == NS else "dashed"


def graph_to_dot(g: SusyGraph) -> str:
    label_of = {f: l for l, f in g.labeling.ns_tail_labels.items()}
    label_of.update({f: l for l, f in g.labeling.r_tail_labels.items()})
    lines = ['graph "susy" {']
    for v in sorted(g.vertices):
        lines.append(
            f"  {_quote('v:' + v)} [label={_quote(f'g={g.genus_of(v)}')}, shape=circle];"
        )
    for f in tails(g.graph):
        anchor = "t:" + f
        lines.append(
            f"  {_quote(anchor)} [label={_quote(label_of[f])}, shape=point];"
        )
        lines.append(
            f"  {_quote('v:' + g.boundary[f])} -- {_quote(anchor)} "
            f"[style={_style(g.color_of(f))}];"
        )
    for a, b in edges(g.graph):
        lines.append(
            f"  {_quote('v:' + g.boundary[a])} -- {_quote('v:' + g.boundary[b])} "
            f"[style={_style(g.color_of(a))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_dot(poset: ContractionPoset) -> str:
    """Cover relations as arrows pointing at the contraction (upward)."""
    lines = ['digraph "strata" {']
    for i, c in enumerate(poset.cores):
        n_edges = poset.ranks[i]
        r_edges = sum(1 for f, p in enumerate(c.involution) if f < p and c.color[f] == 1)
        label = f"S{i}: {n_edges}E" + (f" ({r_edges}R)" if r_edges else "")
        lines.append(f"  {_quote(f'S{i}')} [label={_quote(label)}];")
    for i, js in enumerate(poset.successors):
        lines.extend(f"  {_quote(f'S{i}')} -> {_quote(f'S{j}')};" for j in js)
    lines.append("}")
    return "\n".join(lines) + "\n"
