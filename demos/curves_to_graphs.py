"""A nodal curve configuration, its dual SUSY graph, and the JSON view.

Components become vertices, punctures become labeled tails, nodes become
edges.  Erasing the NS/R decoration commutes with taking dual graphs,
which is what makes the colorless theory a quotient of this one.
"""

import tempfile
from pathlib import Path

from susykit import (
    Component,
    CurveConfig,
    SpecialPoint,
    colorless_dual_graph,
    dual_graph,
    edges,
    forget,
    tails,
)
from susykit.jsonio import dumps, graph_to_json, save_graph


def pair_of_pants_plus_torus() -> CurveConfig:
    left = Component(
        genus=0,
        special_points=(
            SpecialPoint("a", "NS", "puncture", label="in1"),
            SpecialPoint("b", "R", "puncture", label="in2"),
            SpecialPoint("h1", "R", "node-half"),
        ),
    )
    right = Component(
        genus=1,
        special_points=(
            SpecialPoint("h2", "R", "node-half"),
            SpecialPoint("c", "R", "puncture", label="out"),
        ),
    )
    return CurveConfig(components=(left, right), node_pairing=(("h1", "h2"),))


def main() -> None:
    c = pair_of_pants_plus_torus()
    g = dual_graph(c)

    print(f"components -> vertices: {sorted(g.graph.vertices)}")
    print(f"punctures  -> tails:    {sorted(tails(g.graph))}")
    print(f"nodes      -> edges:    {edges(g.graph)}")
    by_label = dict(sorted(g.merged_tail_labels().items()))
    print("tail labels: " + ", ".join(
        f"{lbl} -> {flag} ({g.color_of(flag)})" for lbl, flag in by_label.items()
    ))
    print()

    same = forget(dual_graph(c)) == colorless_dual_graph(c)
    print(f"forget(dual) == colorless dual: {same}")
    print()

    doc = graph_to_json(g)
    print("the same graph as JSON:")
    print(dumps(doc))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dual.json"
        save_graph(g, path)
        print(f"wrote {path.name}; try the command line on such files:")
        print("  susykit validate dual.json")
        print("  susykit dims dual.json --format table")
        print("  susykit export-dot dual.json")


if __name__ == "__main__":
    main()
