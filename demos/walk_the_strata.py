"""Enumerate the boundary strata of a small moduli signature and order
them by contraction.

Strata are stable SUSY graphs up to isomorphism; contracting edges moves
up the poset toward the smooth stratum (the corolla).  The DOT text at
the end renders with graphviz: `python3 demos/walk_the_strata.py | tail
-n +20 | dot -Tpng -o strata.png` or similar.
"""

from susykit import (
    edges,
    enumerate_strata_records,
    strata_poset,
    stratum_dimension,
)
from susykit.dot import poset_to_dot


def main() -> None:
    genus, ns, r = 0, ["1", "2", "3", "4"], []
    records = enumerate_strata_records(genus, ns, r)
    poset = strata_poset(records)
    strata = poset.strata
    print(f"genus {genus} with tails NS={ns} R={r}: {len(strata)} strata")
    print()

    for i, g in enumerate(strata):
        dim = stratum_dimension(g)
        n_edges = poset.ranks[i]
        digest = poset.digests[i][:12]
        print(
            f"  S{i}: {n_edges} edge(s), dimension {dim.even}|{dim.odd}, "
            f"codim {dim.codimension[0]}, cert {digest}"
        )

    print()
    for rec in records:
        print(
            f"  shape with {len(edges(rec.shape.graph))} edge(s): "
            f"{len(rec.colorings)} coloring(s), predicted {rec.predicted_colorings}"
        )

    print()
    print(f"poset top (smooth stratum): S{poset.top}")
    for i, j in sorted(poset.covers):
        print(f"  contracting S{i} gives S{j}")

    print()
    print(poset_to_dot(poset))


if __name__ == "__main__":
    main()
