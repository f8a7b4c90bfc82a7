"""Seeded inputs and independent oracles for the benchmark.

Nothing here imports susykit: the inputs depend only on the seed, so a
change to the library cannot change what it is measured on, and the
oracles check the library's outputs without reusing its code.

Graphs are plain dicts::

    {"vertices": ["v0", ...], "genus": {"v0": 0, ...},
     "boundary": {flag: vertex}, "involution": {flag: flag},
     "color": {flag: "NS" | "R"}}        # color only on colored graphs

Flags fixed by the involution are tails, and every tail is labeled by its
own flag name.
"""

from __future__ import annotations

import itertools
import random
from math import comb

NS = "NS"
R = "R"


def rng_for(workload: str, seed: int, stream: str = "measured") -> random.Random:
    """Independent generator per workload, seed and stream (measured
    inputs or warm-up inputs), stable across Python versions."""
    return random.Random(f"{workload}/{stream}/{seed}")


# --------------------------------------------------------------------------
# shapes


def random_shape(
    rng: random.Random,
    max_vertices: int,
    extra_edges: int,
    max_genus: int,
    extra_tails: int,
    prefix: str = "",
) -> tuple[dict, list[tuple[str, str]]]:
    """A stable connected genus-labeled graph, and its spanning tree.

    Vertex i > 0 hangs off a random earlier vertex by a tree edge, so the
    tree edges come back listed child-last; ``extra_edges`` more edges
    (loops and parallel edges allowed) join random vertex pairs.
    """
    n = rng.randint(1, max_vertices)
    verts = [f"{prefix}v{i}" for i in range(n)]
    genus = {v: rng.randint(0, max_genus) for v in verts}
    boundary: dict[str, str] = {}
    involution: dict[str, str] = {}
    tree: list[tuple[str, str]] = []

    def edge(u: str, w: str) -> tuple[str, str]:
        k = len(involution) // 2
        a, b = f"{prefix}e{k}a", f"{prefix}e{k}b"
        boundary[a], boundary[b] = u, w
        involution[a], involution[b] = b, a
        return a, b

    for i in range(1, n):
        tree.append(edge(verts[rng.randrange(i)], verts[i]))
    for _ in range(extra_edges):
        edge(rng.choice(verts), rng.choice(verts))

    degree = {v: 0 for v in verts}
    for v in boundary.values():
        degree[v] += 1
    serial = itertools.count()

    def tail(v: str) -> None:
        f = f"{prefix}t{next(serial)}"
        boundary[f] = v
        involution[f] = f
        degree[v] += 1

    for v in verts:
        while 2 * genus[v] - 2 + degree[v] <= 0:
            tail(v)
    for _ in range(extra_tails):
        tail(rng.choice(verts))
    return {"vertices": verts, "genus": genus, "boundary": boundary,
            "involution": involution}, tree


def tails_of(g: dict) -> list[str]:
    return sorted(f for f, p in g["involution"].items() if f == p)


def edge_pairs(g: dict) -> list[tuple[str, str]]:
    return sorted((f, p) for f, p in g["involution"].items() if f < p)


def even_r_part(rng: random.Random, labels: list[str], odd: bool = False) -> set[str]:
    """A random subset of ``labels`` of even size (odd size with ``odd``)."""
    r = {x for x in labels if rng.random() < 0.5}
    if len(r) % 2 != int(odd):
        r ^= {rng.choice(labels)}
    return r


def union(g1: dict, g2: dict) -> dict:
    return {key: ({**g1[key], **g2[key]} if isinstance(g1[key], dict)
                  else g1[key] + g2[key]) for key in g1}


# --------------------------------------------------------------------------
# oracles


def components(g: dict) -> list[set[str]]:
    """Vertex sets of the connected components, by union-find."""
    parent = {v: v for v in g["vertices"]}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edge_pairs(g):
        parent[find(g["boundary"][a])] = find(g["boundary"][b])
    groups: dict[str, set[str]] = {}
    for v in g["vertices"]:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def betti1(g: dict) -> int:
    """First Betti number: #edges - #vertices + #components."""
    return len(edge_pairs(g)) - len(g["vertices"]) + len(components(g))


def expected_lift_count(g: dict, r_part: set[str]) -> int:
    """2^b1 when every component carries an even number of R tails, else 0."""
    for comp in components(g):
        if sum(1 for t in r_part if g["boundary"][t] in comp) % 2:
            return 0
    return 2 ** betti1(g)


def parity_ok(g: dict, color: dict[str, str], r_part: set[str]) -> bool:
    """A valid NS/R coloring extending the tail partition: every flag is
    colored, edge ends agree, tails follow the partition, and every vertex
    sees an even number of R flags."""
    inv, bnd = g["involution"], g["boundary"]
    if set(color) != set(inv) or any(c not in (NS, R) for c in color.values()):
        return False
    if any(color[f] != color[p] for f, p in inv.items()):
        return False
    if any((color[t] == R) != (t in r_part) for t in tails_of(g)):
        return False
    r_at = {v: 0 for v in g["vertices"]}
    for f, c in color.items():
        if c == R:
            r_at[bnd[f]] += 1
    return all(k % 2 == 0 for k in r_at.values())


def color_tree_edges(g: dict, tree: list[tuple[str, str]], color: dict[str, str]) -> None:
    """Fill in the tree edges' colors so every vertex but the root has even
    R parity, peeling children before their parents (valid because
    ``random_shape`` lists each tree edge after its parent's)."""
    bnd = g["boundary"]
    for a, b in reversed(tree):
        child = bnd[b]
        r_seen = sum(1 for f, v in bnd.items()
                     if v == child and f not in (a, b) and color[f] == R)
        color[a] = color[b] = R if r_seen % 2 else NS


def schroeder(n: int) -> int:
    """OEIS A000311: series-reduced rooted trees with n labeled leaves.

    a(n) = sum_{k<n} C(n-1, k-1) a(k) T(n-k), where T counts weighted set
    partitions and T(m) = 2 a(m) for m >= 2.  The stable genus-0 graphs
    with n labeled tails number a(n - 1).
    """
    a = [0, 1]
    t = [1, 1]
    for m in range(2, n + 1):
        a.append(sum(comb(m - 1, k - 1) * a[k] * t[m - k] for k in range(1, m)))
        t.append(2 * a[m])
    return a[n]


def shape_key(g: dict, labels: dict[str, str]) -> tuple:
    """Isomorphism-invariant key of a genus-labeled graph with labeled tails
    (colors ignored): colour refinement, then the least encoding over every
    vertex order that respects the refined cells."""
    inv, bnd = g["involution"], g["boundary"]
    verts = list(g["vertices"])
    tails_at = {v: [] for v in verts}
    nbrs = {v: [] for v in verts}
    for f, p in inv.items():
        if f == p:
            tails_at[bnd[f]].append(labels[f])
        else:
            nbrs[bnd[f]].append(bnd[p])
    base = {v: (g["genus"][v], tuple(sorted(tails_at[v])),
                sum(1 for w in nbrs[v] if w == v), len(nbrs[v])) for v in verts}
    cell = base
    while True:
        ranks = {k: i for i, k in enumerate(sorted(set(cell.values())))}
        new = {v: (ranks[cell[v]], tuple(sorted(ranks[cell[w]] for w in nbrs[v])))
               for v in verts}
        if len(set(new.values())) == len(ranks):
            break
        cell = new
    cells = [[v for v in verts if ranks[cell[v]] == i] for i in range(len(ranks))]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = list(itertools.chain.from_iterable(parts))
        pos = {v: i for i, v in enumerate(order)}
        enc = (tuple(base[v] for v in order),
               tuple(sorted(tuple(sorted((pos[bnd[f]], pos[bnd[p]])))
                            for f, p in inv.items() if f < p)))
        if best is None or enc < best:
            best = enc
    return best


def stratum_from_json(doc: dict) -> tuple[dict, dict[str, str]]:
    """Plain graph and flag -> label map of one CLI stratum record."""
    boundary = {f["id"]: f["vertex"] for f in doc["flags"]}
    involution = {f: f for f in boundary}
    for a, b in doc["edges"]:
        involution[a], involution[b] = b, a
    g = {"vertices": [v["id"] for v in doc["vertices"]],
         "genus": {v["id"]: v["genus"] for v in doc["vertices"]},
         "boundary": boundary, "involution": involution,
         "color": {f["id"]: f["color"] for f in doc["flags"]}}
    labels = {f: l for l, f in {**doc["ns_labels"], **doc["r_labels"]}.items()}
    return g, labels


def stratum_problems(doc: dict, genus: int, ns: set[str], r: set[str]) -> list[str]:
    """Why one CLI stratum record is not a stable SUSY graph of the given
    total genus and tail labels (empty when it is)."""
    g, labels = stratum_from_json(doc)
    out = []
    if len(components(g)) != 1:
        out.append("disconnected")
    if sum(g["genus"].values()) + betti1(g) != genus:
        out.append("wrong total genus")
    degree = {v: 0 for v in g["vertices"]}
    for v in g["boundary"].values():
        degree[v] += 1
    if any(2 * g["genus"][v] - 2 + degree[v] <= 0 for v in g["vertices"]):
        out.append("unstable")
    tails = tails_of(g)
    if set(doc["ns_labels"]) != ns or set(doc["r_labels"]) != r:
        out.append("wrong label sets")
    if sorted(labels) != tails:
        out.append("labels are not a bijection onto the tails")
    r_part = {f for f in tails if labels.get(f) in r}
    if not parity_ok(g, g["color"], r_part):
        out.append("invalid NS/R coloring")
    return out


# --------------------------------------------------------------------------
# morphism move plans


def plan_moves(rng: random.Random, g: dict, steps: int, tag: str) -> list[tuple]:
    """A random chain of elementary moves out of a colored graph, tracked on
    the benchmark's own model of the flags (vertices never need naming).

    Moves: ("contract", a, b) for an edge or loop, ("graft", a, b) and
    ("virtual", a, b) for two tails of one color, ("iso", suffix) renaming
    every flag and vertex.  Each keeps stable graphs stable.  ``g`` is
    updated to the chain's target (its ``vertices`` and ``boundary`` go
    stale and must not be read afterwards).
    """
    inv, color = g["involution"], g["color"]
    plan = []
    for i in range(steps):
        tails = sorted(f for f, p in inv.items() if f == p)
        pairs = [(a, b) for a, b in itertools.combinations(tails, 2)
                 if color[a] == color[b]]
        moves = ["iso"]
        if any(f != p for f, p in inv.items()):
            moves += ["contract", "contract"]
        if pairs:
            moves += ["graft", "virtual"]
        move = rng.choice(moves)
        if move == "contract":
            a, b = rng.choice(sorted((f, p) for f, p in inv.items() if f < p))
            plan.append((move, a, b))
            for f in (a, b):
                del inv[f], color[f]
        elif move == "iso":
            suffix = f"{tag}{i}"
            plan.append((move, suffix))
            g["involution"] = inv = {f"{f}.{suffix}": f"{p}.{suffix}" for f, p in inv.items()}
            g["color"] = color = {f"{f}.{suffix}": c for f, c in color.items()}
        else:
            a, b = rng.choice(pairs)
            plan.append((move, a, b))
            if move == "graft":
                inv[a], inv[b] = b, a
            else:
                for f in (a, b):
                    del inv[f], color[f]
    return plan


# --------------------------------------------------------------------------
# workload inputs


def lift_case(rng: random.Random) -> dict:
    """One lifting input: a stable modular graph and an NS/R tail split.

    About a fifth are genus-0 trees (the unique-lift case), a tenth are two
    components each given an odd number of R tails (no lift exists), and
    the rest are connected with first Betti number 1 to 6.
    """
    kind = rng.random()
    if kind < 0.2:
        g, _ = random_shape(rng, 6, 0, 0, rng.randint(1, 3))
        return {"graph": g, "r": sorted(even_r_part(rng, tails_of(g))), "tree": True}
    if kind < 0.3:
        parts = []
        r: set[str] = set()
        for prefix in ("a.", "b."):
            part, _ = random_shape(rng, 3, rng.randint(0, 2), 1, 1, prefix)
            r |= even_r_part(rng, tails_of(part), odd=True)
            parts.append(part)
        return {"graph": union(*parts), "r": sorted(r), "tree": False}
    g, _ = random_shape(rng, 6, rng.randint(1, 6), 1, rng.randint(0, 3))
    return {"graph": g, "r": sorted(even_r_part(rng, tails_of(g))), "tree": False}


def surgery_case(rng: random.Random) -> dict:
    """One surgery input: a stable colored graph with at most 6 vertices and
    two composable move plans of 1 to 3 moves each."""
    g, tree = random_shape(rng, 6, rng.randint(0, 3), 2, rng.randint(0, 3))
    tails = tails_of(g)
    r_part = even_r_part(rng, tails)
    color = {f: (R if f in r_part else NS) for f in tails}
    tree_flags = {f for pair in tree for f in pair}
    for a, b in edge_pairs(g):
        if a not in tree_flags:
            color[a] = color[b] = rng.choice((NS, R))
    color_tree_edges(g, tree, color)
    g["color"] = color
    model = {"involution": dict(g["involution"]), "color": dict(color)}
    first = plan_moves(rng, model, rng.randint(1, 3), "h")
    second = plan_moves(rng, model, rng.randint(1, 3), "f")
    return {"graph": g, "first": first, "second": second}
