"""Seeded random generators for graphs, morphisms and curve configurations.

Test support: the suite draws its random inputs here, through the public
API of ``susykit`` alone.  Everything takes an explicit ``random.Random``
so test runs are reproducible; nothing here touches the global RNG state.
"""

from __future__ import annotations

import random

from susykit import (
    NS,
    R,
    Component,
    CurveConfig,
    SpecialPoint,
    SusyGraph,
    SusyMorphism,
    ValidationError,
    compose_chain,
    contract_pair,
    contract_tails,
    enumerate_edge_colorings,
    graft,
    make_isomorphism,
    modular_graph,
    tails,
    validate_curve_config,
    validate_susy_graph,
)
from susykit.curves import NODE_HALF, PUNCTURE
from susykit.graphs import orbit_pairs

__all__ = [
    "random_composable_pair",
    "random_curve_config",
    "random_modular_graph",
    "random_modular_tree",
    "random_morphism",
    "random_susy_graph",
    "random_tail_partition",
]


def _assemble(
    rng: random.Random,
    n_vertices: int,
    max_genus: int,
    extra_edges: int,
    extra_tails: int,
) -> SusyGraph:
    verts = [f"v{i}" for i in range(n_vertices)]
    boundary: dict[str, str] = {}
    involution: dict[str, str] = {}
    genus = {v: rng.randint(0, max_genus) for v in verts}
    serial = 0

    def new_edge(u: str, w: str) -> None:
        nonlocal serial
        a, b = f"e{serial}a", f"e{serial}b"
        serial += 1
        boundary[a] = u
        boundary[b] = w
        involution[a] = b
        involution[b] = a

    for i in range(1, n_vertices):
        new_edge(verts[rng.randrange(i)], verts[i])
    for _ in range(extra_edges):
        new_edge(rng.choice(verts), rng.choice(verts))

    degree = {v: 0 for v in verts}
    for f, v in boundary.items():
        degree[v] += 1
    tail_serial = 0

    def new_tail(v: str) -> None:
        nonlocal tail_serial
        f = f"t{tail_serial}"
        tail_serial += 1
        boundary[f] = v
        involution[f] = f
        degree[v] += 1

    for v in verts:
        while 2 * genus[v] - 2 + degree[v] <= 0:
            new_tail(v)
    for _ in range(extra_tails):
        new_tail(rng.choice(verts))

    g = modular_graph(
        flags=set(boundary),
        vertices=set(verts),
        boundary=boundary,
        involution=involution,
        genus=genus,
    )
    validate_susy_graph(g).raise_if_invalid("sampled graph")
    if not g.stability.stable:
        raise ValidationError("sampler produced an unstable graph")
    return g


def random_modular_tree(
    rng: random.Random, max_vertices: int = 4, extra_tails: int = 3
) -> SusyGraph:
    """A stable modular tree: connected, loop-free, genus zero everywhere.
    Tails label themselves."""
    return _assemble(
        rng,
        n_vertices=rng.randint(1, max_vertices),
        max_genus=0,
        extra_edges=0,
        extra_tails=rng.randint(1, extra_tails),
    )


def random_modular_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_genus: int = 2,
    max_extra_edges: int = 2,
) -> SusyGraph:
    """A stable connected modular graph, possibly with loops and parallel
    edges."""
    return _assemble(
        rng,
        n_vertices=rng.randint(1, max_vertices),
        max_genus=max_genus,
        extra_edges=rng.randint(0, max_extra_edges),
        extra_tails=rng.randint(0, 3),
    )


def random_tail_partition(
    rng: random.Random, g: SusyGraph
) -> tuple[set[str], set[str]]:
    """Split a modular graph's tail labels into (NS, R) with #R even."""
    labels = sorted(g.ns_labels())
    r = {l for l in labels if rng.random() < 0.5}
    if len(r) % 2:
        flip = rng.choice(labels)
        r ^= {flip}
    return set(labels) - r, r


def random_susy_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_genus: int = 2,
    max_extra_edges: int = 2,
) -> SusyGraph:
    """A stable connected SUSY graph: a sampled modular shape with a random
    even tail partition and a random compatible edge coloring."""
    shape = random_modular_graph(rng, max_vertices, max_genus, max_extra_edges)
    # a connected shape lifts for every even partition
    return rng.choice(enumerate_edge_colorings(shape, *random_tail_partition(rng, shape)))


def _same_color_tail_pairs(g: SusyGraph) -> list[tuple[str, str]]:
    out = []
    tail_list = tails(g.graph)
    for i, a in enumerate(tail_list):
        for b in tail_list[i + 1 :]:
            if g.color_of(a) == g.color_of(b):
                out.append((a, b))
    return out


def random_morphism(
    rng: random.Random, g: SusyGraph, max_steps: int = 3
) -> SusyMorphism:
    """A random morphism out of ``g``: a composite of graftings, edge and
    loop contractions, virtual contractions and isomorphisms."""
    current = g
    chain: list[SusyMorphism] = []
    for _ in range(rng.randint(0, max_steps)):
        moves: list[str] = ["iso"]
        edge_orbits = orbit_pairs(current.graph.involution)
        tail_pairs = _same_color_tail_pairs(current)
        if edge_orbits:
            moves.extend(["contract", "contract"])
        if tail_pairs:
            moves.append("graft")
            moves.append("virtual")
        move = rng.choice(moves)
        if move == "contract":
            step = contract_pair(current, rng.choice(edge_orbits))
        elif move == "graft":
            step = graft(current, [rng.choice(tail_pairs)])
        elif move == "virtual":
            step = contract_tails(current, rng.choice(tail_pairs))
        else:
            suffix = rng.randrange(10_000)
            step = make_isomorphism(
                current,
                flag_renaming={f: f"{f}.{suffix}" for f in current.flags},
                vertex_renaming={v: f"{v}.{suffix}" for v in current.vertices},
            )
        chain.append(step)
        current = step.target
    return compose_chain(g, chain)


def random_composable_pair(
    rng: random.Random, g: SusyGraph, max_steps: int = 3
) -> tuple[SusyMorphism, SusyMorphism]:
    first = random_morphism(rng, g, max_steps)
    second = random_morphism(rng, first.target, max_steps)
    return first, second


def random_curve_config(
    rng: random.Random, max_components: int = 3, max_genus: int = 2
) -> CurveConfig:
    """A random valid curve configuration: components with punctures and
    paired node-halves, even Ramond counts and stability enforced."""
    n = rng.randint(1, max_components)
    points: list[list[SpecialPoint]] = [[] for _ in range(n)]
    genera = [rng.randint(0, max_genus) for _ in range(n)]
    pairing: list[tuple[str, str]] = []
    serial = 0

    def half(comp: int, color: str) -> str:
        nonlocal serial
        pid = f"h{serial}"
        serial += 1
        points[comp].append(SpecialPoint(pid, color, NODE_HALF))
        return pid

    for _ in range(rng.randint(0, 3)):
        color = rng.choice([NS, R])
        c1, c2 = rng.randrange(n), rng.randrange(n)
        pairing.append((half(c1, color), half(c2, color)))

    ns_serial = 0
    r_serial = 0

    def puncture(comp: int, color: str) -> None:
        nonlocal ns_serial, r_serial
        if color == NS:
            pid, label = f"pn{ns_serial}", f"n{ns_serial}"
            ns_serial += 1
        else:
            pid, label = f"pr{r_serial}", f"r{r_serial}"
            r_serial += 1
        points[comp].append(SpecialPoint(pid, color, PUNCTURE, label))

    for i in range(n):
        for _ in range(rng.randint(0, 2)):
            puncture(i, rng.choice([NS, R]))
        r_count = sum(1 for p in points[i] if p.color == R)
        if r_count % 2:
            puncture(i, R)
        while 2 * genera[i] - 2 + len(points[i]) <= 0:
            puncture(i, NS)

    config = CurveConfig(
        tuple(Component(genera[i], tuple(points[i])) for i in range(n)),
        tuple(pairing),
    )
    validate_curve_config(config).raise_if_invalid("sampled curve configuration")
    return config
