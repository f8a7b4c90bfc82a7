"""Core graph type: validation, orbit queries, morphisms, composition."""

import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from susykit import (
    SusyKitError,
    compose,
    contract_edge,
    contract_pair,
    contract_tails,
    edges,
    flags_at,
    graft,
    susy_identity,
    susy_morphism,
    tails,
    validate_graph,
    validate_morphism,
    validate_susy_morphism,
)
from susykit.graphs import (
    Graph,
    GraphMorphism,
    disjoint_union as graph_disjoint_union,
    involution_from_pairs,
    orbit_pairs,
)

from conftest import star, two_vertex_tree
from oracles import component_count
from sampling import (
    random_composable_pair,
    random_modular_graph,
    random_morphism,
    random_susy_graph,
)


def corolla_graph(n: int = 3) -> Graph:
    flags = [f"t{i}" for i in range(n)]
    return Graph(
        frozenset(flags),
        frozenset(["v"]),
        {f: "v" for f in flags},
        {f: f for f in flags},
    )


def loop_graph() -> Graph:
    return Graph(
        frozenset(["a", "b"]),
        frozenset(["v"]),
        {"a": "v", "b": "v"},
        {"a": "b", "b": "a"},
    )


class TestValidateGraph:
    def test_corolla_valid(self):
        g = corolla_graph(3)
        assert validate_graph(g).ok
        assert len(tails(g)) == 3
        assert edges(g) == []

    def test_non_involutive_rejected(self):
        g = Graph(
            frozenset(["f1", "f2", "f3"]),
            frozenset(["v"]),
            {"f1": "v", "f2": "v", "f3": "v"},
            {"f1": "f2", "f2": "f3", "f3": "f1"},
        )
        report = validate_graph(g)
        assert not report.ok
        assert any("involut" in msg for msg in report.violations)

    def test_loop_valid(self):
        g = loop_graph()
        assert validate_graph(g).ok
        assert tails(g) == []
        assert edges(g) == [("a", "b")]

    def test_boundary_must_cover_flags(self):
        g = Graph(
            frozenset(["a"]), frozenset(["v"]), {}, {"a": "a"}
        )
        assert not validate_graph(g).ok

    def test_isolated_vertex_allowed(self):
        g = Graph(frozenset(), frozenset(["v"]), {}, {})
        assert validate_graph(g).ok


class TestOrbitQueries:
    def test_two_vertex_one_edge_counts(self):
        t = two_vertex_tree(1, 1)
        assert len(tails(t.graph)) == 2
        assert len(edges(t.graph)) == 1

    def test_flags_at_unknown_vertex(self):
        with pytest.raises(KeyError):
            flags_at(corolla_graph(), "nope")

    def test_orbit_pairs_from_involution(self):
        inv = involution_from_pairs([("a", "b")])
        assert inv == {"a": "b", "b": "a"}
        assert orbit_pairs(inv) == [("a", "b")]

    @given(st.integers(0, 10**6))
    def test_flag_partition(self, seed):
        g = random_modular_graph(random.Random(seed)).graph
        assert len(g.flags) == len(tails(g)) + 2 * len(edges(g))
        assert edges(g) == orbit_pairs(g.involution)

    @given(st.integers(0, 10**6))
    def test_every_flag_in_exactly_one_vertex_star(self, seed):
        g = random_modular_graph(random.Random(seed)).graph
        seen = []
        for v in g.vertices:
            seen.extend(flags_at(g, v))
        assert sorted(seen) == sorted(g.flags)

    @given(st.integers(0, 10**6))
    def test_incidence_is_flags_at_built_once(self, seed):
        g = random_modular_graph(random.Random(seed)).graph
        inc = g.incidence
        assert inc == {v: tuple(flags_at(g, v)) for v in g.vertices}
        assert g.incidence is inc
        with pytest.raises(FrozenInstanceError):
            g.incidence = {}


class TestValidateMorphism:
    def test_identity_valid(self):
        g = star(0, 3)
        assert validate_morphism(susy_identity(g).map).ok

    def test_merger_rejected(self):
        # two disjoint vertices onto one vertex, nothing contracted
        src = star(1, 1, vid="p")
        src2 = star(1, 1, vid="q")
        from susykit import disjoint_union

        both = disjoint_union(src, src2)
        dst = star(2, 2, vid="m")
        dst_tails = sorted(dst.flags)
        src_tails = sorted(both.flags)
        h = GraphMorphism(
            both.graph,
            dst.graph,
            dict(zip(dst_tails, src_tails)),
            {v: "m" for v in both.vertices},
            {},
        )
        report = validate_morphism(h)
        assert not report.ok
        assert any("merge" in msg for msg in report.violations)

    def test_single_edge_contraction_valid_by_hand(self):
        t = two_vertex_tree(2, 2)
        merged = "u*w"
        flag_map = {f: f for f in ["a0", "a1", "b0", "b1"]}
        vertex_map = {"u": merged, "w": merged}
        from susykit import modular_graph

        dst = modular_graph(
            flags=["a0", "a1", "b0", "b1"],
            vertices=[merged],
            boundary={f: merged for f in ["a0", "a1", "b0", "b1"]},
            involution={f: f for f in ["a0", "a1", "b0", "b1"]},
            genus={merged: 0},
        )
        h = susy_morphism(t, dst, flag_map, vertex_map, [("ea", "eb")])
        assert validate_susy_morphism(h).ok

    def test_pullback_violations_are_reported_sorted(self):
        # the target's involution is iterated last flag first; its tails t0,
        # t1 pull back to edge flags and each of its edges to neither an
        # edge nor a tail pair
        pairs = [("e0", "e1"), ("e2", "e3"), ("e4", "e5")]
        involution = {f: f for f in ["t0", "t1", "t2", "t3"]}
        involution.update(involution_from_pairs(pairs))
        flags = sorted(involution, reverse=True)
        g = Graph(
            flags,
            ["v"],
            {f: "v" for f in flags},
            {f: involution[f] for f in flags},
        )
        preimage = dict(
            t0="e0", t1="e2", t2="t2", t3="t3",
            e0="t0", e1="e4", e2="t1", e3="e5", e4="e1", e5="e3",
        )
        h = GraphMorphism(g, g, preimage, {"v": "v"}, {})
        assert validate_morphism(h).violations == (
            "tail 't0' pulls back to a non-tail 'e0'",
            "tail 't1' pulls back to a non-tail 'e2'",
            "edge ('e0', 'e1') pulls back to neither an edge nor a tail pair",
            "edge ('e2', 'e3') pulls back to neither an edge nor a tail pair",
            "edge ('e4', 'e5') pulls back to neither an edge nor a tail pair",
        )

    def test_contracted_pair_must_share_image(self):
        t = two_vertex_tree(2, 2)
        # drop the tails of w into u's image without contracting the edge
        from susykit import modular_graph

        dst = modular_graph(
            flags=["a0", "a1"],
            vertices=["z1", "z2"],
            boundary={"a0": "z1", "a1": "z1"},
            involution={"a0": "a0", "a1": "a1"},
            genus={"z1": 0, "z2": 1},
        )
        h = GraphMorphism(
            t.graph,
            dst.graph,
            {"a0": "a0", "a1": "a1"},
            {"u": "z1", "w": "z2"},
            {"ea": "eb", "eb": "ea", "b0": "b1", "b1": "b0"},
        )
        assert not validate_morphism(h).ok


class TestCompose:
    def test_identity_laws(self, rng):
        g = random_susy_graph(rng)
        h = random_morphism(rng, g)
        assert compose(susy_identity(g), h) == h
        assert compose(h, susy_identity(h.target)) == h

    def test_two_single_contractions_equal_double(self):
        # path on three vertices; contract both edges in two steps and in one
        flags = ["t0", "t1", "t2", "p", "q", "r", "s"]
        from susykit import modular_graph

        g = modular_graph(
            flags=flags,
            vertices=["u", "v", "w"],
            boundary={
                "t0": "u",
                "t1": "v",
                "t2": "w",
                "p": "u",
                "q": "v",
                "r": "v",
                "s": "w",
            },
            involution={
                "t0": "t0",
                "t1": "t1",
                "t2": "t2",
                "p": "q",
                "q": "p",
                "r": "s",
                "s": "r",
            },
            genus={"u": 1, "v": 1, "w": 1},
        )
        step1 = contract_edge(g, ("p", "q"))
        step2 = contract_edge(step1.target, ("r", "s"))
        two_step = compose(step1, step2)
        direct = susy_morphism(
            g,
            two_step.target,
            dict(two_step.flag_map),
            dict(two_step.vertex_map),
            [("p", "q"), ("r", "s")],
        )
        assert two_step == direct
        assert validate_susy_morphism(direct).ok

    def test_graft_then_contract_is_virtual_contraction(self):
        g = star(0, 4)
        pair = ("vn0", "vn1")
        grafted = graft(g, [pair])
        contracted = contract_pair(grafted.target, pair)
        composite = compose(grafted, contracted)
        virtual = contract_tails(g, pair)
        assert composite == virtual

    def test_graft_then_contract_across_vertices(self):
        t = two_vertex_tree(2, 2)
        pair = ("a0", "b0")
        grafted = graft(t, [pair])
        contracted = contract_pair(grafted.target, pair)
        composite = compose(grafted, contracted)
        virtual = contract_tails(t, pair)
        assert composite == virtual

    @given(st.integers(0, 10**6))
    def test_associative(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        h1 = random_morphism(rng, g, max_steps=2)
        h2 = random_morphism(rng, h1.target, max_steps=2)
        h3 = random_morphism(rng, h2.target, max_steps=2)
        assert compose(compose(h1, h2), h3) == compose(h1, compose(h2, h3))

    @given(st.integers(0, 10**6))
    def test_compose_of_valid_is_valid(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        h1, h2 = random_composable_pair(rng, g)
        assert validate_susy_morphism(compose(h1, h2)).ok

    def test_endpoint_mismatch_rejected(self, rng):
        g1 = star(0, 3, vid="a")
        g2 = star(0, 4, vid="b")
        with pytest.raises(SusyKitError):
            compose(susy_identity(g1), susy_identity(g2))


class TestDisjointUnion:
    def test_with_empty(self):
        g = corolla_graph(3)
        empty = Graph(frozenset(), frozenset(), {}, {})
        u = graph_disjoint_union(g, empty)
        assert len(u.flags) == 3 and len(u.vertices) == 1
        assert validate_graph(u).ok

    def test_two_corollas(self):
        u = graph_disjoint_union(corolla_graph(3), corolla_graph(3))
        assert len(u.vertices) == 2
        assert len(tails(u)) == 6
        assert edges(u) == []

    @given(st.integers(0, 10**6))
    def test_edge_counts_add(self, seed):
        rng = random.Random(seed)
        g1 = random_modular_graph(rng).graph
        g2 = random_modular_graph(rng).graph
        u = graph_disjoint_union(g1, g2)
        assert len(edges(u)) == len(edges(g1)) + len(edges(g2))
        assert component_count(u) == component_count(g1) + component_count(g2)


class TestElementaryOutputsValidate:
    @given(st.integers(0, 10**6))
    def test_constructors_produce_valid_morphisms(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        assert validate_susy_morphism(susy_identity(g)).ok
        edge_list = edges(g.graph)
        if edge_list:
            pair = rng.choice(edge_list)
            assert validate_susy_morphism(contract_pair(g, pair)).ok
        tail_list = tails(g.graph)
        same_color = [
            (a, b)
            for i, a in enumerate(tail_list)
            for b in tail_list[i + 1 :]
            if g.color_of(a) == g.color_of(b)
        ]
        if same_color:
            pair = rng.choice(same_color)
            assert validate_susy_morphism(graft(g, [pair])).ok
            assert validate_susy_morphism(contract_tails(g, pair)).ok
