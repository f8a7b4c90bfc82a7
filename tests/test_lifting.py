"""Tree coloring lifts, counting formulas, and the general graph lift."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import susykit.graphs
import susykit.lifting
import susykit.susy
from susykit import (
    R,
    SusyKitError,
    ValidationError,
    count_even_partitions,
    count_lifts,
    edges,
    enumerate_edge_colorings,
    enumerate_strata_records,
    forget,
    genus,
    lift_count_general,
    lift_tree_coloring,
    modular_graph,
    tails,
    validate_susy_graph,
)

from conftest import star, two_vertex_tree
from oracles import brute_color_sets, color_set_of, forest_b1
from sampling import (
    random_modular_graph,
    random_modular_tree,
    random_susy_graph,
    random_tail_partition,
)


def simple_tree():
    # v1 holds tails a,b; v2 holds c,d; one edge between them
    return modular_graph(
        flags=["a", "b", "c", "d", "p", "q"],
        vertices=["v1", "v2"],
        boundary={"a": "v1", "b": "v1", "p": "v1", "c": "v2", "d": "v2", "q": "v2"},
        involution={"a": "a", "b": "b", "c": "c", "d": "d", "p": "q", "q": "p"},
        genus={"v1": 0, "v2": 0},
    )


class TestTreeLift:
    def test_split_partition_forces_r_edge(self):
        t = simple_tree()
        lifted = lift_tree_coloring(t, ["b", "d"], ["a", "c"])
        assert lifted.color_of("p") == R and lifted.color_of("q") == R
        assert brute_color_sets(t, ["b", "d"], ["a", "c"]) == [
            color_set_of(lifted)
        ]

    def test_same_side_partition_forces_ns_edge(self):
        t = simple_tree()
        lifted = lift_tree_coloring(t, ["c", "d"], ["a", "b"])
        assert lifted.color_of("p") != R
        assert brute_color_sets(t, ["c", "d"], ["a", "b"]) == [
            color_set_of(lifted)
        ]

    def test_corolla_trivially_unique(self):
        c = star(0, 4, modular=True)
        labels = sorted(c.merged_tail_labels())
        lifted = lift_tree_coloring(c, labels[2:], labels[:2])
        assert validate_susy_graph(lifted).ok
        assert len(brute_color_sets(c, labels[2:], labels[:2])) == 1

    def test_lift_validates_and_forgets_back(self, rng):
        for _ in range(20):
            t = random_modular_tree(rng)
            ns, r = random_tail_partition(rng, t)
            lifted = lift_tree_coloring(t, ns, r)
            assert validate_susy_graph(lifted).ok
            assert forget(lifted) == t

    @given(st.integers(0, 10**6))
    def test_unique_against_brute_force(self, seed):
        rng = random.Random(seed)
        t = random_modular_tree(rng)
        ns, r = random_tail_partition(rng, t)
        lifted = lift_tree_coloring(t, ns, r)
        assert brute_color_sets(t, ns, r) == [color_set_of(lifted)]

    def test_odd_r_rejected(self):
        t = simple_tree()
        with pytest.raises(SusyKitError):
            lift_tree_coloring(t, ["a", "b", "c"], ["d"])

    def test_non_tree_rejected(self):
        g = modular_graph(
            flags=["t", "la", "lb"],
            vertices=["v"],
            boundary={"t": "v", "la": "v", "lb": "v"},
            involution={"t": "t", "la": "lb", "lb": "la"},
            genus={"v": 0},
        )
        with pytest.raises(SusyKitError):
            lift_tree_coloring(g, ["t"], [])


class TestCounting:
    def test_five_tails_sixteen_lifts(self):
        t = two_vertex_tree(2, 3)
        assert len(tails(t.graph)) == 5
        assert count_lifts(t) == 16

    def test_three_tail_corolla_by_enumeration(self):
        c = star(0, 3, modular=True)
        labels = sorted(c.merged_tail_labels())
        even_subsets = [
            s
            for k in range(0, 4, 2)
            for s in itertools.combinations(labels, k)
        ]
        assert len(even_subsets) == 1 + 3
        assert count_lifts(c) == 4

    def test_unstable_tree_rejected(self):
        t = star(0, 1, modular=True)
        with pytest.raises(SusyKitError):
            count_lifts(t)

    def test_even_partition_count_small(self):
        assert count_even_partitions(4) == 8
        assert count_even_partitions(4) == sum(
            math.comb(4, k) for k in range(0, 5, 2)
        )
        assert count_even_partitions(0) == 1
        assert count_even_partitions(1) == 1

    @given(st.integers(1, 16))
    def test_even_partition_count_matches_binomials(self, k):
        assert count_even_partitions(k) == sum(
            math.comb(k, i) for i in range(0, k + 1, 2)
        )

    @given(st.integers(0, 10**6))
    def test_count_lifts_matches_exhaustive_partitions(self, seed):
        rng = random.Random(seed)
        t = random_modular_tree(rng, max_vertices=2, extra_tails=2)
        labels = sorted(t.merged_tail_labels())
        if len(labels) > 8:
            return
        valid = 0
        for k in range(len(labels) + 1):
            for r_subset in itertools.combinations(labels, k):
                ns_subset = [l for l in labels if l not in r_subset]
                if brute_color_sets(t, ns_subset, list(r_subset)):
                    valid += 1
        assert valid == count_lifts(t)


class TestGeneralCount:
    def test_tree_has_one_coloring(self, rng):
        for _ in range(10):
            t = random_modular_tree(rng)
            ns, r = random_tail_partition(rng, t)
            assert lift_count_general(t, ns, r) == 1

    def test_single_loop_two_colorings(self):
        g = modular_graph(
            flags=["t", "la", "lb"],
            vertices=["v"],
            boundary={"t": "v", "la": "v", "lb": "v"},
            involution={"t": "t", "la": "lb", "lb": "la"},
            genus={"v": 0},
        )
        assert lift_count_general(g, ["t"], []) == 2
        assert len(brute_color_sets(g, ["t"], [])) == 2

    def test_double_edge_odd_r_on_both_sides(self):
        g = modular_graph(
            flags=["t", "u", "p1", "q1", "p2", "q2"],
            vertices=["v1", "v2"],
            boundary={
                "t": "v1",
                "u": "v2",
                "p1": "v1",
                "p2": "v1",
                "q1": "v2",
                "q2": "v2",
            },
            involution={
                "t": "t",
                "u": "u",
                "p1": "q1",
                "q1": "p1",
                "p2": "q2",
                "q2": "p2",
            },
            genus={"v1": 0, "v2": 0},
        )
        assert lift_count_general(g, [], ["t", "u"]) == 2
        assert len(brute_color_sets(g, [], ["t", "u"])) == 2

    @given(st.integers(0, 10**6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_modular_graph(rng)
        ns, r = random_tail_partition(rng, g)
        expected = len(brute_color_sets(g, ns, r))
        assert lift_count_general(g, ns, r) == expected
        assert expected == 2 ** forest_b1(g.graph)

    @given(st.integers(0, 10**6))
    def test_enumeration_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_modular_graph(rng)
        ns, r = random_tail_partition(rng, g)
        found = enumerate_edge_colorings(g, ns, r)
        found_sets = [color_set_of(c) for c in found]
        brute_sets = brute_color_sets(g, ns, r)
        assert len(found_sets) == len(set(found_sets))
        assert set(found_sets) == set(brute_sets)
        assert len(found_sets) == len(brute_sets)
        for colored in found:
            assert validate_susy_graph(colored).ok
            assert genus(colored) == genus(g)

    def test_odd_r_on_each_component_has_no_lift(self):
        # two disjoint corollas, each receiving one of the two R tails
        g = modular_graph(
            flags=["a", "b", "c", "d", "e", "f"],
            vertices=["v1", "v2"],
            boundary={"a": "v1", "b": "v1", "c": "v1", "d": "v2", "e": "v2", "f": "v2"},
            involution={f: f for f in "abcdef"},
            genus={"v1": 0, "v2": 0},
        )
        ns, r = ["b", "c", "e", "f"], ["a", "d"]
        assert lift_count_general(g, ns, r) == 0
        assert enumerate_edge_colorings(g, ns, r) == []
        assert brute_color_sets(g, ns, r) == []

    def test_enumeration_limit_rejected(self, monkeypatch):
        g = modular_graph(
            flags=["t", "l1", "m1", "l2", "m2"],
            vertices=["v"],
            boundary={f: "v" for f in ["t", "l1", "m1", "l2", "m2"]},
            involution={"t": "t", "l1": "m1", "m1": "l1", "l2": "m2", "m2": "l2"},
            genus={"v": 0},
        )
        monkeypatch.setattr(susykit.lifting, "MAX_COLORINGS", 4)
        assert len(enumerate_edge_colorings(g, ["t"], [])) == 4
        monkeypatch.setattr(susykit.lifting, "MAX_COLORINGS", 3)
        with pytest.raises(ValidationError, match="too many colorings"):
            enumerate_edge_colorings(g, ["t"], [])

    @given(st.integers(0, 10**6))
    def test_tree_lift_is_the_only_enumerated_coloring(self, seed):
        rng = random.Random(seed)
        t = random_modular_tree(rng)
        ns, r = random_tail_partition(rng, t)
        assert enumerate_edge_colorings(t, ns, r) == [lift_tree_coloring(t, ns, r)]

    def test_enumeration_validates_its_input_once(self, monkeypatch):
        # b1 = 2: two loops at one vertex, so four colorings
        g = modular_graph(
            flags=["t", "l1", "m1", "l2", "m2"],
            vertices=["v"],
            boundary={f: "v" for f in ["t", "l1", "m1", "l2", "m2"]},
            involution={"t": "t", "l1": "m1", "m1": "l1", "l2": "m2", "m2": "l2"},
            genus={"v": 0},
        )
        # ``require_susy`` reads the reports kept on the graph without
        # calling ``validate_susy_graph``, so the lift's calls of it count
        # too (``is_stable`` asks it again, from the kept reports)
        calls = []

        def counting(real):
            return lambda h: calls.append(h) or real(h)

        real = susykit.susy.validate_susy_graph
        monkeypatch.setattr(susykit.susy, "validate_susy_graph", counting(real))
        monkeypatch.setattr(
            susykit.lifting, "validate_susy_graph", counting(real), raising=False
        )
        monkeypatch.setattr(
            susykit.lifting, "require_susy", counting(susykit.lifting.require_susy)
        )
        assert len(enumerate_edge_colorings(g, ["t"], [])) == 4
        assert calls == [g]


class TestKeptForest:
    """The partition-free part of the lift rule, ``graphs._lift_forest``,
    is built once per graph by the public entries, and never kept on the
    enumeration's shapes."""

    def test_one_forest_per_graph(self, monkeypatch):
        built = []
        real = susykit.graphs._lift_forest

        def counting(n, boundary, involution):
            built.append((n, list(boundary), list(involution)))
            return real(n, boundary, involution)

        monkeypatch.setattr(susykit.graphs, "_lift_forest", counting)
        t = simple_tree()
        for ns, r in ((["b", "d"], ["a", "c"]), (["a", "b", "c", "d"], [])):
            assert lift_count_general(t, ns, r) == 1
            colorings = enumerate_edge_colorings(t, ns, r)
            assert colorings == [lift_tree_coloring(t, ns, r)]
        assert count_lifts(t) == 8
        assert built == [(2, [0, 0, 1, 1, 0, 1], [0, 1, 2, 3, 5, 4])]

    def test_enumeration_keeps_no_forest(self):
        records = enumerate_strata_records(0, ["1", "2", "3", "4", "5"], [])
        assert records
        for rec in records:
            assert "_forest" not in vars(rec.shape.graph)
            for c in rec.colorings:
                assert "_forest" not in vars(c.graph)

    def test_tree_checks_keep_their_messages(self):
        loop = modular_graph(
            flags=["t", "la", "lb"],
            vertices=["v"],
            boundary={"t": "v", "la": "v", "lb": "v"},
            involution={"t": "t", "la": "lb", "lb": "la"},
            genus={"v": 0},
        )
        apart = modular_graph(
            flags=list("abcdef"),
            vertices=["v1", "v2"],
            boundary={f: "v1" if f in "abc" else "v2" for f in "abcdef"},
            involution={f: f for f in "abcdef"},
            genus={"v1": 0, "v2": 0},
        )
        for g, why in (
            (loop, "total genus must be zero"),
            (star(1, 1, modular=True), "total genus must be zero"),
            (apart, "disconnected"),
        ):
            for entry in (count_lifts, lambda h: lift_tree_coloring(h, [], [])):
                with pytest.raises(ValidationError) as err:
                    entry(g)
                assert str(err.value) == f"input is not a tree: {why}"


def test_colorings_share_no_mutable_state():
    # b1 = 2 and two R tails: four colorings built from one base coloring
    flags = ["s", "t", "u", "l1", "m1", "l2", "m2"]
    g = modular_graph(
        flags=flags,
        vertices=["v"],
        boundary=dict.fromkeys(flags, "v"),
        involution={"s": "s", "t": "t", "u": "u", "l1": "m1", "m1": "l1", "l2": "m2", "m2": "l2"},
        genus={"v": 1},
    )
    ns, r = ["s"], ["t", "u"]
    first, *rest = enumerate_edge_colorings(g, ns, r)
    again = enumerate_edge_colorings(g, ns, r)
    assert again == [first, *rest] and len(again) == 4
    before = [(c.labeling, dict(c.labeling.color)) for c in rest]
    lab = first.labeling
    lab.color["l1"] = lab.color["m1"] = "mutated"
    lab.genus["v"] = 99
    lab.ns_tail_labels["x"] = "s"
    lab.r_tail_labels["y"] = "t"
    for (labeling, color), c in zip(before, rest):
        assert c.labeling is labeling and c.labeling.color == color
        assert c.labeling.genus == {"v": 1}
        assert c.labeling.ns_tail_labels == {"s": "s"}
        assert c.labeling.r_tail_labels == {"t": "t", "u": "u"}
    assert g.labeling.genus == {"v": 1}
    assert "mutated" not in g.labeling.color.values()
    assert g.labeling.ns_tail_labels == {"s": "s", "t": "t", "u": "u"}
    assert g.labeling.r_tail_labels == {}
    assert enumerate_edge_colorings(g, ns, r) == again
    assert again[0].labeling.color["l1"] != "mutated"


def test_coloring_order_is_pinned():
    # R-colored edges of every enumerated coloring, in enumeration order;
    # ``susykit lift --enumerate`` and ``random_susy_graph`` depend on it.
    rows = []
    for seed in range(300):
        rng = random.Random(seed)
        g = random_modular_graph(rng, max_vertices=5, max_genus=3, max_extra_edges=4)
        ns, r = random_tail_partition(rng, g)
        rows.append(
            [
                [a for a, b in edges(c.graph) if c.color_of(a) == R]
                for c in enumerate_edge_colorings(g, ns, r)
            ]
        )
    assert sum(map(len, rows)) == 1918
    assert (
        hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        == "deb043615527598f261bfeae5845bea83f341314eb74642d808bae91d25351aa"
    )


def test_sampled_colorings_are_pinned():
    # R flags of seeded ``random_susy_graph`` draws, each a random choice
    # from the lifts of its partition, so it depends on their order
    rows = []
    for seed in range(200):
        rng = random.Random(seed)
        g = random_susy_graph(rng, max_vertices=5, max_genus=3, max_extra_edges=4)
        rows.append(sorted(f for f in g.flags if g.color_of(f) == R))
    assert sum(map(len, rows)) == 862
    assert (
        hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        == "e907eea7df1b7b292d0c847709f2bd89aa7a91730d17c0d2b17a3ace147b5a92"
    )


def test_import_pulls_in_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, susykit, susykit.cli; assert 'numpy' not in sys.modules",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
