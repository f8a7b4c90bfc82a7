"""Nodal-curve configurations and their dual graphs."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from susykit import (
    NS,
    R,
    Component,
    CurveConfig,
    SpecialPoint,
    are_isomorphic,
    colorless_dual_graph,
    dual_graph,
    edges,
    forget,
    genus,
    is_stable,
    tails,
    validate_curve_config,
    validate_susy_graph,
)

from oracles import oracle_genus
from sampling import random_curve_config


def pt(pid, color, kind="puncture", label=None):
    if kind == "puncture" and label is None:
        label = pid
    return SpecialPoint(pid, color, kind, label)


def node(pid, color):
    return SpecialPoint(pid, color, "node-half", None)


class TestDualGraph:
    def test_irreducible_with_one_node(self):
        c = CurveConfig(
            components=(
                Component(1, (node("h1", NS), node("h2", NS), pt("p", NS))),
            ),
            node_pairing=[("h1", "h2")],
        )
        g = dual_graph(c)
        assert validate_susy_graph(g).ok
        assert len(g.vertices) == 1
        assert len(edges(g.graph)) == 1
        assert tails(g.graph) == ["p"]
        assert genus(g) == 2
        assert genus(g) == oracle_genus(g)

    def test_two_component_curve(self):
        c = CurveConfig(
            components=(
                Component(1, (node("h1", NS), pt("p1", NS))),
                Component(
                    0,
                    (
                        node("h2", NS),
                        pt("p2", R),
                        pt("p3", R),
                        pt("p4", NS),
                    ),
                ),
            ),
            node_pairing=[("h1", "h2")],
        )
        g = dual_graph(c)
        assert validate_susy_graph(g).ok
        assert len(g.vertices) == 2
        assert len(edges(g.graph)) == 1
        assert set(g.ns_labels()) == {"p1", "p4"}
        assert set(g.r_labels()) == {"p2", "p3"}
        assert genus(g) == 1

    def test_smooth_curve_gives_corolla(self):
        c = CurveConfig(
            components=(
                Component(3, (pt("p1", NS), pt("p2", R), pt("p3", R))),
            ),
            node_pairing=(),
        )
        g = dual_graph(c)
        assert len(g.vertices) == 1
        assert edges(g.graph) == []
        assert genus(g) == 3
        assert is_stable(g).stable

    def test_node_colors_must_match(self):
        c = CurveConfig(
            components=(
                Component(
                    1, (node("h1", NS), node("h2", R), pt("p", NS))
                ),
            ),
            node_pairing=[("h1", "h2")],
        )
        assert not validate_curve_config(c).ok
        with pytest.raises(Exception):
            dual_graph(c)

    def test_odd_r_component_rejected(self):
        c = CurveConfig(
            components=(Component(1, (pt("p", R), pt("q", NS))),),
            node_pairing=(),
        )
        report = validate_curve_config(c)
        assert not report.ok

    def test_unstable_component_rejected(self):
        c = CurveConfig(
            components=(Component(0, (pt("p", NS), pt("q", NS))),),
            node_pairing=(),
        )
        assert not validate_curve_config(c).ok

    def test_puncture_labels_unique(self):
        c = CurveConfig(
            components=(
                Component(
                    1,
                    (
                        pt("p", NS, label="x"),
                        pt("q", NS, label="x"),
                        pt("s", NS, label="y"),
                    ),
                ),
            ),
            node_pairing=(),
        )
        assert not validate_curve_config(c).ok


class TestReductionCompatibility:
    def test_by_hand_examples(self):
        configs = [
            CurveConfig(
                (Component(1, (node("h1", NS), node("h2", NS), pt("p", NS))),),
                [("h1", "h2")],
            ),
            CurveConfig(
                (Component(2, (pt("p1", NS), pt("p2", R), pt("p3", R))),),
                {},
            ),
        ]
        for c in configs:
            assert forget(dual_graph(c)) == colorless_dual_graph(c)

    @given(st.integers(0, 10**6))
    def test_fuzzed_configs(self, seed):
        c = random_curve_config(random.Random(seed))
        assert forget(dual_graph(c)) == colorless_dual_graph(c)

    @given(st.integers(0, 10**6))
    def test_dual_genus_matches_oracle(self, seed):
        c = random_curve_config(random.Random(seed))
        g = dual_graph(c)
        assert genus(g) == sum(comp.genus for comp in c.components) + (
            oracle_genus(g) - sum(g.genus_of(v) for v in g.vertices)
        )
        assert genus(g) == oracle_genus(g)

    @given(st.integers(0, 10**6))
    def test_retagged_config_isomorphic_dual(self, seed):
        rng = random.Random(seed)
        c = random_curve_config(rng)

        def retag(pid: str) -> str:
            return f"z{pid}z"

        components = tuple(
            Component(
                comp.genus,
                tuple(
                    SpecialPoint(retag(p.id), p.color, p.kind, p.label)
                    for p in comp.special_points
                ),
            )
            for comp in c.components
        )
        pairing = tuple((retag(a), retag(b)) for a, b in c.node_pairing)
        c2 = CurveConfig(components, pairing)
        ok, witness = are_isomorphic(dual_graph(c), dual_graph(c2))
        assert ok and witness is not None
