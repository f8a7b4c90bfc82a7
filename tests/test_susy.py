"""Genus formula, stability, colors, and the forget/include functors."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from susykit import (
    NS,
    R,
    compose,
    edges,
    forget,
    genus,
    include,
    is_stable,
    modular_graph,
    susy_graph,
    tails,
    validate_susy_graph,
)
from susykit.sampling import (
    random_composable_pair,
    random_modular_graph,
    random_susy_graph,
)

from conftest import star, two_vertex_tree
from oracles import forest_b1, oracle_genus, valid_hom_set


def loop_vertex(n_loops: int = 2, tails_n: int = 1, g: int = 0):
    flags = [f"t{i}" for i in range(tails_n)]
    boundary = {f: "v" for f in flags}
    involution = {f: f for f in flags}
    for k in range(n_loops):
        a, b = f"l{k}a", f"l{k}b"
        flags += [a, b]
        boundary[a] = boundary[b] = "v"
        involution[a], involution[b] = b, a
    return modular_graph(
        flags=flags,
        vertices=["v"],
        boundary=boundary,
        involution=involution,
        genus={"v": g},
    )


class TestGenus:
    def test_corolla_genus_two(self):
        assert genus(star(2, 1, modular=True)) == 2

    def test_two_vertices_one_edge(self):
        t = two_vertex_tree(1, 1, genus_left=1, genus_right=0)
        assert genus(t) == 1
        assert genus(t) == oracle_genus(t)

    def test_two_loops(self):
        g = loop_vertex(2, 1, 0)
        assert genus(g) == 2
        assert genus(g) == oracle_genus(g)

    @given(st.integers(0, 10**6))
    def test_matches_betti_oracle(self, seed):
        g = random_modular_graph(random.Random(seed))
        assert genus(g) == oracle_genus(g)

    def test_disconnected_sums_components(self):
        from susykit import disjoint_union

        g1 = star(1, 1, vid="a", modular=True)
        g2 = loop_vertex(1, 1, 1)
        u = disjoint_union(g1, g2)
        assert genus(u) == genus(g1) + genus(g2)


class TestStability:
    def test_boundary_cases(self):
        assert is_stable(star(0, 3)).stable
        assert not is_stable(star(0, 2)).stable
        assert is_stable(star(1, 1)).stable

    def test_genus_one_no_flags_unstable(self):
        g = modular_graph(
            flags=[], vertices=["v"], boundary={}, involution={}, genus={"v": 1}
        )
        report = is_stable(g)
        assert not report.stable
        assert "v" in report.unstable_vertices

    def test_report_lists_only_bad_vertices(self):
        t = two_vertex_tree(2, 0)
        report = is_stable(t)
        assert report.unstable_vertices == ("w",)


class TestForgetInclude:
    def test_all_ns_unchanged_up_to_view(self):
        g = star(0, 4)
        m = forget(g)
        assert m.modular and not g.modular
        assert m.graph == g.graph
        assert {f: m.color_of(f) for f in m.flags} == {f: NS for f in m.flags}

    def test_labels_merge(self):
        g = star(0, 2, 2)
        m = forget(g)
        assert set(m.merged_tail_labels()) == set(g.ns_labels()) | set(
            g.r_labels()
        )

    def test_forget_include_is_identity(self):
        m = star(0, 4, modular=True)
        assert forget(include(m)) == m

    def test_include_makes_all_ns(self):
        m = loop_vertex(1, 2, 1)
        g = include(m)
        assert not g.modular
        assert all(g.color_of(f) == NS for f in g.flags)
        assert g.r_labels() == frozenset()

    def test_forget_functorial(self, rng):
        g = random_susy_graph(rng)
        h1, h2 = random_composable_pair(rng, g)
        assert forget(compose(h1, h2)) == compose(forget(h1), forget(h2))

    def test_include_full_and_faithful_on_small_graphs(self):
        # the same raw data is accepted between the modular graphs and
        # between their all-NS inclusions: the hom-sets coincide
        src = two_vertex_tree(1, 1)
        dst = star(0, 2, modular=True, vid="m")
        hom_modular = valid_hom_set(src, dst)
        hom_included = valid_hom_set(include(src), include(dst))
        assert hom_modular == hom_included
        assert len(hom_modular) > 0

    def test_include_faithful_corolla_to_self(self):
        m = star(0, 3, modular=True)
        assert valid_hom_set(m, m) == valid_hom_set(include(m), include(m))


class TestColorInvariants:
    @given(st.integers(0, 10**6))
    def test_total_r_flags_even(self, seed):
        g = random_susy_graph(random.Random(seed))
        total_r = sum(1 for f in g.flags if g.color_of(f) == R)
        assert total_r % 2 == 0

    @given(st.integers(0, 10**6))
    def test_per_color_flag_count(self, seed):
        g = random_susy_graph(random.Random(seed))
        for color in (NS, R):
            t = sum(1 for f in tails(g.graph) if g.color_of(f) == color)
            e = sum(
                1 for a, _ in edges(g.graph) if g.color_of(a) == color
            )
            total = sum(1 for f in g.flags if g.color_of(f) == color)
            assert total == t + 2 * e

    @given(st.integers(0, 10**6))
    def test_genus_survives_forget(self, seed):
        g = random_susy_graph(random.Random(seed))
        assert genus(forget(g)) == genus(g)

    def test_color_involution_mismatch_rejected(self):
        g = susy_graph(
            flags=["a", "b", "t", "u"],
            vertices=["v"],
            boundary={"a": "v", "b": "v", "t": "v", "u": "v"},
            involution={"a": "b", "b": "a", "t": "t", "u": "u"},
            genus={"v": 0},
            color={"a": NS, "b": R, "t": R, "u": R},
            ns_labels={},
            r_labels={"t": "t", "u": "u"},
        )
        report = validate_susy_graph(g)
        assert not report.ok

    def test_odd_r_vertex_rejected(self):
        g = susy_graph(
            flags=["t", "u", "w"],
            vertices=["v"],
            boundary={f: "v" for f in "tuw"},
            involution={f: f for f in "tuw"},
            genus={"v": 0},
            color={"t": R, "u": NS, "w": NS},
            ns_labels={"u": "u", "w": "w"},
            r_labels={"t": "t"},
        )
        report = validate_susy_graph(g)
        assert not report.ok
        assert any("odd number of R flags" in v for v in report.violations)

    def test_odd_r_vertices_reported_in_vertex_order(self):
        # w and v each carry one R tail; u sees no R flag at all
        g = susy_graph(
            flags=["p", "q", "s", "t", "x", "y", "z"],
            vertices=["w", "u", "v"],
            boundary={
                "p": "u", "q": "v", "s": "u", "t": "w",
                "x": "v", "y": "w", "z": "u",
            },
            involution={
                "p": "q", "q": "p", "s": "t", "t": "s",
                "x": "x", "y": "y", "z": "z",
            },
            genus={"u": 0, "v": 0, "w": 0},
            color={
                "p": NS, "q": NS, "s": NS, "t": NS,
                "x": R, "y": R, "z": NS,
            },
            ns_labels={"z": "z"},
            r_labels={"x": "x", "y": "y"},
        )
        assert validate_susy_graph(g).violations == (
            "vertex 'v' sees an odd number of R flags",
            "vertex 'w' sees an odd number of R flags",
        )

    def test_labels_must_cover_tails(self):
        g = susy_graph(
            flags=["t", "u"],
            vertices=["v"],
            boundary={"t": "v", "u": "v"},
            involution={"t": "t", "u": "u"},
            genus={"v": 0},
            color={"t": NS, "u": NS},
            ns_labels={"x": "u"},
            r_labels={},
        )
        report = validate_susy_graph(g)
        assert not report.ok
        with pytest.raises(Exception):
            report.raise_if_invalid("graph")

    def test_ns_label_on_r_tail_rejected(self):
        g = susy_graph(
            flags=["t", "u", "p", "q"],
            vertices=["v"],
            boundary={f: "v" for f in "tupq"},
            involution={f: f for f in "tupq"},
            genus={"v": 0},
            color={"t": R, "u": R, "p": NS, "q": NS},
            ns_labels={"1": "t", "2": "p", "3": "q"},
            r_labels={"4": "u"},
        )
        assert not validate_susy_graph(g).ok
