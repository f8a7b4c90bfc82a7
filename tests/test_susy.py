"""Genus formula, stability, colors, and the forget/include functors."""

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import susykit.graphs
import susykit.susy
from susykit import (
    NS,
    R,
    Graph,
    SusyGraph,
    SusyMorphism,
    ValidationError,
    classify,
    compose,
    contract_pair,
    decompose_to_elementaries,
    edges,
    evaluate_operad,
    forget,
    genus,
    include,
    is_stable,
    modular_graph,
    susy_graph,
    tails,
    validate_graph,
    validate_susy_graph,
    validate_susy_morphism,
)
from susykit.calculus import atomize
from susykit.graphs import identity_morphism

from conftest import star, two_vertex_tree
from oracles import oracle_genus, valid_hom_set
from sampling import (
    random_composable_pair,
    random_modular_graph,
    random_susy_graph,
)
from test_boundary import contraction_chain, count_calls


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

    @pytest.mark.parametrize(
        "vertices, genera, violation",
        [
            (["v"], {"v": 0}, "boundary: unknown vertices ['w']"),
            (["v", "w"], {"v": 0}, "genus: domain must be exactly the vertex set"),
        ],
    )
    def test_invalid_graph_raises_validation_error(self, vertices, genera, violation):
        boundary = {"a": "v", "b": "v", "c": "v", "d": "w"}
        g = susy_graph(
            boundary, vertices, boundary, {f: f for f in boundary}, genera,
            color=dict.fromkeys(boundary, NS),
        )
        for read in (is_stable, genus, lambda x: x.stability):
            with pytest.raises(ValidationError) as err:
                read(g)
            assert str(err.value) == f"invalid SUSY graph: {violation}"


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


# -- exact violation messages, one malformed input per kind -----------------

R_FLAGS = ("ra", "rb", "r0", "r1")


def two_vertex_graph() -> SusyGraph:
    """u (genus 0) and w (genus 1) joined by an NS edge ea-eb and an R edge
    ra-rb; u carries the tails a0 (NS) and r0 (R), w the tails b0 and r1."""
    boundary = {"a0": "u", "ea": "u", "ra": "u", "r0": "u"}
    boundary |= {"b0": "w", "eb": "w", "rb": "w", "r1": "w"}
    involution = {f: f for f in ("a0", "r0", "b0", "r1")}
    involution |= {"ea": "eb", "eb": "ea", "ra": "rb", "rb": "ra"}
    return susy_graph(
        flags=boundary,
        vertices=["u", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "w": 1},
        color={f: R if f in R_FLAGS else NS for f in boundary},
    )


def edited(g: SusyGraph, modular: bool | None = None, **changes) -> SusyGraph:
    """``g`` with the named fields of its graph and labeling replaced,
    unchecked."""
    graph_names = {f.name for f in fields(Graph)}
    on_graph = {k: v for k, v in changes.items() if k in graph_names}
    on_labeling = {k: v for k, v in changes.items() if k not in graph_names}
    return SusyGraph(
        replace(g.graph, **on_graph),
        replace(g.labeling, **on_labeling),
        g.modular if modular is None else modular,
    )


def without(d: dict, *keys) -> dict:
    return {k: v for k, v in d.items() if k not in keys}


def base_dicts():
    g = two_vertex_graph()
    return g, dict(g.boundary), dict(g.involution), g.labeling


def _graph_cases():
    g, b, inv, lab = base_dicts()
    yield "boundary domain", edited(g, boundary=without(b, "a0")), (
        "boundary: domain must be exactly the flag set",
    )
    yield "unknown vertices", edited(g, boundary={**b, "a0": "x", "b0": "x"}), (
        "boundary: unknown vertices ['x', 'x']",
    )
    yield "involution domain", edited(g, involution=without(inv, "a0")), (
        "involution: domain must be exactly the flag set",
    )
    yield "unknown flags", edited(g, involution={**inv, "a0": "zz"}), (
        "involution: unknown flags ['zz']",
    )
    yield "not an involution", edited(g, involution={**inv, "a0": "b0"}), (
        "involution: not an involution at ['a0']",
    )
    yield "both domains", edited(
        g, boundary=without(b, "a0"), involution=without(inv, "b0")
    ), (
        "boundary: domain must be exactly the flag set",
        "involution: domain must be exactly the flag set",
    )


def _susy_cases():
    g, _, _, lab = base_dicts()
    yield "genus domain", edited(g, genus={"u": 0}), (
        "genus: domain must be exactly the vertex set",
    )
    yield "negative genus", edited(g, genus={"w": 1.5, "u": -1}), (
        "genus: negative or non-integer at ['u', 'w']",
    )
    yield "color domain", edited(g, color=without(lab.color, "a0")), (
        "color: domain must be exactly the flag set",
    )
    yield "bad color", edited(g, color={**lab.color, "b0": "X", "a0": "Y"}), (
        "color: values must be NS or R, got bad flags ['a0', 'b0']",
    )
    yield "edge colors differ", edited(g, color={**lab.color, "eb": R}), (
        "color: edge flags disagree across the involution at ['ea', 'eb']",
        "vertex 'w' sees an odd number of R flags",
    )
    yield "odd R flags", edited(g, color={**lab.color, "a0": R, "b0": R}), (
        "vertex 'u' sees an odd number of R flags",
        "vertex 'w' sees an odd number of R flags",
    )
    yield "genus and color", edited(
        g, genus={"u": -1, "w": 0}, color={**lab.color, "a0": R}
    ), (
        "genus: negative or non-integer at ['u']",
        "vertex 'u' sees an odd number of R flags",
    )
    yield "tail labeling", edited(
        g, ns_tail_labels={"x": "a0", "y": "a0"}, r_tail_labels={"p": "r0"}
    ), (
        "NS tail labeling must be a bijection onto the NS tails",
        "R tail labeling must be a bijection onto the R tails",
    )
    yield "overlapping labels", edited(
        g,
        ns_tail_labels={"x": "a0", "y": "b0"},
        r_tail_labels={"x": "r0", "z": "r1"},
    ), ("NS and R label sets must be disjoint",)
    yield "non-string labels", edited(
        g, ns_tail_labels={1: "a0", "b0": "b0"}, r_tail_labels={None: "r0", "r1": "r1"}
    ), ("tail labels must be strings, got 1, None",)
    yield "modular view", edited(g, modular=True), (
        "modular view must be colored all-NS",
        "modular view must keep every label in the NS slot",
    )
    all_ns = {f: NS for f in lab.color}
    yield "modular labels", edited(
        g,
        modular=True,
        color=all_ns,
        ns_tail_labels={"a0": "a0", "b0": "b0", "r1": "r1"},
        r_tail_labels={"r0": "r0"},
    ), (
        "NS tail labeling must be a bijection onto the NS tails",
        "R tail labeling must be a bijection onto the R tails",
        "modular view must keep every label in the NS slot",
    )


GRAPH_CASES = list(_graph_cases())
SUSY_CASES = list(_susy_cases())


@pytest.mark.parametrize(
    "g, expected", [c[1:] for c in GRAPH_CASES], ids=[c[0] for c in GRAPH_CASES]
)
def test_graph_violations(g, expected):
    assert validate_graph(g.graph).violations == expected
    # a malformed graph stops the SUSY check before its labeling is read
    assert validate_susy_graph(g).violations == expected


@pytest.mark.parametrize(
    "g, expected", [c[1:] for c in SUSY_CASES], ids=[c[0] for c in SUSY_CASES]
)
def test_susy_graph_violations(g, expected):
    assert validate_graph(g.graph).violations == ()
    assert validate_susy_graph(g).violations == expected


def sorted_identity(g: SusyGraph, **swaps) -> SusyMorphism:
    """The identity of ``g`` with its maps in sorted order and the given
    target flags pulled back along ``swaps`` (both ways)."""
    swap = {**swaps, **{v: k for k, v in swaps.items()}}
    m = identity_morphism(g.graph)
    flag_map = {f: swap.get(f, f) for f in sorted(g.flags)}
    vertex_map = {v: v for v in sorted(g.vertices)}
    return SusyMorphism(g, g, replace(m, flag_map=flag_map, vertex_map=vertex_map))


def merged(g: SusyGraph, genus: int, drop=()) -> SusyGraph:
    """``g`` with u and w made one vertex x of the given genus, the flags
    ``drop`` removed, and tails labeling themselves."""
    keep = [f for f in sorted(g.flags) if f not in drop]
    return susy_graph(
        flags=keep,
        vertices=["x"],
        boundary={f: "x" for f in keep},
        involution={f: g.involution[f] for f in keep},
        genus={"x": genus},
        color={f: g.color_of(f) for f in keep},
    )


def to_merged(g, genus, pairs=()) -> SusyMorphism:
    """u and w sent onto one vertex x, contracting ``pairs``."""
    drop = [f for p in pairs for f in p]
    t = merged(g, genus, drop)
    return SusyMorphism(
        g,
        t,
        replace(
            identity_morphism(g.graph),
            target=t.graph,
            flag_map={f: f for f in sorted(t.flags)},
            vertex_map={"u": "x", "w": "x"},
            contracted={**{a: b for a, b in pairs}, **{b: a for a, b in pairs}},
        ),
    )


def _morphism_cases():
    g = two_vertex_graph()
    h = contract_pair(g, ("ea", "eb"))
    m = h.map
    assert validate_susy_morphism(h).ok
    yield "valid", h, ()
    yield "source invalid", replace(
        h, source=edited(h.source, genus={"u": -1, "w": 1})
    ), ("source: genus: negative or non-integer at ['u']",)
    yield "target invalid", replace(
        h, target=edited(h.target, color={**h.target.labeling.color, "a0": R})
    ), ("target: vertex 'u*w' sees an odd number of R flags",)
    yield "endpoints", SusyMorphism(h.source, h.target, replace(m, source=h.target.graph)), (
        "underlying map endpoints disagree with the SUSY endpoints",
    )
    yield "modular mix", replace(h, source=edited(h.source, modular=True)), (
        "source: modular view must be colored all-NS",
        "source: modular view must keep every label in the NS slot",
        "morphism mixes the modular view with genuine SUSY graphs",
    )
    yield "flag_map domain", replace(h, map=replace(m, flag_map=without(m.flag_map, "a0"))), (
        "flag_map: domain must be exactly the target flag set",
    )
    yield "flag_map values", replace(h, map=replace(m, flag_map={**m.flag_map, "a0": "zz"})), (
        "flag_map: values must be source flags",
    )
    yield "flag_map injective", replace(
        h, map=replace(m, flag_map={**m.flag_map, "a0": "b0"})
    ), ("flag_map: must be injective",)
    yield "vertex_map domain", replace(
        h, map=replace(m, vertex_map={"w": "u*w"})
    ), ("vertex_map: domain must be exactly the source vertex set",)
    yield "vertex_map values", replace(
        h, map=replace(m, vertex_map={"u": "zz", "w": "u*w"})
    ), ("vertex_map: values must be target vertices",)
    ident = sorted_identity(g)
    yield "vertex_map surjective", replace(
        ident, map=replace(ident.map, vertex_map={"u": "u", "w": "u"})
    ), (
        "vertex_map: must be surjective",
    )
    yield "boundary incompatible", sorted_identity(g, a0="b0"), (
        "flag_map: boundary incompatible at target flag 'a0'",
        "flag_map: boundary incompatible at target flag 'b0'",
    )
    yield "tail and edge pullback", sorted_identity(g, a0="ea"), (
        "tail 'a0' pulls back to a non-tail 'ea'",
        "edge ('ea', 'eb') pulls back to neither an edge nor a tail pair",
    )
    yield "contracted domain", replace(h, map=replace(m, contracted={})), (
        "contracted: domain must be exactly the source flags outside the "
        "flag_map image",
    )
    yield "contracted involution", replace(
        h, map=replace(m, contracted={"ea": "eb", "eb": "eb"})
    ), ("contracted: not an involution at 'ea'",)
    yield "contracted fixed point", replace(
        h, map=replace(m, contracted={"ea": "ea", "eb": "eb"})
    ), ("contracted: fixed point at 'ea'",)
    yield "merger", to_merged(g, 2), (
        "vertices ['u', 'w'] merge into 'x' without a connecting chain of "
        "contracted orbits",
    )
    yield "color not preserved", sorted_identity(g, a0="r0"), (
        "color not preserved at target flag 'a0'",
        "color not preserved at target flag 'r0'",
    )
    yield "mixed orbit", to_merged(g, 2, [("a0", "r1"), ("b0", "r0")]), (
        "contracted orbit ('a0', 'r1') mixes colors",
        "contracted orbit ('b0', 'r0') mixes colors",
    )
    yield "genus", replace(h, target=edited(h.target, genus={"u*w": 5})), (
        "genus at 'u*w' should be 1, found 5",
    )


MORPHISM_CASES = list(_morphism_cases())


@pytest.mark.parametrize(
    "h, expected",
    [c[1:] for c in MORPHISM_CASES],
    ids=[c[0] for c in MORPHISM_CASES],
)
def test_morphism_violations(h, expected):
    assert validate_susy_morphism(h).violations == expected


# -- each graph checks itself once ---------------------------------------------


def record_checks(monkeypatch, module, name):
    """Replace the check ``module.name`` by one that records each object it
    checks; the list keeps them alive, so their ids stay distinct."""
    checked = []
    check = getattr(module, name)

    def recording(g):
        checked.append(g)
        return check(g)

    monkeypatch.setattr(module, name, recording)
    return checked


def test_each_graph_is_checked_once_across_entries(monkeypatch):
    graph_checks = record_checks(monkeypatch, susykit.graphs, "_check_graph")
    labeling_checks = record_checks(monkeypatch, susykit.susy, "_check_labeling")
    h = contraction_chain()
    asks = count_calls(monkeypatch, susykit.susy.validate_susy_graph)
    for entry in (
        evaluate_operad,
        lambda m: decompose_to_elementaries(m, "lex"),
        lambda m: decompose_to_elementaries(m, "reverse"),
        atomize,
        classify,
    ):
        asks.clear()
        entry(h)
        # every entry still asks for both endpoint graphs
        assert [g for (g,) in asks] == [h.source, h.target]
    # but only the user-built source ran its checks, once, when the first
    # contraction of the chain was built; the calculus built every other
    # graph, the target included, valid and unchecked
    assert list(map(id, graph_checks)) == [id(h.source.graph)]
    assert list(map(id, labeling_checks)) == [id(h.source)]


def test_invalid_graphs_report_the_same_violations_on_every_check(monkeypatch):
    labeling_checks = record_checks(monkeypatch, susykit.susy, "_check_labeling")
    for _, g, expected in _graph_cases():
        assert validate_susy_graph(g).violations == expected
        assert validate_susy_graph(g).violations == expected
        assert validate_graph(g.graph) is g.graph.report
    # a malformed Graph never has its labeling checked
    assert labeling_checks == []
    for _, g, expected in _susy_cases():
        assert validate_susy_graph(g).violations == expected
        assert validate_susy_graph(g).violations == expected
    assert len(labeling_checks) == len(list(_susy_cases()))


def test_new_graph_objects_run_their_own_labeling_check(monkeypatch):
    g = two_vertex_graph()
    assert validate_susy_graph(g).ok
    graph_checks = record_checks(monkeypatch, susykit.graphs, "_check_graph")
    labeling_checks = record_checks(monkeypatch, susykit.susy, "_check_labeling")
    forgotten = forget(g)
    included = include(forgotten)
    assert validate_susy_graph(forgotten).ok
    assert validate_susy_graph(included).ok
    # a replaced graph does not inherit g's kept report
    assert validate_susy_graph(replace(g, modular=True)).violations == (
        "modular view must be colored all-NS",
        "modular view must keep every label in the NS slot",
    )
    assert validate_susy_graph(g).ok
    # all four share g's Graph, which was checked before
    assert graph_checks == []
    assert len(labeling_checks) == 3
