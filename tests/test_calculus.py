"""Total grafting, atomization, decomposition, and the commutation lemmas."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from susykit import (
    NS,
    R,
    SusyKitError,
    ValidationError,
    classify,
    commute_contractions,
    commute_iso_contraction,
    compose,
    contract_edge,
    contract_loop,
    contract_pair,
    contract_tails,
    decompose_to_elementaries,
    edges,
    graft,
    make_isomorphism,
    modular_graph,
    susy_graph,
    susy_identity,
    tails,
    total_grafting,
    validate_susy_morphism,
)
import susykit.calculus
from susykit.calculus import atomize, compose_chain
from susykit.graphs import GraphMorphism
from susykit.susy import SusyMorphism

from conftest import star, two_vertex_tree
from sampling import random_morphism, random_susy_graph


def loop_with_tails(n: int = 2):
    flags = [f"t{i}" for i in range(n)] + ["la", "lb"]
    boundary = {f: "v" for f in flags}
    involution = {f: f for f in flags[:-2]} | {"la": "lb", "lb": "la"}
    return modular_graph(
        flags=flags,
        vertices=["v"],
        boundary=boundary,
        involution=involution,
        genus={"v": 0},
    )


class TestTotalGrafting:
    def test_corolla_gives_identity(self):
        g = star(0, 3)
        n = total_grafting(g)
        assert classify(n).kind == "identity"

    def test_two_vertex_graph(self):
        t = two_vertex_tree(2, 2)
        n = total_grafting(t)
        assert validate_susy_morphism(n).ok
        assert classify(n).kind == "grafting"
        assert len(n.source.vertices) == 2
        assert edges(n.source.graph) == []
        assert len(tails(n.source.graph)) == 6

    def test_loop_graph(self):
        g = loop_with_tails(1)
        n = total_grafting(g)
        assert validate_susy_morphism(n).ok
        assert len(n.source.vertices) == 1
        assert edges(n.source.graph) == []
        assert classify(n).kind == "grafting"


class TestClassify:
    def test_identity(self):
        assert classify(susy_identity(star(0, 3))).kind == "identity"

    def test_edge_contraction(self):
        t = two_vertex_tree(2, 2)
        assert classify(contract_edge(t, ("ea", "eb"))).kind == "edge_contraction"

    def test_loop_contraction(self):
        g = loop_with_tails(2)
        assert classify(contract_loop(g, ("la", "lb"))).kind == "loop_contraction"

    def test_virtual_contraction(self):
        g = star(0, 4)
        h = contract_tails(g, ("vn0", "vn1"))
        assert classify(h).kind == "virtual_contraction"

    def test_grafting(self):
        g = star(0, 4)
        assert classify(graft(g, [("vn0", "vn1")])).kind == "grafting"

    def test_grafted_pairs_are_listed_once_sorted(self):
        g = star(0, 6)
        h = graft(g, [("vn5", "vn4"), ("vn0", "vn3"), ("vn2", "vn1")])
        assert classify(h).pairs == (("vn0", "vn3"), ("vn1", "vn2"), ("vn4", "vn5"))

    def test_isomorphism(self):
        g = star(0, 3)
        h = make_isomorphism(g, flag_renaming={f: f + "x" for f in g.flags})
        assert classify(h).kind == "isomorphism"

    def test_composite(self, rng):
        g = two_vertex_tree(2, 2)
        h1 = graft(g, [("a0", "b0")])
        h2 = contract_pair(h1.target, ("ea", "eb"))
        assert classify(compose(h1, h2)).kind == "composite"


class TestAtomize:
    def test_identity_pieces_are_vertex_stars(self):
        t = two_vertex_tree(2, 2)
        atom = atomize(susy_identity(t))
        assert set(atom.pieces) == {"u", "w"}
        for v, piece in atom.pieces.items():
            assert classify(atom.piece_morphisms[v]).kind == "identity"
            assert edges(piece.graph) == []

    def test_edge_contraction_one_nontrivial_piece(self):
        t = two_vertex_tree(2, 2)
        h = contract_edge(t, ("ea", "eb"))
        atom = atomize(h)
        target_vertex = next(iter(h.target.vertices))
        piece = atom.pieces[target_vertex]
        assert len(piece.vertices) == 2
        assert len(edges(piece.graph)) == 1
        assert (
            classify(atom.piece_morphisms[target_vertex]).kind
            == "edge_contraction"
        )

    def test_grafting_pieces_are_identities(self):
        g = star(0, 4)
        h = graft(g, [("vn0", "vn1")])
        atom = atomize(h)
        for v, hm in atom.piece_morphisms.items():
            assert classify(hm).kind == "identity"

    @given(st.integers(0, 10**6))
    def test_commuting_square(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        h = random_morphism(rng, g)
        atom = atomize(h)
        left = compose(atom.tails_grafting, h)
        right = compose(atom.pieces_morphism, atom.target_grafting)
        assert left == right
        # the union of the pieces' maps is exactly h's maps
        union = atom.pieces_morphism
        assert (union.flag_map, union.vertex_map, union.contracted) == (
            h.flag_map, h.vertex_map, h.contracted
        )
        # atomize does not check what it builds: each piece is valid anyway
        for m in [*atom.piece_morphisms.values(), atom.pieces_morphism]:
            assert validate_susy_morphism(m).ok, validate_susy_morphism(m).violations


class TestDecompose:
    def test_identity_decomposition(self):
        g = star(0, 3)
        steps = decompose_to_elementaries(susy_identity(g))
        assert all(
            s.kind in ("identity", "isomorphism") for s in steps
        ) and len(steps) <= 1

    def test_two_edge_contraction_decomposes_to_singles(self):
        flags = ["t0", "t1", "t2", "p", "q", "r", "s"]
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
        h = compose(step1, step2)
        steps = decompose_to_elementaries(h)
        kinds = [s.kind for s in steps]
        assert kinds.count("edge_contraction") == 2
        assert "grafting" not in kinds
        assert compose_chain(g, [s.morphism for s in steps]) == h

    def test_virtual_contraction_decomposition(self):
        g = star(0, 4)
        h = contract_tails(g, ("vn0", "vn1"))
        steps = decompose_to_elementaries(h)
        kinds = [s.kind for s in steps]
        assert kinds[0] == "grafting"
        assert (
            "edge_contraction" in kinds or "loop_contraction" in kinds
        )
        assert compose_chain(g, [s.morphism for s in steps]) == h

    @given(st.integers(0, 10**6))
    def test_recomposition_exact(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        h = random_morphism(rng, g)
        for order in ("lex", "reverse"):
            steps = decompose_to_elementaries(h, order=order)
            assert compose_chain(g, [s.morphism for s in steps]) == h

    def test_steps_are_elementary(self, rng):
        for _ in range(20):
            g = random_susy_graph(rng)
            h = random_morphism(rng, g)
            for s in decompose_to_elementaries(h):
                # decompose does not check its steps: each is valid anyway
                rep = validate_susy_morphism(s.morphism)
                assert rep.ok, rep.violations
                assert s.kind == classify(s.morphism).kind
                assert s.kind in (
                    "identity",
                    "isomorphism",
                    "grafting",
                    "edge_contraction",
                    "loop_contraction",
                )


class TestCommuteIsoContraction:
    def test_identity_iso(self):
        t = two_vertex_tree(2, 2)
        sq = commute_iso_contraction(susy_identity(t), ("ea", "eb"))
        assert classify(sq.induced_iso).kind in ("identity", "isomorphism")
        assert sq.iso_then_contract == sq.contract_then_iso

    def test_loop_flag_swap(self):
        g = loop_with_tails(2)
        a = make_isomorphism(
            g, flag_renaming={"la": "lb", "lb": "la", "t0": "t0", "t1": "t1"}
        )
        sq = commute_iso_contraction(a, ("la", "lb"))
        assert sq.iso_then_contract == sq.contract_then_iso

    def test_two_vertex_case(self):
        t = two_vertex_tree(2, 2)
        renamed = make_isomorphism(
            t, flag_renaming={f: f + "z" for f in t.flags}
        )
        # contract the renamed edge in the target
        sq = commute_iso_contraction(renamed, ("eaz", "ebz"))
        assert sq.iso_then_contract == sq.contract_then_iso

    def test_rejects_non_edge(self):
        t = two_vertex_tree(2, 2)
        with pytest.raises(SusyKitError):
            commute_iso_contraction(susy_identity(t), ("a0", "ea"))

    def test_rejects_non_iso(self):
        t = two_vertex_tree(2, 2)
        h = contract_edge(t, ("ea", "eb"))
        with pytest.raises(SusyKitError):
            commute_iso_contraction(h, ("a0", "a1"))


class TestCommuteContractions:
    def test_two_loops_one_vertex(self):
        flags = ["t", "l1a", "l1b", "l2a", "l2b"]
        g = modular_graph(
            flags=flags,
            vertices=["v"],
            boundary={f: "v" for f in flags},
            involution={
                "t": "t",
                "l1a": "l1b",
                "l1b": "l1a",
                "l2a": "l2b",
                "l2b": "l2a",
            },
            genus={"v": 0},
        )
        out = commute_contractions(g, ("l1a", "l1b"), ("l2a", "l2b"))
        assert out.commutes

    def test_loop_plus_connecting_edge(self):
        flags = ["t", "la", "lb", "p", "q", "u0"]
        g = modular_graph(
            flags=flags,
            vertices=["v", "w"],
            boundary={
                "t": "v",
                "la": "v",
                "lb": "v",
                "p": "v",
                "q": "w",
                "u0": "w",
            },
            involution={
                "t": "t",
                "u0": "u0",
                "la": "lb",
                "lb": "la",
                "p": "q",
                "q": "p",
            },
            genus={"v": 0, "w": 1},
        )
        out = commute_contractions(g, ("la", "lb"), ("p", "q"))
        assert out.commutes

    def test_path_of_three_vertices(self):
        flags = ["t0", "t1", "t2", "p", "q", "r", "s"]
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
        out = commute_contractions(g, ("p", "q"), ("r", "s"))
        assert out.commutes

    def test_overlapping_pairs_rejected(self):
        g = loop_with_tails(2)
        with pytest.raises(SusyKitError):
            commute_contractions(g, ("la", "lb"), ("lb", "t0"))

    @given(st.integers(0, 10**6))
    def test_random_disjoint_pairs_commute(self, seed):
        rng = random.Random(seed)
        g = random_susy_graph(rng)
        edge_list = edges(g.graph)
        if len(edge_list) < 2:
            return
        e1, e2 = edge_list[0], edge_list[1]
        out = commute_contractions(g, e1, e2)
        assert out.commutes


def path_with_two_colors():
    """A path u - v - w of the edges (eu, ev) and (fv, fw), with the NS
    tail n0 and the R tails r0 and r1 at u, n1 at v, and n2 and n3 at w."""
    boundary = dict(n0="u", r0="u", r1="u", eu="u", ev="v", fv="v", n1="v", fw="w", n2="w", n3="w")
    return susy_graph(
        flags=list(boundary),
        vertices=["u", "v", "w"],
        boundary=boundary,
        involution={f: f for f in boundary} | dict(eu="ev", ev="eu", fv="fw", fw="fv"),
        genus=dict(u=0, v=0, w=0),
        color={f: R if f[0] == "r" else NS for f in boundary},
    )


# each entry that takes a pair, by name, given the graph and the pair
PAIR_ENTRIES = {
    "graft": lambda g, p: graft(g, [p]),
    "contract_edge": contract_edge,
    "contract_loop": contract_loop,
    "contract_pair": contract_pair,
    "contract_tails": contract_tails,
    "commute_iso_contraction": lambda g, p: commute_iso_contraction(susy_identity(g), p),
    "commute_contractions": lambda g, p: commute_contractions(g, p, ("eu", "ev")),
}
# each bad pair, with its refusal by an entry that joins an edge alone and
# by one that joins two tails of one colour
BAD_PAIRS = {
    "degenerate": (("n0", "n0"), "bad pair ('n0', 'n0')", "bad pair ('n0', 'n0')"),
    "unknown_flag": (("zz", "n0"), "bad pair ('n0', 'zz')", "bad pair ('n0', 'zz')"),
    "non_string": ((1, "n0"), "bad pair (1, 'n0')", "bad pair (1, 'n0')"),
    "string": ("n0", "'n0' is not a pair of flags", "'n0' is not a pair of flags"),
    "one_flag": (("n0",), "('n0',) is not a pair of flags", "('n0',) is not a pair of flags"),
    "three_flags": (
        ("n0", "n1", "n2"),
        "('n0', 'n1', 'n2') is not a pair of flags",
        "('n0', 'n1', 'n2') is not a pair of flags",
    ),
    "none": (None, "None is not a pair of flags", "None is not a pair of flags"),
    "not_an_edge": (
        ("fw", "eu"), "('eu', 'fw') is not an edge", "('eu', 'fw') must both be tails"
    ),
    "two_colors": (("r0", "n2"), "('n2', 'r0') is not an edge", "('n2', 'r0') mixes colors"),
    "tail_and_edge_flag": (
        ("n0", "eu"), "('eu', 'n0') is not an edge", "('eu', 'n0') must both be tails"
    ),
}


@pytest.mark.parametrize("bad", BAD_PAIRS)
@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_each_entry_refuses_each_bad_pair_with_one_message(entry, bad):
    # once, graft called a flag paired with itself degenerate, the virtual
    # entries refused an edge flag with "virtual contraction needs two
    # tails", contract_loop refused two tails at two vertices as "not a
    # loop", and commute_contractions refused a pair that overlaps the
    # other as "pairs must be flag-disjoint" before asking if it contracts
    pair, as_edge, as_tails = BAD_PAIRS[bad]
    who = "graft" if entry == "graft" else "contract"
    edge_alone = entry in ("contract_edge", "contract_loop")
    with pytest.raises(ValidationError) as caught:
        PAIR_ENTRIES[entry](path_with_two_colors(), pair)
    assert str(caught.value) == f"{who}: {as_edge if edge_alone else as_tails}"


def test_contract_edge_refuses_two_tails_at_one_vertex():
    # two tails at one vertex were once refused as a loop
    with pytest.raises(ValidationError) as caught:
        contract_edge(path_with_two_colors(), ("r1", "r0"))
    assert str(caught.value) == "contract: ('r0', 'r1') is not an edge"


class TestOneCheckPerEntry:
    """Each public entry checks its input once; the steps and squares it
    builds from that input are built by the unchecked builders
    ``_grafted`` and ``_contracted``, so their graphs and pairs are not
    checked again."""

    CHECKS = ("validate_susy_morphism", "require_susy", "_flag_pair")

    def counted(self, monkeypatch):
        """The calls of the calculus's checks, by name, from now on."""
        calls = dict.fromkeys(self.CHECKS, 0)
        for name in self.CHECKS:
            real = getattr(susykit.calculus, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(susykit.calculus, name, counting)
        return calls

    @pytest.mark.parametrize("order", ["lex", "reverse"])
    def test_a_decomposition_checks_its_morphism_once(self, monkeypatch, order):
        # a grafting, a virtual contraction, an edge contraction and a
        # renaming, so the decomposition grafts, contracts and renames
        g = two_vertex_tree(3, 3)
        first = graft(g, [("a0", "a1")])
        second = contract_tails(first.target, ("b0", "b1"))
        third = contract_edge(second.target, ("ea", "eb"))
        fourth = make_isomorphism(third.target, {"a2": "z"})
        h = compose_chain(g, [first, second, third, fourth])
        calls = self.counted(monkeypatch)
        steps = decompose_to_elementaries(h, order=order)
        contractions = ["loop_contraction", "edge_contraction"]
        if order == "reverse":
            contractions.reverse()
        assert [s.kind for s in steps] == ["grafting", *contractions, "isomorphism"]
        assert calls == {"validate_susy_morphism": 1, "require_susy": 0, "_flag_pair": 0}

    def test_commuting_contractions_checks_the_graph_once(self, monkeypatch):
        g = two_vertex_tree(3, 3)
        calls = self.counted(monkeypatch)
        assert commute_contractions(g, ("a0", "a1"), ("ea", "eb")).commutes
        assert calls == {"validate_susy_morphism": 0, "require_susy": 1, "_flag_pair": 2}

    def test_sliding_an_isomorphism_checks_it_once(self, monkeypatch):
        g = two_vertex_tree(3, 3)
        a = make_isomorphism(g, {"a0": "b0", "b0": "a0"}, {"u": "w", "w": "u"})
        calls = self.counted(monkeypatch)
        commute_iso_contraction(a, ("a0", "a1"))
        assert calls == {"validate_susy_morphism": 1, "require_susy": 0, "_flag_pair": 1}

    def test_atomizing_checks_the_morphism_once(self, monkeypatch):
        # the target's grafting is built unchecked, not by total_grafting
        h = contract_edge(two_vertex_tree(3, 3), ("ea", "eb"))
        calls = self.counted(monkeypatch)
        atomize(h)
        assert calls == {"validate_susy_morphism": 1, "require_susy": 0, "_flag_pair": 0}


def two_tails_swapped(target, flag_map):
    """``flag_map``, on the flags of ``target``, with the images of two
    tails of one colour at one vertex swapped: the maps of another valid
    morphism onto ``target``."""
    a, b = next(
        (a, b)
        for a, b in combinations(tails(target.graph), 2)
        if target.boundary[a] == target.boundary[b] and target.color_of(a) == target.color_of(b)
    )
    return {**flag_map, a: flag_map[b], b: flag_map[a]}


def swap_two_tails(monkeypatch):
    """Make the calculus hand out each isomorphism it derives with two
    tails swapped, whether it builds the isomorphism unchecked or through
    ``iso_between``; returns the list of the swapped morphisms, each built
    afresh, so that its check runs in full."""
    made = []
    built, iso_between = susykit.calculus._built, susykit.calculus.iso_between

    def swapped_built(source, target, m):
        if not m.contracted:
            flag_map = two_tails_swapped(target, m.flag_map)
            m = GraphMorphism(m.source, m.target, flag_map, m.vertex_map, {})
            made.append(SusyMorphism(source, target, m))
        return built(source, target, m)

    def swapped_iso_between(source, target, flag_map, vertex_map):
        h = iso_between(source, target, two_tails_swapped(target, flag_map), vertex_map)
        made.append(SusyMorphism(source, target, h.map))
        return h

    monkeypatch.setattr(susykit.calculus, "_built", swapped_built)
    monkeypatch.setattr(susykit.calculus, "iso_between", swapped_iso_between)
    return made


class TestTheOraclesSeeASwappedIsomorphism:
    """The calculus does not confirm at run time that a decomposition
    recomposes to its morphism or that a square commutes; the tests above
    do.  An isomorphism replaced by another valid one passes a fresh check
    but fails those oracles.  (A library that confirms them itself refuses
    the fault with ``ValidationError`` instead.)"""

    def test_recomposition_sees_the_last_step_swapped(self, monkeypatch):
        t = two_vertex_tree(2, 2)
        c = contract_edge(t, ("ea", "eb"))
        h = compose(c, make_isomorphism(c.target, {"a0": "z"}))
        made = swap_two_tails(monkeypatch)
        try:
            steps = decompose_to_elementaries(h)
        except ValidationError as e:
            assert "failed to recompose" in str(e)
        else:
            assert [s.kind for s in steps] == ["edge_contraction", "isomorphism"]
            assert compose_chain(t, [s.morphism for s in steps]) != h
        (fault,) = made
        assert validate_susy_morphism(fault).ok, validate_susy_morphism(fault).violations

    def test_the_square_sees_the_induced_isomorphism_swapped(self, monkeypatch):
        t = two_vertex_tree(2, 2)
        a = make_isomorphism(t, {f: f + "z" for f in t.flags})
        made = swap_two_tails(monkeypatch)
        try:
            sq = commute_iso_contraction(a, ("eaz", "ebz"))
        except ValidationError as e:
            assert "failed to commute" in str(e)
        else:
            assert sq.iso_then_contract != sq.contract_then_iso
        (fault,) = made
        assert validate_susy_morphism(fault).ok, validate_susy_morphism(fault).violations
