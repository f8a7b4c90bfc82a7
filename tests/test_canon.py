"""Canonical forms, certificates, and automorphism groups, cross-checked
against the exhaustive bijection oracle."""

import gc
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from susykit import (
    NS,
    R,
    ValidationError,
    are_isomorphic,
    automorphisms,
    canonical_form,
    certificate_digest,
    classify,
    enumerate_modular_shapes,
    enumerate_strata,
    forget,
    iso_between,
    isomorphisms_between,
    make_isomorphism,
    susy_graph,
)
from susykit import canon
from susykit.strata import _shapes

from conftest import star
from oracles import brute_automorphism_order, brute_is_isomorphic, brute_isomorphisms
from sampling import random_susy_graph


def labeled_tree(split):
    """Two genus-0 vertices joined by an NS edge; split assigns the four
    NS tail labels, e.g. (("1", "2"), ("3", "4"))."""
    left, right = split
    tails = list(left) + list(right)
    flags = [f"t{l}" for l in tails] + ["ea", "eb"]
    boundary = {f"t{l}": "u" for l in left}
    boundary.update({f"t{l}": "w" for l in right})
    boundary["ea"], boundary["eb"] = "u", "w"
    involution = {f"t{l}": f"t{l}" for l in tails}
    involution["ea"], involution["eb"] = "eb", "ea"
    return susy_graph(
        flags=flags,
        vertices=["u", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "w": 0},
        color={f: NS for f in flags},
        ns_labels={l: f"t{l}" for l in tails},
        r_labels={},
    )


def loop_graph(color):
    """One genus-0 vertex with a loop of the given color and one NS tail."""
    return susy_graph(
        flags=["t", "l1", "l2"],
        vertices=["v"],
        boundary={"t": "v", "l1": "v", "l2": "v"},
        involution={"t": "t", "l1": "l2", "l2": "l1"},
        genus={"v": 0},
        color={"t": NS, "l1": color, "l2": color},
        ns_labels={"1": "t"},
        r_labels={},
    )


def double_edge_graph():
    """Two genus-1 vertices joined by a double NS edge, no tails."""
    return susy_graph(
        flags=["e1a", "e1b", "e2a", "e2b"],
        vertices=["u", "w"],
        boundary={"e1a": "u", "e2a": "u", "e1b": "w", "e2b": "w"},
        involution={"e1a": "e1b", "e1b": "e1a", "e2a": "e2b", "e2b": "e2a"},
        genus={"u": 1, "w": 1},
        color={f: NS for f in ("e1a", "e1b", "e2a", "e2b")},
        ns_labels={},
        r_labels={},
    )


def rose_graph(loops):
    """One genus-0 vertex carrying ``loops`` NS loops and no tails."""
    flags = [f"l{i}{end}" for i in range(loops) for end in "ab"]
    return susy_graph(
        flags=flags,
        vertices=["v"],
        boundary={f: "v" for f in flags},
        involution={f: f[:-1] + ("b" if f[-1] == "a" else "a") for f in flags},
        genus={"v": 0},
        color={f: NS for f in flags},
        ns_labels={},
        r_labels={},
    )


def complete_graph(n):
    """K_n: n genus-0 vertices, each pair joined by one NS edge.  Its search
    has n! leaves, all tied."""
    boundary, involution = {}, {}
    for i, j in itertools.combinations(range(n), 2):
        a, b = f"e{i}.{j}a", f"e{i}.{j}b"
        boundary[a], boundary[b] = f"v{i}", f"v{j}"
        involution[a], involution[b] = b, a
    vertices = [f"v{i}" for i in range(n)]
    return susy_graph(
        flags=boundary,
        vertices=vertices,
        boundary=boundary,
        involution=involution,
        genus=dict.fromkeys(vertices, 0),
        color=dict.fromkeys(boundary, NS),
    )


def cycle_graph(beads, vertex_step, flag_step, tails=(), r_edges=0, genus=()):
    """``beads`` vertices in a cycle; the first ``len(tails)`` carry the NS
    tails, in order, and the others an NS loop each; the first cycle edge
    is doubled by ``r_edges`` extra R edges and is R itself when there are
    any; the vertices at the positions in ``genus`` have genus 1.  Vertex
    k is named v{vertex_step * k % beads} and the i-th flag built
    f{flag_step * i % flags}, so that string order ("v10" < "v2") and
    number order disagree."""
    ends = []  # (position, partner, colour) of each flag, in build order
    for k in range(beads):
        color = R if k == 0 and r_edges else NS
        ends.append((k, len(ends) + 1, color))
        ends.append(((k + 1) % beads, len(ends) - 1, color))
    for _ in range(r_edges):
        ends.append((0, len(ends) + 1, R))
        ends.append((1, len(ends) - 1, R))
    tail_at = {}
    for k, label in enumerate(tails):
        tail_at[len(ends)] = label
        ends.append((k, len(ends), NS))
    for k in range(len(tails), beads):
        ends.append((k, len(ends) + 1, NS))
        ends.append((k, len(ends) - 1, NS))
    flag = [f"f{flag_step * i % len(ends)}" for i in range(len(ends))]
    vertex = [f"v{vertex_step * k % beads}" for k in range(beads)]
    return susy_graph(
        flags=flag,
        vertices=vertex,
        boundary={flag[i]: vertex[k] for i, (k, _, _) in enumerate(ends)},
        involution={flag[i]: flag[p] for i, (_, p, _) in enumerate(ends)},
        genus={v: int(k in genus) for k, v in enumerate(vertex)},
        color={flag[i]: c for i, (_, _, c) in enumerate(ends)},
        ns_labels={l: flag[i] for i, l in tail_at.items()},
        r_labels={},
    )


def counted_blocks(monkeypatch):
    """Count the calls to ``canon._blocks``."""
    calls = []
    real = canon._blocks

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(canon, "_blocks", counting)
    return calls


def as_key(vertex_map, flag_map):
    return frozenset(vertex_map.items()), frozenset(flag_map.items())


def retagged_copy(g, rng):
    """Rename every flag and vertex id with a random suffix order."""
    flag_names = [f"F{i}" for i in range(len(g.flags))]
    rng.shuffle(flag_names)
    vert_names = [f"V{i}" for i in range(len(g.vertices))]
    rng.shuffle(vert_names)
    fmap = dict(zip(sorted(g.flags), flag_names))
    vmap = dict(zip(sorted(g.vertices), vert_names))
    return make_isomorphism(g, fmap, vmap).target


def check_witness(g1, g2, iso):
    """Structural checks that an Isomorphism really maps g1 onto g2."""
    assert sorted(iso.vertex_map) == sorted(g1.vertices)
    assert sorted(iso.vertex_map.values()) == sorted(g2.vertices)
    assert sorted(iso.flag_map) == sorted(g1.flags)
    assert sorted(iso.flag_map.values()) == sorted(g2.flags)
    for v, w in iso.vertex_map.items():
        assert g1.genus_of(v) == g2.genus_of(w)
    for f, c in iso.flag_map.items():
        assert iso.vertex_map[g1.boundary[f]] == g2.boundary[c]
        assert iso.flag_map[g1.involution[f]] == g2.involution[c]
        assert g1.color_of(f) == g2.color_of(c)


class TestCertificates:
    def test_permuted_copy_isomorphic(self):
        g = star(1, 2, 2)
        rng = random.Random(5)
        h = retagged_copy(g, rng)
        same, witness = are_isomorphic(g, h)
        assert same
        check_witness(g, h, witness)
        assert certificate_digest(g) == certificate_digest(h)

    def test_label_splits_distinguish_trees(self):
        a = labeled_tree((("1", "2"), ("3", "4")))
        b = labeled_tree((("1", "3"), ("2", "4")))
        same, witness = are_isomorphic(a, b)
        assert not same
        assert witness is None
        assert certificate_digest(a) != certificate_digest(b)
        assert not brute_is_isomorphic(a, b)

    def test_mirrored_split_is_isomorphic(self):
        a = labeled_tree((("1", "2"), ("3", "4")))
        b = labeled_tree((("3", "4"), ("1", "2")))
        same, witness = are_isomorphic(a, b)
        assert same
        check_witness(a, b, witness)
        assert witness.vertex_map == {"u": "w", "w": "u"}

    def test_loop_colors_distinguish(self):
        ns = loop_graph(NS)
        rr = loop_graph(R)
        assert not are_isomorphic(ns, rr)[0]
        assert certificate_digest(ns) != certificate_digest(rr)
        assert not brute_is_isomorphic(ns, rr)

    def test_certificate_is_deterministic(self):
        g = double_edge_graph()
        c1 = canonical_form(g)
        c2 = canonical_form(g)
        assert c1.certificate == c2.certificate
        assert c1.digest == c2.digest
        assert len(c1.digest) == 64
        assert set(c1.digest) <= set("0123456789abcdef")

    def test_canonical_witness_maps_onto_canonical_graph(self):
        g = star(0, 2, 2)
        c = canonical_form(g)
        check_witness(
            g, c.graph, type(are_isomorphic(g, g)[1])(c.vertex_witness, c.flag_witness)
        )
        assert certificate_digest(c.graph) == c.digest

    def test_graph_and_witnesses_are_built_when_read(self):
        form = canonical_form(double_edge_graph())
        lazy = {"graph", "vertex_witness", "flag_witness"}
        assert not lazy & set(vars(form))
        assert form.graph is form.graph
        # the graph is named from the canonical core, not from the witnesses
        assert lazy & set(vars(form)) == {"graph"}
        for witness in ("vertex_witness", "flag_witness"):
            assert getattr(form, witness) is getattr(form, witness)
        assert lazy <= set(vars(form))

    @pytest.mark.parametrize("entry", [canonical_form, certificate_digest])
    def test_public_entries_validate_their_input(self, entry):
        # one R tail leaves its vertex with an odd number of R flags
        with pytest.raises(ValidationError, match="odd number of R flags"):
            entry(star(0, 2, 1))

    def test_modular_and_susy_views_never_isomorphic(self):
        g = star(0, 4)
        assert not are_isomorphic(g, forget(g))[0]

    @given(st.integers(0, 10**6))
    def test_digest_matches_brute_oracle(self, seed):
        rng = random.Random(seed)
        g1 = random_susy_graph(rng)
        if rng.random() < 0.5:
            g2 = retagged_copy(g1, rng)
        else:
            g2 = random_susy_graph(rng)
        same_digest = certificate_digest(g1) == certificate_digest(g2)
        assert same_digest == brute_is_isomorphic(g1, g2)

    @given(st.integers(0, 10**6))
    def test_digest_only_path_matches_canonical_form(self, seed):
        rng = random.Random(seed)
        g = retagged_copy(random_susy_graph(rng), rng)
        form = canonical_form(g)
        assert g != form.graph
        assert certificate_digest(g) == form.digest

    @given(st.integers(0, 10**6))
    def test_witness_is_valid_on_random_pairs(self, seed):
        rng = random.Random(seed)
        g1 = random_susy_graph(rng)
        g2 = retagged_copy(g1, rng)
        same, witness = are_isomorphic(g1, g2)
        assert same
        check_witness(g1, g2, witness)


def tie_breaks(form):
    """sha256 of the witnesses and generators of ``form``, which the
    search's tie-breaks by name decide."""
    data = [
        sorted(form.vertex_witness.items()),
        sorted(form.flag_witness.items()),
        [[sorted(a.vertex_map.items()), sorted(a.flag_map.items())] for a in form.generators],
    ]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


class TestSortOrder:
    """The search numbers names in their sorted order, where "v10" and
    "f10" come before "v2" and "f2" and the tail label "10" before "9".
    The digests (sha256 of the certificate bytes) and the tie-break hashes
    were taken from the search on names that the integer search replaced."""

    @pytest.mark.parametrize(
        "g, leaves, digest, ties",
        [
            (
                cycle_graph(12, 5, 7, tails=("9", "10", 'é"x'), r_edges=1, genus=(6,)),
                1,
                "6db2e631157d39470a7ca5c0ae1ae3ba7b66d5d163d9e048b51d91aa7ab2e57a",
                "3e92be960f6417828c918b0f5b9b86ab478ab0f6d5a353d60e497c7e858e8e16",
            ),
            (
                cycle_graph(11, 3, 5),
                22,
                "544240e17d3a0873bbcbbdf7fd264ad03ec94321a9c8f92f8a8dabe0b20120f4",
                "caa2413a1e71c5746536bca212cac03e47a376f00b21f71417f327933212b25d",
            ),
            (
                cycle_graph(13, 4, 3, tails=("10", "9"), genus=(5, 6)),
                1,
                "3c52ea4e23dcf3f3a089d64a4de30983692b393dce78b9fc8dd49d9e8f88dc09",
                "a711a1ad1e11bbbbcf3b6dca558b373876a98ac24aedc3c36a9cd38159ef4720",
            ),
        ],
    )
    def test_certificates_are_pinned(self, g, leaves, digest, ties):
        assert len(g.vertices) >= 11 and len(g.flags) >= 11
        form = canonical_form(g)
        assert len(form.leaves) == leaves
        assert hashlib.sha256(form.certificate).hexdigest() == form.digest == digest
        assert tie_breaks(form) == ties
        again = canonical_form(form.graph)
        assert again.certificate == form.certificate
        assert again.graph == form.graph

    @pytest.mark.parametrize(
        "g",
        [
            cycle_graph(12, 5, 7, tails=("9", "10", 'é"x'), r_edges=1, genus=(6,)),
            cycle_graph(11, 3, 5),
        ],
    )
    def test_canonical_core_is_the_core_of_the_canonical_graph(self, g):
        form = canonical_form(g)
        core = canon._canonical_core(form.core, form.leaves[0])
        assert canon._named(core) == form.graph

    def test_a_genus_of_true_is_refused(self):
        # the graph equals its genus-1 twin, and once passed validation
        with pytest.raises(ValidationError, match="genus"):
            canonical_form(star(True, 3))

    def test_labels_are_escaped_as_json_escapes_them(self):
        g = cycle_graph(12, 5, 7, tails=("9", "10", 'é"x'), r_edges=1, genus=(6,))
        certificate = canonical_form(g).certificate
        payload = json.loads(certificate)
        assert certificate == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        assert b'["\\u00e9\\"x",' in certificate
        assert [l for l, _ in payload["tails"]] == ["10", "9", 'é"x']


class TestAutomorphisms:
    def test_labeled_corolla_is_rigid(self):
        g = star(0, 3)
        assert automorphisms(g).order == 1
        assert brute_automorphism_order(g) == 1

    def test_unlabeled_mixed_corolla_order_four(self):
        g = star(0, 2, 2)
        group = automorphisms(g, labels_fixed=False)
        assert group.order == 4
        assert brute_automorphism_order(g, labels_fixed=False) == 4
        for el in group.elements:
            check_witness(g, g, el)

    def test_double_edge_group_matches_brute(self):
        g = double_edge_graph()
        group = automorphisms(g)
        assert group.order == brute_automorphism_order(g)
        assert any(
            el.vertex_map == {"u": "w", "w": "u"} for el in group.elements
        )
        assert any(
            el.vertex_map == {"u": "u", "w": "w"}
            and el.flag_map != {f: f for f in g.flags}
            for el in group.elements
        )

    def test_group_is_closed_under_composition(self):
        g = double_edge_graph()
        group = automorphisms(g)
        keys = {
            (frozenset(el.vertex_map.items()), frozenset(el.flag_map.items()))
            for el in group.elements
        }
        for a in group.elements:
            for b in group.elements:
                vmap = {v: b.vertex_map[w] for v, w in a.vertex_map.items()}
                fmap = {f: b.flag_map[c] for f, c in a.flag_map.items()}
                assert (frozenset(vmap.items()), frozenset(fmap.items())) in keys

    def test_fixed_labels_give_a_subgroup(self):
        g = star(1, 2, 2)
        fixed = automorphisms(g, labels_fixed=True)
        free = automorphisms(g, labels_fixed=False)
        assert free.order % fixed.order == 0
        free_keys = {
            (frozenset(el.vertex_map.items()), frozenset(el.flag_map.items()))
            for el in free.elements
        }
        for el in fixed.elements:
            key = (frozenset(el.vertex_map.items()), frozenset(el.flag_map.items()))
            assert key in free_keys

    def test_witness_builds_a_valid_morphism(self):
        g = star(0, 2, 2)
        h = retagged_copy(g, random.Random(11))
        _, witness = are_isomorphic(g, h)
        back = {c: f for f, c in witness.flag_map.items()}
        morphism = iso_between(g, h, back, witness.vertex_map)
        assert classify(morphism).kind == "isomorphism"

    @given(st.integers(0, 10**6))
    def test_iso_counts_match_brute(self, seed):
        rng = random.Random(seed)
        for extra in (2, 4):
            g = random_susy_graph(rng, max_extra_edges=extra)
            h = retagged_copy(g, rng)
            for fixed in (True, False):
                found = [
                    as_key(el.vertex_map, el.flag_map)
                    for el in isomorphisms_between(g, h, labels_fixed=fixed)
                ]
                brute = {
                    as_key(*iso) for iso in brute_isomorphisms(g, h, labels_fixed=fixed)
                }
                assert len(found) == len(set(found))
                assert set(found) == brute
                assert found

    @pytest.mark.parametrize("fixed", [True, False])
    def test_groups_match_brute_on_enumerations(self, fixed):
        graphs = (
            enumerate_modular_shapes(3, [])
            + enumerate_modular_shapes(2, ["1"])
            + enumerate_strata(2, [], ["1", "2"])
        )
        assert len(graphs) == 221
        for g in graphs:
            group = [
                as_key(el.vertex_map, el.flag_map)
                for el in automorphisms(g, labels_fixed=fixed).elements
            ]
            assert len(group) == len(set(group))
            assert set(group) == {
                as_key(*iso) for iso in brute_isomorphisms(g, g, labels_fixed=fixed)
            }

    def test_identity_comes_first(self):
        g = double_edge_graph()
        first = automorphisms(g).elements[0]
        assert first.vertex_map == {v: v for v in g.vertices}
        assert first.flag_map == {f: f for f in g.flags}

    def test_one_search_per_graph(self, monkeypatch):
        calls = []
        real = canon._search

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(canon, "_search", counting)
        g = star(1, 2, 2)
        automorphisms(g, labels_fixed=False)
        assert len(calls) == 1
        h = retagged_copy(g, random.Random(2))
        same, _ = are_isomorphic(g, h, labels_fixed=False)
        assert same
        assert len(calls) == 3

    def test_one_set_of_blocks_per_search(self, monkeypatch):
        g = complete_graph(5)
        calls = counted_blocks(monkeypatch)
        assert automorphisms(g).order == 120
        assert len(calls) == 1
        calls.clear()
        assert sum(1 for _ in isomorphisms_between(g, g)) == 120
        assert len(calls) == 1

    def test_generators_reuse_the_search_incidence(self, monkeypatch):
        # the core builds the one incidence of a search
        built, read = [], []
        real_core, real_blocks = canon._core, canon._blocks

        def counting(*args):
            built.append(real_core(*args))
            return built[-1]

        monkeypatch.setattr(canon, "_core", counting)
        monkeypatch.setattr(canon, "_blocks", lambda c: read.append(c) or real_blocks(c))
        g = double_edge_graph()
        form = canonical_form(g)
        assert form.generators
        assert len(built) == 1 and form.core is built[0]
        assert len(read) == 1 and read[0] is built[0]
        assert "incidence" not in vars(g.graph)

    def test_isomorphisms_are_built_one_at_a_time(self, monkeypatch):
        # one vertex with six NS loops: 6! * 2**6 = 46,080 automorphisms
        rose = rose_graph(6)
        built = []

        class Counted(canon.Isomorphism):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(canon, "Isomorphism", Counted)
        found = list(itertools.islice(isomorphisms_between(rose, rose), 3))
        assert len(found) == 3
        assert len(built) == 3


class TestAutomorphismGuard:
    """``automorphisms`` computes the order of the group before it lists it
    and refuses a group larger than ``MAX_AUTOMORPHISMS``."""

    def test_eight_loop_rose_is_refused_before_listing(self, monkeypatch):
        # one vertex with eight NS loops: 8! * 2**8 = 10,321,920 automorphisms
        built = []

        class Counted(canon.Isomorphism):
            def __init__(self, *args):
                built.append(args)
                assert len(built) < 10, "the group is being listed"
                super().__init__(*args)

        monkeypatch.setattr(canon, "Isomorphism", Counted)
        with pytest.raises(ValidationError, match="10321920"):
            automorphisms(rose_graph(8))
        assert built == []

    @pytest.mark.parametrize(
        "g, fixed",
        [
            (rose_graph(3), True),
            (double_edge_graph(), True),
            (star(1, 2, 2), False),
            (star(0, 2, 2), False),
        ],
    )
    def test_cap_is_the_exact_order(self, monkeypatch, g, fixed):
        order = brute_automorphism_order(g, labels_fixed=fixed)
        assert order > 1
        monkeypatch.setattr(canon, "MAX_AUTOMORPHISMS", order)
        assert automorphisms(g, labels_fixed=fixed).order == order
        monkeypatch.setattr(canon, "MAX_AUTOMORPHISMS", order - 1)
        with pytest.raises(ValidationError, match=f"has {order} elements"):
            automorphisms(g, labels_fixed=fixed)


class TestSearchLeafGuard:
    """A search refuses a graph once it passes ``MAX_SEARCH_LEAVES`` leaves;
    K_n has n! leaves."""

    def test_k8_is_refused(self):
        with pytest.raises(ValidationError, match="MAX_SEARCH_LEAVES = 10000"):
            canonical_form(complete_graph(8))

    def test_cap_is_the_exact_leaf_count(self, monkeypatch):
        k7 = complete_graph(7)
        monkeypatch.setattr(canon, "MAX_SEARCH_LEAVES", 5039)
        with pytest.raises(ValidationError, match="MAX_SEARCH_LEAVES = 5039"):
            canonical_form(k7)
        monkeypatch.setattr(canon, "MAX_SEARCH_LEAVES", 5040)
        calls = counted_blocks(monkeypatch)
        assert automorphisms(k7).order == 5040
        assert len(calls) == 1


def renumbered(c, rng):
    """The core ``c`` with its vertices and flags renumbered at random."""
    vs, fs = list(range(len(c.genus))), list(range(len(c.boundary)))
    rng.shuffle(vs)
    rng.shuffle(fs)
    genus = [0] * len(vs)
    for v, w in enumerate(vs):
        genus[w] = c.genus[v]
    by_flag = [[None] * len(fs) for _ in range(4)]
    for f, g in enumerate(fs):
        by_flag[0][g] = vs[c.boundary[f]]
        by_flag[1][g] = fs[c.involution[f]]
        by_flag[2][g] = c.color[f]
        by_flag[3][g] = c.label[f]
    return canon._core(tuple(genus), *map(tuple, by_flag), c.modular)


class TestSearchPaths:
    """A partition that is discrete from the start, or after the first
    refinement, is the one leaf, and its search writes no certificate; any
    other search individualises a vertex and writes one certificate per
    leaf.  Every core searched by three enumerations keeps its certificate
    under renumbering, equal certificates are equal canonical cores, and on
    small cores the search's leaves times the vertex-fixing automorphisms
    is the order of the group."""

    @pytest.fixture(scope="class")
    def searched(self):
        """Each core the enumerations search, with the certificate of its
        winning leaf, its leaves, the refinements its search made, the
        leaves it built and the certificates it wrote."""
        found = []
        real_search, real_refine = canon._search, canon._refine
        real_leaf, real_certificate = canon._leaf, canon._certificate
        calls = {}

        def refine(*args):
            calls["refine"] += 1
            return real_refine(*args)

        def leaf(*args):
            calls["leaf"] += 1
            return real_leaf(*args)

        def certificate(*args):
            calls["certificate"] += 1
            return real_certificate(*args)

        def search(c, *keys):
            calls.update(refine=0, leaf=0, certificate=0)
            cert, leaves = real_search(c, *keys)
            best, written = real_certificate(c, leaves[0]), calls["certificate"]
            assert cert == (best if written else None)
            found.append((c, best, leaves, calls["refine"], calls["leaf"], written))
            return cert, leaves

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(canon, "_search", search)
            mp.setattr(canon, "_refine", refine)
            mp.setattr(canon, "_leaf", leaf)
            mp.setattr(canon, "_certificate", certificate)
            for g, ns, r in [(0, "12345", ""), (1, "12", "ab"), (2, "", "")]:
                enumerate_strata(g, list(ns), list(r))
        return found

    def test_both_paths_are_taken(self, searched):
        paths = {(refines, min(built, 2)) for _, _, _, refines, built, _ in searched}
        # discrete at the start, discrete after one refinement, branching
        assert {(0, 1), (1, 1)} < paths
        assert {built for _, built in paths} == {1, 2}
        for _, _, leaves, refines, built, written in searched:
            assert built >= len(leaves)
            if built == 1:
                assert refines <= 1 and len(leaves) == 1
            # a certificate for each leaf compared, and none for one leaf
            assert written == (built if built > 1 else 0)

    def test_each_leaf_carries_its_inverses(self, searched):
        """A leaf's vertex order and flag sequence invert its positions and
        indices."""
        leaves = [leaf for _, _, found, *_ in searched for leaf in found]
        assert len(leaves) > len(searched)
        for pos, index, order, sequence in leaves:
            assert [pos[v] for v in order] == list(range(len(pos)))
            assert [index[f] for f in sequence] == list(range(len(index)))
            assert sorted(order) == list(range(len(pos)))
            assert sorted(sequence) == list(range(len(index)))

    def test_certificates_survive_renumbering(self, searched):
        rng = random.Random(21)
        for c, cert, leaves, *_ in searched:
            assert cert.startswith(b'{"color":[')
            for _ in range(3):
                moved = renumbered(c, rng)
                _, tied = canon._search(moved)
                assert canon._certificate(moved, tied[0]) == cert
                assert len(tied) == len(leaves)

    @pytest.mark.parametrize(
        "canonical_core, one_to_one",
        [
            (canon._canonical_core, True),
            # a breaker: a core without its labels merges distinct classes
            (lambda c, leaf: canon._canonical_core(c, leaf)._replace(label=()), False),
        ],
        ids=["canonical_core", "labels_dropped"],
    )
    def test_equal_cores_are_equal_certificates(self, searched, canonical_core, one_to_one):
        """The oracle of the shape generator's dedupe: two winning leaves
        give equal certificates exactly when they give equal canonical
        cores."""
        cores_of, certificates_of = {}, {}
        for c, cert, leaves, *_ in searched:
            core = canonical_core(c, leaves[0])
            cores_of.setdefault(cert, set()).add(core)
            certificates_of.setdefault(core, set()).add(cert)
        # the enumerations reach many classes more than once
        assert len(searched) - len(cores_of) > 200
        sizes = {len(s) for s in [*cores_of.values(), *certificates_of.values()]}
        assert (sizes == {1}) is one_to_one

    def test_small_groups_match_brute(self, searched):
        small = [s for s in searched if len(s[0].boundary) <= 6]
        assert len(small) > 40
        for c, _, leaves, *_ in small:
            graph = canon._named(canon._canonical_core(c, leaves[0]))
            order = len(leaves) * canon._fixer_order(canon._blocks(c))
            assert order == brute_automorphism_order(graph)


class TestSearchCycles:
    """A search that compares leaves leaves no reference cycle behind, so
    what it built is freed when it returns, not at the next collection."""

    def test_a_branching_search_leaves_nothing_to_collect(self):
        core = _shapes(2, [])[-1][2]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            cert, leaves = canon._search(core)
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        # leaves were compared, and two tie
        assert cert is not None and len(leaves) == 2
        assert unreachable == 0

    @pytest.fixture(scope="class")
    def shape_cores(self):
        """The shape cores of two closed enumerations, whose searches are
        discrete at the start, after one refinement, or branch."""
        return [shape[2] for args in [(2, []), (4, [], 9)] for shape in _shapes(*args)]

    def test_no_shape_search_leaves_anything_to_collect(self, shape_cores):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            searched = [canon._search(c) for c in shape_cores]
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert any(cert is None for cert, _ in searched)
        assert any(len(leaves) > 1 for _, leaves in searched)
        assert unreachable == 0

    def test_ties_come_in_the_order_of_a_recursive_search(self, shape_cores):
        """The leaves tie in the order in which a recursive search, which
        individualises the least vertex of a cell first, reaches them."""

        def leaves_of(c):
            _, b, j, color, _, _, incidence = c
            n = len(incidence)
            keys = [canon._cell_key(c, v) for v in range(n)]
            cells = [[v for v in range(n) if keys[v] == k] for k in sorted(set(keys))]
            neighbours = [
                [(color[f], b[j[f]]) for f in fl if b[j[f]] != v]
                for v, fl in enumerate(incidence)
            ]
            found = []

            def walk(cells):
                split_at = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
                if split_at is None:
                    found.append(canon._leaf(c, [v for v, in cells]))
                    return
                cell, head, tail = cells[split_at], cells[:split_at], cells[split_at + 1 :]
                for v in sorted(cell):
                    rest = [w for w in cell if w != v]
                    walk(canon._refine(neighbours, [*head, [v], rest, *tail]))

            walk(canon._refine(neighbours, cells))
            return found

        branching = 0
        for c in shape_cores:
            found = leaves_of(c)
            certs = [canon._certificate(c, leaf) for leaf in found]
            cert, leaves = canon._search(c)
            if len(found) > 1:
                branching += 1
                assert cert == min(certs)
                assert leaves == [leaf for leaf, x in zip(found, certs) if x == cert]
            else:
                assert (cert, leaves) == (None, found)
        assert branching
