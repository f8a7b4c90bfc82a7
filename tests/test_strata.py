"""Stratum enumeration against a pedestrian generator, coloring counts
against the parity closed form, the contraction order, the covers recorded
by the shape generator, the automorphism generators it keeps, the orbifold
Euler characteristic with the universal-curve identity, and Burnside's
lemma per shape."""

import json
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from math import comb

import pytest

from susykit import (
    ValidationError,
    canonical_form,
    certificate_digest,
    contract_pair,
    edges,
    enumerate_edge_colorings,
    enumerate_modular_shapes,
    enumerate_strata,
    enumerate_strata_records,
    flags_at,
    forget,
    genus,
    is_stable,
    lift_count_general,
    modular_graph,
    strata_poset,
    stratum_dimension,
)
from susykit import canon, cli, graphs, lifting, strata, susy
from susykit.lifting import _colorings
from susykit.operad import _graph_signature
from susykit.susy import R
from susykit.canon import Isomorphism, _certificate, _core_of, _named, _search, _unmodular_digest
from susykit.strata import (
    MAX_EDGES,
    _move,
    _move_keys,
    _shapes,
)

from conftest import star
from oracles import (
    brute_automorphism_order,
    brute_color_sets,
    brute_isomorphisms,
    brute_is_isomorphic,
    brute_strata,
    brute_strata_shapes,
    color_set_of,
    contraction_poset,
    forest_b1,
    split_systems,
    tree_splits,
)
from test_boundary import count_calls
from test_canon import cycle_graph
from test_cli import counted, graphs_built

FOUR = ["1", "2", "3", "4"]
FIVE = FOUR + ["5"]


def match_one_to_one(found, expected):
    """Each found graph must match exactly one expected graph, and sizes
    must agree; isomorphism is decided by the exhaustive oracle."""
    assert len(found) == len(expected)
    taken = set()
    for g in found:
        hits = [
            i
            for i, h in enumerate(expected)
            if i not in taken and brute_is_isomorphic(g, h)
        ]
        assert len(hits) == 1
        taken.add(hits[0])


class TestShapes:
    def test_genus0_four_tails(self):
        shapes = enumerate_modular_shapes(0, FOUR)
        assert len(shapes) == 4
        assert sorted(len(edges(s.graph)) for s in shapes) == [0, 1, 1, 1]
        assert all(genus(s) == 0 for s in shapes)

    def test_shapes_match_brute_generator(self):
        cases = [(0, FOUR), (1, ["1"]), (1, ["1", "2"]), (0, FIVE)]
        for g, labels in cases:
            bound = 3 * g - 3 + len(labels)
            mine = enumerate_modular_shapes(g, labels)
            reps, sizes, raw = brute_strata_shapes(g, labels, bound)
            assert sum(sizes) == raw
            match_one_to_one(mine, reps)

    def test_deterministic_ordering(self):
        a = enumerate_modular_shapes(1, ["1", "2"])
        b = enumerate_modular_shapes(1, ["1", "2"])
        assert [certificate_digest(g) for g in a] == [
            certificate_digest(g) for g in b
        ]


class TestStrataCounts:
    def test_genus0_four_ns(self):
        strata = enumerate_strata(0, FOUR, [])
        assert len(strata) == 4
        match_one_to_one(strata, brute_strata(0, FOUR, [], 1))

    def test_genus0_two_ns_two_r(self):
        strata = enumerate_strata(0, ["1", "2"], ["3", "4"])
        assert len(strata) == 4
        match_one_to_one(strata, brute_strata(0, ["1", "2"], ["3", "4"], 1))
        # one-edge shapes admit exactly one coloring apiece
        for rec in enumerate_strata_records(0, ["1", "2"], ["3", "4"]):
            assert rec.predicted_colorings == 1

    def test_genus1_one_ns(self):
        strata = enumerate_strata(1, ["1"], [])
        assert len(strata) == 3
        match_one_to_one(strata, brute_strata(1, ["1"], [], 1))
        loops = [g for g in strata if edges(g.graph)]
        assert len(loops) == 2
        assert {bool(color_set_of(g)) for g in loops} == {True, False}

    def test_genus0_five_ns(self):
        strata = enumerate_strata(0, FIVE, [])
        assert len(strata) == 26
        by_edges = {}
        for g in strata:
            by_edges.setdefault(len(edges(g.graph)), []).append(g)
        assert {k: len(v) for k, v in by_edges.items()} == {0: 1, 1: 10, 2: 15}
        match_one_to_one(strata, brute_strata(0, FIVE, [], 2))

    @pytest.mark.parametrize(
        "g, ns, r", [(0, FIVE, []), (1, ["1", "2"], ["3", "4"]), (2, [], [])]
    )
    def test_record_digests_are_the_colorings_digests(self, g, ns, r):
        for rec in enumerate_strata_records(g, ns, r):
            assert len(rec.digests) == len(rec.colorings)
            assert list(rec.digests) == sorted(rec.digests)
            for c, d in zip(rec.colorings, rec.digests):
                assert d == canonical_form(c).digest

    def test_no_duplicate_certificates(self):
        strata = enumerate_strata(1, ["1", "2"], ["3", "4"])
        digests = [certificate_digest(g) for g in strata]
        assert len(digests) == len(set(digests))


class TestColoringTables:
    @pytest.mark.parametrize(
        "g, ns, r",
        [(1, ["1"], []), (1, ["1", "2"], ["3", "4"]), (2, [], []), (3, [], [])],
    )
    def test_every_raw_coloring_maps_to_its_stratum(self, g, ns, r):
        for rec in enumerate_strata_records(g, ns, r):
            raw = enumerate_edge_colorings(rec.shape, set(ns), set(r))
            assert len(rec.coloring_digests) == 2 ** forest_b1(rec.shape.graph)
            assert len(raw) == len(rec.coloring_digests)
            assert set(rec.coloring_digests.values()) == set(rec.digests)
            for c in raw:
                key = frozenset(f for f in c.flags if c.color_of(f) == R)
                assert rec.coloring_digests[key] == canonical_form(c).digest
            assert rec.shape_digest == canonical_form(rec.shape).digest

    @pytest.mark.parametrize(
        "g, ns, r",
        [(1, ["1"], []), (1, ["1", "2"], ["3", "4"]), (2, [], []), (3, [], [])],
    )
    def test_every_stratum_is_its_own_canonical_graph(self, g, ns, r):
        for rec in enumerate_strata_records(g, ns, r):
            for c in rec.colorings:
                assert canonical_form(c).graph == c

    @pytest.mark.parametrize("g, ns, r", [(3, [], []), (1, ["1"], ["2", "3"])])
    def test_records_build_one_coloring_per_stratum(self, monkeypatch, g, ns, r):
        # the enumeration lifts the shapes it made itself, so it checks
        # none of them again; it colours the shapes' cores and names
        # nothing; reading the named views names each shape once and each
        # stratum once, the all-NS one too
        names = (
            "validate_susy_graph",
            "is_stable",
            "enumerate_edge_colorings",
            "_colorings",
            "_named",
        )
        counts = dict.fromkeys(names, 0)
        for module in (susy, lifting, strata):
            for name in names:
                if hasattr(module, name):
                    counted(monkeypatch, module, name, counts)
        records = enumerate_strata_records(g, ns, r)
        assert counts["_named"] == 0
        for rec in records:
            rec.shape, rec.colorings
        n_strata = sum(len(rec.digests) for rec in records)
        assert n_strata > len(records)
        named = len(records) + n_strata
        assert counts == dict.fromkeys(names[:4], 0) | {"_named": named}
        assert g != 3 or named == 184


class TestNamesAtTheEdge:
    """The records and their poset are built on cores and name nothing;
    each named view is built when first read, once."""

    @pytest.mark.parametrize("g, labels", [(3, []), (0, FIVE)])
    def test_records_build_no_graph(self, monkeypatch, g, labels):
        built = graphs_built(monkeypatch)
        counts = {"_named": 0}
        for module in (canon, strata):
            counted(monkeypatch, module, "_named", counts)
        records = enumerate_strata_records(g, labels, [])
        poset = strata_poset(records)
        assert len(poset.cores) >= len(records) > 1
        assert built == []
        assert counts == {"_named": 0}

    def test_each_view_is_built_once(self, monkeypatch):
        records = enumerate_strata_records(1, ["1"], ["2", "3"])
        poset = strata_poset(records)
        counts = {"_named": 0}
        counted(monkeypatch, strata, "_named", counts)
        views = ("shape", "colorings", "coloring_digests", "shape_covers")
        owners = [(rec, view) for rec in records for view in views]
        for owner, name in owners + [(poset, "strata")]:
            first = getattr(owner, name)
            named = counts["_named"]
            assert getattr(owner, name) is first
            assert counts["_named"] == named
        # each shape, each stratum with an R flag and each poset stratum once
        with_r = sum(any(c.color) for rec in records for c in rec.cores)
        assert counts["_named"] == len(records) + with_r + len(poset.strata)


class TestAllNsStratum:
    """The all-NS stratum of each shape takes its digest from the shape's
    certificate and is its own canonical graph; both must equal what a
    search of the coloring gives."""

    @pytest.mark.parametrize(
        "g, labels",
        [(0, FOUR + ["5", "6"]), (1, ["1", "2", "3"]), (2, ["1", "2"]), (3, [])],
    )
    def test_digest_and_graph_match_a_search(self, g, labels):
        records = enumerate_strata_records(g, labels, [])
        assert len(records) == len(enumerate_modular_shapes(g, labels))
        for rec in records:
            digest = rec.coloring_digests[frozenset()]
            graph = rec.colorings[rec.digests.index(digest)]
            all_ns = _colorings(rec.shape, frozenset(labels), frozenset(), 0, [])[0]
            form = canonical_form(all_ns)
            assert digest == form.digest
            assert graph == form.graph

    @pytest.mark.parametrize(
        "g, labels",
        [(0, FOUR + ["5", "6"]), (1, ["1", "2", "3"]), (2, ["1", "2"]), (3, [])],
    )
    def test_shapes_keep_the_all_ns_digest_not_the_certificate(self, g, labels):
        records = {rec.shape_digest: rec for rec in enumerate_strata_records(g, labels, [])}
        for digest, all_ns, core, _, _ in _shapes(g, labels):
            assert type(all_ns) is str and len(all_ns) == 64
            assert set(all_ns) <= set("0123456789abcdef")
            certificate = canonical_form(_named(core)).certificate
            assert sha256(certificate).hexdigest() == digest
            assert all_ns == _unmodular_digest(certificate)
            assert all_ns == records[digest].coloring_digests[frozenset()]


class TestColoringCounts:
    @pytest.mark.parametrize(
        "g, ns, r",
        [(1, ["1"], []), (0, ["1", "2"], ["3", "4"]), (1, ["1", "2"], ["3", "4"])],
    )
    def test_per_shape_count_is_parity_closed_form(self, g, ns, r):
        for rec in enumerate_strata_records(g, ns, r):
            raw = list(enumerate_edge_colorings(rec.shape, set(ns), set(r)))
            b1 = forest_b1(rec.shape.graph)
            assert rec.predicted_colorings == 2**b1
            assert len(raw) == 2**b1
            assert lift_count_general(rec.shape, set(ns), set(r)) == 2**b1

    def test_color_sets_match_exhaustive_oracle(self):
        for rec in enumerate_strata_records(1, ["1"], []):
            raw = list(enumerate_edge_colorings(rec.shape, {"1"}, set()))
            found = {color_set_of(c) for c in raw}
            expected = set(brute_color_sets(rec.shape, ["1"], []))
            assert found == expected
            assert len(raw) == len(expected)


def poset_of(g, ns, r):
    return strata_poset(enumerate_strata_records(g, ns, r))


class TestPoset:
    """The ``ContractionPoset`` methods, on the poset of one enumeration."""

    def test_four_ns_corolla_tops_three_trees(self):
        poset = poset_of(0, FOUR, [])
        assert poset.ranks[poset.top] == 0
        assert sorted(poset.ranks) == [0, 1, 1, 1]
        assert len(poset.covers) == 3
        assert all(j == poset.top for _, j in poset.covers)
        for i in range(len(poset.digests)):
            assert poset.less_or_equal(i, poset.top)

    def test_genus1_corolla_covers_both_loops(self):
        poset = poset_of(1, ["1"], [])
        top = poset.top
        below = [i for i in range(3) if i != top]
        assert {(i, top) for i in below} == set(poset.covers)
        a, b = below
        assert not poset.less_or_equal(a, b)
        assert not poset.less_or_equal(b, a)
        assert not poset.less_or_equal(top, a)

    def test_singleton_enumeration_gives_point_poset(self):
        poset = poset_of(0, ["1", "2", "3"], [])
        assert len(poset.digests) == 1
        assert poset.top == 0
        assert poset.covers == frozenset()
        assert poset.successors == ((),)

    def test_digests_are_the_strata_digests(self):
        strata = enumerate_strata(1, ["1", "2"], ["3", "4"])
        poset = poset_of(1, ["1", "2"], ["3", "4"])
        assert list(poset.digests) == [canonical_form(g).digest for g in strata]

    def test_less_or_equal_is_the_transitive_closure(self):
        poset = poset_of(0, FIVE, [])
        n = len(poset.digests)
        reach = [[i == j for j in range(n)] for i in range(n)]
        for i, j in poset.covers:
            reach[i][j] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        for i in range(n):
            for j in range(n):
                assert poset.less_or_equal(i, j) == reach[i][j]

    @pytest.mark.parametrize(
        "i, j",
        [(99, 99), (0, 4), (-1, 0), (True, 1), (0, False), (1.0, 1), ("0", 0), (None, 0)],
    )
    def test_less_or_equal_refuses_a_bad_index(self, i, j):
        # (99, 99) and (True, 1) once returned True
        poset = poset_of(0, FOUR, [])
        assert len(poset.digests) == 4
        with pytest.raises(ValidationError, match="stratum index"):
            poset.less_or_equal(i, j)

    def test_index_of_round_trips(self):
        strata = enumerate_strata(1, ["1"], [])
        poset = poset_of(1, ["1"], [])
        for i, g in enumerate(strata):
            assert poset.index_of(g) == i

    def test_index_of_rejects_a_stratum_not_listed(self):
        poset = poset_of(0, FOUR, [])
        with pytest.raises(ValueError):
            poset.index_of(enumerate_strata(0, FIVE, [])[0])

    def test_index_of_raises_a_validation_error(self):
        poset = poset_of(0, FOUR, [])
        with pytest.raises(ValidationError, match="not in the poset"):
            poset.index_of(enumerate_strata(0, FIVE, [])[0])


class TestStrataPoset:
    @pytest.mark.parametrize(
        "g, ns, r",
        [
            (0, FIVE, []),
            (1, ["1"], []),
            (1, ["1", "2"], ["3", "4"]),
            (0, FOUR, ["5", "6"]),
            (2, [], []),
            (3, [], []),
        ],
    )
    def test_equals_contraction_poset(self, g, ns, r):
        mine = poset_of(g, ns, r)
        strata = enumerate_strata(g, ns, r)
        digests, ranks, covers = contraction_poset(strata)
        assert mine.strata == tuple(strata)
        assert list(mine.digests) == digests
        assert list(mine.ranks) == ranks
        assert mine.covers == covers

    @pytest.mark.parametrize(
        "g, ns, r", [(0, FIVE, []), (1, ["1", "2"], ["3", "4"]), (2, [], [])]
    )
    def test_successors_group_the_covers(self, g, ns, r):
        """``successors`` lists each stratum's cover targets, ascending."""
        poset = poset_of(g, ns, r)
        assert len(poset.successors) == len(poset.digests)
        for i, targets in enumerate(poset.successors):
            assert list(targets) == sorted(j for x, j in poset.covers if x == i)
        assert sum(map(len, poset.successors)) == len(poset.covers)

    def test_successors_are_stored_and_covers_derived(self):
        """The poset stores ``successors``; the CLI's reads build no cover
        pairs, and ``covers`` is built from ``successors`` when first read."""
        poset = poset_of(0, FIVE, [])
        assert [f.name for f in fields(poset)] == ["cores", "digests", "ranks", "successors"]
        poset.cores, poset.digests, poset.ranks, poset.successors
        assert "covers" not in vars(poset)
        assert all(type(js) is tuple and list(js) == sorted(set(js)) for js in poset.successors)
        pairs = frozenset((i, j) for i, js in enumerate(poset.successors) for j in js)
        assert poset.covers == pairs
        assert vars(poset)["covers"] is poset.covers

    def test_enumerate_builds_no_cover_pairs(self, monkeypatch, capsys):
        built = []

        def keeping(records):
            built.append(strata_poset(records))
            return built[-1]

        monkeypatch.setattr(cli, "strata_poset", keeping)
        assert cli.main(["enumerate", "--genus", "0", "--ns", "5", "--poset"]) == 0
        assert json.loads(capsys.readouterr().out)["poset"]["covers"]["1"] == [0]
        assert len(built) == 1 and "covers" not in vars(built[0])

    def test_records_must_be_closed_under_contraction(self):
        records = enumerate_strata_records(1, ["1"], [])
        nodal = [rec for rec in records if edges(rec.shape.graph)]
        with pytest.raises(ValidationError, match="every record"):
            strata_poset(nodal)


def moves_of(shape):
    core = _core_of(shape)
    return [_named(_move(core, key)) for key in _move_keys(core)]


def named_move(shape, key):
    """The move ``key`` of the modular graph ``shape``, its vertices and
    flags numbered in sorted-name order, built on names: the new edge is
    (e0a, e0b), and a split vertex v becomes va and vb.  It is isomorphic
    to the core that ``_move`` builds from the shape's core."""
    vertices, flags = sorted(shape.vertices), sorted(shape.flags)
    v = vertices[key[0]]
    boundary = dict(shape.boundary)
    involution = {**shape.involution, "e0a": "e0b", "e0b": "e0a"}
    genus = dict(shape.labeling.genus)
    kept = set(shape.vertices)
    if len(key) == 1:
        boundary["e0a"] = boundary["e0b"] = v
        genus[v] -= 1
    else:
        kept.remove(v)
        del genus[v]
        for w, (part, gw), e in zip((v + "a", v + "b"), key[1], ("e0a", "e0b")):
            kept.add(w)
            boundary.update({flags[f]: w for f in part}, **{e: w})
            genus[w] = gw
    return modular_graph(
        flags=set(boundary),
        vertices=kept,
        boundary=boundary,
        involution=involution,
        genus=genus,
        tail_labels=dict(shape.labeling.ns_tail_labels),
    )


def splits_of(shape):
    """The moves of ``shape`` that split a vertex in two."""
    return [m for m in moves_of(shape) if len(m.vertices) == len(shape.vertices) + 1]


class TestMoves:
    @pytest.mark.parametrize("g, labels", [(1, ["1", "2", "3"]), (3, [])])
    def test_every_move_is_stable(self, g, labels):
        moves = [m for shape in enumerate_modular_shapes(g, labels) for m in moves_of(shape)]
        assert moves
        assert all(is_stable(m).stable for m in moves)

    @pytest.mark.parametrize("n, splits", [(5, 10), (6, 25)])
    def test_corolla_splits_once_per_unordered_pair(self, n, splits):
        # a genus-0 vertex with n labeled tails splits into two stable
        # vertices in one way per subset of 2..n-2 tails, up to mirroring
        assert splits == sum(comb(n, k) for k in range(2, n - 1)) // 2
        corolla = star(0, n, modular=True)
        assert len(splits_of(corolla)) == splits

    def test_flagless_vertex_splits_once_per_genus_pair(self):
        corolla = star(4, 0, modular=True)
        # genus 4 = 1 + 3 = 2 + 2; genus 0 + 4 leaves a genus-0 vertex of
        # degree one
        assert len(splits_of(corolla)) == 2

    def test_core_moves_are_the_named_moves(self):
        # eleven vertices, so that sorted-name order ("v10" before "v2")
        # differs from the order of the names' numbers
        necklace = canonical_form(forget(cycle_graph(11, 3, 5))).graph
        shapes = enumerate_modular_shapes(3, []) + [necklace]
        assert len(necklace.vertices) == 11
        for shape in shapes:
            core = _core_of(shape)
            for key in _move_keys(core):
                moved = _move(core, key)
                _, leaves = _search(moved)
                certificate = _certificate(moved, leaves[0])
                assert certificate == canonical_form(named_move(shape, key)).certificate
        assert _move_keys(_core_of(necklace))

    @pytest.fixture(scope="class")
    def shape_cores(self):
        """The cores of three shape enumerations; the last two have
        vertices without flags."""
        runs = [(0, list("123456")), (2, []), (4, [], 9)]
        return [shape[2] for args in runs for shape in _shapes(*args)]

    @pytest.mark.parametrize(
        "move_keys, sorted_form",
        [
            (_move_keys, True),
            # breakers, one per rule: each split with an empty side first
            # puts it second, ...
            (
                lambda c: [
                    (k[0], k[1][::-1]) if len(k) > 1 and not k[1][0][0] else k
                    for k in _move_keys(c)
                ],
                False,
            ),
            # ... with two non-empty sides puts the vertex's first flag second,
            (
                lambda c: [
                    (k[0], k[1][::-1]) if len(k) > 1 and k[1][0][0] and k[1][1][0] else k
                    for k in _move_keys(c)
                ],
                False,
            ),
            # ... and at a vertex without flags puts the greater genus first
            (
                lambda c: [
                    (k[0], k[1][::-1]) if len(k) > 1 and not c.incidence[k[0]] else k
                    for k in _move_keys(c)
                ],
                False,
            ),
        ],
        ids=["move_keys", "empty_side_second", "first_flag_second", "greater_genus_first"],
    )
    def test_split_sides_come_sorted(self, shape_cores, move_keys, sorted_form):
        """``_move_image`` and the orbit search compare split keys in this
        form: each split's two sides in sorted order."""
        splits = [k for c in shape_cores for k in move_keys(c) if len(k) > 1]
        assert any(not fl for c in shape_cores for fl in c.incidence)
        assert any(not side for k in splits for side, _ in k[1])
        assert all(k[1] == tuple(sorted(k[1])) for k in splits) is sorted_form

    def test_shape_searches_validate_nothing(self, monkeypatch):
        calls = []
        check = susy.validate_susy_graph
        monkeypatch.setattr(
            susy, "validate_susy_graph", lambda g: calls.append(g) or check(g)
        )
        # ``require_susy`` reads the kept reports without calling it
        requires = count_calls(monkeypatch, susy.require_susy)
        assert len(_shapes(2, ["1"])) > 1
        assert calls == [] and requires == []

    def test_moves_and_signatures_read_the_incidence(self, monkeypatch):
        shapes = enumerate_modular_shapes(1, FOUR)
        calls = count_calls(monkeypatch, graphs.flags_at)
        for shape in shapes:
            _move_keys(_core_of(shape))
            _graph_signature(shape)
            stratum_dimension(shape)
        assert calls == []


class TestCarriedIncidence:
    """A move carries its parent's incidence and a canonical core numbers
    each vertex's flags in a run; both are the incidence a full pass over
    the boundary builds, for every leaf searched and every core kept."""

    @pytest.mark.parametrize(
        "g, ns, r", [(2, [], []), (0, FIVE + ["6"], []), (1, ["1", "2"], ["a", "b"])]
    )
    def test_incidence_is_the_full_pass(self, monkeypatch, g, ns, r):
        searched = []
        real = canon._search
        monkeypatch.setattr(
            canon,
            "_search",
            lambda c, *keys: searched.append((c, real(c, *keys))) or searched[-1][1],
        )
        records = enumerate_strata_records(g, ns, r)
        moves = [(rec.core, key) for rec in records for key in _move_keys(rec.core)]
        assert len(moves) > len(records) > 1
        for core, key in moves:
            moved = _move(core, key)
            assert moved == canon._core(*moved[:6])
        if g == 0:  # a tree is found by its splits, so only a new one is searched
            assert len(searched) == len(records)
        else:
            assert len(searched) > len(records)
        for c, (_, leaves) in searched:
            for leaf in leaves:
                numbered = canon._canonical_core(c, leaf)
                assert numbered == canon._core(*numbered[:6])
        kept = [core for rec in records for core in (rec.core, *rec.cores)]
        assert all(core.incidence == canon._core(*core[:6]).incidence for core in kept)


class TestCarriedCellKeys:
    """Each move's search starts from cell keys carried from its parent,
    with only those of v and the new vertex computed again; they are the
    keys a fresh pass computes, and the search finds what a fresh search
    finds."""

    @pytest.mark.parametrize(
        "g, ns, r", [(0, FIVE + ["6"], []), (1, ["1", "2"], ["a", "b"]), (2, [], [])]
    )
    def test_carried_keys_are_fresh_keys(self, monkeypatch, g, ns, r):
        carried = []
        real = canon._search

        def search(c, keys=None):
            found = real(c, keys)
            if keys is not None:
                carried.append((c, list(keys), found))
            return found

        monkeypatch.setattr(canon, "_search", search)
        counts = {"_move": 0}
        counted(monkeypatch, strata, "_move", counts)
        enumerate_strata_records(g, ns, r)
        assert len(carried) == counts["_move"] > 1
        for c, keys, found in carried:
            assert keys == [canon._cell_key(c, v) for v in range(len(c.genus))]
            assert found == real(c)


COVER_CASES = [(2, []), (3, []), (1, ["1", "2", "3"]), (0, FIVE)]


def vertex_map(src, dst, flag_map):
    """The vertex map a flag map induces, checked to be a bijection."""
    if not src.flags:
        assert len(src.vertices) == len(dst.vertices) == 1
        return {next(iter(src.vertices)): next(iter(dst.vertices))}
    vmap = {}
    for f in src.flags:
        assert vmap.setdefault(src.boundary[f], dst.boundary[flag_map[f]]) == (
            dst.boundary[flag_map[f]]
        )
    assert set(vmap) == set(src.vertices)
    assert sorted(vmap.values()) == sorted(dst.vertices)
    return vmap


class TestRecordedCovers:
    """Each cover the shape generator records is an isomorphism from the
    contracted shape onto its target, and the recorded edges reach every
    edge of the shape under its automorphisms."""

    @pytest.mark.parametrize("g, labels", COVER_CASES)
    def test_each_cover_is_a_contraction_isomorphism(self, g, labels):
        records = enumerate_strata_records(g, labels, [])
        by_digest = {rec.shape_digest: rec.shape for rec in records}
        entries = 0
        for rec in records:
            shape = rec.shape
            for edge, (target, flag_map) in rec.shape_covers.items():
                entries += 1
                assert shape.involution[edge[0]] == edge[1]
                contracted = contract_pair(shape, edge).target
                parent = by_digest[target]
                assert set(flag_map) == contracted.flags
                assert sorted(flag_map.values()) == sorted(parent.flags)
                for f, p in flag_map.items():
                    assert flag_map[contracted.involution[f]] == parent.involution[p]
                    assert contracted.color_of(f) == parent.color_of(p)
                for mine, theirs in (
                    (contracted.labeling.ns_tail_labels, parent.labeling.ns_tail_labels),
                    (contracted.labeling.r_tail_labels, parent.labeling.r_tail_labels),
                ):
                    assert {l: flag_map[f] for l, f in mine.items()} == theirs
                vmap = vertex_map(contracted, parent, flag_map)
                for v, w in vmap.items():
                    assert contracted.genus_of(v) == parent.genus_of(w)
        assert entries >= sum(1 for rec in records if edges(rec.shape.graph))

    @pytest.mark.parametrize("g, labels", COVER_CASES)
    def test_recorded_edges_reach_every_edge_orbit(self, g, labels):
        for rec in enumerate_strata_records(g, labels, []):
            shape, covers = rec.shape, rec.shape_covers
            reached = {
                frozenset(fmap[f] for f in edge)
                for _, fmap in brute_isomorphisms(shape, shape)
                for edge in covers
            }
            assert reached == {frozenset(e) for e in edges(shape.graph)}

    @pytest.mark.parametrize("ns, r", [(FIVE + ["6"], []), (FOUR, ["a", "b"])])
    def test_a_tree_cover_keeps_its_target_not_a_flag_map(self, ns, r):
        # a tree has one coloring, so its covers keep the target's core and
        # ``shape_covers`` builds each full flag map when it is read
        records = enumerate_strata_records(0, ns, r)
        core_of = {rec.shape_digest: rec.core for rec in records}
        for rec in records:
            assert len(rec.covers) == strata._edge_count(rec.core)
            assert all(kept is core_of[d] for d, kept in rec.covers.values())
            shape = rec.shape
            assert {frozenset(e) for e in rec.shape_covers} == {
                frozenset(e) for e in edges(shape.graph)
            }
            for edge, (target, fmap) in rec.shape_covers.items():
                assert set(fmap) == shape.flags - set(edge)
                assert sorted(fmap.values()) == sorted(_named(core_of[target]).flags)


def bernoulli(m):
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(comb(k + 1, i) * b[i] for i in range(k)) / (k + 1))
    return b[m]


def open_euler(g, n):
    """Orbifold Euler characteristic of the open moduli space M_{g,n}, for
    2g - 2 + n > 0 (Harer-Zagier): chi(M_{g,1}) = -B_{2g}/2g for g >= 1,
    chi(M_{0,3}) = 1, and chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n}), which
    at n = 0 gives chi(M_g) for g >= 2."""
    if g == 0:
        chi, start = Fraction(1), 3
    else:
        chi, start = -bernoulli(2 * g) / (2 * g), 1
    if n < start:
        return chi / (2 - 2 * g)
    for k in range(start, n):
        chi *= 2 - 2 * g - k
    return chi


@lru_cache(maxsize=None)
def open_strata(g, n):
    """Each shape of Mbar_{g,n} with the orbifold Euler characteristic of
    its open stratum: 1/|Aut|, with |Aut| from the exhaustive oracle, times
    the product of its vertices' open Euler characteristics."""
    out = []
    for shape in enumerate_modular_shapes(g, [str(i) for i in range(n)]):
        term = Fraction(1, brute_automorphism_order(shape))
        for v in shape.vertices:
            term *= open_euler(shape.genus_of(v), len(flags_at(shape.graph, v)))
        out.append((shape, term))
    return out


class TestEulerCharacteristic:
    """chi(Mbar_{g,n}) summed over the open strata of the shapes, against
    known values and against the universal curve Mbar_{g,n+1} over
    Mbar_{g,n}, which checks two enumerations against each other."""

    @pytest.mark.parametrize(
        "g, n, chi",
        [
            (0, 4, Fraction(2)),
            (0, 5, Fraction(7)),
            (0, 6, Fraction(34)),
            (0, 7, Fraction(213)),
            (1, 1, Fraction(5, 12)),
            (2, 0, Fraction(119, 1440)),
        ],
    )
    def test_orbifold_euler_characteristic(self, g, n, chi):
        assert sum(term for _, term in open_strata(g, n)) == chi

    @pytest.mark.parametrize(
        "g, n",
        [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)],
    )
    def test_universal_curve(self, g, n):
        # the fibre over a curve with dual graph G is the curve itself, whose
        # Euler characteristic is 2 - 2g + |E(G)|
        fibred = sum(
            term * (2 - 2 * g + len(edges(shape.graph)))
            for shape, term in open_strata(g, n)
        )
        assert sum(term for _, term in open_strata(g, n + 1)) == fibred


@lru_cache(maxsize=None)
def seven_tails():
    records = enumerate_strata_records(0, [str(i) for i in range(7)], [])
    return records, strata_poset(records)


class TestSplitSystems:
    """A genus-0 shape is a tree, fixed by its splits (Buneman 1971): the
    shapes are the compatible split systems, each once, and contracting
    an edge drops its split."""

    def test_shapes_are_the_split_systems(self):
        records, _ = seven_tails()
        splits = [tree_splits(rec.shape) for rec in records]
        assert len(set(splits)) == len(splits) == 2752
        assert set(splits) == split_systems(str(i) for i in range(7))

    def test_a_cover_drops_one_split(self):
        _, poset = seven_tails()
        splits = [tree_splits(s) for s in poset.strata]
        index = {s: i for i, s in enumerate(splits)}
        # j covers i exactly when splits(j) is splits(i) less one split
        for i, s in enumerate(splits):
            assert poset.successors[i] == tuple(sorted(index[s - {x}] for x in s))

    def test_labels_out_of_numeric_order(self):
        # the labels are numbered as bits in string order, where "10" comes
        # before "2": the shapes and covers must not depend on that order
        labels = ["1", "2", "3", "10", "11", "20"]
        poset = strata_poset(enumerate_strata_records(0, labels, []))
        splits = [tree_splits(s) for s in poset.strata]
        assert len(set(splits)) == len(splits) == 236
        assert set(splits) == split_systems(labels)
        index = {s: i for i, s in enumerate(splits)}
        for i, s in enumerate(splits):
            assert poset.successors[i] == tuple(sorted(index[s - {x}] for x in s))

    def test_a_tree_is_built_only_for_a_new_split_set(self, monkeypatch):
        # each vertex's splits are walked as label masks, so no move is
        # keyed or grouped into orbits, and one move is built per tree
        # other than the corolla
        counts = dict.fromkeys(["_move_keys", "_orbits", "_move"], 0)
        for name in counts:
            counted(monkeypatch, strata, name, counts)
        shapes = _shapes(0, FIVE + ["6"])
        assert len(shapes) == 236
        assert counts == {"_move_keys": 0, "_orbits": 0, "_move": 235}


class TestCounts:
    """Closed-form counts: the Schroeder numbers A000311 for genus-0 strata
    with NS tails, and the 7 and 42 closed shapes of genus 2 and 3."""

    @pytest.mark.parametrize("n, count", [(3, 1), (4, 4), (5, 26), (6, 236)])
    def test_genus0_strata_are_schroeder_numbers(self, n, count):
        assert len(enumerate_strata(0, [str(i) for i in range(n)], [])) == count

    @pytest.mark.parametrize("g, count", [(2, 7), (3, 42)])
    def test_closed_shapes(self, g, count):
        assert len(enumerate_modular_shapes(g, [])) == count


def as_key(vmap, fmap):
    return frozenset(vmap.items()), frozenset(fmap.items())


def generated_group(generators, shape):
    """Every composite of ``generators``, as (vertex map, flag map) keys."""
    identity = ({v: v for v in shape.vertices}, {f: f for f in shape.flags})
    group = {as_key(*identity): identity}
    frontier = [identity]
    while frontier:
        vmap, fmap = frontier.pop()
        for gen in generators:
            new = (
                {v: gen.vertex_map[w] for v, w in vmap.items()},
                {f: gen.flag_map[c] for f, c in fmap.items()},
            )
            if as_key(*new) not in group:
                group[as_key(*new)] = new
                frontier.append(new)
    return set(group)


def named_automorphism(vertex_map, flag_map):
    """The automorphism of a canonical core with these vertex and flag
    maps, in the names that ``_named`` gives."""
    return Isomorphism(
        {f"v{a}": f"v{b}" for a, b in enumerate(vertex_map)},
        {f"f{a}": f"f{b}" for a, b in enumerate(flag_map)},
    )


class TestShapeGenerators:
    """The generators the shape generator keeps for each shape generate
    exactly its automorphism group, as the exhaustive oracle lists it."""

    @pytest.mark.parametrize("g, labels", [(3, []), (2, ["1"])])
    def test_generators_generate_the_group(self, g, labels):
        for _, _, core, _, maps in _shapes(g, labels):
            shape, generators = _named(core), [named_automorphism(*m) for m in maps]
            brute = {as_key(*iso) for iso in brute_isomorphisms(shape, shape)}
            assert generated_group(generators, shape) == brute
            assert bool(generators) == (len(brute) > 1)


BURNSIDE_CASES = [(2, [], []), (3, [], []), (1, ["1"], ["2", "3"]), (2, ["1"], ["2", "3"])]


class TestBurnside:
    """The strata over a shape S are the orbits of its raw colorings under
    Aut S, so by Burnside's lemma their number is the mean, over the
    automorphisms from the exhaustive oracle, of the raw colorings each
    one fixes."""

    @pytest.mark.parametrize("g, ns, r", BURNSIDE_CASES)
    def test_strata_per_shape(self, g, ns, r):
        for rec in enumerate_strata_records(g, ns, r):
            group = [fmap for _, fmap in brute_isomorphisms(rec.shape, rec.shape)]
            fixed = sum(
                1
                for fmap in group
                for key in rec.coloring_digests
                if frozenset(fmap[f] for f in key) == key
            )
            assert Fraction(fixed, len(group)) == len(rec.digests)


class TestBoundsAndErrors:
    def test_edge_bound_holds(self):
        for g, ns, r in [(0, FIVE, []), (1, ["1"], [])]:
            bound = 3 * g - 3 + len(ns) + len(r)
            for s in enumerate_strata(g, ns, r):
                assert len(edges(s.graph)) <= bound

    def test_default_limit(self):
        assert MAX_EDGES == 8
        # twelve tails need up to nine edges
        with pytest.raises(ValidationError, match="max_edges"):
            enumerate_modular_shapes(0, [str(i) for i in range(12)])
        with pytest.raises(ValidationError, match="--max-edges"):
            enumerate_modular_shapes(1, ["1", "2"], max_edges=1)
        assert enumerate_modular_shapes(1, ["1", "2"], max_edges=2)

    def test_unstable_request_rejected(self):
        with pytest.raises(ValidationError, match="unstable"):
            enumerate_strata(0, ["1", "2"], [])

    @pytest.mark.parametrize("g", [-1, -3, 1.0, "2", None, True])
    def test_genus_must_be_a_non_negative_int(self, g):
        # a negative genus once passed the stability check with enough tails
        with pytest.raises(ValidationError, match="non-negative integer"):
            enumerate_strata(g, ["1", "2", "3", "4", "5"], [])
        with pytest.raises(ValidationError, match="non-negative integer"):
            enumerate_modular_shapes(g, ["1", "2", "3", "4", "5"])

    @pytest.mark.parametrize("max_edges", ["9", 9.0, True])
    def test_max_edges_must_be_an_int_or_none(self, max_edges):
        # a string once raised TypeError from the bound check
        with pytest.raises(ValidationError, match="max_edges must be an integer"):
            enumerate_strata_records(0, FIVE, [], max_edges=max_edges)

    @pytest.mark.parametrize(
        "enumerate_, labels",
        [
            (lambda labels: enumerate_strata(0, labels, []), [1, 2, 3, 4]),
            (lambda labels: enumerate_modular_shapes(0, labels), ["1", "2", None]),
        ],
    )
    def test_tail_labels_must_be_strings(self, enumerate_, labels):
        # an integer label once raised TypeError from the certificate, and
        # None from the sort of the labels
        with pytest.raises(ValidationError, match="tail labels must be strings"):
            enumerate_(labels)

    def test_odd_r_label_count_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            enumerate_strata(1, ["1"], ["2"])

    def test_overlapping_labels_rejected(self):
        with pytest.raises(ValidationError, match="both NS and R"):
            enumerate_strata(1, ["1"], ["1", "2"])

    def test_overlapping_labels_of_mixed_types_rejected(self):
        # sorting them for the message once raised TypeError
        with pytest.raises(ValidationError, match="both NS and R"):
            enumerate_strata(0, [1, "x", "y"], [1, "x"])


def graph_key(g):
    """Every field of the SUSY graph ``g``, sorted, as plain values."""
    lab = g.labeling
    return (
        sorted(g.flags),
        sorted(g.vertices),
        sorted(g.boundary.items()),
        sorted(g.involution.items()),
        sorted(lab.genus.items()),
        sorted(lab.color.items()),
        sorted(lab.ns_tail_labels.items()),
        sorted(lab.r_tail_labels.items()),
        g.modular,
    )


def named_views_digest(g, ns, r):
    """sha256 over the named views of every record of an enumeration, in
    shape digest order, and the fields of its contraction poset."""
    records = enumerate_strata_records(g, ns, r)
    parts = []
    for rec in sorted(records, key=lambda rec: rec.shape_digest):
        parts.append(
            (
                rec.shape_digest,
                graph_key(rec.shape),
                [graph_key(c) for c in rec.colorings],
                list(rec.digests),
                sorted((sorted(k), d) for k, d in rec.coloring_digests.items()),
                sorted(
                    (edge, target, sorted(fmap.items()))
                    for edge, (target, fmap) in rec.shape_covers.items()
                ),
                rec.predicted_colorings,
            )
        )
    poset = strata_poset(records)
    parts.append(
        (
            [graph_key(s) for s in poset.strata],
            list(poset.digests),
            list(poset.ranks),
            sorted(poset.covers),
        )
    )
    return sha256(repr(parts).encode()).hexdigest()


class TestNamedViewsPinned:
    """The named views of the records and the poset, hashed; the hashes
    were taken when the records still held named graphs and name-keyed
    tables, under two hash seeds."""

    @pytest.mark.parametrize(
        "g, ns, r, sha",
        [
            (
                3, [], [],
                "46fb57a25893e2a9718eec3386709de9b14bbecedb69f2910668920648a92bf1",
            ),
            (
                2, ["1"], ["2", "3"],
                "afe5d1ac49fececfd2b1b3c4505284b7478f81a36d7e13ae306806ef25d51db2",
            ),
            (
                1, ["1", "2", "3"], ["4", "5"],
                "3c5bb8759d47546951e0a42bc309ac29f35c7d173fbc4d6156bbbd04e6784e8f",
            ),
            (
                0, FOUR + ["5", "6"], [],
                "aac2765c46c788be73f90b7df0945720257f458db9231927dae8d8d02e73f81a",
            ),
        ],
    )
    def test_named_views(self, g, ns, r, sha):
        assert named_views_digest(g, ns, r) == sha
