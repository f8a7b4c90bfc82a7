"""Stratum enumeration against a pedestrian generator, coloring counts
against the parity closed form, and the contraction order."""

import pytest

from susykit import (
    ValidationError,
    canonical_form,
    certificate_digest,
    contraction_poset,
    edges,
    enumerate_edge_colorings,
    enumerate_modular_shapes,
    enumerate_strata,
    enumerate_strata_records,
    genus,
    lift_count_general,
    strata_poset,
)
from susykit.susy import R
from susykit.strata import max_edge_limit

from oracles import (
    brute_color_sets,
    brute_is_isomorphic,
    brute_strata,
    brute_strata_shapes,
    color_set_of,
    forest_b1,
)

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


class TestPoset:
    def test_four_ns_corolla_tops_three_trees(self):
        strata = enumerate_strata(0, FOUR, [])
        poset = contraction_poset(strata)
        assert poset.ranks[poset.top] == 0
        assert sorted(poset.ranks) == [0, 1, 1, 1]
        assert len(poset.covers) == 3
        assert all(j == poset.top for _, j in poset.covers)
        for i in range(len(strata)):
            assert poset.less_or_equal(i, poset.top)

    def test_genus1_corolla_covers_both_loops(self):
        strata = enumerate_strata(1, ["1"], [])
        poset = contraction_poset(strata)
        top = poset.top
        below = [i for i in range(3) if i != top]
        assert {(i, top) for i in below} == set(poset.covers)
        a, b = below
        assert not poset.less_or_equal(a, b)
        assert not poset.less_or_equal(b, a)
        assert not poset.less_or_equal(top, a)

    def test_singleton_enumeration_gives_point_poset(self):
        strata = enumerate_strata(0, ["1", "2", "3"], [])
        assert len(strata) == 1
        poset = contraction_poset(strata)
        assert poset.top == 0
        assert poset.covers == frozenset()

    def test_list_must_be_closed_under_contraction(self):
        strata = enumerate_strata(1, ["1"], [])
        nodal = [g for g in strata if edges(g.graph)]
        with pytest.raises(ValidationError, match="closed under contraction"):
            contraction_poset(nodal)

    def test_digests_are_the_strata_digests(self):
        strata = enumerate_strata(1, ["1", "2"], ["3", "4"])
        poset = contraction_poset(strata)
        assert list(poset.digests) == [canonical_form(g).digest for g in strata]

    def test_less_or_equal_is_the_transitive_closure(self):
        strata = enumerate_strata(0, FIVE, [])
        poset = contraction_poset(strata)
        n = len(strata)
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

    def test_duplicates_rejected(self):
        strata = enumerate_strata(0, FOUR, [])
        with pytest.raises(ValidationError, match="duplicate"):
            contraction_poset(strata + [strata[0]])

    def test_index_of_round_trips(self):
        strata = enumerate_strata(1, ["1"], [])
        poset = contraction_poset(strata)
        for i, g in enumerate(strata):
            assert poset.index_of(g) == i


    def test_index_of_rejects_a_stratum_not_listed(self):
        poset = contraction_poset(enumerate_strata(0, FOUR, []))
        with pytest.raises(ValueError):
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
        mine = strata_poset(enumerate_strata_records(g, ns, r))
        ref = contraction_poset(enumerate_strata(g, ns, r))
        assert mine.strata == ref.strata
        assert mine.digests == ref.digests
        assert mine.ranks == ref.ranks
        assert mine.covers == ref.covers

    def test_records_must_be_closed_under_contraction(self):
        records = enumerate_strata_records(1, ["1"], [])
        nodal = [rec for rec in records if edges(rec.shape.graph)]
        with pytest.raises(ValidationError, match="every record"):
            strata_poset(nodal)


class TestBoundsAndErrors:
    def test_edge_bound_holds(self):
        for g, ns, r in [(0, FIVE, []), (1, ["1"], [])]:
            bound = 3 * g - 3 + len(ns) + len(r)
            for s in enumerate_strata(g, ns, r):
                assert len(edges(s.graph)) <= bound

    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv("SUSY_KIT_MAX_EDGES", raising=False)
        assert max_edge_limit() == 8
        assert max_edge_limit(3) == 3

    def test_env_limit_respected(self, monkeypatch):
        monkeypatch.setenv("SUSY_KIT_MAX_EDGES", "1")
        with pytest.raises(ValidationError, match="SUSY_KIT_MAX_EDGES"):
            enumerate_modular_shapes(1, ["1", "2"])
        # an explicit override out-ranks the environment
        assert enumerate_modular_shapes(1, ["1", "2"], max_edges=2)

    def test_unstable_request_rejected(self):
        with pytest.raises(ValidationError, match="unstable"):
            enumerate_strata(0, ["1", "2"], [])

    def test_odd_r_label_count_rejected(self):
        with pytest.raises(ValidationError, match="even"):
            enumerate_strata(1, ["1"], ["2"])

    def test_overlapping_labels_rejected(self):
        with pytest.raises(ValidationError, match="both NS and R"):
            enumerate_strata(1, ["1"], ["1", "2"])
