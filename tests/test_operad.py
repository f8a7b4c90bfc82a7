"""Signature algebra: generators, recipe composition, evaluation of graph
morphisms, projection to the colorless theory, and dimension formulas."""

import hashlib
import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

import susykit.operad
from susykit import (
    NS,
    R,
    GluingRecipe,
    ModuliFactor,
    ModuliSignature,
    SusyGraph,
    ValidationError,
    check_operad_axioms,
    compose,
    contract_pair,
    disjoint_union,
    edges,
    enumerate_strata,
    evaluate_operad,
    flags_at,
    forget,
    genus,
    glue_ns,
    glue_ns_loop,
    glue_r,
    glue_r_loop,
    identity_recipe,
    include,
    is_stable,
    project,
    recipe,
    recipe_compose,
    relabel_recipe,
    signature,
    stratum_dimension,
    susy_graph,
    total_grafting,
    validate_recipe,
)
from susykit.jsonio import recipe_to_json
from susykit.operad import _graph_signature

from conftest import star
from oracles import local_dimension
from sampling import (
    random_composable_pair,
    random_morphism,
    random_susy_graph,
)


def two_corolla_graph():
    """Genus-0 corollas joined by one NS edge; flag ids double as the
    signature labels so evaluation output can be compared verbatim."""
    flags = ["1", "2", "f", "fp", "3", "4", "5"]
    boundary = {x: "u" for x in ("1", "2", "f")}
    boundary.update({x: "w" for x in ("fp", "3", "4", "5")})
    involution = {x: x for x in flags}
    involution["f"], involution["fp"] = "fp", "f"
    return susy_graph(
        flags=flags,
        vertices=["u", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "w": 0},
        color={x: R if x in ("4", "5") else NS for x in flags},
        ns_labels={"1": "1", "2": "2", "3": "3"},
        r_labels={"4": "4", "5": "5"},
    )


def triple_edge_graph():
    """Two vertices, one NS edge and two R edges, one NS tail each side."""
    flags = ["t", "s", "n1", "n2", "p1", "p2", "q1", "q2"]
    boundary = {x: "u" for x in ("t", "n1", "p1", "q1")}
    boundary.update({x: "w" for x in ("s", "n2", "p2", "q2")})
    involution = {"t": "t", "s": "s"}
    for a, b in (("n1", "n2"), ("p1", "p2"), ("q1", "q2")):
        involution[a], involution[b] = b, a
    return susy_graph(
        flags=flags,
        vertices=["u", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "w": 0},
        color={x: R if x[0] in "pq" else NS for x in flags},
        ns_labels={"t": "t", "s": "s"},
        r_labels={},
    )


def full_contraction(g):
    """Compose single-pair contractions until no edges remain."""
    from susykit import susy_identity

    h = susy_identity(g)
    while True:
        left = edges(h.target.graph)
        if not left:
            return h
        h = compose(h, contract_pair(h.target, left[0]))


class TestSignatureBasics:
    def test_tuple_shorthand_and_canonical_order(self):
        sig = signature([(1, {"z"}, ()), (0, {"a", "b", "c"}, ())])
        assert [f.genus for f in sig.factors] == [0, 1]
        assert sig.factors[1].ns_labels == frozenset({"z"})
        assert sig.labels == frozenset({"a", "b", "c", "z"})

    def test_label_lookup(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (2, (), ())])
        assert sig.color_of("a") == NS
        assert sig.color_of("r1") == R
        assert sig.factor_of("r2") == sig.factor_of("a")
        with pytest.raises(KeyError):
            sig.factor_of("zz")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValidationError, match="more than one slot"):
            signature([(0, {"a", "b", "x"}, ()), (0, {"x", "c"}, ())])

    def test_unstable_factor_rejected(self):
        with pytest.raises(ValidationError, match="unstable"):
            signature([(0, {"a", "b"}, ())])

    def test_odd_r_count_rejected(self):
        with pytest.raises(ValidationError, match="odd number of R"):
            signature([(1, {"a"}, {"r1"})])

    def test_direct_construction_is_validated(self):
        big = ModuliFactor(1, {"z"}, ())
        small = ModuliFactor(0, {"a", "b", "c"}, ())
        assert ModuliSignature((small, big)) == signature([big, small])
        with pytest.raises(ValidationError, match="canonical order"):
            ModuliSignature((big, small))
        with pytest.raises(ValidationError, match="unstable"):
            ModuliSignature((ModuliFactor(0, {"a", "b"}, ()),))

    def test_classical_mode_bans_r_labels(self):
        with pytest.raises(ValidationError, match="classical"):
            signature([(1, {"a"}, {"r1", "r2"})], mode="classical")
        sig = signature([(1, {"a"}, ())], mode="classical")
        assert sig.mode == "classical"

    @pytest.mark.parametrize(
        "factors, message",
        [
            (
                [("x", ["a", "b", "c"], []), (1, ["d", "e", "f"], [])],
                "factor 0: genus must be a non-negative integer",
            ),
            ([("x", ["a", "b", "c"], [])], "factor 0: genus must be a non-negative integer"),
            ([(0, ["a", 1, "c"], [])], "factor 0: labels must be strings"),
            ([(0, ["a", "b", "c"], []), (1, ["d", 2], [])], "factor 1: labels must be strings"),
            ([(0, [1, 2, 3], [])], "factor 0: labels must be strings"),
        ],
    )
    def test_bad_types_raise_validation_error(self, factors, message):
        with pytest.raises(ValidationError) as err:
            signature(factors)
        assert str(err.value) == f"invalid signature: {message}"

    @pytest.mark.parametrize(
        "factor",
        [(0, ["a", "b", "c"]), (0, [["a"], "b", "c"], []), (0, ["a", "b", "c"], [], 1), 7],
    )
    def test_malformed_shorthand_raises_validation_error(self, factor):
        with pytest.raises(ValidationError) as err:
            signature([(1, {"z"}, ()), factor])
        assert str(err.value) == (
            "invalid signature: factor 1: expected (genus, ns_labels, r_labels) "
            f"with string labels, got {factor!r}"
        )

    def test_factor_objects_are_taken_as_they_are(self):
        factor = ModuliFactor(0, {"a", "b", "c"}, ())
        assert signature([factor]).factors[0] is factor
        with pytest.raises(ValidationError, match="factor 0: labels must be strings"):
            signature([ModuliFactor(0, ["a", 1, "c"], ())])

    def test_relabeling_to_a_non_string_raises_validation_error(self):
        sig = signature([(0, {"a", "b", "c"}, ())])
        with pytest.raises(ValidationError, match="labels must be strings"):
            relabel_recipe(sig, {"a": "x", "b": 2, "c": "z"})

    def test_unhashable_renamed_label_raises_validation_error(self):
        sig = signature([(0, ["a", "b", "c"], [])])
        with pytest.raises(ValidationError, match="renamed labels must be strings"):
            relabel_recipe(sig, {"a": ["x"], "b": "b", "c": "c"})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"assignment": [None]}, "assignment must be"),
            ({"assignment": ["0"]}, "assignment must be"),
            ({"assignment": 5}, "assignment must be"),
            ({"assignment": [0], "ns_gluings": [("a",)]}, "not a pair of labels"),
            ({"assignment": [0], "ns_gluings": [("a", "b", "c")]}, "not a pair of labels"),
            ({"assignment": [0], "ns_gluings": [("a", 2)]}, "not a pair of labels"),
            ({"assignment": [0], "r_gluings": [("a", 2)]}, "not a pair of labels"),
            ({"assignment": [0], "ns_gluings": [5]}, "not a pair of labels"),
            ({"assignment": [0], "ns_gluings": 5}, "gluings must be iterables"),
            ({"assignment": [0], "relabeling": 5}, "relabeling must map labels"),
            (
                {"assignment": [0], "relabeling": {"a": ["x"], "b": "b", "c": "c"}},
                "relabeling must map labels",
            ),
        ],
    )
    def test_malformed_recipe_arguments_raise_validation_error(self, kwargs, message):
        sig = signature([(0, ["a", "b", "c"], [])])
        with pytest.raises(ValidationError, match=message):
            recipe(sig, sig, **kwargs)

    def test_well_formed_recipe_arguments_are_taken_as_before(self):
        src = signature([(0, {"a", "b", "f"}, ()), (0, {"g", "c", "e"}, ())])
        tgt = signature([(0, {"a", "b", "c", "e"}, ())])
        relabeling = {l: l for l in "abce"}
        expected = recipe(src, tgt, (0, 0), [("f", "g")], relabeling=relabeling)
        assert expected.ns_gluings == (("f", "g"),)
        for assignment, pairs in [([0, 0], [["g", "f"]]), ((0, 0), iter([("f", "g")]))]:
            assert recipe(src, tgt, assignment, pairs, relabeling=relabeling) == expected


F = ModuliFactor
# each signature's check, pinned as the code before the one-pass check gave it
SIGNATURE_VIOLATIONS = {
    "out_of_order": (
        (F(1, {"a"}, ()), F(0, {"b", "c", "d"}, ())), "super",
        "factors are not in canonical order",
    ),
    "repeated_label": (
        (F(0, {"a", "b", "c"}, ()), F(0, {"c", "d", "e"}, ())), "super",
        "label 'c' appears in more than one slot",
    ),
    "ns_r_overlap": (
        (F(0, {"a", "b", "c"}, {"a", "d"}),), "super",
        "factor 0: labels ['a'] are both NS and R",
    ),
    "unstable": (
        (F(0, {"a", "b"}, ()),), "super",
        "factor 0: unstable (2g - 2 + #labels <= 0)",
    ),
    "odd_r": ((F(0, {"a", "b"}, {"r"}),), "super", "factor 0: odd number of R labels"),
    "classical_r": (
        (F(0, {"a"}, {"r", "s"}),), "classical",
        "factor 0: classical signatures carry no R labels",
    ),
    "several": (
        (F(1, {"z", "y"}, {"r"}), F(0, {"a", "z"}, {"a"}), F(-1, {"q", "r"}, ())),
        "super",
        "factor 0: odd number of R labels; "
        "factor 1: labels ['a'] are both NS and R; "
        "label 'z' appears in more than one slot; "
        "factor 1: unstable (2g - 2 + #labels <= 0); "
        "factor 1: odd number of R labels; "
        "factor 2: genus must be a non-negative integer; "
        "label 'r' appears in more than one slot; "
        "factor 2: unstable (2g - 2 + #labels <= 0); "
        "factors are not in canonical order",
    ),
    "repeated_many": (
        (F(0, {"a", "b", "c"}, ()), F(0, {"c", "b", "e"}, {"a", "x"})), "super",
        "label 'a' appears in more than one slot; "
        "label 'b' appears in more than one slot; "
        "label 'c' appears in more than one slot",
    ),
}


@pytest.mark.parametrize("case", sorted(SIGNATURE_VIOLATIONS))
def test_signature_violations_are_pinned(case):
    factors, mode, message = SIGNATURE_VIOLATIONS[case]
    with pytest.raises(ValidationError) as err:
        ModuliSignature(factors, mode)
    assert str(err.value) == f"invalid signature: {message}"


class TestRecipeAlgebra:
    def setup_method(self):
        self.sig = signature(
            [(0, {"a", "b", "c"}, ()), (0, {"d"}, {"r1", "r2"})]
        )

    def test_identity_recipe_shape(self):
        i = identity_recipe(self.sig)
        assert i.source == i.target == self.sig
        assert i.assignment == (0, 1)
        assert i.gluings == ()
        assert i.ramond_fiber_rank == 0
        assert i.relabeling == {l: l for l in self.sig.labels}

    def test_identity_laws(self):
        r = glue_ns(self.sig, "a", "d")
        assert recipe_compose(identity_recipe(self.sig), r) == r
        assert recipe_compose(r, identity_recipe(r.target)) == r

    def test_composition_associative(self):
        r1 = glue_ns(self.sig, "a", "d")
        r2 = glue_r_loop(r1.target, "r1", "r2")
        renaming = {l: l + "z" for l in r2.target.labels}
        r3 = relabel_recipe(r2.target, renaming)
        left = recipe_compose(recipe_compose(r1, r2), r3)
        right = recipe_compose(r1, recipe_compose(r2, r3))
        assert left == right
        assert left.source == self.sig
        assert left.target == r3.target

    def test_composition_endpoint_mismatch(self):
        r = glue_ns(self.sig, "a", "d")
        with pytest.raises(ValidationError, match="compose"):
            recipe_compose(r, r)

    def test_rank_accumulates(self):
        other = signature([(0, {"e"}, {"s1", "s2"})])
        sig = signature(list(self.sig.factors) + list(other.factors))
        r1 = glue_r(sig, "r1", "s1")
        r2 = glue_r_loop(r1.target, "r2", "s2")
        both = recipe_compose(r1, r2)
        assert r1.ramond_fiber_rank == 1
        assert r2.ramond_fiber_rank == 1
        assert both.ramond_fiber_rank == 2
        assert len(both.r_gluings) == 2

    def test_rank_is_read_from_the_r_gluings(self):
        r = glue_r(
            signature([(0, {"a"}, {"r1", "r2"}), (0, {"b"}, {"s1", "s2"})]),
            "r1",
            "s1",
        )
        assert [f.name for f in fields(GluingRecipe)] == [
            "source", "target", "assignment", "ns_gluings", "r_gluings", "relabeling",
        ]
        rebuilt = GluingRecipe(
            r.source, r.target, r.assignment, r.ns_gluings, r.r_gluings, r.relabeling
        )
        assert rebuilt == r and rebuilt.ramond_fiber_rank == 1
        with pytest.raises(AttributeError):
            rebuilt.ramond_fiber_rank = 0

    def test_genus_bookkeeping_enforced(self):
        src = signature([(0, {"a", "b", "f"}, ()), (0, {"g", "c", "e"}, ())])
        wrong = signature([(1, {"a", "b", "c", "e"}, ())])
        with pytest.raises(ValidationError, match="genus"):
            recipe(
                src,
                wrong,
                (0, 0),
                ns_gluings=[("f", "g")],
                relabeling={l: l for l in ("a", "b", "c", "e")},
            )

    def test_disconnected_fiber_rejected(self):
        src = signature([(0, {"a", "b", "c"}, ()), (1, {"d"}, ())])
        tgt = signature([(2, {"a", "b", "c", "d"}, ())])
        with pytest.raises(ValidationError, match="not connected"):
            recipe(src, tgt, (0, 0), relabeling={l: l for l in "abcd"})

    def test_color_changing_relabel_rejected(self):
        src = signature([(0, {"a"}, {"r1", "r2"})])
        tgt = signature([(0, {"r1"}, {"a", "r2"})])
        with pytest.raises(ValidationError, match="color"):
            recipe(src, tgt, (0,), relabeling={"a": "a", "r1": "r1", "r2": "r2"})


class TestGenerators:
    def test_glue_ns_merges_factors(self):
        sig = signature(
            [(0, {"1", "2", "f"}, ()), (0, {"fp", "3"}, {"4", "5"})]
        )
        r = glue_ns(sig, "f", "fp")
        assert r.target == signature([(0, {"1", "2", "3"}, {"4", "5"})])
        assert r.ns_gluings == (("f", "fp"),)
        assert r.r_gluings == ()
        assert r.ramond_fiber_rank == 0
        assert r.relabeling == {l: l for l in ("1", "2", "3", "4", "5")}

    def test_glue_r_loop_raises_genus_and_rank(self):
        sig = signature([(1, {"1"}, {"j", "jp", "6", "7"})])
        r = glue_r_loop(sig, "j", "jp")
        assert r.target == signature([(2, {"1"}, {"6", "7"})])
        assert r.ramond_fiber_rank == 1
        assert r.r_gluings == (("j", "jp"),)

    def test_glue_ns_loop_raises_genus(self):
        sig = signature([(0, {"a", "b", "c", "d"}, ())])
        r = glue_ns_loop(sig, "a", "b")
        assert r.target == signature([(1, {"c", "d"}, ())])
        assert r.ramond_fiber_rank == 0

    def test_glue_r_spans_factors(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (0, {"b"}, {"s1", "s2"})])
        r = glue_r(sig, "r1", "s1")
        assert r.target == signature([(0, {"a", "b"}, {"r2", "s2"})])
        assert r.ramond_fiber_rank == 1

    def test_wrong_color_rejected(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (0, {"b", "c", "d"}, ())])
        with pytest.raises(ValidationError, match="wrong color"):
            glue_r(sig, "a", "b")

    def test_edge_loop_dispatch_guards(self):
        sig = signature([(0, {"a", "b", "c", "d"}, ()), (1, {"e"}, ())])
        with pytest.raises(ValidationError, match="loop gluing"):
            glue_ns(sig, "a", "b")
        with pytest.raises(ValidationError, match="edge gluing"):
            glue_ns_loop(sig, "a", "e")

    def test_tied_factors_keep_the_gluing_order(self):
        # the merged factor goes last and the looped one keeps its slot,
        # before the stable sort: each ties with a bare genus-2 factor
        edge = glue_ns(signature([(1, ["a"], []), (1, ["b"], []), (2, [], [])]), "a", "b")
        assert edge.assignment == (1, 1, 0)
        loop = glue_ns_loop(signature([(1, ["a", "b"], []), (2, [], [])]), "a", "b")
        assert loop.assignment == (0, 1)

    def test_identity_renaming_is_identity_recipe(self):
        sig = signature([(0, {"a", "b"}, {"r1", "r2"})])
        r = relabel_recipe(sig, {l: l for l in sig.labels})
        assert r == identity_recipe(sig)

    def test_relabel_then_glue_commutes(self):
        sig = signature([(0, {"a", "b", "c"}, ()), (1, {"d"}, ())])
        full = {l: l + "z" for l in sig.labels}
        glue_first = glue_ns(sig, "a", "d")
        survivors = {l: full[l] for l in glue_first.target.labels}
        left = recipe_compose(
            glue_first, relabel_recipe(glue_first.target, survivors)
        )
        renamed = relabel_recipe(sig, full)
        right = recipe_compose(renamed, glue_ns(renamed.target, "az", "dz"))
        assert left.target == right.target
        assert left.assignment == right.assignment
        assert left.ns_gluings == right.ns_gluings
        assert left.relabeling == right.relabeling


    @pytest.mark.parametrize("gen", [glue_ns, glue_r, glue_ns_loop, glue_r_loop])
    def test_labels_checked_up_front(self, gen):
        sig = signature(
            [(0, {"a", "b", "c"}, {"r1", "r2"}), (0, {"d", "e"}, {"s1", "s2"})]
        )
        mine, other = ("a", "r1") if gen in (glue_ns, glue_ns_loop) else ("r1", "a")
        for a, b, words in (
            (mine, "nope", "unknown label 'nope'"),
            ("nope", mine, "unknown label 'nope'"),
            (mine, mine, "degenerate"),
            (mine, other, "wrong color"),
            (other, mine, "wrong color"),
        ):
            with pytest.raises(ValidationError, match=words):
                gen(sig, a, b)

    def test_non_injective_renaming_rejected(self):
        sig = signature([(0, {"a", "b", "c"}, ())])
        with pytest.raises(ValidationError, match="not injective"):
            relabel_recipe(sig, {"a": "x", "b": "x", "c": "y"})

    def test_generators_build_without_validating(self, monkeypatch):
        calls = []
        real = susykit.operad.validate_recipe

        def counting(r):
            calls.append(r)
            return real(r)

        monkeypatch.setattr(susykit.operad, "validate_recipe", counting)
        outputs = random_generator_outputs(random.Random(3), 50)
        assert len(outputs) > 100
        assert calls == []

    def test_generator_outputs_are_valid(self):
        outputs = random_generator_outputs(random.Random(7), 200)
        kinds = {
            (
                len(r.ns_gluings),
                len(r.r_gluings),
                len(r.target.factors) - len(r.source.factors),
            )
            for r in outputs
        }
        # identity/relabel, NS and R edge gluings, NS and R loop gluings
        assert kinds == {(0, 0, 0), (1, 0, -1), (0, 1, -1), (1, 0, 0), (0, 1, 0)}
        for r in outputs:
            assert validate_recipe(r).ok, validate_recipe(r).violations


def random_generator_outputs(rng, count):
    """Identity, relabeling and gluing recipes on ``count`` random
    signatures, each gluing two random same-colour labels."""
    out = []
    for _ in range(count):
        factors = []
        serial = 0
        for _ in range(rng.randint(1, 3)):
            ns = [f"n{serial + i}" for i in range(rng.randint(0, 3))]
            serial += len(ns)
            rs = [f"r{serial + i}" for i in range(2 * rng.randint(0, 2))]
            serial += len(rs)
            genus = rng.randint(0, 2)
            if 2 * genus - 2 + len(ns) + len(rs) <= 0:
                genus = 2
            factors.append((genus, ns, rs))
        sig = signature(factors)
        names = sorted(sig.labels)
        out.append(identity_recipe(sig))
        renamed = rng.sample([l + "z" for l in names], len(names))
        out.append(relabel_recipe(sig, dict(zip(names, renamed))))
        for color, edge, loop in (
            (NS, glue_ns, glue_ns_loop),
            (R, glue_r, glue_r_loop),
        ):
            same = [l for l in names if sig.color_of(l) == color]
            if len(same) >= 2:
                a, b = rng.sample(same, 2)
                gen = loop if sig.factor_of(a) == sig.factor_of(b) else edge
                out.append(gen(sig, a, b))
    return out


class TestAxiomChecker:
    def test_families_pass(self):
        rep = check_operad_axioms(seed=7, cases=25)
        assert rep.passed
        assert set(rep.checked) == {
            "relabel_compose",
            "relabel_loop",
            "relabel_edge",
            "loops_commute",
            "loop_edge",
            "edges_commute",
        }
        assert all(n == 25 for n in rep.checked.values())

    def test_zero_cases(self):
        rep = check_operad_axioms(seed=1, cases=0)
        assert rep.passed
        assert all(n == 0 for n in rep.checked.values())
        assert rep.failures == ()

    @pytest.mark.parametrize("cases", ["3", -1, 2.0, True])
    def test_cases_must_be_a_non_negative_int(self, cases):
        # a string once raised TypeError, and -1 passed after checking nothing
        with pytest.raises(ValidationError, match="cases must be a non-negative integer"):
            check_operad_axioms(cases=cases)

    def test_seed_determinism(self):
        a = check_operad_axioms(seed=42, cases=10)
        b = check_operad_axioms(seed=42, cases=10)
        assert a == b

    def test_composites_build_without_validating(self, monkeypatch):
        composites, calls = capture_composites(monkeypatch)
        assert check_operad_axioms(seed=1, cases=200).passed
        assert len(composites) == 2200
        assert calls == []

    def test_composites_are_valid(self, monkeypatch):
        # a composite of two valid recipes is valid by construction
        composites, _ = capture_composites(monkeypatch)
        assert check_operad_axioms(seed=5, cases=50).passed
        rng = random.Random(11)
        for _ in range(100):
            h, f = random_composable_pair(rng, random_susy_graph(rng))
            susykit.operad.recipe_compose(evaluate_operad(h), evaluate_operad(f))
        assert len(composites) == 650
        assert any(r.r_gluings for r in composites)
        for r in composites:
            assert validate_recipe(r).ok, validate_recipe(r).violations


def capture_composites(monkeypatch):
    """Wrap ``recipe_compose`` to keep every composite it returns, and
    ``validate_recipe`` to keep every recipe it checks while a composite is
    being built."""
    composites, calls, inside = [], [], []
    validate = susykit.operad.validate_recipe
    compose_recipes = susykit.operad.recipe_compose

    def validating(r):
        if inside:
            calls.append(r)
        return validate(r)

    def composing(first, second):
        inside.append(True)
        try:
            out = compose_recipes(first, second)
        finally:
            inside.pop()
        composites.append(out)
        return out

    monkeypatch.setattr(susykit.operad, "validate_recipe", validating)
    monkeypatch.setattr(susykit.operad, "recipe_compose", composing)
    return composites, calls


class TestEvaluate:
    def test_total_grafting_is_identity_recipe(self):
        g = two_corolla_graph()
        r = evaluate_operad(total_grafting(g))
        assert r == identity_recipe(r.source)

    def test_ns_contraction_matches_generator(self):
        g = two_corolla_graph()
        r = evaluate_operad(contract_pair(g, ("f", "fp")))
        sig = signature(
            [(0, {"1", "2", "f"}, ()), (0, {"fp", "3"}, {"4", "5"})]
        )
        assert r == glue_ns(sig, "f", "fp")

    def test_r_contraction_carries_rank(self):
        g = triple_edge_graph()
        r = evaluate_operad(contract_pair(g, ("p1", "p2")))
        assert r.r_gluings == (("p1", "p2"),)
        assert r.ramond_fiber_rank == 1
        assert len(r.target.factors) == 1
        assert r.target.factors[0].genus == 0

    def test_loop_contraction_matches_loop_generator(self):
        flags = ["t1", "t2", "l1", "l2"]
        g = susy_graph(
            flags=flags,
            vertices=["v"],
            boundary={x: "v" for x in flags},
            involution={"t1": "t1", "t2": "t2", "l1": "l2", "l2": "l1"},
            genus={"v": 0},
            color={x: NS for x in flags},
            ns_labels={"t1": "t1", "t2": "t2"},
            r_labels={},
        )
        r = evaluate_operad(contract_pair(g, ("l1", "l2")))
        sig = signature([(0, {"t1", "t2", "l1", "l2"}, ())])
        assert r == glue_ns_loop(sig, "l1", "l2")

    def test_full_contraction_single_factor(self):
        g = triple_edge_graph()
        h = full_contraction(g)
        r = evaluate_operad(h)
        assert len(r.target.factors) == 1
        top = r.target.factors[0]
        assert top.genus == genus(g) == 2
        assert top.ns_labels == frozenset({"t", "s"})
        assert top.r_labels == frozenset()
        assert r.ramond_fiber_rank == 2
        assert len(r.ns_gluings) == 1

    def test_functoriality_on_chain(self):
        g = triple_edge_graph()
        h1 = contract_pair(g, ("n1", "n2"))
        h2 = contract_pair(h1.target, ("p1", "p2"))
        both = compose(h1, h2)
        assert evaluate_operad(both) == recipe_compose(
            evaluate_operad(h1), evaluate_operad(h2)
        )

    def test_functoriality_random(self, rng):
        for _ in range(25):
            g = random_susy_graph(rng)
            h1 = random_morphism(rng, g, max_steps=2)
            h2 = random_morphism(rng, h1.target, max_steps=2)
            both = compose(h1, h2)
            first, second, whole = map(evaluate_operad, (h1, h2, both))
            # evaluation does not check its recipes: each is valid anyway
            for r in (first, second, whole):
                assert validate_recipe(r).ok, validate_recipe(r).violations
            assert whole == recipe_compose(first, second)

    def test_signatures_built_once_each(self, monkeypatch):
        # each graph builds its signature once, on the first evaluation that
        # reads it, and a stable graph's signature is valid by construction,
        # so it is built unchecked
        calls = {"_fresh_signature": 0, "validate_signature": 0}

        def counting(name):
            real = getattr(susykit.operad, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(susykit.operad, name, counting(name))

        def counts():
            return calls["_fresh_signature"], calls["validate_signature"]

        g = triple_edge_graph()
        h1 = contract_pair(g, ("n1", "n2"))
        h2 = contract_pair(h1.target, ("p1", "p2"))
        r1 = evaluate_operad(h1)
        assert counts() == (2, 0)
        assert evaluate_operad(h1) == r1
        assert counts() == (2, 0)
        # h2.source is h1.target, whose signature is already built
        r2 = evaluate_operad(h2)
        assert counts() == (3, 0)
        assert r2.source is r1.target
        recipe_compose(r1, r2)
        assert counts() == (3, 0)

    def test_an_unstable_graph_has_no_signature(self):
        g = star(0, 2)
        with pytest.raises(ValidationError, match=r"unstable vertices \['v'\]"):
            g.signature

    def test_recipe_corpus_is_pinned(self):
        rows = []
        for seed in range(200):
            rng = random.Random(seed)
            g = random_susy_graph(
                rng, max_vertices=4, max_genus=2, max_extra_edges=2
            )
            h, f = random_composable_pair(rng, g)
            eh, ef = evaluate_operad(h), evaluate_operad(f)
            for x in (
                eh,
                ef,
                evaluate_operad(compose(h, f)),
                recipe_compose(eh, ef),
                project(eh),
            ):
                rows.append(recipe_to_json(x))
        assert (
            hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
            == "8541a0104d7211ac7bbb32bfb645b6693d459ab95ac8c73ed44c67996622525d"
        )

    def test_unstable_graph_rejected(self):
        g = star(0, 2)
        with pytest.raises(ValidationError, match="stable"):
            evaluate_operad(total_grafting(g))


def fresh_copy(g):
    """A graph equal to ``g`` built anew, so nothing derived is cached."""
    return SusyGraph(replace(g.graph), replace(g.labeling), g.modular)


class TestCachedDerivedValues:
    def test_cached_signature_and_stability_match_a_fresh_graph(self):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_susy_graph(
                rng, max_vertices=4, max_genus=2, max_extra_edges=2
            )
            h, f = random_composable_pair(rng, g)
            for m in (h, f, compose(h, f)):
                evaluate_operad(m)
            for x in (h.source, h.target, f.target):
                fresh = fresh_copy(x)
                assert fresh == x and "signature" not in vars(fresh)
                assert x.signature == _graph_signature(fresh), seed
                assert x.stability == is_stable(fresh), seed

    def test_contracted_pairs_is_a_fresh_list(self):
        h = contract_pair(triple_edge_graph(), ("n1", "n2"))
        pairs = h.contracted_pairs()
        assert pairs == [("n1", "n2")]
        pairs.append(("p1", "p2"))
        pairs[0] = ("x", "y")
        assert h.contracted_pairs() == [("n1", "n2")]
        assert h.map.orbits == (("n1", "n2"),)

    @pytest.mark.parametrize("modular", [False, True])
    def test_graph_signature_is_the_signature_of_its_vertices(self, modular):
        # two bare genus-2 vertices have equal factors
        tails = {"t0": "m", "t1": "m", "t2": "m"}
        tied = susy_graph(
            tails, ["x2", "m", "x1"], tails, {f: f for f in tails},
            {"x1": 2, "m": 0, "x2": 2}, color=dict.fromkeys(tails, NS),
        )
        graphs = [tied]
        for seed in range(100):
            rng = random.Random(seed)
            graphs.append(
                random_susy_graph(rng, max_vertices=5, max_genus=2, max_extra_edges=2)
            )
        for g in graphs:
            g = forget(g) if modular else g
            verts = sorted(g.vertices)
            factor = {
                v: ModuliFactor(
                    g.genus_of(v),
                    {f for f in flags_at(g.graph, v) if g.color_of(f) == NS},
                    {f for f in flags_at(g.graph, v) if g.color_of(f) == R},
                )
                for v in verts
            }
            sig, position = _graph_signature(g)
            assert sig == signature(factor.values(), "classical" if modular else "super")
            # each vertex sits at its factor, equal factors in name order
            order = sorted(verts, key=lambda v: sig.factors.index(factor[v]))
            assert list(position) == verts
            assert position == {v: order.index(v) for v in verts}

    def test_replace_builds_its_own_signature(self):
        m = star(0, 4, modular=True)
        sig, _ = m.signature
        assert sig.mode == "classical"
        g = replace(m, modular=False)
        assert g.signature[0].mode == "super"
        assert include(m).signature[0].mode == "super"
        assert m.signature[0] is sig


class TestProjection:
    def test_project_signature(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (1, {"b"}, ())])
        p = project(sig)
        assert p.mode == "classical"
        assert p.labels == sig.labels
        assert all(not f.r_labels for f in p.factors)
        assert sorted(f.genus for f in p.factors) == [0, 1]

    def test_project_identity(self):
        sig = signature([(0, {"a"}, {"r1", "r2"})])
        assert project(identity_recipe(sig)) == identity_recipe(project(sig))

    def test_project_turns_r_gluings_ns(self):
        sig = signature([(0, {"a"}, {"r1", "r2"}), (1, {"b"}, ())])
        r = glue_r_loop(sig, "r1", "r2")
        p = project(r)
        assert p.r_gluings == ()
        assert p.ns_gluings == (("r1", "r2"),)
        assert p.ramond_fiber_rank == 0
        assert p == glue_ns_loop(project(sig), "r1", "r2")

    def test_project_rejects_other_types(self):
        # once its own TypeError
        with pytest.raises(ValidationError, match="cannot project int"):
            project(42)

    def test_projection_square_fixed(self):
        g = triple_edge_graph()
        h = contract_pair(g, ("q1", "q2"))
        assert project(evaluate_operad(h)) == evaluate_operad(forget(h))

    def test_projection_square_random(self, rng):
        for _ in range(25):
            g = random_susy_graph(rng)
            h = random_morphism(rng, g, max_steps=3)
            assert project(evaluate_operad(h)) == evaluate_operad(forget(h))


class TestDimensions:
    def test_four_ns_corolla(self):
        dim = stratum_dimension(star(0, 4))
        assert dim.even == 1
        assert dim.odd == 2
        assert dim.codimension == (0, 0)

    def test_trivalent_ns_edge(self):
        flags = ["a0", "a1", "ea", "eb", "b0", "b1"]
        g = susy_graph(
            flags=flags,
            vertices=["u", "w"],
            boundary={"a0": "u", "a1": "u", "ea": "u",
                      "b0": "w", "b1": "w", "eb": "w"},
            involution={"a0": "a0", "a1": "a1", "b0": "b0", "b1": "b1",
                        "ea": "eb", "eb": "ea"},
            genus={"u": 0, "w": 0},
            color={x: NS for x in flags},
            ns_labels={x: x for x in ("a0", "a1", "b0", "b1")},
            r_labels={},
        )
        dim = stratum_dimension(g)
        assert dim.even == 0
        assert dim.odd == 2
        assert dim.codimension == (1, 0)

    def test_mixed_corolla(self):
        dim = stratum_dimension(star(0, 2, 2))
        assert dim.even == 1
        assert dim.odd == 1

    def test_odd_is_an_int(self):
        dim = stratum_dimension(star(1, 1, 2))
        assert type(dim.odd) is int
        assert dim.odd == 2 * 1 - 2 + 1 + Fraction(2, 2)

    def test_codimension_counts_edges(self):
        g = triple_edge_graph()
        dim = stratum_dimension(g)
        assert dim.codimension == (3, 0)
        assert dim.even == 3 * 2 - 3 + 2 - 3
        assert dim.odd == 2 * 2 - 2 + 2

    def test_disconnected_rejected(self):
        g = disjoint_union(star(1, 1, 0, vid="v"), star(1, 1, 0, vid="w"))
        with pytest.raises(ValidationError, match="connected"):
            stratum_dimension(g)

    def test_unstable_rejected(self):
        with pytest.raises(ValidationError, match="stable"):
            stratum_dimension(star(0, 2))

    def test_random_graphs_sum_local_dimensions(self, rng):
        seen = 0
        while seen < 30:
            g = random_susy_graph(rng)
            if not is_stable(g).stable:
                continue
            try:
                dim = stratum_dimension(g)
            except ValidationError:
                continue
            seen += 1
            assert (dim.even, dim.odd) == local_dimension(g)
            assert dim.codimension == (len(edges(g.graph)), 0)


@pytest.mark.parametrize(
    "g, ns, r, chains",
    [
        (3, [], [], 2130),
        (1, ["1"], ["2", "3"], 102),
        (2, [], [], 40),
        (0, ["1", "2", "3"], ["4", "5"], 30),
    ],
)
def test_evaluation_is_functorial_on_every_contraction_chain(g, ns, r, chains):
    # every chain S -> S/e -> S/e/f of two single contractions, over every
    # stratum of the enumeration
    seen, mismatches = 0, []
    for s in enumerate_strata(g, ns, r):
        for e in edges(s.graph):
            h1 = contract_pair(s, e)
            first = evaluate_operad(h1)
            for f in edges(h1.target.graph):
                h2 = contract_pair(h1.target, f)
                seen += 1
                if evaluate_operad(compose(h1, h2)) != recipe_compose(
                    first, evaluate_operad(h2)
                ):
                    mismatches.append((s, e, f))
    assert (seen, mismatches) == (chains, [])


def test_evaluate_composite_equals_composed_recipes_many(rng):
    for _ in range(30):
        g = random_susy_graph(rng)
        h, f = random_composable_pair(rng, g)
        lhs = evaluate_operad(compose(h, f))
        rhs = recipe_compose(evaluate_operad(h), evaluate_operad(f))
        assert lhs == rhs
