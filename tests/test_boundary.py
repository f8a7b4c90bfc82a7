"""Morphisms are checked once, at the public entries of evaluation and the
surgery calculus and in ``susykit evaluate``, and a malformed morphism
raises only ValidationError; a morphism that the calculus built skips the
checks of its maps, which hold by construction.  Each calculus entry that
takes a graph checks it before reading it, so an invalid SUSY graph raises
ValidationError when the entry is called.  A public entry given
something that is not a SUSY graph, a morphism, a graph, a signature, a
gluing recipe, a renaming, a label, a curve, a label iterable, a label
count or the records of an enumeration raises only a SusyKitError."""

import random
import sys
from dataclasses import replace

import pytest

import susykit.graphs
import susykit.operad
import susykit.susy
from susykit import (
    NS,
    R,
    GluingRecipe,
    Graph,
    ModuliFactor,
    SusyGraph,
    SusyKitError,
    SusyLabeling,
    SusyMorphism,
    ModuliSignature,
    ValidationError,
    are_isomorphic,
    automorphisms,
    canonical_form,
    check_operad_axioms,
    classify,
    commute_contractions,
    compose,
    compose_chain,
    contract_edge,
    contract_loop,
    contract_pair,
    contract_tails,
    count_even_partitions,
    count_lifts,
    decompose_to_elementaries,
    disjoint_union,
    dual_graph,
    edges,
    enumerate_edge_colorings,
    enumerate_modular_shapes,
    enumerate_strata,
    enumerate_strata_records,
    evaluate_operad,
    flags_at,
    forget,
    genus,
    glue_ns,
    graft,
    iso_between,
    identity_recipe,
    include,
    is_stable,
    lift_count_general,
    lift_tree_coloring,
    make_isomorphism,
    modular_graph,
    project,
    recipe,
    recipe_compose,
    relabel_recipe,
    signature,
    stratum_dimension,
    strata_poset,
    susy_graph,
    susy_identity,
    susy_morphism,
    tails,
    total_grafting,
    validate_curve_config,
    validate_recipe,
    validate_signature,
    validate_susy_morphism,
)
from susykit.calculus import atomize
from susykit.cli import main
from susykit.graphs import GraphMorphism, validate_graph, validate_morphism
from susykit.jsonio import dumps, morphism_to_json

from conftest import star
from sampling import random_morphism, random_susy_graph


def path_graph():
    """Three genus-0 vertices in a row, joined by an NS and an R edge."""
    boundary = {"a0": "u", "a1": "u", "p": "u", "q": "v", "r": "v"}
    boundary |= {"b0": "w", "b1": "w", "s": "w", "c0": "v"}
    involution = {f: f for f in ("a0", "a1", "b0", "b1", "c0")}
    involution |= {"p": "q", "q": "p", "r": "s", "s": "r"}
    r_flags = {"b1", "c0", "r", "s"}
    return susy_graph(
        flags=boundary,
        vertices=["u", "v", "w"],
        boundary=boundary,
        involution=involution,
        genus={"u": 0, "v": 0, "w": 0},
        color={f: R if f in r_flags else NS for f in boundary},
    )


def contraction_chain():
    first = contract_pair(path_graph(), ("p", "q"))
    return compose(first, contract_pair(first.target, ("r", "s")))


def virtual_contraction():
    return contract_tails(star(0, 4), ("vn0", "vn1"))


def count_calls(monkeypatch, fn):
    """Count calls to ``fn`` through every susykit module that holds it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("susykit") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("build", [contraction_chain, virtual_contraction])
def test_each_entry_checks_its_morphism_once(monkeypatch, build):
    h = build()
    morphisms = count_calls(monkeypatch, susykit.susy.validate_susy_morphism)
    graphs = count_calls(monkeypatch, susykit.graphs.validate_graph)
    recipes = count_calls(monkeypatch, susykit.operad.validate_recipe)
    for entry in (
        evaluate_operad,
        decompose_to_elementaries,
        atomize,
        susykit.susy.validate_susy_morphism,
    ):
        for calls in (morphisms, graphs, recipes):
            calls.clear()
        entry(h)
        # one morphism check, whose endpoint graphs are checked once each
        assert (len(morphisms), len(graphs), len(recipes)) == (1, 2, 0), entry


def evaluate_document(tmp_path, capsys, h):
    """Run ``susykit evaluate`` on a document of ``h``."""
    path = tmp_path / "m.json"
    path.write_text(dumps(morphism_to_json(h)), encoding="utf-8")
    rc = main(["evaluate", str(path)])
    return rc, capsys.readouterr().err


def test_cli_evaluate_checks_its_morphism_once(monkeypatch, tmp_path, capsys):
    morphisms = count_calls(monkeypatch, susykit.susy.validate_susy_morphism)
    graphs = count_calls(monkeypatch, susykit.susy.validate_susy_graph)
    rc, _ = evaluate_document(tmp_path, capsys, contraction_chain())
    assert rc == 0
    # the loader checks both endpoint documents, then the morphism
    assert (len(morphisms), len(graphs)) == (1, 4)


def test_cli_evaluate_refuses_an_unstable_morphism(tmp_path, capsys):
    rc, err = evaluate_document(tmp_path, capsys, susy_identity(star(0, 2)))
    assert rc == 1
    assert err == "error: evaluation needs a stable source graph\n"


def _drop_vertex(m):
    vertex_map = dict(m.vertex_map)
    del vertex_map[min(vertex_map)]
    return replace(m, vertex_map=vertex_map)


def _unknown_flag_image(m):
    return replace(m, flag_map={**m.flag_map, min(m.flag_map): "zz"})


def _unknown_contracted_pair(m):
    return replace(m, contracted={**m.contracted, "x": "y", "y": "x"})


def _drop_contracted(m):
    contracted = dict(m.contracted)
    del contracted[min(contracted)]
    return replace(m, contracted=contracted)


BASES = {
    "contract_pair": lambda: contract_pair(path_graph(), ("r", "s")),
    "graft": lambda: graft(star(0, 4), [("vn0", "vn1")]),
    "contract_tails": virtual_contraction,
}
MUTATIONS = {
    "drop_vertex": _drop_vertex,
    "unknown_flag_image": _unknown_flag_image,
    "unknown_contracted_pair": _unknown_contracted_pair,
    "drop_contracted": _drop_contracted,
}
# a grafting contracts nothing, so it has no contracted entry to drop
CASES = [
    (base, mutation)
    for base in BASES
    for mutation in MUTATIONS
    if (base, mutation) != ("graft", "drop_contracted")
]


@pytest.mark.parametrize("base, mutation", CASES)
def test_malformed_morphism_raises_validation_error(base, mutation):
    h = BASES[base]()
    assert validate_susy_morphism(h).ok
    bad = SusyMorphism(h.source, h.target, MUTATIONS[mutation](h.map))
    assert not validate_susy_morphism(bad).ok
    for entry in (evaluate_operad, classify, decompose_to_elementaries, atomize):
        with pytest.raises(ValidationError, match="invalid morphism"):
            entry(bad)


def whole_chain():
    h = contraction_chain()
    return compose(h, contract_pair(h.target, ("c0", "b1")))


def axioms_run_on(monkeypatch, whole):
    """The ``_morphism_axioms`` calls on ``whole``'s map while it is
    evaluated and decomposed in both orders."""
    axioms = count_calls(monkeypatch, susykit.graphs._morphism_axioms)
    evaluate_operad(whole)
    for order in ("lex", "reverse"):
        decompose_to_elementaries(whole, order=order)
    return [m for (m,) in axioms if m is whole.map]


def test_whole_runs_its_morphism_axioms_once(monkeypatch):
    # a composite of contractions is valid by construction, so its map
    # checks never run; its endpoints are still checked on every entry
    assert axioms_run_on(monkeypatch, whole_chain()) == []


def test_a_user_built_morphism_runs_its_axioms_once(monkeypatch):
    built = whole_chain()
    whole = susy_morphism(
        built.source, built.target, built.flag_map, built.vertex_map,
        built.contracted_pairs(),
    )
    assert whole == built and "_report" not in vars(whole)
    # the two decompositions read the report kept by the evaluation
    assert axioms_run_on(monkeypatch, whole) == [whole.map]


def _seeded_morphisms():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_susy_graph(rng, max_vertices=4, max_genus=2, max_extra_edges=2)
        yield random_morphism(rng, g)


@pytest.mark.parametrize("base, mutation", [(None, None), *CASES])
def test_kept_report_is_a_fresh_check(base, mutation):
    if base is None:
        morphisms = list(_seeded_morphisms())
    else:
        h = BASES[base]()
        validate_susy_morphism(h)
        morphisms = [SusyMorphism(h.source, h.target, MUTATIONS[mutation](h.map))]
    for m in morphisms:
        first = validate_susy_morphism(m)
        assert validate_susy_morphism(m) is first
        fresh = replace(m)
        assert "_report" not in vars(fresh)
        assert first == susykit.susy._check_maps(fresh)
        assert first.ok == (base is None)


def test_a_shared_map_is_checked_against_its_own_endpoints():
    h = contract_pair(path_graph(), ("p", "q"))
    assert validate_susy_morphism(h).ok
    g = h.source
    all_ns = susy_graph(
        g.flags, g.vertices, g.boundary, g.involution, g.labeling.genus,
        color=dict.fromkeys(g.flags, NS),
    )
    # a valid source on the same graph shares h's map, not h's kept report
    recoloured = SusyMorphism(all_ns, h.target, h.map)
    assert sorted(validate_susy_morphism(recoloured).violations) == [
        f"color not preserved at target flag {f!r}" for f in ("b1", "c0", "r", "s")
    ]
    genus = {**g.labeling.genus, "u": 1}
    regenused = replace(h, source=replace(g, labeling=replace(g.labeling, genus=genus)))
    assert validate_susy_morphism(regenused).violations == (
        "genus at 'u*v' should be 1, found 0",
    )


@pytest.mark.parametrize(
    "fn, args",
    [
        (canonical_form, (5,)),
        (are_isomorphic, (1, 2)),
        (automorphisms, (5,)),
        (count_lifts, ("a",)),
        (stratum_dimension, (5,)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_a_non_graph_raises_only_a_susykit_error(fn, args):
    # each once raised AttributeError: 'int' object has no attribute 'graph'
    with pytest.raises(SusyKitError, match="expected a SusyGraph"):
        fn(*args)


@pytest.mark.parametrize(
    "fn", [evaluate_operad, classify, decompose_to_elementaries, atomize],
    ids=lambda fn: fn.__name__,
)
def test_a_non_morphism_raises_only_a_validation_error(fn):
    # each once raised AttributeError: 'int' object has no attribute 'source'
    with pytest.raises(ValidationError, match="expected a SusyMorphism, got int"):
        fn(5)


def test_a_non_morphism_is_reported():
    assert validate_susy_morphism(5).violations == ("expected a SusyMorphism, got int",)


def test_a_non_graph_is_reported_by_the_graph_check():
    # validate_graph(5) once raised AttributeError from ``g.report``
    assert validate_graph(5).violations == ("expected a Graph, got int",)
    h = GraphMorphism(5, star(0).graph, {}, {}, {})
    assert validate_morphism(h).violations == ("source graph: expected a Graph, got int",)
    no_graph = SusyGraph(5, star(0).labeling)
    with pytest.raises(ValidationError, match="expected a Graph, got int"):
        canonical_form(no_graph)


@pytest.mark.parametrize(
    "fn, arg, message",
    [(project, 5, "cannot project int"), (signature, 5, "5 is not a list of factors")],
    ids=["project", "signature"],
)
def test_a_non_signature_raises_only_a_validation_error(fn, arg, message):
    # project(5) once raised its own TypeError, and signature(5) a TypeError
    # that 'int' object is not iterable
    with pytest.raises(ValidationError, match=message):
        fn(arg)


SIG = signature([(0, ["a", "b", "c"], []), (0, ["d", "e", "f"], [])])
TREE = star(0, 3, modular=True)
LABELS = sorted(TREE.labeling.ns_tail_labels)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (compose, (5, 5), "compose expects two morphisms of the same kind"),
        (validate_morphism, (5,), "invalid argument: expected a GraphMorphism, got int"),
        (genus, (5,), "invalid SUSY graph: expected a SusyGraph, got int"),
        (is_stable, (5,), "invalid SUSY graph: expected a SusyGraph, got int"),
        (genus, (SusyGraph(5, star(0).labeling),), "expected a Graph, got int"),
        (enumerate_strata_records, (0, 7, 0), "must be an iterable of strings, got int"),
        (enumerate_strata, (0, 5, []), "must be an iterable of strings, got int"),
        (enumerate_modular_shapes, (0, 5), "must be an iterable of strings, got int"),
        (strata_poset, ([1],), "takes the records of enumerate_strata_records"),
        (strata_poset, (5,), "takes the records of enumerate_strata_records"),
        (dual_graph, (5,), "invalid curve configuration: expected a CurveConfig, got int"),
        (validate_curve_config, (5,), "invalid argument: expected a CurveConfig, got int"),
        (identity_recipe, (5,), "expected a ModuliSignature, got int"),
        (recipe_compose, (5, 5), "recipe_compose expects two gluing recipes"),
        (relabel_recipe, (5, {}), "expected a ModuliSignature, got int"),
        (relabel_recipe, (SIG, 5), "renaming must map exactly the signature labels"),
        (glue_ns, (5, "a", "d"), "expected a ModuliSignature, got int"),
        (glue_ns, (SIG, "a", ["d"]), r"gluing \('a', \['d'\]\) is not a pair of labels"),
        (validate_signature, (5,), "invalid argument: expected a ModuliSignature, got int"),
        (validate_recipe, (5,), "invalid argument: expected a GluingRecipe, got int"),
        (lift_count_general, (TREE, 5, []), "must be an iterable of strings, got int"),
        (enumerate_edge_colorings, (TREE, LABELS, 5), "must be an iterable of strings, got int"),
        (lift_tree_coloring, (TREE, None, []), "must be an iterable of strings, got NoneType"),
        (count_even_partitions, ("x",), "label count must be a non-negative integer"),
        (count_even_partitions, (True,), "label count must be a non-negative integer"),
        (graft, (5, []), "invalid SUSY graph: expected a SusyGraph, got int"),
        (total_grafting, (5,), "invalid SUSY graph: expected a SusyGraph, got int"),
        (make_isomorphism, (5,), "invalid SUSY graph: expected a SusyGraph, got int"),
        (susy_identity, (5,), "invalid SUSY graph: expected a SusyGraph, got int"),
        (compose_chain, (5, []), "invalid SUSY graph: expected a SusyGraph, got int"),
        (contract_pair, (5, ("a", "b")), "invalid SUSY graph: expected a SusyGraph, got int"),
        (tails, (5,), "expected a Graph, got int"),
        (edges, (5,), "expected a Graph, got int"),
        (flags_at, (5, "v"), "expected a Graph, got int"),
        (forget, (5,), "expected a SusyGraph, got int"),
        (include, (5,), "expected a SusyGraph, got int"),
        (disjoint_union, (5, 5), "expected a SusyGraph, got int"),
        (disjoint_union, (TREE, 5), "expected a SusyGraph, got int"),
        (commute_contractions, (TREE, 5, 5), "contract: 5 is not a pair of flags"),
        (check_operad_axioms, ([1],), r"seed must be an integer, got \[1\]"),
        (susy_morphism, (5, 5, {}, {}), "expected a SusyGraph, got int"),
        (iso_between, (5, 5, {}, {}), "expected a SusyGraph, got int"),
        (recipe, ([1], [1], [1]), "expected a ModuliSignature, got list"),
        (ModuliSignature, ([(0, ["a"], [])],), "factor 0: expected a ModuliFactor, got tuple"),
        (validate_recipe, (GluingRecipe(5, 5, [], (), (), {}),), "expected a ModuliSignature"),
        (Graph, (5, 5, 5, 5), "invalid flags: 'int' object is not iterable"),
        (Graph, ([], [], [1], {}), "invalid boundary: cannot convert"),
        (SusyLabeling, (5, 5, 5, 5), "invalid genus: 'int' object is not iterable"),
        (GraphMorphism, (None, None, 5, 5, 5), "invalid flag_map: 'int' object is not"),
        (GluingRecipe, (None, None, 5, 5, 5, 5), "invalid assignment: 'int' object is not"),
        (GluingRecipe, (None, None, [], [(1, "a")], [], {}), "invalid ns_gluings: '<' not"),
        (ModuliFactor, (0, 5, 5), "invalid ns_labels: 'int' object is not iterable"),
        (susy_graph, (5, 5, 5, 5, 5, 5), "invalid flags: 'int' object is not iterable"),
        (susy_graph, ([], [], {}, {}, {}, 5), "invalid color: 'int' object is not iterable"),
        (modular_graph, (5, 5, 5, 5, 5), "invalid flags: 'int' object is not iterable"),
        (modular_graph, ([], [], {}, {}, 5), "invalid genus: 'int' object is not iterable"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_a_malformed_argument_raises_only_a_susykit_error(fn, args, message):
    # compose(5, 5) once raised its own TypeError, the three enumerations and
    # strata_poset(5) a TypeError that 'int' object is not iterable, and the
    # others an AttributeError; of the later rows, the operad's entries and
    # the lifts raised TypeError or AttributeError, and count_even_partitions
    # a TypeError for "x" and a count for True; the calculus's graph entries,
    # the graph readers, forget, include and disjoint_union raised
    # AttributeError, commute_contractions and check_operad_axioms a
    # TypeError; susy_morphism and iso_between, recipe and a signature with
    # a plain tuple for a factor raised AttributeError; validate_recipe of a
    # recipe between non-signatures raised AttributeError, and the value
    # constructors and graph builders given a field that makes no set, dict
    # or tuple raised TypeError; a check that returns a report is asked to
    # raise it
    with pytest.raises(SusyKitError, match=message) as caught:
        report = fn(*args)
        report.raise_if_invalid("argument")
    assert type(caught.value) is ValidationError


def recoloured_path():
    """``path_graph`` with the NS edge's flag ``p`` coloured R, so colours
    disagree across that edge and ``u`` sees an odd number of R flags."""
    g = path_graph()
    return replace(g, labeling=replace(g.labeling, color={**g.labeling.color, "p": R}))


@pytest.mark.parametrize(
    "entry, args",
    [
        (graft, ([("a0", "a1")],)),
        (contract_pair, (("p", "q"),)),
        (contract_edge, (("p", "q"),)),
        (contract_loop, (("p", "q"),)),
        (contract_tails, (("a0", "a1"),)),
        (make_isomorphism, ()),
        (total_grafting, ()),
        (susy_identity, ()),
        (commute_contractions, (("p", "q"), ("r", "s"))),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_an_invalid_source_raises_when_the_entry_is_called(entry, args):
    # each entry once built a morphism whose endpoint check failed later
    # (contract_loop refused the pair as no loop, and commute_contractions
    # compared two such morphisms); the source is now checked first, since
    # the graphs that the calculus builds from it are trusted
    with pytest.raises(ValidationError, match="^invalid SUSY graph: color: edge flags"):
        entry(recoloured_path(), *args)
