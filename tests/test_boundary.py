"""Morphisms are checked once, at the public entries of evaluation and the
surgery calculus and in ``susykit evaluate``, and a malformed morphism
raises only ValidationError; a morphism that the calculus built skips the
checks of its maps, which hold by construction.  Each calculus entry that
takes a graph checks it before reading it, so an invalid SUSY graph raises
ValidationError when the entry is called.  A public entry given
something that is not a SUSY graph, a morphism, a graph, a signature, a
gluing recipe, a renaming, a label, a curve, a label iterable, a label
count or the records of an enumeration raises only a SusyKitError; a
sweep gives every argument of every callable in ``susykit.__all__`` each
of a few wrong values in turn."""

import inspect
import random
import sys
from collections.abc import Iterator
from dataclasses import fields as dataclass_fields, is_dataclass, replace

import pytest

import susykit
import susykit.graphs
import susykit.operad
import susykit.susy
from susykit import (
    NS,
    R,
    Component,
    ContractionPoset,
    CurveConfig,
    GluingRecipe,
    Graph,
    ModuliFactor,
    SusyGraph,
    SusyKitError,
    SusyLabeling,
    SusyMorphism,
    ModuliSignature,
    SpecialPoint,
    ValidationError,
    ValidationReport,
    are_isomorphic,
    automorphisms,
    canonical_form,
    check_operad_axioms,
    classify,
    commute_contractions,
    commute_iso_contraction,
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
    validate_susy_graph,
    validate_susy_morphism,
)
from susykit.calculus import atomize, merged_vertex_id
from susykit.cli import main
from susykit.graphs import (
    GraphMorphism,
    involution_from_pairs,
    validate_graph,
    validate_morphism,
)
from susykit.operad import CLASSICAL
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
# a corolla whose tail labels are single letters, so a string of them
# could pass for its label set
LETTERED = enumerate_modular_shapes(0, ["a", "b", "c"])[0]


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
        (enumerate_strata_records, (0, ["1", "2", "3"], [], -1),
         "max_edges must be a non-negative integer or None, got -1"),
        (enumerate_strata, (0, "1234", []), "must be an iterable of strings, got str"),
        (enumerate_strata_records, (0, ["1", "2"], "34"), "must be an iterable of strings"),
        (enumerate_modular_shapes, (0, "abc"), "must be an iterable of strings, got str"),
        (lift_count_general, (LETTERED, "abc", []), "must be an iterable of strings, got str"),
        (lift_count_general, (LETTERED, ["a", "b", "c"], ""), "must be an iterable of strings"),
        (Graph, ("ab", "v", {"a": "v", "b": "v"}, {"a": "b", "b": "a"}),
         "invalid flags: a string is not a set of names"),
        (Graph, (["a"], "v", {"a": "v"}, {"a": "a"}), "invalid vertices: a string is not a set"),
        (ModuliFactor, (0, "abc", ""), "invalid ns_labels: a string is not a set of names"),
        (ModuliFactor, (0, [], "ab"), "invalid r_labels: a string is not a set of names"),
        (signature, ([(0, "xyz", "")],), "factor 0: expected .* with string labels"),
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
        (graft, (TREE, 5), "invalid pairs: 'int' object is not iterable"),
        (compose_chain, (TREE, 5), "invalid morphisms: 'int' object is not iterable"),
        (susy_morphism, (TREE, TREE, {}, {}, 5), "invalid contracted_pairs: 'int' object"),
        (susy_morphism, (TREE, TREE, {}, {}, "x"), "invalid contracted_pairs: not enough"),
        (make_isomorphism, (TREE, 5), "invalid flag_renaming: 'int' object is not iterable"),
        (make_isomorphism, (TREE, "x"), "invalid flag_renaming: dictionary update"),
        (make_isomorphism, (TREE, {}, {"v": 5}), "onto string names"),
        (make_isomorphism, (TREE, {"zzz": "q"}), "renaming must name only flags and vertices"),
        (make_isomorphism, (TREE, {1: "b"}), "renaming must name only flags and vertices"),
        (make_isomorphism, (TREE, {}, {"zzz": "x"}), "renaming must name only flags and"),
        (commute_iso_contraction, (susy_identity(TREE), 5), "contract: 5 is not a pair"),
        (Component, (5, 5), "invalid special_points: 'int' object is not iterable"),
        (CurveConfig, (5, 5), "invalid components: 'int' object is not iterable"),
        (CurveConfig, ((), [5]), "invalid node_pairing: 'int' object is not iterable"),
        (ModuliSignature, (5,), "invalid factors: 'int' object is not iterable"),
        (GluingRecipe, (None, None, [], 0, 0, {}), "invalid ns_gluings: 'int' object is not"),
        (validate_recipe, (GluingRecipe(SIG, SIG, ["x"], (), (), {}),),
         "assignment must be a sequence of int factor indices"),
        (validate_recipe, (GluingRecipe(SIG, SIG, [0, 1], [("a", "b", "c")], (), {}),),
         r"gluing \('a', 'b', 'c'\) is not a pair of labels"),
        (validate_recipe, (GluingRecipe(SIG, SIG, [0, 1], (), (), {"a": [1]}),),
         "relabeling must map labels to labels"),
        (susykit.graphs.disjoint_union, (5, 5), "expected a Graph, got int"),
        (susykit.graphs.identity_morphism, (5,), "expected a Graph, got int"),
        (susykit.graphs.compose, (5, 5), "expected a GraphMorphism, got int"),
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
    # or tuple raised TypeError; of the last rows, each raised TypeError or
    # ValueError, but GluingRecipe built a recipe with no gluings from a 0;
    # the graph-level union, identity and composite raised AttributeError;
    # make_isomorphism ignored a renaming key that names no flag or vertex,
    # a non-string one too, and returned a morphism; a max_edges of -1 was
    # refused as a limit below the 0 edges needed, not as a negative; a
    # string, where a set of labels or names is taken, was read as the set
    # of its characters; a check that returns a report is asked to raise it
    with pytest.raises(SusyKitError, match=message) as caught:
        report = fn(*args)
        report.raise_if_invalid("argument")
    assert type(caught.value) is ValidationError


def test_a_graph_missing_map_entries_is_read_and_reported():
    # tails and flags_at once raised KeyError: 'x', and so did susy_graph and
    # modular_graph while they picked the default tail labels
    assert tails(Graph(["x"], [], {}, {})) == []
    assert flags_at(Graph(["x"], ["v"], {}, {}), "v") == []
    assert validate_susy_graph(susy_graph(["x"], [], {}, {}, {}, {})).violations == (
        "boundary: domain must be exactly the flag set",
        "involution: domain must be exactly the flag set",
    )
    assert validate_susy_graph(modular_graph([], [], {}, {"k": 5}, {})).violations == (
        "involution: domain must be exactly the flag set",
    )


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


# The sweep over ``susykit.__all__``: one valid call of each public callable,
# then each of its arguments in turn replaced by each wrong value below.
# The table is keyed by callable, then parameter, since a name such as ``g``,
# ``h``, ``genus`` or ``source`` takes a different type in different callables.
G = path_graph()
FIRST = contract_pair(G, ("p", "q"))
SECOND = contract_pair(FIRST.target, ("r", "s"))
H = compose(FIRST, SECOND)
ISO = make_isomorphism(G, {"a0": "z"}, {"u": "x"})
LOOPED = graft(star(0, 4), [("vn0", "vn1")]).target
SIG_R = signature([(0, ["a"], ["r1", "r2"]), (0, ["b"], ["r3", "r4"])])
GLUED = glue_ns(SIG, "a", "d")
POINTS = tuple(SpecialPoint(f"p{i}", NS, "puncture", str(i)) for i in range(3))
CONFIG = CurveConfig((Component(0, POINTS),), ())
RECORDS = enumerate_strata_records(0, ["1", "2", "3", "4"], [], 1)
POSET = strata_poset(RECORDS)


def fields(value, *names):
    return {name: getattr(value, name) for name in names}


def graph_fields(g):
    return fields(g, "flags", "vertices", "boundary", "involution")


VALID_CALLS = {
    "Component": dict(genus=0, special_points=POINTS),
    "ContractionPoset": fields(POSET, "cores", "digests", "ranks", "successors"),
    "CurveConfig": dict(components=CONFIG.components, node_pairing=()),
    "GluingRecipe": fields(
        GLUED, "source", "target", "assignment", "ns_gluings", "r_gluings", "relabeling"
    ),
    "Graph": graph_fields(G),
    "GraphMorphism": fields(H.map, "source", "target", "flag_map", "vertex_map", "contracted"),
    "ModuliFactor": fields(SIG.factors[0], "genus", "ns_labels", "r_labels"),
    "ModuliSignature": fields(SIG, "factors", "mode"),
    "SpecialPoint": fields(POINTS[0], "id", "color", "kind", "label"),
    "SusyGraph": fields(G, "graph", "labeling", "modular"),
    "SusyLabeling": fields(G.labeling, "genus", "color", "ns_tail_labels", "r_tail_labels"),
    "SusyMorphism": fields(H, "source", "target", "map"),
    "ValidationReport": dict(violations=()),
    "are_isomorphic": dict(g1=G, g2=G, labels_fixed=True),
    "atomize": dict(h=H),
    "automorphisms": dict(g=G, labels_fixed=True),
    "canonical_form": dict(g=G),
    "certificate_digest": dict(g=G),
    "check_operad_axioms": dict(seed=0, cases=2),
    "classify": dict(h=H),
    "colorless_dual_graph": dict(c=CONFIG),
    "commute_contractions": dict(g=G, e1=("p", "q"), e2=("r", "s")),
    "commute_iso_contraction": dict(a=ISO, pair=("p", "q")),
    "compose": dict(h=FIRST, f=SECOND),
    "compose_chain": dict(source=G, morphisms=[FIRST, SECOND]),
    "contract_edge": dict(g=G, pair=("p", "q")),
    "contract_loop": dict(g=LOOPED, pair=("vn0", "vn1")),
    "contract_pair": dict(g=G, pair=("r", "s")),
    "contract_tails": dict(g=G, pair=("a0", "a1")),
    "count_even_partitions": dict(k=4),
    "count_lifts": dict(tree=TREE),
    "decompose_to_elementaries": dict(h=H, order="lex"),
    "disjoint_union": dict(g1=G, g2=G),
    "dual_graph": dict(c=CONFIG),
    "edges": dict(g=G.graph),
    "enumerate_edge_colorings": dict(g=TREE, ns_labels=LABELS, r_labels=[]),
    "enumerate_modular_shapes": dict(genus=0, tail_labels=["1", "2", "3", "4"], max_edges=1),
    "enumerate_strata": dict(genus=0, ns_labels=["1", "2", "3", "4"], r_labels=[], max_edges=1),
    "enumerate_strata_records": dict(
        genus=0, ns_labels=["1", "2", "3", "4"], r_labels=[], max_edges=1
    ),
    "evaluate_operad": dict(h=H),
    "flags_at": dict(g=G.graph, v="u"),
    "forget": dict(x=G),
    "genus": dict(g=G),
    "glue_ns": dict(sig=SIG, a="a", b="d"),
    "glue_ns_loop": dict(sig=SIG, a="a", b="b"),
    "glue_r": dict(sig=SIG_R, a="r1", b="r3"),
    "glue_r_loop": dict(sig=SIG_R, a="r1", b="r2"),
    "graft": dict(g=G, pairs=[("a0", "a1")]),
    "identity_recipe": dict(sig=SIG),
    "include": dict(x=forget(G)),
    "is_stable": dict(g=G),
    "iso_between": dict(
        source=G, target=ISO.target, flag_map=ISO.flag_map, vertex_map=ISO.vertex_map
    ),
    "isomorphisms_between": dict(g1=G, g2=G, labels_fixed=True),
    "lift_count_general": dict(g=TREE, ns_labels=LABELS, r_labels=[]),
    "lift_tree_coloring": dict(tree=TREE, ns_labels=LABELS, r_labels=[]),
    "make_isomorphism": dict(g=G, flag_renaming={"a0": "z"}, vertex_renaming={"u": "x"}),
    "modular_graph": dict(
        **graph_fields(TREE), genus=TREE.labeling.genus,
        tail_labels=TREE.labeling.ns_tail_labels,
    ),
    "project": dict(x=SIG),
    "recipe": dict(
        fields(GLUED, "source", "target", "assignment", "ns_gluings", "r_gluings"),
        relabeling=GLUED.relabeling,
    ),
    "recipe_compose": dict(first=GLUED, second=identity_recipe(GLUED.target)),
    "relabel_recipe": dict(sig=SIG, renaming={l: l.upper() for l in SIG.labels}),
    "signature": dict(factors=[(0, ["a", "b", "c"], [])], mode="super"),
    "strata_poset": dict(records=RECORDS),
    "stratum_dimension": dict(g=G),
    "susy_graph": dict(
        **graph_fields(G), genus=G.labeling.genus, color=G.labeling.color,
        ns_labels=G.labeling.ns_tail_labels, r_labels=G.labeling.r_tail_labels,
    ),
    "susy_identity": dict(g=G),
    "susy_morphism": dict(
        **fields(H, "source", "target", "flag_map", "vertex_map"),
        contracted_pairs=H.contracted_pairs(),
    ),
    "tails": dict(g=G.graph),
    "total_grafting": dict(g=G),
    "validate_curve_config": dict(c=CONFIG),
    "validate_graph": dict(g=G.graph),
    "validate_morphism": dict(h=H.map),
    "validate_recipe": dict(r=GLUED),
    "validate_signature": dict(sig=SIG),
    "validate_susy_graph": dict(g=G),
    "validate_susy_morphism": dict(h=H),
}
WRONG_VALUES = [5, None, "x", [1], 2.5, {"k": 5}]
# the one exemption: an unknown vertex is a KeyError, as documented and
# pinned by tests/test_graphs.py::test_flags_at_unknown_vertex
EXEMPT = {("flags_at", "v"): KeyError}
PUBLIC_CALLABLES = sorted(
    name for name in susykit.__all__
    if callable(obj := getattr(susykit, name))
    and not (isinstance(obj, type) and issubclass(obj, SusyKitError))
)


def call(fn, kwargs):
    """``fn(**kwargs)``, run to the end: ``isomorphisms_between`` is lazy."""
    out = fn(**kwargs)
    return list(out) if isinstance(out, Iterator) else out


def test_the_sweep_has_one_valid_call_per_public_callable():
    assert VALID_CALLS.keys() == set(PUBLIC_CALLABLES)
    for name in PUBLIC_CALLABLES:
        params = inspect.signature(getattr(susykit, name)).parameters
        assert VALID_CALLS[name].keys() == params.keys(), name


@pytest.mark.parametrize("name", PUBLIC_CALLABLES)
def test_a_wrong_value_for_any_argument_raises_only_a_susykit_error(name):
    fn, valid = getattr(susykit, name), VALID_CALLS[name]
    call(fn, valid)
    # the other optional arguments keep their defaults, which some callables
    # fill from the wrong value (susy_graph's tail labels from its flags)
    params = inspect.signature(fn).parameters
    required = {k: v for k, v in valid.items() if params[k].default is params[k].empty}
    leaks = []
    for param in valid:
        allowed = (SusyKitError, EXEMPT.get((name, param), SusyKitError))
        for wrong in WRONG_VALUES:
            try:
                call(fn, {**required, param: wrong})
            except allowed:
                pass
            except Exception as exc:
                leaks.append(f"{param}={wrong!r}: {type(exc).__name__}: {exc}")
    assert leaks == []


# The nested sweep: each validator, given a valid value with one map value
# or container entry replaced, at any depth, by each wrong value below.
NESTED_WRONG = [5, None, [1]]
NODAL = CurveConfig(
    (
        Component(0, (*POINTS[:2], SpecialPoint("n1", NS, "node-half"))),
        Component(0, (
            SpecialPoint("r1", R, "puncture", "r1"), SpecialPoint("r2", R, "puncture", "r2"),
            SpecialPoint("n2", NS, "node-half"),
        )),
    ),
    (("n1", "n2"),),
)


def entries(value):
    """The named entries of a value type, a map or a container, and the
    builder of a copy from new entries; a set's copy is a list."""
    if is_dataclass(value):
        names = [f.name for f in dataclass_fields(value)]
        return names, [getattr(value, n) for n in names], (
            lambda xs: type(value)(**dict(zip(names, xs)))
        )
    if isinstance(value, dict):
        return list(value), list(value.values()), lambda xs: dict(zip(value, xs))
    if isinstance(value, (tuple, list, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else list(value)
        return list(range(len(items))), items, type(value) if type(value) is tuple else list
    return [], [], None


def nested_copies(value, path=""):
    """``(path, build)`` for each copy of ``value`` with one entry at
    ``path`` replaced by a wrong value; ``build`` may raise SusyKitError."""
    names, items, rebuild = entries(value)
    for i, (name, item) in enumerate(zip(names, items)):
        where = f"{path}[{name!r}]"

        def put(x, i=i):
            return rebuild([*items[:i], x, *items[i + 1:]])

        for wrong in NESTED_WRONG:
            yield f"{where}={wrong!r}", lambda put=put, wrong=wrong: put(wrong)
        for deeper, build in nested_copies(item, where):
            yield deeper, lambda put=put, build=build: put(build())


@pytest.mark.parametrize(
    "check, value",
    [
        (validate_graph, G.graph),
        (validate_morphism, H.map),
        (validate_susy_graph, G),
        (validate_curve_config, CONFIG),
        (validate_curve_config, NODAL),
        (validate_susy_morphism, H),
        (validate_signature, SIG),
        (validate_recipe, GLUED),
    ],
    ids=["graph", "morphism", "susy_graph", "curve", "nodal_curve", "susy_morphism",
         "signature", "recipe"],
)
def test_a_wrong_nested_value_is_only_reported(check, value):
    # each validator once hashed a list value, the curve check read the
    # fields of a component or point of the wrong type, and the SUSY
    # morphism check those of an endpoint or map of the wrong type
    assert check(value).ok
    leaks = []
    for path, build in nested_copies(value):
        try:
            report = check(build())
        except SusyKitError:
            continue
        except Exception as exc:
            leaks.append(f"{path}: {type(exc).__name__}: {exc}")
            continue
        if not isinstance(report, ValidationReport):
            leaks.append(f"{path}: returned {report!r}")
    assert leaks == []


def test_a_wrong_nested_value_is_reported_by_position():
    graph = Graph(["a"], ["v"], {"a": "v"}, {"a": "a"})
    unlabeled = replace(POINTS[0], label=[1])
    cases = [
        (validate_curve_config(CurveConfig([5], ())), "component 0: expected a Component, got int"),
        (validate_curve_config(CurveConfig([Component(0, [5, *POINTS])], ())),
         "component 0: point 0: expected a SpecialPoint, got int"),
        (validate_curve_config(CurveConfig([Component(0, [replace(POINTS[0], id=[1])])], ())),
         "component 0: point 0: id must be a string, got [1]"),
        (validate_curve_config(CurveConfig([Component(0, [*POINTS[1:], unlabeled])], ())),
         "component 0: puncture 'p0' has a non-string label"),
        (validate_curve_config(CurveConfig(CONFIG.components, [[1]])),
         "node pairing 0: expected a pair of point ids"),
        (validate_graph(replace(graph, boundary={"a": [1]})), "boundary: values must be strings"),
        (validate_graph(replace(graph, involution={"a": [1]})),
         "involution: values must be strings"),
        (validate_morphism(GraphMorphism(graph, graph, {"a": [1]}, {"v": "v"}, {})),
         "flag_map: values must be strings"),
        (validate_morphism(GraphMorphism(graph, graph, {"a": "a"}, {"v": [1]}, {})),
         "vertex_map: values must be strings"),
        (validate_susy_graph(replace(G, labeling=replace(G.labeling, r_tail_labels={"b1": [1]}))),
         "R tail labeling must be a bijection onto the R tails"),
        (validate_susy_graph(replace(G, labeling=5)), "expected a SusyLabeling, got int"),
        (validate_curve_config(CurveConfig((), ["ab"])),
         "node pairing 0: expected a pair of point ids"),
        (validate_susy_morphism(SusyMorphism(G, G, 5)), "expected a GraphMorphism, got int"),
        (validate_susy_morphism(replace(H, target=[1])), "expected a SusyGraph, got list"),
    ]
    for report, first in cases:
        assert report.violations[0] == first


# Refusals that no other test reaches, each with its whole message.  The
# recipes and curves are built unchecked and their reports raised.
GRAFTED = graft(star(0, 4), [("vn0", "vn1")])
IDENTITY = {label: label for label in sorted(SIG.labels)}
SWAPPED = {"a": "d", "d": "a"}
SMALL = signature([(0, ["a", "b", "c"], []), (1, ["d"], [])])
HALVES = Component(0, (
    *POINTS[:2], SpecialPoint("h", NS, "node-half"), SpecialPoint("k", NS, "node-half"),
))


def recipe_of(source, target, assignment, ns=(), r=(), relabeling=IDENTITY):
    return GluingRecipe(source, target, assignment, ns, r, relabeling)


def curve_of(*punctures):
    """One genus-0 component with the punctures (id, colour, label)."""
    points = tuple(SpecialPoint(i, color, "puncture", label) for i, color, label in punctures)
    return CurveConfig((Component(0, points),), ())


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (contract_edge, (LOOPED, ("vn0", "vn1")),
         "contract_edge: pair is a loop; use contract_loop"),
        (contract_loop, (G, ("p", "q")), "contract_loop: pair is not a loop"),
        (graft, (star(0, 4), [("vn0", "vn1"), ("vn1", "vn2")]),
         "graft: flag reused at ('vn1', 'vn2')"),
        (commute_contractions, (G, ("p", "q"), ("q", "p")), "pairs must be flag-disjoint"),
        (iso_between, (GRAFTED.source, GRAFTED.target, GRAFTED.map.flag_map,
                       GRAFTED.map.vertex_map), "maps describe a grafting, not an isomorphism"),
        (validate_recipe, (recipe_of(SIG, signature(SIG.factors, CLASSICAL), [0, 1]),),
         "invalid argument: source and target modes differ"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 0]),),
         "invalid argument: assignment must be surjective onto the target factors"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 1], [("a", "a")]),),
         "invalid argument: NS gluing ('a', 'a') is degenerate"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 1], [("a", "z")]),),
         "invalid argument: NS gluing mentions unknown label 'z'"),
        (validate_recipe, (recipe_of(
            SIG_R, SIG_R, [0, 1], [("a", "r1")], relabeling={x: x for x in SIG_R.labels},
        ),), "invalid argument: NS gluing uses 'r1' of the wrong color"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 1], [("a", "b"), ("a", "c")]),),
         "invalid argument: label 'a' glued twice"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 1], [("a", "d")]),),
         "invalid argument: glued labels 'a', 'd' land in different target factors"),
        (validate_recipe, (recipe_of(
            SIG, SMALL, [0, 1], relabeling={**{x: x for x in "abcd"}, "e": "d", "f": "d"},
        ),), "invalid argument: relabeling is not injective"),
        (validate_recipe, (recipe_of(SIG, SIG, [0, 1], relabeling=IDENTITY | SWAPPED),),
         "invalid argument: relabeling 'a' -> 'd' lands in the wrong factor; "
         "relabeling 'd' -> 'a' lands in the wrong factor"),
        (lift_count_general, (TREE, LABELS[:2], LABELS[1:]), "partition parts must be disjoint"),
        (lift_count_general, (star(0, 3), LABELS, []),
         "lift_count_general expects the modular (colorless) view"),
        (ContractionPoset.top.fget, (ContractionPoset((), (), (), ()),),
         "poset does not have a unique one-vertex top"),
        (include, (star(0, 3),), "include expects the modular view"),
        (disjoint_union, (TREE, star(0, 3)), "disjoint_union: cannot mix modular and SUSY views"),
        (involution_from_pairs, ([("a", "a")],), "contracted pair ('a', 'a') is degenerate"),
        (involution_from_pairs, ([("a", "b"), ("b", "c")],),
         "flag reused across contracted pairs: 'b'/'c'"),
        (susykit.graphs.compose, (SECOND.map, FIRST.map), "compose: endpoints do not match"),
        (validate_curve_config, (curve_of(("p", NS, "1"), ("q", NS, "2"), ("q", NS, "3")),),
         "invalid argument: component 0: duplicate point id 'q'"),
        (validate_curve_config, (curve_of(("p", NS, "1"), ("q", R, "x"), ("s", R, "x")),),
         "invalid argument: duplicate R label 'x'"),
        (validate_curve_config, (curve_of(("p", NS, "x"), ("q", R, "x"), ("s", R, "y")),),
         "invalid argument: NS and R puncture labels must be disjoint"),
        (validate_curve_config, (CurveConfig((HALVES,), [("h", "h")]),),
         "invalid argument: node pairing ('h', 'h') is degenerate; "
         "unpaired node-halves ['h', 'k']"),
        (validate_curve_config, (CurveConfig((HALVES,), [("h", "k"), ("k", "h")]),),
         "invalid argument: node-half 'k' paired twice; node-half 'h' paired twice"),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_a_refusal_carries_its_whole_message(fn, args, message):
    with pytest.raises(ValidationError) as caught:
        report = fn(*args)
        report.raise_if_invalid("argument")
    assert str(caught.value) == message


def test_a_merged_vertex_name_that_is_taken_is_marked():
    # the contracted edge joins u and v, and the third vertex is named u*v
    g = make_isomorphism(path_graph(), vertex_renaming={"w": "u*v"}).target
    assert contract_edge(g, ("p", "q")).target.vertices == {"u*v", "u*v'"}
    assert merged_vertex_id("u", "v", frozenset({"u*v", "u*v'"})) == "u*v''"


def test_compose_of_graph_morphisms_composes_their_maps():
    assert compose(FIRST.map, SECOND.map) == compose(FIRST, SECOND).map
